"""Tests for the typed relational model: values, schemas, relations, databases."""

from __future__ import annotations

import pytest

from repro.relational.columnar import ColumnarRelation
from repro.relational.database import Database
from repro.relational.relation import Relation
from repro.relational.schema import DatabaseSchema, RelationSchema, SchemaError
from repro.relational.types import Attribute, AttributeType
from repro.relational.values import (
    BaseNull,
    NullFactory,
    NumNull,
    is_base_constant,
    is_base_null,
    is_null,
    is_num_null,
    is_numeric_constant,
)


class TestValues:
    def test_null_kinds_are_distinct(self):
        base = BaseNull("1")
        num = NumNull("1")
        assert is_base_null(base) and not is_num_null(base)
        assert is_num_null(num) and not is_base_null(num)
        assert is_null(base) and is_null(num)
        assert base != num

    def test_marked_nulls_compare_by_name(self):
        assert BaseNull("a") == BaseNull("a")
        assert NumNull("a") != NumNull("b")
        assert len({NumNull("a"), NumNull("a"), NumNull("b")}) == 2

    def test_numeric_constants_exclude_booleans(self):
        assert is_numeric_constant(3)
        assert is_numeric_constant(2.5)
        assert not is_numeric_constant(True)
        assert not is_numeric_constant("3")

    def test_base_constants(self):
        assert is_base_constant("hello")
        assert not is_base_constant(3.0)
        assert not is_base_constant(BaseNull("x"))
        assert not is_base_constant(["unhashable"])

    def test_null_factory_produces_fresh_names(self):
        factory = NullFactory(prefix="t")
        nulls = {factory.num() for _ in range(10)} | {factory.base() for _ in range(10)}
        assert len(nulls) == 20

    def test_empty_null_name_rejected(self):
        with pytest.raises(ValueError):
            BaseNull("")
        with pytest.raises(ValueError):
            NumNull("")

    def test_num_null_variable_name(self):
        assert NumNull("price").variable == "z_price"


class TestSchemas:
    def test_attribute_constructors(self):
        assert Attribute.base("id").type is AttributeType.BASE
        assert Attribute.num("price").is_numeric

    def test_relation_schema_of(self):
        schema = RelationSchema.of("R", id="base", price="num")
        assert schema.arity == 2
        assert schema.attribute_names == ("id", "price")
        assert schema.numeric_positions() == (1,)
        assert schema.base_positions() == (0,)
        assert schema.position("price") == 1

    def test_relation_schema_validation_errors(self):
        with pytest.raises(SchemaError):
            RelationSchema.of("R")
        with pytest.raises(SchemaError):
            RelationSchema.of("R", a="whatever")
        with pytest.raises(SchemaError):
            RelationSchema(name="R", attributes=(Attribute.base("a"), Attribute.base("a")))
        schema = RelationSchema.of("R", id="base")
        with pytest.raises(SchemaError):
            schema.attribute("missing")

    def test_tuple_validation(self):
        schema = RelationSchema.of("R", id="base", price="num")
        assert schema.validate_tuple(["a", 1.5]) == ("a", 1.5)
        assert schema.validate_tuple([BaseNull("b"), NumNull("p")]) \
            == (BaseNull("b"), NumNull("p"))
        with pytest.raises(SchemaError):
            schema.validate_tuple(["a"])
        with pytest.raises(SchemaError):
            schema.validate_tuple(["a", "not a number"])
        with pytest.raises(SchemaError):
            schema.validate_tuple([1.0, 2.0])
        with pytest.raises(SchemaError):
            schema.validate_tuple([NumNull("x"), 1.0])

    def test_database_schema(self):
        first = RelationSchema.of("R", a="base")
        second = RelationSchema.of("S", b="num")
        schema = DatabaseSchema.of(first, second)
        assert "R" in schema and "S" in schema
        assert len(schema) == 2
        assert schema.relation("R") is first
        with pytest.raises(SchemaError):
            schema.relation("T")
        with pytest.raises(SchemaError):
            DatabaseSchema.of(first, first)
        extended = schema.extend([RelationSchema.of("T", c="base")])
        assert len(extended) == 3
        with pytest.raises(SchemaError):
            extended.extend([first])


class TestRelation:
    def test_insertion_deduplicates_and_keeps_order(self):
        schema = RelationSchema.of("R", a="base", v="num")
        relation = Relation(schema)
        relation.add(("x", 1.0))
        relation.add(("y", 2.0))
        relation.add(("x", 1.0))
        assert len(relation) == 2
        assert relation.tuples() == (("x", 1.0), ("y", 2.0))
        assert ("x", 1.0) in relation

    def test_column_and_null_inventories(self):
        schema = RelationSchema.of("R", a="base", v="num")
        relation = Relation(schema, [("x", NumNull("n1")), (BaseNull("b1"), 2.0)])
        assert relation.column("a") == ("x", BaseNull("b1"))
        assert relation.num_nulls() == {NumNull("n1")}
        assert relation.base_nulls() == {BaseNull("b1")}

    def test_map_values(self):
        schema = RelationSchema.of("R", v="num")
        relation = Relation(schema, [(1.0,), (2.0,)])
        doubled = relation.map_values(lambda value: value * 2)
        assert doubled.tuples() == ((2.0,), (4.0,))

    @pytest.mark.parametrize("relation_class", [Relation, ColumnarRelation])
    def test_contains_normalises_like_add(self, relation_class):
        """Regression: membership goes through validate_tuple normalisation.

        The raw ``tuple(values) in seen`` lookup reported ``(True,)`` as a
        member whenever ``(1,)`` was stored (``hash(True) == hash(1)``) even
        though ``add((True,))`` would raise rather than dedupe -- membership
        and insertion disagreed.  Both backends must agree with ``add``.
        """
        schema = RelationSchema.of("R", a="base", v="num")
        relation = relation_class(schema)
        relation.add(("x", 1))
        with pytest.raises(SchemaError):
            relation.add(("x", True))
        # A tuple that add() would reject is not a member...
        assert ("x", True) not in relation
        # ...nor is anything of the wrong arity (no exception either).
        assert ("x",) not in relation
        assert ("x", 1, 2) not in relation
        # Well-typed tuples still behave as before.
        assert ("x", 1) in relation
        assert ("x", 1.0) in relation
        assert ("y", 1) not in relation


class TestColumnarRelation:
    def test_round_trip_preserves_content_and_order(self):
        schema = RelationSchema.of("R", a="base", v="num")
        rows = [("x", 1.5), (BaseNull("b"), NumNull("n")), ("y", -2.0)]
        relation = Relation(schema, rows)
        columnar = ColumnarRelation.from_relation(relation)
        assert columnar.tuples() == relation.tuples()
        assert columnar.to_relation().tuples() == relation.tuples()
        assert len(columnar) == 3
        assert columnar.column("a") == relation.column("a")
        assert columnar.row(1) == (BaseNull("b"), NumNull("n"))

    def test_add_dedupes_and_interleaves_with_bulk_storage(self):
        schema = RelationSchema.of("R", a="base", v="num")
        columnar = ColumnarRelation.from_rows(schema, [("x", 1.0)])
        columnar.add(("y", 2.0))
        columnar.add(("x", 1.0))     # duplicate of a sealed row
        columnar.add(("y", 2.0))     # duplicate of a buffered row
        assert columnar.tuples() == (("x", 1.0), ("y", 2.0))
        columnar.add(("z", NumNull("n")))
        assert len(columnar) == 3
        assert columnar.num_nulls() == {NumNull("n")}

    def test_from_columns_dedupes_vectorized(self):
        schema = RelationSchema.of("R", a="base", v="num")
        columnar = ColumnarRelation.from_columns(schema, {
            "a": ["x", "y", "x", "x", BaseNull("b")],
            "v": [1.0, 2.0, 1.0, 3.0, NumNull("n")],
        })
        assert columnar.tuples() == (
            ("x", 1.0), ("y", 2.0), ("x", 3.0), (BaseNull("b"), NumNull("n")))

    def test_inventories_match_row_backend(self):
        schema = RelationSchema.of("R", a="base", v="num")
        rows = [("x", 1.0), ("x", NumNull("n")), (BaseNull("b"), 2.0)]
        relation = Relation(schema, rows)
        columnar = ColumnarRelation.from_relation(relation)
        assert columnar.base_constants() == relation.base_constants() == {"x"}
        assert columnar.num_constants() == relation.num_constants() == {1.0, 2.0}
        assert columnar.base_nulls() == relation.base_nulls()
        assert columnar.num_nulls() == relation.num_nulls()

    def test_type_errors_surface_per_column(self):
        schema = RelationSchema.of("R", a="base", v="num")
        with pytest.raises(SchemaError):
            ColumnarRelation.from_columns(schema, {"a": ["x"], "v": ["oops"]})
        with pytest.raises(SchemaError):
            ColumnarRelation.from_columns(schema, {"a": [2.0], "v": [1.0]})
        with pytest.raises(SchemaError):
            ColumnarRelation.from_columns(schema, {"a": ["x", "y"], "v": [1.0]})
        with pytest.raises(SchemaError):
            ColumnarRelation.from_columns(schema, {"a": ["x"]})

    def test_copy_is_independent(self):
        schema = RelationSchema.of("R", a="base", v="num")
        columnar = ColumnarRelation.from_rows(schema, [("x", 1.0)])
        duplicate = columnar.copy()
        duplicate.add(("y", 2.0))
        assert len(columnar) == 1
        assert len(duplicate) == 2


class TestDatabase:
    def test_inventories(self, mixed_database):
        assert mixed_database.base_constants() >= {"pen", "book", "stationery"}
        assert mixed_database.num_constants() == {2.5, 7.0}
        assert mixed_database.base_nulls() == {BaseNull("mystery"), BaseNull("book_tag")}
        assert mixed_database.num_nulls() == {NumNull("book_price")}
        assert not mixed_database.is_complete()

    def test_num_nulls_ordered_is_deterministic(self, mixed_database):
        assert mixed_database.num_nulls_ordered() == (NumNull("book_price"),)

    def test_null_order_follows_an_in_place_add(self, mixed_database):
        assert mixed_database.num_nulls_ordered() == (NumNull("book_price"),)
        mixed_database.add("Items", ("lamp", NumNull("a_lamp")))
        assert mixed_database.num_nulls_ordered() == \
            (NumNull("a_lamp"), NumNull("book_price"))
        order = mixed_database.null_order()
        assert order.variables == ("z_a_lamp", "z_book_price")
        assert order.by_variable == {"z_a_lamp": NumNull("a_lamp"),
                                     "z_book_price": NumNull("book_price")}

    def test_from_dict_and_copy(self, mixed_schema):
        database = Database.from_dict(mixed_schema, {
            "Items": [("pen", 1.0)],
            "Tags": [("pen", "office")],
        })
        assert database.total_tuples() == 2
        duplicate = database.copy()
        duplicate.add("Items", ("book", 2.0))
        assert database.total_tuples() == 2
        assert duplicate.total_tuples() == 3

    def test_unknown_relation_rejected(self, mixed_database):
        with pytest.raises(SchemaError):
            mixed_database.add("Nope", ("a",))
        with pytest.raises(SchemaError):
            mixed_database.relation("Nope")

    def test_relation_names_and_iteration(self, mixed_database):
        assert set(mixed_database.relation_names()) == {"Items", "Tags"}
        assert {relation.name for relation in mixed_database} == {"Items", "Tags"}

    def test_backend_switch_round_trips(self, mixed_database):
        assert mixed_database.backend == "rows"
        columnar = mixed_database.with_backend("columnar")
        assert columnar.backend == "columnar"
        assert columnar.with_backend("columnar") is columnar
        assert columnar.total_tuples() == mixed_database.total_tuples()
        assert columnar.base_constants() == mixed_database.base_constants()
        assert columnar.num_constants() == mixed_database.num_constants()
        assert columnar.num_nulls_ordered() == mixed_database.num_nulls_ordered()
        back = columnar.with_backend("rows")
        for name in mixed_database.relation_names():
            assert back.relation(name).tuples() == \
                mixed_database.relation(name).tuples()

    def test_install_relation_validates_schema_and_backend(self, mixed_schema):
        columnar = Database(mixed_schema, backend="columnar")
        bulk = ColumnarRelation.from_columns(
            mixed_schema.relation("Items"), {"name": ["pen"], "price": [1.0]})
        columnar.install_relation(bulk)
        assert columnar.relation("Items").tuples() == (("pen", 1.0),)
        with pytest.raises(SchemaError):
            columnar.install_relation(ColumnarRelation(
                RelationSchema.of("Nope", a="base")))
        with pytest.raises(SchemaError):
            columnar.install_relation(ColumnarRelation(
                RelationSchema.of("Items", name="base", price="base")))
        with pytest.raises(SchemaError):
            columnar.install_relation(Relation(mixed_schema.relation("Items")))

    def test_backend_validation_and_copy(self, mixed_schema, mixed_database):
        with pytest.raises(SchemaError):
            Database(mixed_schema, backend="arrow")
        with pytest.raises(SchemaError):
            mixed_database.with_backend("arrow")
        columnar = mixed_database.with_backend("columnar")
        duplicate = columnar.copy()
        duplicate.add("Items", ("pencil", 0.5))
        assert duplicate.backend == "columnar"
        assert columnar.total_tuples() == mixed_database.total_tuples()
        assert duplicate.total_tuples() == columnar.total_tuples() + 1
