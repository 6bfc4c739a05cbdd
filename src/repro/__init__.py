"""repro: queries with arithmetic on incomplete databases.

A from-scratch reproduction of Console, Hofer and Libkin, *Queries with
Arithmetic on Incomplete Databases* (PODS 2020).  The library provides:

* a typed relational model with marked nulls (:mod:`repro.relational`);
* the two-sorted query language FO(+,·,<) (:mod:`repro.logic`);
* the measure of certainty ``mu(q, D, t)`` with exact, multiplicative
  (FPRAS) and additive (AFPRAS) computation backends
  (:mod:`repro.certainty`);
* an end-to-end SQL-style engine that annotates query answers with their
  confidence (:mod:`repro.engine`);
* synthetic data generators reproducing the paper's workloads
  (:mod:`repro.datagen`) and executable versions of its hardness reductions
  (:mod:`repro.hardness`).

Quickstart::

    from repro import certainty, Database, DatabaseSchema, RelationSchema, NumNull
    from repro.logic import num_var, exists, rel, Query

    schema = DatabaseSchema.of(RelationSchema.of("R", x="num", y="num"))
    db = Database(schema)
    db.add("R", (NumNull("a"), NumNull("b")))

    x, y = num_var("x"), num_var("y")
    q = Query(head=(), body=exists([x, y], rel("R", x, y) & (x > y)))
    print(certainty(q, db).value)   # ~0.5
"""

import os

# The Monte-Carlo kernels issue many small matrix products; OpenBLAS
# spreading each one over every core spends more in thread hand-off and
# spinning than it gains.  One BLAS thread is the default, set before the
# first import below pulls in NumPy; a value the user set is kept.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from repro.certainty import CertaintyResult, certainty, certainty_from_translation
from repro.constraints.translate import TranslationResult, translate
from repro.logic.formulas import Query
from repro.relational import (
    Attribute,
    AttributeType,
    BaseNull,
    Database,
    DatabaseSchema,
    NumNull,
    Relation,
    RelationSchema,
    Valuation,
)

#: Single source of truth for the package version: the build backend reads
#: this attribute (``[tool.setuptools.dynamic]`` in pyproject.toml), and
#: :func:`package_version` serves it at runtime.
__version__ = "0.7.0"


def package_version() -> str:
    """The installed package's version (falls back to :data:`__version__`).

    Prefers :mod:`importlib.metadata` so an installed wheel reports the
    version it was built with; source checkouts (no distribution metadata)
    fall back to the in-tree attribute, which is the same value.
    """
    try:
        from importlib.metadata import version
        return version("repro")
    except Exception:
        return __version__


__all__ = [
    "Attribute",
    "AttributeType",
    "BaseNull",
    "CertaintyResult",
    "Database",
    "DatabaseSchema",
    "NumNull",
    "Query",
    "Relation",
    "RelationSchema",
    "TranslationResult",
    "Valuation",
    "__version__",
    "certainty",
    "certainty_from_translation",
    "package_version",
    "translate",
]
