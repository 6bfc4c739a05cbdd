"""Unit tests for the network wire protocol (no sockets involved)."""

from __future__ import annotations

import json
import math
from dataclasses import replace

import pytest

from repro.certainty.result import CertaintyResult
from repro.server.protocol import (
    MAX_LINE_BYTES,
    EncodedAnswers,
    OverloadError,
    ProtocolError,
    decode_answer,
    decode_certainty,
    decode_value,
    dump_line,
    encode_answer,
    encode_certainty,
    encode_value,
    load_line,
    parse_query_request,
    request_key,
    result_event,
    sanitize,
)
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.service import AnnotationService, RequestStats, ServiceResponse
from repro.service.answers import AnnotatedAnswer
from repro.service.service import AnswerMemo, AnswerSlot, _PlanEntry
from repro.relational.values import BaseNull, NumNull

DEFAULTS = {"epsilon": 0.05, "delta": 0.05, "method": "afpras",
            "limit": None, "seed": 0, "adaptive": False}


class TestParseQueryRequest:
    def test_resolves_defaults(self):
        sql, options = parse_query_request({"sql": "SELECT * FROM T"}, DEFAULTS)
        assert sql == "SELECT * FROM T"
        assert options == DEFAULTS

    def test_supplied_options_override_defaults(self):
        _, options = parse_query_request(
            {"sql": "SELECT * FROM T",
             "options": {"epsilon": 0.2, "limit": 5, "adaptive": True}},
            DEFAULTS)
        assert options["epsilon"] == 0.2
        assert options["limit"] == 5
        assert options["adaptive"] is True
        assert options["method"] == "afpras"

    def test_accepts_query_alias(self):
        sql, _ = parse_query_request({"query": "SELECT 1 FROM T"}, DEFAULTS)
        assert sql == "SELECT 1 FROM T"

    @pytest.mark.parametrize("message", [
        {}, {"sql": ""}, {"sql": "   "}, {"sql": 7},
        {"sql": "SELECT * FROM T", "options": "not an object"},
        {"sql": "SELECT * FROM T", "options": {"jobs": 4}},
        {"sql": "SELECT * FROM T", "options": {"epsilon": 0.0}},
        {"sql": "SELECT * FROM T", "options": {"epsilon": 2.0}},
        {"sql": "SELECT * FROM T", "options": {"epsilon": True}},
        {"sql": "SELECT * FROM T", "options": {"delta": 1.5}},
        {"sql": "SELECT * FROM T", "options": {"method": "magic"}},
        {"sql": "SELECT * FROM T", "options": {"limit": -1}},
        {"sql": "SELECT * FROM T", "options": {"limit": 2.5}},
        {"sql": "SELECT * FROM T", "options": {"seed": -3}},
        {"sql": "SELECT * FROM T", "options": {"adaptive": "yes"}},
        {"sql": "SELECT * FROM T", "options": {"planner": "auto"}},
    ])
    def test_rejects_malformed_requests(self, message):
        with pytest.raises(ProtocolError) as excinfo:
            parse_query_request(message, DEFAULTS)
        assert excinfo.value.code == "bad_request"

    def test_overload_error_is_typed(self):
        event = OverloadError("full").as_event("req-1")
        assert event == {"id": "req-1", "type": "error", "code": "overloaded",
                         "message": "full"}


class TestResultEvent:
    def test_result_event_carries_the_request_stats(self):
        schema = DatabaseSchema.of(RelationSchema.of("T", key="base", x="num"))
        database = Database.from_dict(schema, {"T": [
            ("a", NumNull("n0")), ("b", NumNull("n1")), ("c", 1.0)]})
        response = AnnotationService(database, epsilon=0.2).submit(
            "SELECT T.key FROM T WHERE T.x * 2 <= 5", seed=5)
        stats = result_event("r1", response)["stats"]
        assert stats == {
            "candidates": response.stats.candidates,
            "groups": response.stats.groups,
            "groups_from_cache": response.stats.groups_from_cache,
            "groups_computed": response.stats.groups_computed,
            "tuples_batched": response.stats.tuples_batched,
            "elapsed_seconds": response.stats.elapsed_seconds}


class TestRequestKey:
    def test_whitespace_insensitive(self):
        assert request_key("SELECT  *\nFROM T", DEFAULTS) == \
            request_key("SELECT * FROM T", DEFAULTS)

    def test_explicit_default_equals_omitted(self):
        _, resolved_a = parse_query_request({"sql": "SELECT * FROM T"}, DEFAULTS)
        _, resolved_b = parse_query_request(
            {"sql": "SELECT * FROM T", "options": {"epsilon": 0.05}}, DEFAULTS)
        assert request_key("SELECT * FROM T", resolved_a) == \
            request_key("SELECT * FROM T", resolved_b)

    def test_distinct_options_distinct_keys(self):
        other = dict(DEFAULTS, epsilon=0.2)
        assert request_key("SELECT * FROM T", DEFAULTS) != \
            request_key("SELECT * FROM T", other)

    def test_distinct_sql_distinct_keys(self):
        assert request_key("SELECT a FROM T", DEFAULTS) != \
            request_key("SELECT b FROM T", DEFAULTS)

    def test_whitespace_inside_string_literals_is_significant(self):
        """Regression: ``'a  b'`` and ``'a b'`` are different queries and
        must never coalesce onto one flight."""
        assert request_key("SELECT x FROM T WHERE s = 'a  b'", DEFAULTS) != \
            request_key("SELECT x FROM T WHERE s = 'a b'", DEFAULTS)

    def test_whitespace_outside_literals_still_collapses(self):
        assert request_key("SELECT x\n   FROM T WHERE s = 'a  b'", DEFAULTS) == \
            request_key("SELECT x FROM T WHERE s = 'a  b'", DEFAULTS)


class TestNormaliseSql:
    def test_collapses_outside_literals_only(self):
        from repro.service.service import normalise_sql
        assert normalise_sql("SELECT  a\nFROM T") == "SELECT a FROM T"
        assert normalise_sql("WHERE s = 'a  b'  AND t") != \
            normalise_sql("WHERE s = 'a b'  AND t")
        assert normalise_sql("WHERE s =\n'a  b' AND  t") == \
            normalise_sql("WHERE s = 'a  b' AND t")

    def test_escaped_quotes_stay_inside_the_literal(self):
        from repro.service.service import normalise_sql
        # '' escapes a quote, so the literal runs to the final quote; the
        # doubled spaces inside must survive.
        sql = "WHERE s = 'it''s  fine' AND t"
        assert "it''s  fine" in normalise_sql(sql)


class TestValueCodec:
    @pytest.mark.parametrize("value", ["plain", 3, 2.75, True, None])
    def test_constants_roundtrip(self, value):
        assert decode_value(encode_value(value)) == value

    def test_nulls_roundtrip(self):
        assert decode_value(encode_value(NumNull("x1"))) == NumNull("x1")
        assert decode_value(encode_value(BaseNull("b2"))) == BaseNull("b2")

    def test_floats_roundtrip_bit_exactly_through_json(self):
        value = 0.1 + 0.2  # not representable prettily; repr round-trips
        wire = json.loads(json.dumps(encode_value(value)))
        assert decode_value(wire) == value


class TestSanitize:
    def test_numpy_scalars_and_arrays(self):
        numpy = pytest.importorskip("numpy")
        payload = {"a": numpy.float64(0.5), "b": numpy.int32(3),
                   "c": numpy.arange(3), "d": [numpy.float32(1.5)]}
        clean = sanitize(payload)
        assert clean == {"a": 0.5, "b": 3, "c": [0, 1, 2], "d": [1.5]}
        json.dumps(clean)  # must be JSON-serialisable

    def test_bytes_become_hex(self):
        assert sanitize(b"\x00\xff") == "00ff"

    def test_unknown_objects_become_strings(self):
        class Odd:
            def __repr__(self):
                return "odd!"
        assert sanitize({1: Odd()}) == {"1": "odd!"}


class TestAnswerCodec:
    def _answer(self) -> AnnotatedAnswer:
        certainty = CertaintyResult(
            value=0.625, method="afpras", guarantee="additive",
            epsilon=0.05, delta=0.01, samples=1234, dimension=7,
            relevant_dimension=2,
            details={"interval": [0.6, 0.65], "note": "x"})
        return AnnotatedAnswer(
            values=("seg1", 4, NumNull("n3")), columns=("a", "b", "c"),
            certainty=certainty, witnesses=2, lineage_digest=b"\x01" * 32)

    def test_roundtrip_through_json(self):
        answer = self._answer()
        wire = json.loads(json.dumps(encode_answer(answer)))
        decoded = decode_answer(wire)
        assert decoded.values == answer.values
        assert decoded.columns == answer.columns
        assert decoded.witnesses == answer.witnesses
        assert decoded.lineage_digest == answer.lineage_digest
        assert decoded.certainty.value == answer.certainty.value
        assert decoded.certainty.epsilon == answer.certainty.epsilon
        assert decoded.certainty.samples == answer.certainty.samples
        assert decoded.certainty.interval() == answer.certainty.interval()
        assert decoded.certainty.details["interval"] == [0.6, 0.65]

    def test_certainty_interval_preserved_on_wire(self):
        wire = encode_certainty(self._answer().certainty)
        low, high = wire["interval"]
        assert math.isclose(low, 0.575) and math.isclose(high, 0.675)
        assert decode_certainty(wire).interval() == (low, high)

    def test_decoded_certainty_is_the_constructed_one(self):
        certainty = self._answer().certainty
        decoded = decode_certainty(json.loads(json.dumps(
            encode_certainty(certainty))))
        assert decoded == certainty
        assert repr(decoded) == repr(certainty)
        with pytest.raises(AttributeError):
            decoded.value = 0.5  # still frozen

    def test_decoded_certainty_keeps_the_range_check_and_clamp(self):
        wire = encode_certainty(self._answer().certainty)
        assert decode_certainty({**wire, "value": 1.0 + 1e-12}).value == 1.0
        assert type(decode_certainty({**wire, "value": 0}).value) is float
        for outside in (1.01, -0.01):
            with pytest.raises(ValueError, match="must be in"):
                decode_certainty({**wire, "value": outside})
        with pytest.raises(TypeError):
            decode_certainty({**wire, "stray": 1})


class TestFraming:
    def test_dump_load_roundtrip(self):
        message = {"op": "query", "id": 7, "sql": "SELECT ⊤ FROM T"}
        assert load_line(dump_line(message)) == message

    def test_load_rejects_garbage(self):
        with pytest.raises(ProtocolError):
            load_line(b"not json\n")
        with pytest.raises(ProtocolError):
            load_line(b"[1, 2, 3]\n")

    def test_line_limit_is_generous(self):
        assert MAX_LINE_BYTES >= 1024 * 1024


def _plain_line(event: dict) -> bytes:
    """``event`` fully materialised (plain answer list) and encoded the
    way the wire always encoded it, without any splice."""
    plain = dict(event, answers=[dict(answer) for answer in event["answers"]])
    return (json.dumps(plain, separators=(",", ":"), ensure_ascii=False)
            + "\n").encode("utf-8")


def _awkward_answer(index: int) -> AnnotatedAnswer:
    """An answer whose wire form exercises escapes, nulls and floats."""
    certainty = CertaintyResult(
        value=0.1 + 0.2, method="afpras", guarantee="additive",
        epsilon=1e-7, delta=5e-324, samples=10 ** 17, dimension=3,
        relevant_dimension=1,
        details={"névé": "⊤ quoted \"x\" and \\ tab\t", "bound": float("inf"),
                 "trace": [1e16, -0.0, 1.7976931348623157e308, 2.5e-8],
                 "digest": b"\x00\xff"})
    return AnnotatedAnswer(
        values=(f"ünïcödé-{index} 数据", NumNull(f"n{index}"),
                BaseNull(f"b{index}"), 123456789.00000001, -0.0, True, None),
        columns=("名前", "x", "seg", "rrp", "dis", "flag", "none"),
        certainty=certainty, witnesses=index, lineage_digest=bytes([index]) * 32)


def _served(answers) -> ServiceResponse:
    """A response reusing an answer memo, as ``submit`` returns it; the
    answers stand in for the plan's candidates."""
    answers = tuple(answers)
    results = tuple(answer.certainty for answer in answers)
    memo = AnswerMemo(_PlanEntry(answers, (), ()), results, 3,
                      tuple(AnswerSlot(answer.certainty, answer.lineage_digest)
                            for answer in answers), {})
    stats = RequestStats(candidates=len(answers), groups=len(answers),
                         groups_from_cache=0, groups_computed=len(answers),
                         tuples_batched=0, elapsed_seconds=1.0000000000000002e-05,
                         seed_entropy=0)
    return ServiceResponse(stats=stats, memo=memo, served=memo)


class TestSplicedResultLines:
    """``dump_line`` splices a result's cached answer JSON; the line must
    equal a plain ``json.dumps`` of the fully materialised event."""

    @pytest.mark.parametrize("request_id",
                             [None, 7, 'q"1\\ ⊤:ünï "quoted"'])
    @pytest.mark.parametrize("trace_id",
                             [None, "4bf92f3577b34da6a3ce929d0e0e4736"])
    def test_awkward_answers_splice_byte_identically(self, request_id,
                                                     trace_id):
        event = result_event(request_id,
                             _served(_awkward_answer(i) for i in range(3)))
        if trace_id is not None:
            event["trace_id"] = trace_id
        assert type(event["answers"]) is EncodedAnswers
        line = dump_line(event)
        assert line == _plain_line(event)
        decoded = load_line(line)
        assert decoded["id"] == request_id
        assert decoded.get("trace_id") == trace_id
        assert decode_answer(decoded["answers"][0]).values[1:3] == \
            (NumNull("n0"), BaseNull("b0"))
        # The cached bytes serve the next line too.
        assert event["answers"].wire is not None
        assert dump_line(event) == line

    def test_empty_answer_list(self):
        event = result_event(3, _served(()))
        assert event["answers"] == []
        assert dump_line(event) == _plain_line(event)

    def test_cold_and_warm_requests_of_one_query(self):
        schema = DatabaseSchema.of(RelationSchema.of("T", key="base", x="num"))
        database = Database.from_dict(schema, {"T": [
            ("ä", NumNull("n0")), ("b\"", NumNull("n1")), ("c", 1.0)]})
        service = AnnotationService(database, epsilon=0.2, seed=5)
        sql = "SELECT T.key FROM T WHERE T.x * 2 <= 5"
        cold, warm, warmer = (service.submit(sql) for _ in range(3))
        assert cold.stats.groups_computed and not warm.stats.groups_computed
        assert cold.memo is None and warm.memo is warmer.memo is not None
        assert warm.answers is cold.answers
        cold_event = result_event(1, cold)
        warm_event = dict(result_event("wärm", warm), trace_id="ab" * 16)
        warmer_event = result_event(None, warmer)
        assert warmer_event["answers"] is warm_event["answers"]
        for event in (cold_event, warm_event, warmer_event, warm_event):
            assert dump_line(event) == _plain_line(event)
        assert cold_event["answers"] == warm_event["answers"] == \
            [encode_answer(answer) for answer in warm.answers]

    def test_rebuilt_response_is_encoded_from_its_own_answers(self):
        response = _served([_awkward_answer(1)])
        result_event(1, response)  # fills the memo's encoding
        other = replace(response, answers=(_awkward_answer(2),))
        event = result_event(2, other)
        assert event["answers"] == [encode_answer(_awkward_answer(2))]
        assert dump_line(event) == _plain_line(event)
