"""The ``--jobs`` executors: the shared process pool and the service's
thread/process dispatch of its Monte-Carlo phase.

Streams are keyed on lineage content, not on scheduling, so every
executor and worker count must give answers bit-identical to a serial run.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.datagen.generic import ColumnSpec, TableSpec, generate_database
from repro.relational.database import Database
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.service import AnnotationService, ServiceOptions, process_map

JOIN_SQL = ("SELECT F.key FROM Fact F, Dim D "
            "WHERE F.key = D.key AND F.val * D.ref <= 25")


def _star_database(fact_rows=120, dim_rows=50, null_rate=0.2, seed=3,
                   key_count=25) -> Database:
    schema = DatabaseSchema.of(
        RelationSchema.of("Fact", key="base", val="num"),
        RelationSchema.of("Dim", key="base", ref="num"),
    )
    keys = tuple(f"k{i}" for i in range(key_count))
    specs = {
        "Fact": TableSpec(rows=fact_rows, columns={
            "key": ColumnSpec(choices=keys, null_rate=min(null_rate, 0.1)),
            "val": ColumnSpec(uniform=(0.0, 10.0), null_rate=null_rate),
        }),
        "Dim": TableSpec(rows=dim_rows, columns={
            "key": ColumnSpec(choices=keys, null_rate=min(null_rate, 0.1)),
            "ref": ColumnSpec(uniform=(0.0, 10.0), null_rate=null_rate),
        }),
    }
    return generate_database(schema, specs, rng=seed, backend="columnar")


SRC = Path(__file__).resolve().parent.parent / "src"


class TestBlasThreadDefault:
    """``import repro`` defaults OpenBLAS to one thread, before NumPy loads."""

    @staticmethod
    def _blas_threads_after_import(environment: dict) -> str:
        environment = dict(environment, PYTHONPATH=str(SRC))
        completed = subprocess.run(
            [sys.executable, "-c",
             "import os, repro, numpy; "
             "print(os.environ['OPENBLAS_NUM_THREADS'])"],
            env=environment, capture_output=True, text=True, check=True)
        return completed.stdout.strip()

    def test_unset_variable_defaults_to_one(self):
        environment = {key: value for key, value in os.environ.items()
                       if key != "OPENBLAS_NUM_THREADS"}
        assert self._blas_threads_after_import(environment) == "1"

    def test_a_value_the_user_set_is_kept(self):
        environment = dict(os.environ, OPENBLAS_NUM_THREADS="2")
        assert self._blas_threads_after_import(environment) == "2"


class TestProcessMap:
    def test_preserves_payload_order(self):
        results = process_map(_square, list(range(20)), jobs=2)
        assert results == [value * value for value in range(20)]

    def test_inline_for_single_job(self):
        assert process_map(_square, [3, 4], jobs=1) == [9, 16]

    def test_worker_exception_propagates(self):
        with pytest.raises(ZeroDivisionError):
            process_map(_reciprocal, [1, 0, 2], jobs=2)


def _square(value: int) -> int:
    return value * value


def _reciprocal(value: int) -> float:
    return 1.0 / value


class TestServiceExecutors:
    def test_process_executor_bit_identical(self):
        database = _star_database(null_rate=0.3)
        sql = JOIN_SQL + " LIMIT 15"
        reference = AnnotationService(
            database, ServiceOptions(epsilon=0.25, seed=11)).submit(sql)
        for options in (
                ServiceOptions(epsilon=0.25, seed=11, jobs=2),
                ServiceOptions(epsilon=0.25, seed=11, jobs=2,
                               executor="process"),
        ):
            response = AnnotationService(database, options).submit(sql)
            assert [a.values for a in response.answers] == \
                [a.values for a in reference.answers]
            assert [a.certainty.value for a in response.answers] == \
                [a.certainty.value for a in reference.answers]

    def test_adaptive_process_matches_thread(self):
        database = _star_database(null_rate=0.3)
        sql = JOIN_SQL + " LIMIT 10"
        thread = AnnotationService(database, ServiceOptions(
            epsilon=0.3, seed=2, adaptive=True, jobs=2)).submit(sql)
        process = AnnotationService(database, ServiceOptions(
            epsilon=0.3, seed=2, adaptive=True, jobs=2,
            executor="process")).submit(sql)
        assert [a.certainty.value for a in process.answers] == \
            [a.certainty.value for a in thread.answers]

    def test_unknown_executor_rejected(self):
        database = _star_database(fact_rows=4, dim_rows=2)
        with pytest.raises(ValueError):
            AnnotationService(database, ServiceOptions(executor="fiber"))

    def test_stats_report_backends(self):
        database = _star_database()
        service = AnnotationService(
            database, ServiceOptions(epsilon=0.3, seed=0))
        service.submit(JOIN_SQL + " LIMIT 5")
        service.submit(JOIN_SQL + " LIMIT 5")
        stats = service.stats()
        assert [b.backend for b in stats.backends] == ["columnar"]
        assert stats.backends[0].requests == 2
        assert stats.backends[0].plan_hits == 1
        assert stats.backends[0].plan_misses == 1
        report = stats.report()
        assert "backend" in report and "columnar" in report
        assert stats.as_dict()["backends"][0]["backend"] == "columnar"
