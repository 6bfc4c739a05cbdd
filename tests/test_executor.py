"""The ``--jobs`` executor: the shared process pool and the service's
inline/process dispatch of its Monte-Carlo phase.

Streams are keyed on lineage content, not on scheduling, so every worker
count must give answers bit-identical to a serial run.
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
from repro.service import executor

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


class TestLazyScipy:
    """``import repro.cli`` leaves ``scipy.optimize`` unloaded: only the
    cone interior-point check needs it, and it imports it on first use."""

    def test_cli_import_leaves_scipy_optimize_unloaded(self):
        completed = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; "
             "print('scipy.optimize' in sys.modules)"],
            env=dict(os.environ, PYTHONPATH=str(SRC)),
            capture_output=True, text=True, check=True)
        assert completed.stdout.strip() == "False"


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
        response = AnnotationService(database, ServiceOptions(
            epsilon=0.25, seed=11, jobs=2)).submit(sql, trace=True)
        assert [span.attributes.get("mode") for span in response.trace.spans
                if span.name == "estimate"] == ["process"]
        assert [a.values for a in response.answers] == \
            [a.values for a in reference.answers]
        assert [a.certainty for a in response.answers] == \
            [a.certainty for a in reference.answers]

    def test_adaptive_process_matches_inline(self):
        database = _star_database(null_rate=0.3)
        sql = JOIN_SQL + " LIMIT 10"
        inline = AnnotationService(database, ServiceOptions(
            epsilon=0.3, seed=2, adaptive=True)).submit(sql)
        process = AnnotationService(database, ServiceOptions(
            epsilon=0.3, seed=2, adaptive=True, jobs=2)).submit(sql)
        assert [a.certainty for a in process.answers] == \
            [a.certainty for a in inline.answers]

    def test_streaming_request_runs_inline(self, monkeypatch):
        """``jobs=2`` with an ``on_update`` callback creates no process pool,
        streams every rung of every group, and answers like ``jobs=1``."""
        database = _star_database(null_rate=0.3)
        sql = JOIN_SQL + " LIMIT 10"

        def streamed(jobs: int):
            log: list = []
            response = AnnotationService(database, ServiceOptions(
                epsilon=0.05, seed=2, adaptive=True, jobs=jobs)).submit(
                    sql, on_update=lambda group, update: log.append(
                        (group.canonical.digest, update)))
            return response, log

        serial, serial_log = streamed(jobs=1)
        executor.shutdown_pools()
        monkeypatch.setattr(executor, "_shared_pool", _no_pool)
        parallel, parallel_log = streamed(jobs=2)
        assert executor._pool is None
        assert parallel_log == serial_log
        assert [a.certainty for a in parallel.answers] == \
            [a.certainty for a in serial.answers]
        # Every rung of every group reached the callback, the final last.
        for answer in parallel.answers:
            updates = [update for digest, update in parallel_log
                       if digest == answer.lineage_digest]
            ladder = answer.certainty.details["adaptive"]
            assert [update.value for update in updates] == \
                [stage["value"] for stage in ladder]
            assert [update.final for update in updates] == \
                [False] * (len(ladder) - 1) + [True]
        assert any(len(answer.certainty.details["adaptive"]) > 1
                   for answer in parallel.answers)

    def test_unknown_executor_rejected(self):
        database = _star_database(fact_rows=4, dim_rows=2)
        for executor_name in ("thread", "process"):
            with pytest.raises(TypeError, match="executor"):
                ServiceOptions(executor=executor_name)
            with pytest.raises(TypeError, match="executor"):
                AnnotationService(database, executor=executor_name)


def _no_pool(workers: int):
    raise AssertionError("a streaming request must not create a process pool")
