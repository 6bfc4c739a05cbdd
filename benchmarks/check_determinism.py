#!/usr/bin/env python
"""Flaky-test detector: a seeded process-parallel workload must be
bit-reproducible.

Process-parallel execution is exactly the kind of change that introduces
nondeterminism quietly -- scheduling-order dependence, hash-salted dict
iteration, worker-local RNG state.  This script runs a fixed, seeded
workload through the full stack (columnar generation and enumeration,
process-pool Monte-Carlo estimates, adaptive refinement) and folds
everything observable -- answer values, witness order, lineage digests,
certainty floats at full precision -- into one SHA-256 digest.

Two modes:

* default: run the workload twice **in this process** (fresh services,
  fresh caches each time) and fail on any digest mismatch;
* ``--digest-only``: print the digest and exit.  The nightly CI job runs
  this twice in *separate interpreters with different ``PYTHONHASHSEED``
  values* and diffs the outputs, which catches hash-randomisation
  dependence that an in-process repeat cannot.

Exit code 0 means reproducible; 1 means a diff was found (the diff is
printed per workload step).
"""

from __future__ import annotations

import argparse
import hashlib

from repro.compile import configure_compile_cache
from repro.datagen.generic import ColumnSpec, TableSpec, generate_database
from repro.engine.candidates import enumerate_candidates
from repro.engine.sql.parser import parse_sql
from repro.relational.schema import DatabaseSchema, RelationSchema
from repro.service import AnnotationService, ServiceOptions, shutdown_pools
from repro.service.canonical import canonicalise

#: The workload: two equi-joins and a scan, served with process-parallel
#: estimation at a fixed seed.
QUERIES = (
    ("join", "SELECT F.key FROM Fact F, Dim D "
             "WHERE F.key = D.key AND F.val * D.ref <= 30 LIMIT 40"),
    ("scan", "SELECT F.key FROM Fact F WHERE F.val <= 6 LIMIT 40"),
    ("theta", "SELECT F.key FROM Fact F, Dim D "
              "WHERE F.key = D.key AND F.val - D.ref < 1.5 LIMIT 40"),
)


def build_database():
    schema = DatabaseSchema.of(
        RelationSchema.of("Fact", key="base", val="num"),
        RelationSchema.of("Dim", key="base", ref="num"),
    )
    keys = tuple(f"k{i}" for i in range(200))
    specs = {
        "Fact": TableSpec(rows=3000, columns={
            "key": ColumnSpec(choices=keys, null_rate=0.05),
            "val": ColumnSpec(uniform=(0.0, 10.0), null_rate=0.15),
        }),
        "Dim": TableSpec(rows=800, columns={
            "key": ColumnSpec(choices=keys, null_rate=0.05),
            "ref": ColumnSpec(uniform=(0.0, 10.0), null_rate=0.15),
        }),
    }
    return generate_database(schema, specs, rng=20200614, backend="columnar")


def run_workload() -> dict[str, str]:
    """One cold pass over the workload; per-step hex digests."""
    configure_compile_cache(clear=True)
    database = build_database()
    service = AnnotationService(database, ServiceOptions(
        epsilon=0.25, seed=97, jobs=2))
    adaptive_service = AnnotationService(database, ServiceOptions(
        epsilon=0.25, seed=97, jobs=2, adaptive=True))
    digests: dict[str, str] = {}
    for name, sql in QUERIES:
        for mode, server in (("single", service), ("adaptive", adaptive_service)):
            feed = hashlib.sha256()
            for answer in server.annotate(sql):
                feed.update(repr(answer.values).encode())
                feed.update(str(answer.witnesses).encode())
                feed.update(answer.certainty.value.hex().encode())
            digests[f"{name}/{mode}"] = feed.hexdigest()
        # Lineage is not carried on served answers, so digest it at the
        # enumeration level, recomputed rather than taken from the lineage.
        feed = hashlib.sha256()
        for candidate in enumerate_candidates(parse_sql(sql), database):
            lineage = candidate.lineage
            digest = canonicalise(lineage.formula,
                                  lineage.relevant_variables).digest
            if lineage.digest != digest:
                raise AssertionError(
                    f"{name}: a lineage carries digest {lineage.digest!r}, "
                    f"its formula digests to {digest!r}")
            feed.update(repr(candidate.values).encode())
            feed.update(str(candidate.witnesses).encode())
            feed.update(digest)
        digests[f"{name}/lineage"] = feed.hexdigest()
    return digests


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--digest-only", action="store_true",
                        help="print one digest per workload step and exit "
                             "(for cross-process diffing)")
    args = parser.parse_args()

    first = run_workload()
    if args.digest_only:
        for step in sorted(first):
            print(f"{step} {first[step]}")
        shutdown_pools()
        return 0

    second = run_workload()
    shutdown_pools()
    diffs = [step for step in sorted(first) if first[step] != second[step]]
    for step in sorted(first):
        marker = "DIFF" if step in diffs else "ok"
        print(f"{step:<16} {first[step][:16]}  {second[step][:16]}  {marker}")
    if diffs:
        print(f"NONDETERMINISM: {len(diffs)} workload step(s) changed "
              "between identical seeded runs")
        return 1
    print("deterministic: two seeded runs agree bit for bit")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
