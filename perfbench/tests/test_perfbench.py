"""Tests of the benchmark's own machinery (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import hostprobe, procstat  # noqa: E402
from perfbench.drive import Outcome, Phase, block_ranges  # noqa: E402
from perfbench.reference import check, default_service  # noqa: E402
from perfbench.stats import (  # noqa: E402
    MIN_TAIL_SAMPLES,
    nearest_rank,
    samples_beyond,
    tail_percentile,
)
from perfbench.workloads import MIN_READS, build_plan, workload_names  # noqa: E402


# -- the percentile rule -----------------------------------------------------


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.90) == MIN_TAIL_SAMPLES
    assert tail_percentile(list(range(1, 101)), 0.90) == 90
    with pytest.raises(ValueError, match="at least 10"):
        tail_percentile(list(range(1, 100)), 0.90)


def test_nearest_rank_is_an_observed_sample():
    samples = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert nearest_rank(samples, 0.5) == 3.0
    assert nearest_rank(samples, 1.0) == 5.0
    assert nearest_rank(samples, 0.01) == 1.0


# -- operation sequences -----------------------------------------------------


@pytest.mark.parametrize("name", workload_names())
def test_same_seed_gives_the_identical_sequence(name):
    first, again = build_plan(name, 7, 3), build_plan(name, 7, 3)
    assert first == again
    other = build_plan(name, 8, 3)
    assert other.measured != first.measured


@pytest.mark.parametrize("name", workload_names())
def test_sequences_are_whole_cycles_with_enough_reads(name):
    plan = build_plan(name, 3, 1)
    reads = sum(op.kind == "read" for op in plan.measured)
    assert reads >= MIN_READS
    assert len(plan.measured) % plan.cycle == 0
    assert len(build_plan(name, 3, 4).measured) >= len(plan.measured)


def test_write_mix_cycle_restores_the_table():
    plan = build_plan("write_mix", 5, 1)
    inserted = [op.sql.split("'")[1] for op in plan.measured
                if op.sql.startswith("INSERT")]
    deleted = [op.sql.split("'")[1] for op in plan.measured
               if op.sql.startswith("DELETE")]
    assert inserted == deleted and len(set(inserted)) == 1
    assert len(set(plan.measured[:plan.cycle] * (len(plan.measured) // plan.cycle))
               ) == len(set(plan.measured))
    assert plan.measured == plan.measured[:plan.cycle] * (len(plan.measured) // plan.cycle)


def test_blocks_are_whole_cycles():
    chunks = block_ranges(36, 3, 5)
    assert [len(chunk) for chunk in chunks] == [6, 6, 9, 6, 9]
    assert chunks[0].start == 0 and chunks[-1].stop == 36
    assert all(chunk.start % 3 == 0 for chunk in chunks)
    assert block_ranges(6, 3, 16) == [range(0, 3), range(3, 6)]


def test_phase_rates_cover_every_block():
    blocks = block_ranges(40, 2, 4)
    phase = Phase([None] * 40, blocks, walls=[1.0, 2.0, 0.5, 1.5])
    assert phase.wall == pytest.approx(5.0)
    assert phase.block_rates() == pytest.approx([10.0, 5.0, 20.0, 20 / 3])


# -- /proc accounting --------------------------------------------------------


def test_parse_stat_survives_spaces_and_parentheses_in_the_name():
    text = ("4242 (repro (srv) 1) S 17 4242 17 0 -1 4194560 900 0 0 0 "
            "153 47 0 0 20 0 5 0 100 1000 200\n")
    fields = procstat.parse_stat(text)
    assert fields == {"state": "S", "ppid": 17, "utime": 153, "stime": 47}


def test_parse_vmhwm():
    text = "Name:\tpython3\nVmPeak:\t  200000 kB\nVmHWM:\t   99316 kB\nVmRSS:\t 1 kB\n"
    assert procstat.parse_vmhwm_kib(text) == 99316
    with pytest.raises(ValueError):
        procstat.parse_vmhwm_kib("Name:\tx\n")


def test_cpu_accounting_sums_ticks_and_rejects_lost_processes():
    before = {1: 100, 2: 50}
    after = {1: 150, 2: 60, 3: 40}
    assert procstat.cpu_seconds_between(before, after) == \
        pytest.approx(100 / procstat.CLOCK_TICKS)
    with pytest.raises(RuntimeError):
        procstat.cpu_seconds_between(before, {1: 150})


def test_descendants_and_live_readings_of_a_real_child():
    child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
    try:
        deadline = time.monotonic() + 10
        while child.pid not in procstat.descendants(procstat.os.getpid()):
            assert time.monotonic() < deadline
            time.sleep(0.01)
        assert procstat.alive(child.pid)
        assert procstat.peak_rss_mib([child.pid]) > 1.0
        assert child.pid in procstat.cpu_ticks([child.pid])
    finally:
        child.kill()
        child.wait()
    assert not procstat.alive(child.pid)


# -- host speed --------------------------------------------------------------


def test_host_factor_is_the_median_probe_over_the_reference():
    reference = hostprobe.REFERENCE_PROBE_MS
    assert hostprobe.host_factor([reference]) == pytest.approx(1.0)
    probes = [reference, 3 * reference, 2 * reference, 100 * reference, reference]
    assert hostprobe.host_factor(probes) == pytest.approx(2.0)


def test_each_interval_takes_the_mean_of_the_probes_around_it():
    reference = hostprobe.REFERENCE_PROBE_MS
    probes = [reference, 3 * reference, 2 * reference]
    assert hostprobe.interval_factors(probes) == pytest.approx([2.0, 2.5])
    assert hostprobe.interval_factors([reference]) == []


def test_pinning_restricts_the_process_and_its_children_to_one_cpu():
    code = ("import os, subprocess, sys; from perfbench import hostprobe; "
            "cpu = hostprobe.pin_to_one_cpu(); "
            "child = subprocess.run([sys.executable, '-c', "
            "'import os; print(sorted(os.sched_getaffinity(0)))'], "
            "capture_output=True, text=True, check=True).stdout.strip(); "
            "print(cpu, sorted(os.sched_getaffinity(0)), child)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True).stdout.split(maxsplit=1)
    cpu = int(out[0])
    assert cpu == min(procstat.os.sched_getaffinity(0))
    assert out[1].strip() == f"[{cpu}] [{cpu}]"


# -- the correctness gate ----------------------------------------------------


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    from repro.datagen.experiments import ExperimentScale, generate_sales_database
    from repro.relational.csv_io import save_database

    directory = tmp_path_factory.mktemp("sales")
    save_database(generate_sales_database(ExperimentScale.tiny(), rng=3), directory)
    return directory


def _served(service, ops):
    """Outcomes as a faithful server would produce them."""
    outcomes = []
    for op in ops:
        if op.kind == "read":
            result = service.submit(op.sql, **op.request_options())
        else:
            result = service.mutate(op.sql)
        outcomes.append(Outcome(op, 0.001, result=result))
    return outcomes


def test_reference_accepts_faithful_answers_and_flags_corrupted_ones(tiny_data):
    plan = build_plan("write_mix", 1, 1)
    ops = plan.warmup + plan.measured[:2 * plan.cycle]
    outcomes = _served(default_service(tiny_data), ops)
    assert check(default_service(tiny_data), outcomes) == []

    target = next(index for index, outcome in enumerate(outcomes)
                  if outcome.op.kind == "read" and outcome.result.answers)
    response = outcomes[target].result
    first = response.answers[0]
    value = first.certainty.value
    nudged = value - 1e-12 if value > 0.5 else value + 1e-12
    corrupted = dataclasses.replace(
        first, certainty=dataclasses.replace(first.certainty, value=nudged))
    outcomes[target] = Outcome(outcomes[target].op, 0.001, result=dataclasses.replace(
        response, answers=(corrupted,) + response.answers[1:]))
    outcomes[1] = Outcome(outcomes[1].op, 0.001, error="ServerError: internal")
    assert check(default_service(tiny_data), outcomes) == sorted({1, target})


def test_write_mix_delete_evicts_the_same_results_every_cycle(tmp_path):
    from perfbench.deploy import generate_data
    from perfbench.workloads import load_spec

    data = generate_data(tmp_path, load_spec()["workloads"]["write_mix"]["scale"])
    plan = build_plan("write_mix", 4, 1)
    service = default_service(data)
    _served(service, plan.warmup)
    evicted = []
    for _ in range(3):
        before = service.stats().results_evicted
        _served(service, plan.measured[:plan.cycle])
        evicted.append(service.stats().results_evicted - before)
    assert evicted[0] > 0 and len(set(evicted)) == 1


def test_reference_flags_a_wrong_write_acknowledgement(tiny_data):
    plan = build_plan("write_mix", 2, 1)
    ops = plan.measured[:plan.cycle]
    outcomes = _served(default_service(tiny_data), ops)
    ack = outcomes[0].result
    outcomes[0] = Outcome(ops[0], 0.001, result=dataclasses.replace(
        ack, data_version=ack.data_version + 1))
    assert check(default_service(tiny_data), outcomes) == [0]
