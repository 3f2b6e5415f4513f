"""Tests of the benchmark itself, on workloads small enough for the
state-vector oracle.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_package()

import bench  # noqa: E402
import tracer  # noqa: E402
from gridamp import amplitude_of, elimination, graph_model, ordering, partition  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# 20 qubits: the oracle is cheap, and rank budget 4 splits every plan
# into 4 subtasks on 2 workers
TINY = bench.Workload(
    "tiny", 4, 5, 16, (0, 1), 3, restarts=1, rank_budget=4, workers=2
)
CAL = bench.Calibration()


@pytest.fixture(scope="module")
def oracle_reference():
    ref = {}
    for case in bench.make_cases(TINY, 0):
        ref[case.key] = amplitude_of(case.circuit, case.x)
    return ref


def _names(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _assert_metrics(metrics, kind):
    assert {k: v["unit"] for k, v in metrics.items()} == _names(kind)
    for name, m in metrics.items():
        assert isinstance(m["value"], (int, float)), name
        assert math.isfinite(m["value"]), name


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


def test_golden_covers_every_pool():
    golden = bench.load_golden()
    for wl in bench.WORKLOADS.values():
        missing = [wl.key(*c) for c in wl.pool() if wl.key(*c) not in golden]
        assert not missing, (wl.name, missing[:3])


def test_smoke_run_emits_every_metric(oracle_reference):
    cases = bench.make_cases(TINY, 3)
    amps, metrics = run.end_to_end(bench, TINY, cases, oracle_reference, 0, 0.5, CAL)
    _assert_metrics(metrics, "end_to_end")
    assert len(amps) == TINY.min_amplitudes
    assert not any(a.failed for a in amps)
    assert metrics["ok_ratio"]["value"] == 1.0

    amps, metrics = run.per_layer(bench, TINY, cases, oracle_reference, 0, CAL)
    _assert_metrics(metrics, "per_layer")
    assert not any(a.failed for a in amps)
    assert metrics["partition.subtasks"]["value"] == 4
    assert metrics["partition.fix_t"]["value"] == 2
    assert metrics["ordering.restarts"]["value"] == TINY.restarts


def test_amplitudes_match_the_oracle(oracle_reference):
    amps = bench.timed_loop(TINY, bench.make_cases(TINY, 1), 0, 6, CAL)
    for a in amps:
        assert abs(a.amplitude - oracle_reference[a.key]) <= 1e-10


def test_perturbed_amplitude_counts_as_failure(oracle_reference, monkeypatch):
    real = partition.run_partitioned

    def perturbed(g, plan, **kwargs):
        r = real(g, plan, **kwargs)
        return replace(r, amplitude=r.amplitude * (1 + 1e-6))

    monkeypatch.setattr(partition, "run_partitioned", perturbed)
    amps, metrics = run.end_to_end(
        bench, TINY, bench.make_cases(TINY, 0), oracle_reference, 0, 0.5, CAL)
    assert all(a.failed for a in amps)
    assert metrics["ok_ratio"]["value"] == 0.0


def test_worker_count_mismatch_counts_as_failure(oracle_reference, monkeypatch):
    real = partition.run_partitioned

    def differs_on_one_worker(g, plan, workers=1, **kwargs):
        r = real(g, plan, workers=workers, **kwargs)
        if workers == 1:
            r = replace(r, amplitude=r.amplitude + math.ulp(r.amplitude.real))
        return r

    monkeypatch.setattr(partition, "run_partitioned", differs_on_one_worker)
    amps, _ = run.end_to_end(
        bench, TINY, bench.make_cases(TINY, 0), oracle_reference, 0, 0.5, CAL)
    assert all(a.failed for a in amps)


@pytest.mark.parametrize("workers", [1, 2])
def test_speedup_w2_is_one_worker_over_two(oracle_reference, monkeypatch, workers):
    # one worker is made 50 ms slower, so the speedup must exceed 1 whether
    # the workload runs on 1 worker or re-runs on it
    real = partition.run_partitioned

    def slow_on_one_worker(g, plan, workers=1, **kwargs):
        if workers == 1:
            time.sleep(0.05)
        return real(g, plan, workers=workers, **kwargs)

    monkeypatch.setattr(partition, "run_partitioned", slow_on_one_worker)
    wl = replace(TINY, workers=workers)
    _, metrics = run.per_layer(
        bench, wl, bench.make_cases(wl, 0), oracle_reference, 0, CAL)
    assert metrics["partition.speedup_w2"]["value"] > 1.5


def test_run_ends_on_a_whole_pass_over_the_circuits():
    wl = replace(TINY, circuit_seeds=(0, 1, 2), n_bitstrings=0)
    amps = bench.timed_loop(wl, bench.make_cases(wl, 0), 0, 4, CAL)
    assert len(amps) == 6


def test_raised_error_counts_as_failure(oracle_reference, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("broken")

    monkeypatch.setattr(partition, "run_partitioned", broken)
    amps = bench.timed_loop(TINY, bench.make_cases(TINY, 0), 0, 2, CAL)
    bench.check(amps, oracle_reference, TINY.n_qubits)
    assert [a.failed for a in amps] == [True, True]


def test_tracer_restores_the_package():
    before = (graph_model.build_model, ordering.search_ordering,
              ordering.simulate_cost, partition.contract,
              graph_model.GraphModel.clone, elimination.multiply_all)
    with tracer.Tracer():
        assert graph_model.build_model is not before[0]
    after = (graph_model.build_model, ordering.search_ordering,
             ordering.simulate_cost, partition.contract,
             graph_model.GraphModel.clone, elimination.multiply_all)
    assert after == before


def test_setup_probe_measures_a_fresh_process():
    s = run.setup_seconds("fanout-6x6x24", 0, CAL)
    assert 0 < s < 30
