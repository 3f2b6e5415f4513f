"""Acceptance suite: one test per criterion, each printing a PASS line.

Run ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Criteria marked as trend checks stand in for cluster-scale
results that cannot be reproduced at desk scale; everything else is
exact or toleranced as stated.
"""

import json
import math

import numpy as np
import pytest

from gridamp import (
    CostBudget,
    GenParams,
    Ordering,
    OrderingBudget,
    amplitude_of,
    build_model,
    contract,
    count_gates,
    cz_layer,
    eliminate_variable,
    estimate_cost,
    fix_variable,
    generate,
    min_fill_ordering,
    run_partitioned,
    search_ordering,
    simulate,
    vertical_ordering,
)
from gridamp import GateKind, alpha_from_formulas, alpha_square, ErrorRates, g2_formula
from gridamp.cli import main as cli_main

from conftest import LAYOUT_PAIRS_8X7, REF4Q_EDGES, edge_names, letter_ids, plan_over_budget


def _passed(n: int, text: str):
    print(f"[criterion {n:2d}] PASS  {text}")


def test_criterion_01_reference_model_structure(ref4q_model):
    assert len(ref4q_model.vertices) == 10
    assert edge_names(ref4q_model) == REF4Q_EDGES
    _passed(1, "reference model has exactly 10 vertices and the 12-edge set")


def test_criterion_02_term_count_reduction(ref4q_circuit, ref4q_model):
    free = len(ref4q_model.vertices)
    assert free == 10
    naive_bits = (len(ref4q_circuit.cycles) - 1) * ref4q_circuit.n_qubits
    assert naive_bits == 28
    _passed(2, f"2^{free} surviving terms versus 2^{naive_bits} naive")


def test_criterion_03_elimination_semantics(ref4q_model):
    ids = letter_ids(ref4q_model)
    no_fill = eliminate_variable(ref4q_model, ids["c"])
    assert edge_names(no_fill) == edge_names(ref4q_model) - {"ce"}
    filled = eliminate_variable(ref4q_model, ids["e"])
    fill = edge_names(filled) - (edge_names(ref4q_model) - {"ae", "be", "ce", "ef"})
    assert fill == {"ac", "af", "bc", "bf", "cf"}
    rank4 = [f for f in filled.factors if f.rank == 4]
    assert len(rank4) == 1 and set(rank4[0].axes) == {ids[c] for c in "abcf"}
    _passed(3, "leaf elimination adds no fill; hub elimination fills the "
               "neighbor clique and makes one rank-4 factor")


def test_criterion_04_fixing_semantics(ref4q_model):
    ids = letter_ids(ref4q_model)
    hub = fix_variable(ref4q_model, ids["e"], 0)
    assert len(ref4q_model.edges()) - len(hub.edges()) == 4
    leaf = fix_variable(ref4q_model, ids["c"], 0)
    assert len(ref4q_model.edges()) - len(leaf.edges()) == 1
    _passed(4, "fixing the hub removes 4 edges, fixing the leaf removes 1")


def _suite_circuits(count: int):
    shapes = [(2, 3, 12), (3, 3, 16), (3, 4, 20), (4, 4, 16), (4, 5, 20)]
    for i in range(count):
        rows, cols, depth = shapes[i % len(shapes)]
        yield i, generate(GenParams(rows, cols, depth, seed=i))


def test_criterion_05_oracle_equivalence():
    rng = np.random.default_rng(12345)
    worst = 0.0
    for i, circuit in _suite_circuits(100):
        n = circuit.n_qubits
        psi = simulate(circuit)
        model0 = build_model(circuit, "0" * n)
        order = min_fill_ordering(model0, seed=0)
        outputs = ["0" * n] + [
            format(int(rng.integers(0, 1 << n)), f"0{n}b") for _ in range(5)
        ]
        for x in outputs:
            model = build_model(circuit, x)
            amp = contract(model, order)
            ref = complex(psi[int(x, 2)])
            worst = max(worst, abs(amp - ref))
            assert abs(amp - ref) <= 1e-10
    _passed(5, f"contraction matches the oracle on 600 amplitudes "
               f"(worst |diff| = {worst:.2e})")


def test_criterion_06_partition_correctness():
    worst = 0.0
    for i, circuit in _suite_circuits(30):
        n = circuit.n_qubits
        model = build_model(circuit, "0" * n)
        base = min_fill_ordering(model, seed=0)
        t = (i % 6) + 1
        if t > len(model.vertices):
            t = len(model.vertices)
        plan = plan_over_budget(
            model, base, t_max=t, budget=CostBudget(max_rank=-1),
            ordering_budget=OrderingBudget(time_s=None, max_restarts=2),
        )
        assert len(plan.fix_vars) == t
        whole = contract(model, min_fill_ordering(model, seed=1))
        results = [run_partitioned(model, plan, workers=w) for w in (1, 4, 16)]
        assert results[0].amplitude == results[1].amplitude == results[2].amplitude
        worst = max(worst, abs(results[0].amplitude - whole))
        assert abs(results[0].amplitude - whole) <= 1e-10
    _passed(6, f"2^t-way partitioned sums equal direct contraction "
               f"(worst |diff| = {worst:.2e}) and are worker-count invariant")


def test_criterion_07_normalization():
    worst = 0.0
    depths = [4, 6, 8, 10, 12]
    for seed in range(20):
        circuit = generate(GenParams(3, 3, depths[seed % len(depths)], seed=seed))
        model0 = build_model(circuit, "0" * 9)
        order = min_fill_ordering(model0, seed=0)
        total = 0.0
        for idx in range(512):
            x = format(idx, "09b")
            amp = contract(build_model(circuit, x), order)
            total += abs(amp) ** 2
        worst = max(worst, abs(total - 1.0))
        assert abs(total - 1.0) <= 1e-8
    _passed(7, f"all 512 contraction-path amplitudes normalize "
               f"(worst |1-sum| = {worst:.2e}) for 20 circuits")


def test_criterion_08_generator_fixtures():
    for config, pairs in LAYOUT_PAIRS_8X7.items():
        assert cz_layer(config, 8, 7) == set(pairs)
    shapes = [(2, 2, 8), (3, 3, 12), (4, 4, 16), (5, 5, 20), (3, 5, 14)]
    for i in range(100):
        rows, cols, depth = shapes[i % len(shapes)]
        circuit = generate(GenParams(rows, cols, depth, seed=i))
        prev_support = set()
        first_seen: set[int] = set()
        for k, gates in enumerate(circuit.cycles):
            support = {q for g in gates if g.kind is GateKind.CZ for q in g.qubits}
            singles = [g for g in gates if len(g.qubits) == 1]
            if k >= 2:
                assert {g.qubits[0] for g in singles} == prev_support - support
                for g in singles:
                    if g.qubits[0] not in first_seen:
                        assert g.kind is GateKind.T
                        first_seen.add(g.qubits[0])
            prev_support = support
    _passed(8, "all eight 8x7 layouts match the golden pairs; placement "
               "rules hold on 100 generated circuits")


def test_criterion_09_gate_count_formula():
    for m in range(2, 9):
        for n in range(2, 9):
            for d in (8, 16, 24):
                _, g2 = count_gates(generate(GenParams(m, n, d, seed=m * n + d)))
                assert g2 == g2_formula(m, n, d)
    _passed(9, "exact two-qubit counts equal the formula on all 147 "
               "(m, n, d) combinations")


def test_criterion_10_ordering_quality():
    search_wins = 0
    minfill_rank_wins = 0
    trials = 50
    for seed in range(trials):
        circuit = generate(GenParams(5, 5, 20, seed=seed))
        model = build_model(circuit, "0" * 25)
        vertical_est = estimate_cost(model, vertical_ordering(model))
        minfill_est = estimate_cost(model, min_fill_ordering(model, seed=0))
        _, search_est = search_ordering(
            model, OrderingBudget(time_s=5.0, max_restarts=3, seed=0)
        )
        if search_est.total <= vertical_est.total:
            search_wins += 1
        if minfill_est.max_rank <= vertical_est.max_rank:
            minfill_rank_wins += 1
    assert search_wins >= 0.8 * trials
    assert minfill_rank_wins >= 0.8 * trials
    _passed(10, f"search cost beats vertical on {search_wins}/{trials}; "
                f"min-fill rank beats vertical on {minfill_rank_wins}/{trials}")


def test_criterion_11_fidelity_arithmetic():
    assert abs(alpha_square(49, 40, 0.005) - math.exp(-2.938375)) < 1e-9
    rates = ErrorRates.from_two_qubit_rate(0.005)
    for mn in (6, 7, 8):
        for d in (8, 16, 24, 32, 40):
            a = alpha_from_formulas(mn, mn, d, rates)
            b = alpha_square(mn * mn, d, 0.005)
            assert abs(a - b) / b < 1e-6
    _passed(11, "closed-form fidelity matches exp(-2.938375) and the "
                "formula composition to 1e-6 relative")


def test_criterion_12_desk_scale_bench_trend(capsys, tmp_path):
    # cluster-scale runtimes are out of reach here; the stand-in is the
    # bench harness showing estimated cost growing with depth on small grids
    out_path = tmp_path / "bench.csv"
    code = cli_main([
        "bench", "--grids", "3,4", "--depths", "4,12", "--samples", "2",
        "--order", "minfill", "-o", str(out_path),
    ])
    assert code == 0
    rows = [line.split(",") for line in out_path.read_text().strip().splitlines()[1:]]
    by_cell = {(r[0], r[1]): r for r in rows}
    for n in ("3", "4"):
        assert by_cell[(n, "4")][5] == "ok"
        assert by_cell[(n, "12")][5] == "ok"
        assert float(by_cell[(n, "12")][9]) > float(by_cell[(n, "4")][9])
    _passed(12, "bench trend data shows estimated cost growing with depth "
                "at desk-scale grids (cluster-scale runtimes not reproduced)")
