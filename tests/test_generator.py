"""Circuit generator: coupling layouts, placement rules, gate counts."""

import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridamp import (
    Circuit,
    CircuitError,
    GateKind,
    GenParams,
    count_gates,
    cz_layer,
    generate,
    serialize_circuit,
)
from gridamp.circuit import MAX_DEPTH, MAX_QUBITS
from gridamp.generator import config_for_cycle

from conftest import LAYOUT_PAIRS_8X7


def cz_support(cycle_gates):
    return {q for g in cycle_gates if g.kind is GateKind.CZ for q in g.qubits}


def single_qubit_gates(cycle_gates):
    return [g for g in cycle_gates if len(g.qubits) == 1]


@pytest.mark.parametrize("config", range(1, 9))
def test_layouts_on_8x7_grid(config):
    assert cz_layer(config, 8, 7) == set(LAYOUT_PAIRS_8X7[config])


def test_layout_on_1x1_grid_is_empty():
    for config in range(1, 9):
        assert cz_layer(config, 1, 1) == set()


def test_bad_config_rejected():
    with pytest.raises(ValueError):
        cz_layer(0, 2, 2)
    with pytest.raises(ValueError):
        cz_layer(9, 2, 2)


@settings(max_examples=60, deadline=None)
@given(config=st.integers(1, 8), rows=st.integers(1, 9), cols=st.integers(1, 9))
def test_layout_pairs_disjoint_and_on_grid(config, rows, cols):
    pairs = cz_layer(config, rows, cols)
    seen = set()
    for a, b in pairs:
        assert 0 <= a < b < rows * cols
        assert not {a, b} & seen
        seen |= {a, b}


def test_every_neighbor_pair_appears_once_per_period():
    rows, cols = 5, 6
    horizontal = {(r * cols + c, r * cols + c + 1)
                  for r in range(rows) for c in range(cols - 1)}
    vertical = {(r * cols + c, (r + 1) * cols + c)
                for r in range(rows - 1) for c in range(cols)}
    combined = []
    for config in range(1, 9):
        combined.extend(cz_layer(config, rows, cols))
    assert len(combined) == len(set(combined))
    assert set(combined) == horizontal | vertical


def test_depth_zero_is_single_hadamard_layer():
    c = generate(GenParams(1, 1, 0, seed=123))
    assert c.depth == 0
    assert c.cycles[0] == (type(c.cycles[0][0])(GateKind.H, (0,)),)


def test_cycle_layers_follow_config_sequence():
    c = generate(GenParams(8, 7, 10, seed=0))
    for k in range(1, 11):
        layer = {g.qubits for g in c.cycles[k] if g.kind is GateKind.CZ}
        assert layer == cz_layer(config_for_cycle(k), 8, 7)
    assert [config_for_cycle(k) for k in (1, 8, 9, 17)] == [1, 8, 1, 1]


def test_first_single_qubit_gate_is_always_t():
    for seed in range(5):
        c = generate(GenParams(4, 4, 16, seed=seed))
        seen = set()
        for gates in c.cycles[1:]:
            for g in single_qubit_gates(gates):
                q = g.qubits[0]
                if q not in seen:
                    assert g.kind is GateKind.T
                    seen.add(q)


def test_placement_rule_after_cz():
    c = generate(GenParams(5, 5, 20, seed=11))
    prev = set()
    for k, gates in enumerate(c.cycles):
        support = cz_support(gates)
        placed = {g.qubits[0] for g in single_qubit_gates(gates)}
        if k == 0:
            assert placed == set(range(25))  # the Hadamard layer
        elif k == 1:
            assert placed == set()
        else:
            assert placed == prev - support
        prev = support


def test_determinism_byte_identical():
    p = GenParams(4, 5, 17, seed=99)
    assert serialize_circuit(generate(p)) == serialize_circuit(generate(p))


def test_different_seeds_differ():
    a = serialize_circuit(generate(GenParams(4, 4, 16, seed=0)))
    b = serialize_circuit(generate(GenParams(4, 4, 16, seed=1)))
    assert a != b


@pytest.mark.parametrize("rows, cols", [(3000, 3000), (20, 21), (1, 401)])
@pytest.mark.parametrize("make", [lambda r, c: GenParams(r, c, 0),
                                  lambda r, c: Circuit(r, c, ((),))], ids=["GenParams", "Circuit"])
def test_grid_past_the_qubit_limit_fails_before_allocating(make, rows, cols):
    # 3000x3000 once ran out of memory sizing nine million qubits
    start = time.perf_counter()
    with pytest.raises(CircuitError, match=rf"grid {rows}x{cols} has more than {MAX_QUBITS} "):
        make(rows, cols)
    assert time.perf_counter() - start < 1.0


def test_depth_past_the_limit_fails_before_building_cycles():
    # 2x2 at depth 2,000,000 once built every cycle for 18 s before Circuit refused it
    start = time.perf_counter()
    with pytest.raises(CircuitError, match=rf"depth 2000000 exceeds the limit {MAX_DEPTH}"):
        generate(GenParams(2, 2, 2_000_000))
    assert time.perf_counter() - start < 1.0
    assert generate(GenParams(1, 2, MAX_DEPTH)).depth == MAX_DEPTH


def test_grid_at_the_qubit_limit_generates():
    c = generate(GenParams(20, 20, 8, seed=0))
    assert c.n_qubits == MAX_QUBITS == 400
    assert count_gates(c)[0] >= MAX_QUBITS


def test_gate_counts_hadamard_layer_only():
    assert count_gates(generate(GenParams(3, 3, 0, seed=0))) == (9, 0)


def test_cz_count_6x6x8():
    _, g2 = count_gates(generate(GenParams(6, 6, 8, seed=4)))
    assert g2 == 60


@settings(max_examples=30, deadline=None)
@given(
    rows=st.integers(2, 8),
    cols=st.integers(2, 8),
    d=st.sampled_from([8, 16, 24]),
    seed=st.integers(0, 1000),
)
def test_cz_count_matches_formula_for_full_periods(rows, cols, d, seed):
    _, g2 = count_gates(generate(GenParams(rows, cols, d, seed)))
    assert g2 == (d // 8) * ((rows - 1) * cols + rows * (cols - 1))


def test_distinct_from_previous_flag():
    c = generate(GenParams(5, 5, 24, seed=2, distinct_from_previous=True))
    last = {}
    for gates in c.cycles[1:]:
        for g in single_qubit_gates(gates):
            q = g.qubits[0]
            if q in last:
                assert g.kind is not last[q]
            last[q] = g.kind


def test_id_never_emitted():
    c = generate(GenParams(4, 4, 12, seed=8))
    assert all(g.kind is not GateKind.ID for gates in c.cycles for g in gates)
