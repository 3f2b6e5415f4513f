"""Model construction, brute-force evaluation, DOT export."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gridamp import (
    CustomGate,
    GateKind,
    GenParams,
    TooManyVariablesError,
    amplitude_of,
    build_model,
    export_dot,
    generate,
    model_value_bruteforce,
    multiply_all,
    parse_circuit,
    sum_out,
)
from gridamp.circuit import Circuit, Gate

from conftest import REF4Q_EDGES, edge_names, letter_ids


class TestReferenceModel:
    def test_vertices_and_edges(self, ref4q_model):
        assert len(ref4q_model.vertices) == 10
        assert edge_names(ref4q_model) == REF4Q_EDGES

    def test_output_variables_removed_and_recorded(self, ref4q_circuit):
        model = build_model(ref4q_circuit, "0110")
        last = {}  # ids count up, so each wire's last variable is its largest
        for v, info in model.var_info.items():
            last[info.qubit] = max(last.get(info.qubit, v), v)
        outputs = set(last.values())
        assert len(outputs) == 4
        assert model.vertices == set(model.var_info) - outputs
        assert all(outputs.isdisjoint(f.axes) for f in model.factors)

    def test_edges_are_exactly_factor_pairs(self, ref4q_model):
        from_factors = set()
        for f in ref4q_model.factors:
            for i, u in enumerate(f.axes):
                for v in f.axes[i + 1 :]:
                    from_factors.add((min(u, v), max(u, v)))
        assert from_factors == ref4q_model.edges()

    def test_value_matches_oracle_all_outputs(self, ref4q_circuit):
        for x in ("0000", "1111", "0110", "1001", "0101"):
            model = build_model(ref4q_circuit, x)
            assert abs(model_value_bruteforce(model) - amplitude_of(ref4q_circuit, x)) < 1e-12

    def test_product_of_factors_at_a_vertex(self, ref4q_model):
        # the factors touching e multiply to a rank-5 tensor on e and its
        # neighbors; finishing the contraction reproduces the model value
        e = letter_ids(ref4q_model)["e"]
        touching = [f for f in ref4q_model.factors if e in f.axes]
        sigma = multiply_all(touching)
        assert sigma.rank == 5
        assert set(sigma.axes) == {e} | ref4q_model.adj[e]
        work = [f for f in ref4q_model.factors if e not in f.axes]
        work.append(sum_out(sigma, e))
        remaining = sorted({v for f in work for v in f.axes})
        for v in remaining:
            ts = [f for f in work if v in f.axes]
            work = [f for f in work if v not in f.axes]
            work.append(sum_out(multiply_all(ts), v))
        value = complex(multiply_all(work).data) * ref4q_model.scalar
        assert abs(value - model_value_bruteforce(ref4q_model)) < 1e-12


class TestSmallModels:
    def test_single_hadamard(self):
        c = parse_circuit("1 1\n0 h 0\n")
        m0 = build_model(c, "0")
        # the lone wire variable is created and immediately output-fixed,
        # so only the folded boundary value survives
        assert m0.vertices == set()
        assert abs(model_value_bruteforce(m0) - 1 / math.sqrt(2)) < 1e-15
        m1 = build_model(c, "1")
        assert abs(model_value_bruteforce(m1) - 1 / math.sqrt(2)) < 1e-15

    def test_identity_only_circuit(self):
        c = Circuit(1, 2, ((Gate(GateKind.ID, (0,)), Gate(GateKind.ID, (1,))),))
        assert model_value_bruteforce(build_model(c, "00")) == 1.0
        assert model_value_bruteforce(build_model(c, "10")) == 0.0

    def test_empty_model_is_product_of_scalars(self):
        c = parse_circuit("1 1\n0 h 0\n1 h 0\n")
        m = build_model(c, "0")
        # two wire variables; the second is output-fixed, one survives
        assert len(m.vertices) == 1
        assert abs(model_value_bruteforce(m) - amplitude_of(c, "0")) < 1e-15

    def test_diagonal_gates_create_no_vertices(self):
        text = "1 2\n0 h 0\n0 h 1\n1 cz 0 1\n2 t 0\n3 x_1_2 0\n3 x_1_2 1\n"
        c = parse_circuit(text)
        m = build_model(c, "00")
        # two wire variables from the Hadamards survive; cz and t attach
        # factors to them without adding vertices
        assert len(m.vertices) == 2
        assert len(m.edges()) == 1
        assert abs(model_value_bruteforce(m) - amplitude_of(c, "00")) < 1e-14


class TestCustomGates:
    def test_nondiagonal_two_qubit_gadget_is_k4(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        c = Circuit(
            1,
            2,
            (
                (Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,))),
                (CustomGate((0, 1), q),),
            ),
        )
        m = build_model(c, "00")
        # two wire variables from the Hadamards plus two from the gate,
        # minus two output removals
        assert len(m.vertices) == 2
        assert m.edges() == {tuple(sorted(m.vertices))}
        assert abs(model_value_bruteforce(m) - amplitude_of(c, "00")) < 1e-12

    def test_nondiagonal_two_qubit_k4_before_output(self):
        rng = np.random.default_rng(1)
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        c = Circuit(
            1,
            2,
            (
                (Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,))),
                (CustomGate((0, 1), q),),
                (Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,))),
            ),
        )
        m = build_model(c, "00")
        assert len(m.vertices) == 4
        mid = [f for f in m.factors if f.rank == 4]
        assert len(mid) == 1
        assert len(m.edges()) == 6  # the four-variable clique
        for x in ("00", "01", "10", "11"):
            mx = build_model(c, x)
            assert abs(model_value_bruteforce(mx) - amplitude_of(c, x)) < 1e-12

    def test_custom_diagonal_two_qubit(self):
        d = CustomGate((0, 1), np.diag(np.exp(1j * np.array([0.3, 1.1, -0.4, 2.0]))))
        c = Circuit(
            1, 2, ((Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,))), (d,))
        )
        m = build_model(c, "01")
        assert m.vertices == set()
        assert abs(model_value_bruteforce(m) - amplitude_of(c, "01")) < 1e-12


def _random_unitary(rng, dim: int) -> np.ndarray:
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return np.linalg.qr(z)[0]


def _random_phases(rng, dim: int) -> np.ndarray:
    return np.diag(np.exp(1j * rng.uniform(0.0, 2 * math.pi, dim)))


# one-qubit choices; "none" leaves the wire alone for the cycle
_ONE_QUBIT_KINDS = ["none", "h", "t", "x_1_2", "y_1_2", "id", "diag", "dense"]


@st.composite
def unprepared_circuits(draw):
    """1x2, 2x2 and 1x3 circuits with no Hadamard layer, so gates of
    every kind meet the |0> input with one, both or neither wire unset.
    Custom gates get random matrices (catalog CZ is symmetric in its two
    wires, so it cannot tell the two wires' slices apart)."""
    rows, cols = draw(st.sampled_from([(1, 2), (2, 2), (1, 3)]))
    n = rows * cols
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # a first cycle that gives some wires a variable and leaves the rest
    # at the input, so two-qubit gates meet every mix of set and unset
    started = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    cycles = [tuple(CustomGate((q,), _random_unitary(rng, 2)) for q in range(n) if started[q])]
    for _ in range(draw(st.integers(1, 5))):
        free = list(draw(st.permutations(range(n))))
        gates = []
        for _ in range(draw(st.integers(0, len(free) // 2))):
            pair = (free.pop(), free.pop())
            kind = draw(st.sampled_from(["dense", "diag", "cz"]))
            if kind == "dense":
                gates.append(CustomGate(pair, _random_unitary(rng, 4)))
            elif kind == "diag":
                gates.append(CustomGate(pair, _random_phases(rng, 4)))
            else:
                gates.append(Gate(GateKind.CZ, pair))
        for q in free:
            kind = draw(st.sampled_from(_ONE_QUBIT_KINDS))
            if kind == "diag":
                gates.append(CustomGate((q,), _random_phases(rng, 2)))
            elif kind == "dense":
                gates.append(CustomGate((q,), _random_unitary(rng, 2)))
            elif kind != "none":
                gates.append(Gate(GateKind(kind), (q,)))
        cycles.append(tuple(gates))
    return Circuit(rows, cols, tuple(cycles))


def _first_wire_started(pair_matrix) -> Circuit:
    """1x2 circuit: wire 0 gets a variable, then a two-qubit gate meets
    wire 1 still at the input."""
    rng = np.random.default_rng(7)
    return Circuit(
        1, 2, ((CustomGate((0,), _random_unitary(rng, 2)),), (CustomGate((0, 1), pair_matrix),))
    )


@settings(max_examples=80, deadline=None)
@given(c=unprepared_circuits())
@example(c=_first_wire_started(_random_unitary(np.random.default_rng(8), 4)))
@example(c=_first_wire_started(_random_phases(np.random.default_rng(9), 4)))
def test_input_boundary_matches_oracle(c):
    for bits in itertools.product("01", repeat=c.n_qubits):
        x = "".join(bits)
        value = model_value_bruteforce(build_model(c, x))
        assert abs(value - amplitude_of(c, x)) < 1e-12


class TestGeneratedCircuits:
    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(2, 3),
        cols=st.integers(2, 3),
        depth=st.integers(0, 10),
        seed=st.integers(0, 10_000),
    )
    def test_vertex_count_formula(self, rows, cols, depth, seed):
        c = generate(GenParams(rows, cols, depth, seed))
        model = build_model(c, "0" * c.n_qubits)
        nondiag_after_first = sum(
            1
            for gates in c.cycles[1:]
            for g in gates
            if len(g.qubits) == 1 and not g.diagonal
        )
        assert len(model.vertices) == nondiag_after_first

    def test_bruteforce_matches_oracle(self):
        checked = 0
        for seed in range(30):
            rows, cols, depth = [(2, 2, 10), (2, 3, 8), (3, 3, 8)][seed % 3]
            c = generate(GenParams(rows, cols, depth, seed))
            model = build_model(c, "0" * c.n_qubits)
            if len(model.vertices) > 18:
                continue
            assert abs(
                model_value_bruteforce(model) - amplitude_of(c, "0" * c.n_qubits)
            ) < 1e-10
            checked += 1
        assert checked >= 20

    def test_too_many_variables(self):
        c = generate(GenParams(4, 5, 20, seed=0))
        model = build_model(c, "0" * 20)
        assert len(model.vertices) > 24
        with pytest.raises(TooManyVariablesError):
            model_value_bruteforce(model)


def test_export_dot(ref4q_model):
    dot = export_dot(ref4q_model)
    assert dot.startswith("graph model {")
    assert dot.count(" -- ") == 12
    for v in ref4q_model.vertices:
        assert f"v{v} " in dot


def test_output_bits_validation(ref4q_circuit):
    with pytest.raises(ValueError):
        build_model(ref4q_circuit, "010")
    with pytest.raises(ValueError):
        build_model(ref4q_circuit, "01x0")


@pytest.mark.parametrize("x", [
    [0.6, 1, 0, 0], [1.9, 1, 0, 0], [2, 1, 0, 0], ["2", 1, 0, 0], ["0", 1, 0, 0], " 0100",
], ids=repr)
def test_non_binary_output_is_refused_not_truncated(x):
    # int() would read 0.6 as 0 and 1.9 as 1; the model and the oracle
    # share one rule, which refuses them
    c = generate(GenParams(2, 2, 4, 0))
    with pytest.raises(ValueError, match="4 binary values"):
        build_model(c, x)
    with pytest.raises(ValueError, match="4 binary values"):
        amplitude_of(c, x)


def test_output_items_equal_to_bits_are_bits():
    c = generate(GenParams(2, 2, 4, 0))
    want, value = amplitude_of(c, "0100"), model_value_bruteforce(build_model(c, "0100"))
    for x in ([0, 1, 0, 0], (0.0, 1.0, 0, 0), [False, True, np.int64(0), 0], np.array([0, 1, 0, 0])):
        assert amplitude_of(c, x) == want
        assert model_value_bruteforce(build_model(c, x)) == value
