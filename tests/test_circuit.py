"""Gate catalog, parser, and serializer."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridamp import (
    CircuitError,
    CircuitParseError,
    CustomGate,
    CycleConflictError,
    GateKind,
    GenParams,
    QubitBoundsError,
    generate,
    parse_circuit,
    serialize_circuit,
)
from gridamp.circuit import MAX_DEPTH, Circuit, Gate

from conftest import REF4Q_TEXT


X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)


class TestCatalog:
    @pytest.mark.parametrize("kind", list(GateKind))
    def test_unitary(self, kind):
        u = kind.matrix
        eye = np.eye(u.shape[0])
        assert np.allclose(u.conj().T @ u, eye, atol=1e-12)

    @pytest.mark.parametrize("kind", list(GateKind))
    def test_diagonal_flag_matches_matrix(self, kind):
        u = kind.matrix
        off_diag_zero = np.allclose(u - np.diag(np.diagonal(u)), 0, atol=1e-12)
        assert kind.diagonal == off_diag_zero

    def test_id_is_identity(self):
        assert np.array_equal(GateKind.ID.matrix, np.eye(2))

    def test_t_squares_to_phase_gate(self):
        t = GateKind.T.matrix
        assert np.allclose(t @ t, np.diag([1, 1j]), atol=1e-12)

    def test_sqrt_x_squares_to_x(self):
        r = GateKind.SQRT_X.matrix
        assert np.allclose(r @ r, X, atol=1e-12)
        assert np.allclose(r, 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]]))

    def test_sqrt_y_squares_to_y(self):
        r = GateKind.SQRT_Y.matrix
        assert np.allclose(r @ r, Y, atol=1e-12)


class TestParse:
    def test_smallest_circuit(self):
        c = parse_circuit("1 1\n0 h 0\n")
        assert (c.rows, c.cols, c.depth) == (1, 1, 0)
        assert c.cycles[0] == (Gate(GateKind.H, (0,)),)

    def test_serialize_smallest(self):
        c = parse_circuit("1 1\n0 h 0\n")
        assert serialize_circuit(c) == "1 1\n0 h 0\n"

    def test_comments_and_blank_lines_ignored(self):
        text = "# header comment\n\n1 1\n# another\n0 h 0\n\n"
        assert serialize_circuit(parse_circuit(text)) == "1 1\n0 h 0\n"

    def test_noncanonical_input_is_canonicalized(self):
        text = "1 2\n0 h 1\n0 h 0\n1 cz 1 0\n"
        assert serialize_circuit(parse_circuit(text)) == "1 2\n0 h 0\n0 h 1\n1 cz 0 1\n"

    def test_duplicate_qubit_in_cycle(self):
        with pytest.raises(CycleConflictError):
            parse_circuit("2 2\n0 h 0\n0 h 0\n")

    def test_out_of_grid_qubit(self):
        with pytest.raises(QubitBoundsError):
            parse_circuit("1 2\n0 h 2\n")

    def test_malformed_line_reports_number(self):
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("1 1\n0 h 0\n0 nope 0\n")
        assert err.value.line_no == 3

    def test_bad_header(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("1\n0 h 0\n")

    def test_cz_arity(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("1 2\n0 h 0\n0 h 1\n1 cz 0\n")

    def test_empty_file(self):
        with pytest.raises(CircuitParseError):
            parse_circuit("")

    def test_first_cycle_must_be_hadamards(self):
        with pytest.raises(CircuitError):
            parse_circuit("1 1\n0 t 0\n")
        with pytest.raises(CircuitError):
            parse_circuit("1 2\n0 h 0\n")  # qubit 1 missing

    def test_cycle_past_the_depth_limit_fails_before_allocating(self):
        # the index alone would size a billion-entry cycle tuple
        start = time.perf_counter()
        with pytest.raises(CircuitParseError) as err:
            parse_circuit("1 1\n0 h 0\n1000000000 t 0\n")
        assert time.perf_counter() - start < 1.0
        assert err.value.line_no == 3 and str(MAX_DEPTH) in str(err.value)

    def test_circuit_at_the_depth_limit_round_trips(self):
        cycles = [()] * (MAX_DEPTH + 1)
        cycles[0] = (Gate(GateKind.H, (0,)),)
        cycles[MAX_DEPTH] = (Gate(GateKind.T, (0,)),)
        c = Circuit(1, 1, tuple(cycles))
        assert c.depth == MAX_DEPTH
        assert parse_circuit(serialize_circuit(c)) == c
        with pytest.raises(CircuitError, match="depth"):
            Circuit(1, 1, tuple(cycles) + ((),))

    def test_reference_circuit_cz_sequence(self, ref4q_circuit):
        cz_by_cycle = [
            tuple(g.qubits for g in gates if g.kind is GateKind.CZ)
            for gates in ref4q_circuit.cycles
        ]
        assert len(ref4q_circuit.cycles) == 8
        assert cz_by_cycle[1:7] == [
            ((0, 1),), ((2, 3),), ((0, 2),), ((1, 3),), ((1, 2),), ((0, 3),),
        ]
        assert serialize_circuit(parse_circuit(REF4Q_TEXT)) == REF4Q_TEXT

    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        depth=st.integers(0, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_on_generated_circuits(self, rows, cols, depth, seed):
        c = generate(GenParams(rows, cols, depth, seed)).canonical()
        assert parse_circuit(serialize_circuit(c)) == c


class TestGateConstruction:
    def test_cz_qubits_normalized(self):
        assert Gate(GateKind.CZ, (3, 1)).qubits == (1, 3)

    def test_arity_checked(self):
        with pytest.raises(CircuitError):
            Gate(GateKind.H, (0, 1))
        with pytest.raises(CircuitError):
            Gate(GateKind.CZ, (2, 2))

    def test_circuit_rejects_out_of_grid(self):
        with pytest.raises(QubitBoundsError):
            Circuit(1, 1, ((Gate(GateKind.H, (0,)), Gate(GateKind.H, (1,))),))

    def test_custom_gate_diagonal_detection(self):
        assert CustomGate((0, 1), np.diag([1, 1, 1, 1j])).diagonal
        assert not CustomGate((0,), GateKind.H.matrix).diagonal

    def test_custom_gate_rejects_non_unitary(self):
        with pytest.raises(CircuitError):
            CustomGate((0,), [[1, 0], [0, 2]])

    def test_custom_gate_not_serializable(self):
        c = Circuit(1, 1, ((Gate(GateKind.H, (0,)),), (CustomGate((0,), np.eye(2)),)))
        with pytest.raises(CircuitError):
            serialize_circuit(c)
