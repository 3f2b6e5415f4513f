"""Dense state-vector reference simulator.

Deliberately simple and trusted: it applies each cycle's gates to the
full 2^N state and is the ground truth every contraction-path result is
checked against at desk scale.  Bit order: qubit 0 is the most
significant bit of the state index, matching how output bitstrings are
applied on the contraction side.
"""

from __future__ import annotations

import numpy as np

from .circuit import Circuit, GateKind
from .graph_model import _as_bits

MAX_ORACLE_QUBITS = 26

_NORM_TOL = 1e-10


class TooManyQubitsError(ValueError):
    """State-vector simulation refused above the qubit cap."""


def _apply_1q(psi: np.ndarray, u: np.ndarray, q: int) -> np.ndarray:
    out = np.tensordot(u, psi, axes=([1], [q]))
    return np.moveaxis(out, 0, q)


def _apply_2q(psi: np.ndarray, u: np.ndarray, qa: int, qb: int) -> np.ndarray:
    out = np.tensordot(u.reshape(2, 2, 2, 2), psi, axes=([2, 3], [qa, qb]))
    return np.moveaxis(out, (0, 1), (qa, qb))


def simulate(circuit: Circuit) -> np.ndarray:
    """Final state of the circuit on |0...0>, as a flat 2^N vector."""
    n = circuit.n_qubits
    if n > MAX_ORACLE_QUBITS:
        raise TooManyQubitsError(
            f"{n} qubits exceed the oracle cap of {MAX_ORACLE_QUBITS}"
        )
    psi = np.zeros((2,) * n, dtype=np.complex128)
    psi[(0,) * n] = 1.0
    for gates in circuit.cycles:
        for gate in gates:
            if len(gate.qubits) == 1:
                psi = _apply_1q(psi, gate.matrix, gate.qubits[0])
            elif gate.kind is GateKind.CZ:
                qa, qb = gate.qubits
                idx = [slice(None)] * n
                idx[qa] = 1
                idx[qb] = 1
                psi[tuple(idx)] *= -1.0
            else:
                psi = _apply_2q(psi, gate.matrix, *gate.qubits)
        norm = np.linalg.norm(psi)
        if abs(norm - 1.0) > _NORM_TOL:
            raise FloatingPointError(f"state norm drifted to {norm!r}")
    return psi.reshape(-1)


def amplitude_of(circuit: Circuit, x) -> complex:
    """<x|C|0...0> with x a bitstring (qubit 0 first) or bit sequence."""
    index = 0
    for b in _as_bits(x, circuit.n_qubits):
        index = (index << 1) | b
    return complex(simulate(circuit)[index])
