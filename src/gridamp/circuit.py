"""Grid circuit representation: gate catalog, clock cycles, text file format.

A circuit acts on an ``rows x cols`` grid of qubits addressed by row-major
linear index ``q = row * cols + col``.  Cycle 0 is a layer of Hadamards on
every qubit (the parser and the generator both guarantee this; circuits
built programmatically may deviate, e.g. for identity-only reference
cases).  Gates within a cycle act on disjoint qubits.

Text format (UTF-8, LF): first line ``m n``; every following non-empty,
non-comment line is ``cycle gate q0 [q1]`` with ``gate`` one of
``h t x_1_2 y_1_2 cz id`` and qubits as linear indices.  Lines starting
with ``#`` are comments.  The serializer is canonical: cycles ascending,
gates within a cycle sorted by first qubit.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np


class CircuitError(ValueError):
    """Invalid circuit structure."""


class CircuitParseError(CircuitError):
    """Malformed circuit file line."""

    def __init__(self, message: str, line_no: int):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class QubitBoundsError(CircuitError):
    """Qubit index outside the grid."""


class CycleConflictError(CircuitError):
    """Two gates touch the same qubit in one cycle."""


_SQRT2 = math.sqrt(2.0)

# Deepest circuit accepted, far above any this code can contract (the
# paper's deepest is 40); a file's cycle index is checked against it
# before it sizes the circuit.
MAX_DEPTH = 10_000
# Most qubits accepted, a 20x20 grid (the paper's largest is 12x12)
MAX_QUBITS = 400
CUSTOM_GATE_ATOL = 1e-12  # a CustomGate's tolerance for unitary and diagonal


def _mat(rows) -> np.ndarray:
    m = np.array(rows, dtype=np.complex128)
    m.setflags(write=False)
    return m


# Principal square roots of the Pauli X and Y matrices; T is the eighth
# root of Z.  Squaring x_1_2 / y_1_2 recovers X / Y exactly.
_MATRICES: dict[str, np.ndarray] = {
    "h": _mat([[1 / _SQRT2, 1 / _SQRT2], [1 / _SQRT2, -1 / _SQRT2]]),
    "t": _mat([[1, 0], [0, cmath.exp(1j * math.pi / 4)]]),
    "x_1_2": _mat([[0.5 + 0.5j, 0.5 - 0.5j], [0.5 - 0.5j, 0.5 + 0.5j]]),
    "y_1_2": _mat([[0.5 + 0.5j, -0.5 - 0.5j], [0.5 + 0.5j, 0.5 + 0.5j]]),
    "cz": _mat(np.diag([1, 1, 1, -1])),
    "id": _mat(np.eye(2)),
}


class GateKind(Enum):
    """Catalog gates; the value is the file-format token."""

    H = "h"
    T = "t"
    SQRT_X = "x_1_2"
    SQRT_Y = "y_1_2"
    CZ = "cz"
    ID = "id"

    @property
    def n_qubits(self) -> int:
        return 2 if self is GateKind.CZ else 1

    @property
    def matrix(self) -> np.ndarray:
        return _MATRICES[self.value]

    @property
    def diagonal(self) -> bool:
        return self in (GateKind.T, GateKind.CZ, GateKind.ID)


@dataclass(frozen=True)
class Gate:
    """One catalog gate applied to one or two grid qubits.

    CZ qubit order is normalized ascending (the gate is symmetric), so
    structurally equal circuits compare equal.
    """

    kind: GateKind
    qubits: tuple[int, ...]

    def __post_init__(self):
        qs = tuple(self.qubits)
        if len(qs) != self.kind.n_qubits:
            raise CircuitError(
                f"{self.kind.value} takes {self.kind.n_qubits} qubit(s), got {len(qs)}"
            )
        if len(set(qs)) != len(qs):
            raise CycleConflictError(f"{self.kind.value} repeats qubit {qs[0]}")
        if self.kind is GateKind.CZ:
            qs = tuple(sorted(qs))
        object.__setattr__(self, "qubits", qs)

    @property
    def matrix(self) -> np.ndarray:
        return self.kind.matrix

    @property
    def diagonal(self) -> bool:
        return self.kind.diagonal


class CustomGate:
    """A one- or two-qubit unitary supplied programmatically.

    Not representable in the text format; it lets the model builder and the
    oracle take any unitary, diagonal or not, both within ``CUSTOM_GATE_ATOL``.
    """

    kind = None

    def __init__(self, qubits, matrix):
        self.qubits = tuple(int(q) for q in qubits)
        if len(self.qubits) not in (1, 2) or len(set(self.qubits)) != len(self.qubits):
            raise CircuitError("custom gate needs 1 or 2 distinct qubits")
        m = np.asarray(matrix, dtype=np.complex128)
        dim = 2 ** len(self.qubits)
        if m.shape != (dim, dim):
            raise CircuitError(f"custom gate matrix must be {dim}x{dim}")
        if not np.allclose(m.conj().T @ m, np.eye(dim), atol=CUSTOM_GATE_ATOL):
            raise CircuitError("custom gate matrix is not unitary")
        m.setflags(write=False)
        self.matrix = m
        self.diagonal = bool(np.all(np.abs(m - np.diag(np.diagonal(m))) <= CUSTOM_GATE_ATOL))


@dataclass(frozen=True)
class Circuit:
    """Gate list organized into clock cycles over an m x n grid.

    ``cycles[0]`` is the initial layer, ``depth`` counts the cycles after
    it.  Gates inside each cycle are kept sorted by first qubit, which
    makes dataclass equality structural equality on canonical circuits.
    """

    rows: int
    cols: int
    cycles: tuple[tuple, ...]

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise CircuitError("grid must be at least 1x1")
        if self.rows * self.cols > MAX_QUBITS:
            raise CircuitError(f"grid {self.rows}x{self.cols} has more than {MAX_QUBITS} qubits")
        if not self.cycles:
            raise CircuitError("circuit needs at least cycle 0")
        if self.depth > MAX_DEPTH:
            raise CircuitError(f"depth {self.depth} exceeds the limit {MAX_DEPTH}")
        n = self.n_qubits
        canon = []
        for k, gates in enumerate(self.cycles):
            seen: set[int] = set()
            for g in gates:
                for q in g.qubits:
                    if not 0 <= q < n:
                        raise QubitBoundsError(
                            f"qubit {q} outside {self.rows}x{self.cols} grid (cycle {k})"
                        )
                    if q in seen:
                        raise CycleConflictError(f"qubit {q} used twice in cycle {k}")
                    seen.add(q)
            canon.append(tuple(sorted(gates, key=lambda g: g.qubits[0])))
        object.__setattr__(self, "cycles", tuple(canon))

    @property
    def n_qubits(self) -> int:
        return self.rows * self.cols

    @property
    def depth(self) -> int:
        return len(self.cycles) - 1

    def canonical(self) -> "Circuit":
        """Drop trailing empty cycles (the text format cannot carry them)."""
        last = len(self.cycles)
        while last > 1 and not self.cycles[last - 1]:
            last -= 1
        return Circuit(self.rows, self.cols, self.cycles[:last])


def has_hadamard_first_cycle(c: Circuit) -> bool:
    """True iff cycle 0 is exactly one H per qubit."""
    first = c.cycles[0]
    return len(first) == c.n_qubits and all(
        isinstance(g, Gate) and g.kind is GateKind.H for g in first
    )


_TOKEN_TO_KIND = {k.value: k for k in GateKind}


def parse_circuit(text: str) -> Circuit:
    """Parse the text format; inverse of :func:`serialize_circuit`.

    Raises :class:`CircuitParseError` for malformed lines; the grid,
    qubit-bounds and one-gate-per-qubit-per-cycle rules are
    :class:`Circuit`'s, whose errors name the cycle.
    """
    rows = cols = None
    cycle_gates: dict[int, list[Gate]] = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if rows is None:
            if len(tokens) != 2:
                raise CircuitParseError("expected header 'm n'", line_no)
            try:
                rows, cols = int(tokens[0]), int(tokens[1])
            except ValueError:
                raise CircuitParseError("grid sizes must be integers", line_no) from None
            continue
        if len(tokens) < 3:
            raise CircuitParseError("expected 'cycle gate q0 [q1]'", line_no)
        try:
            cycle = int(tokens[0])
        except ValueError:
            raise CircuitParseError(f"bad cycle index {tokens[0]!r}", line_no) from None
        if not 0 <= cycle <= MAX_DEPTH:
            raise CircuitParseError(f"cycle index must be in 0..{MAX_DEPTH}", line_no)
        kind = _TOKEN_TO_KIND.get(tokens[1])
        if kind is None:
            raise CircuitParseError(f"unknown gate {tokens[1]!r}", line_no)
        if len(tokens) != 2 + kind.n_qubits:
            raise CircuitParseError(f"{kind.value} takes {kind.n_qubits} qubit(s)", line_no)
        try:
            qubits = tuple(int(t) for t in tokens[2:])
        except ValueError:
            raise CircuitParseError("qubit indices must be integers", line_no) from None
        cycle_gates.setdefault(cycle, []).append(Gate(kind, qubits))
    if rows is None:
        raise CircuitParseError("empty circuit file", 1)
    n_cycles = max(cycle_gates, default=-1) + 1
    cycles = tuple(tuple(cycle_gates.get(k, ())) for k in range(max(n_cycles, 1)))
    circuit = Circuit(rows, cols, cycles)
    if not has_hadamard_first_cycle(circuit):
        raise CircuitError("cycle 0 must be exactly one h gate per qubit")
    return circuit


def serialize_circuit(c: Circuit) -> str:
    """Canonical text form: cycles ascending, gates sorted by first qubit.

    Empty cycles produce no lines, so trailing empty cycles do not round
    trip; ``parse(serialize(c))`` equals ``c.canonical()``.
    """
    lines = [f"{c.rows} {c.cols}"]
    for k, gates in enumerate(c.cycles):
        for g in gates:
            if not isinstance(g, Gate):
                raise CircuitError("custom gates are not serializable")
            qs = " ".join(str(q) for q in g.qubits)
            lines.append(f"{k} {g.kind.value} {qs}")
    return "\n".join(lines) + "\n"
