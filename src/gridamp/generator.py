"""Random grid-circuit generator with eight alternating CZ layouts.

The construction: an initial all-Hadamard cycle; then cycle ``k`` places
the controlled-Z layout ``((k-1) mod 8) + 1``; a single-qubit gate lands
on qubit ``q`` in cycle ``k >= 2`` exactly when ``q`` had a CZ in cycle
``k-1`` and has none in cycle ``k``.  The first single-qubit gate a qubit
ever receives after cycle 0 is a T; later ones are drawn uniformly from
{x_1_2, y_1_2, t}.

Randomness comes from NumPy's seeded PCG64 generator with a fixed stream
order (cycles ascending, qubits ascending inside a cycle); forced T
placements consume no draw.  Equal params therefore reproduce the same
circuit byte for byte on any platform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import MAX_QUBITS, Circuit, CircuitError, Gate, GateKind

# Horizontal layouts couple (r, c)-(r, c+1) where (c + 2*(r mod 2)) mod 4
# hits the layout's offset; vertical layouts couple (r, c)-(r+1, c) on
# (r + 2*(c mod 2)) mod 4.  Offsets chosen so the four layouts of each
# direction tile every neighbor pair exactly once per 8-cycle period.
HORIZONTAL_OFFSETS = {1: 2, 2: 0, 5: 3, 6: 1}
VERTICAL_OFFSETS = {3: 3, 4: 1, 7: 0, 8: 2}

_SINGLE_QUBIT_CHOICES = (GateKind.SQRT_X, GateKind.SQRT_Y, GateKind.T)


@dataclass(frozen=True)
class GenParams:
    """Generator inputs; ``distinct_from_previous`` adds the optional
    restriction that a qubit's random gate differs from its previous one."""

    rows: int
    cols: int
    depth: int
    seed: int = 0
    distinct_from_previous: bool = False

    def __post_init__(self):
        if self.rows < 1 or self.cols < 1:
            raise ValueError("grid must be at least 1x1")
        if self.depth < 0:
            raise ValueError("depth must be >= 0")
        if self.rows * self.cols > MAX_QUBITS:
            raise CircuitError(f"grid {self.rows}x{self.cols} has more than {MAX_QUBITS} qubits")


def cz_layer(config: int, rows: int, cols: int) -> set[tuple[int, int]]:
    """Disjoint qubit pairs (linear indices, low first) of one CZ layout."""
    if config not in range(1, 9):
        raise ValueError(f"config must be in 1..8, got {config}")
    pairs: set[tuple[int, int]] = set()
    if config in HORIZONTAL_OFFSETS:
        offset = HORIZONTAL_OFFSETS[config]
        for r in range(rows):
            for c in range(cols - 1):
                if (c + 2 * (r % 2)) % 4 == offset:
                    q = r * cols + c
                    pairs.add((q, q + 1))
    else:
        offset = VERTICAL_OFFSETS[config]
        for r in range(rows - 1):
            for c in range(cols):
                if (r + 2 * (c % 2)) % 4 == offset:
                    q = r * cols + c
                    pairs.add((q, q + cols))
    return pairs


def config_for_cycle(k: int) -> int:
    """Layout used in cycle ``k >= 1``; continues sequentially past 8."""
    return (k - 1) % 8 + 1


def generate(params: GenParams) -> Circuit:
    """Generate a random circuit; deterministic for fixed params."""
    rows, cols, depth = params.rows, params.cols, params.depth
    n = rows * cols
    rng = np.random.default_rng(params.seed)
    cycles: list[tuple[Gate, ...]] = [
        tuple(Gate(GateKind.H, (q,)) for q in range(n))
    ]
    last_single: list[GateKind | None] = [None] * n
    prev_support: set[int] = set()
    for k in range(1, depth + 1):
        layer = cz_layer(config_for_cycle(k), rows, cols)
        support = {q for pair in layer for q in pair}
        gates = [Gate(GateKind.CZ, pair) for pair in sorted(layer)]
        if k >= 2:
            for q in sorted(prev_support - support):
                if last_single[q] is None:
                    kind = GateKind.T
                else:
                    if params.distinct_from_previous:
                        options = tuple(
                            g for g in _SINGLE_QUBIT_CHOICES if g is not last_single[q]
                        )
                    else:
                        options = _SINGLE_QUBIT_CHOICES
                    kind = options[int(rng.integers(len(options)))]
                gates.append(Gate(kind, (q,)))
                last_single[q] = kind
        cycles.append(tuple(gates))
        prev_support = support
    return Circuit(rows, cols, tuple(cycles))


def count_gates(c: Circuit) -> tuple[int, int]:
    """(g1, g2): single-qubit gates excluding identities, and 2-qubit gates.

    The initial Hadamard cycle counts toward g1.
    """
    g1 = g2 = 0
    for gates in c.cycles:
        for g in gates:
            if len(g.qubits) == 2:
                g2 += 1
            elif g.kind is not GateKind.ID:
                g1 += 1
    return g1, g2
