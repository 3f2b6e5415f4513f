"""Digital-error-model fidelity estimates.

Gate-count formulas for the generated circuit family and the resulting
circuit fidelity alpha = exp(-eps1*g1 - eps2*g2 - eps_init*N - eps_mes*N).
The g2 formula is exact whenever the depth is a multiple of 8; g1 is an
asymptotic approximation (it goes negative at very small depth, where
the report and alpha count 0, and does not include the initial Hadamard
layer).  Exact counts from a concrete circuit are reported alongside
whenever one is available.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .circuit import Circuit
from .generator import count_gates


@dataclass(frozen=True)
class ErrorRates:
    """Per-gate Pauli error rates; all dimensionless and < 1."""

    eps1: float
    eps2: float
    eps_init: float
    eps_mes: float

    def __post_init__(self):
        for name in ("eps1", "eps2", "eps_init", "eps_mes"):
            r = getattr(self, name)
            if not 0.0 <= r < 1.0:
                raise ValueError(f"{name}={r} outside [0, 1)")

    @classmethod
    def from_two_qubit_rate(cls, eps: float) -> "ErrorRates":
        """The standard assumption: init/measure errors equal the
        two-qubit rate, single-qubit gates are 10x better."""
        return cls(eps1=eps / 10.0, eps2=eps, eps_init=eps, eps_mes=eps)


def g2_formula(m: int, n: int, d: int) -> float:
    """Two-qubit gate count; exact when 8 divides d."""
    return (d / 8.0) * ((m - 1) * n + m * (n - 1))


def g1_formula(m: int, n: int, d: int) -> float:
    """Single-qubit gate count after cycle 0, asymptotic in d."""
    return (d / 8.0) * (3 * m * n - (m + n + 1)) - 0.25 * m * n


def alpha_general(g1: float, g2: float, n_qubits: int, rates: ErrorRates) -> float:
    """Circuit fidelity from gate counts and qubit count."""
    return math.exp(
        -rates.eps1 * g1
        - rates.eps2 * g2
        - rates.eps_init * n_qubits
        - rates.eps_mes * n_qubits
    )


def alpha_square(n_qubits: int, d: int, eps: float) -> float:
    """Closed-form fidelity for a square grid under the standard rates.

    Includes the initial Hadamard layer in the single-qubit budget.  For
    non-square qubit counts sqrt(N) is used as-is, with a warning.
    """
    root = math.sqrt(n_qubits)
    if root != int(root):
        warnings.warn(
            f"alpha_square: {n_qubits} is not a perfect square; using sqrt(N)={root:.4f}",
            stacklevel=2,
        )
    exponent = (
        d / 4.0 * (n_qubits - root)
        + 2.0 * n_qubits
        + d / 80.0 * (3 * n_qubits - 2 * root - 1)
        + 3.0 * n_qubits / 40.0
    )
    return math.exp(-exponent * eps)


def alpha_from_formulas(m: int, n: int, d: int, rates: ErrorRates) -> float:
    """Fidelity from the count formulas, with the initial Hadamard layer
    (m*n extra single-qubit gates) included so it matches
    :func:`alpha_square` on square grids."""
    return alpha_general(
        max(g1_formula(m, n, d), 0.0) + m * n, g2_formula(m, n, d), m * n, rates
    )


@dataclass(frozen=True)
class FidelityReport:
    """Formula counts, exact counts when a circuit was supplied, and the
    fidelity estimates."""

    rows: int
    cols: int
    depth: int
    g1: float
    g2: float
    g1_exact: int | None
    g2_exact: int | None
    alpha_general: float
    alpha_square: float | None


def fidelity_report(
    m: int, n: int, d: int, rates: ErrorRates, circuit: Circuit | None = None
) -> FidelityReport:
    """Assemble the full report for an m x n x d circuit family member.

    ``alpha_general`` uses exact counts when a circuit is given (its g1
    already contains the Hadamard layer), otherwise the formulas plus the
    Hadamard layer.  ``alpha_square`` is only reported for square grids.
    """
    g1f, g2f = max(g1_formula(m, n, d), 0.0), g2_formula(m, n, d)
    g1_exact = g2_exact = None
    if circuit is not None:
        g1_exact, g2_exact = count_gates(circuit)
        alpha_gen = alpha_general(g1_exact, g2_exact, m * n, rates)
    else:
        alpha_gen = alpha_from_formulas(m, n, d, rates)
    alpha_sq = alpha_square(m * n, d, rates.eps2) if m == n else None
    return FidelityReport(
        rows=m,
        cols=n,
        depth=d,
        g1=g1f,
        g2=g2f,
        g1_exact=g1_exact,
        g2_exact=g2_exact,
        alpha_general=alpha_gen,
        alpha_square=alpha_sq,
    )
