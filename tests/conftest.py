"""Shared fixtures and helpers: the reference four-qubit circuit, its
model, the golden coupling-layout data for the 8x7 grid, the grid cases
and fan-out plan several test modules run, the full-replay fix
reference, and a patch that keeps the engine from forming runs."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from gridamp import (
    BudgetUnreachableError,
    Circuit,
    CostBudget,
    CustomGate,
    GateKind,
    GenParams,
    GraphModel,
    OrderingBudget,
    build_model,
    generate,
    parse_circuit,
    search_ordering,
    select_fix_set,
)
from gridamp import elimination
from gridamp.elimination import simulate_cost

SEARCH_BUDGET = OrderingBudget(time_s=None, max_restarts=2)

# Four qubits in a row, eight cycles: a Hadamard layer, six mixed cycles
# whose CZ pairs walk (0,1),(2,3),(0,2),(1,3),(1,2),(0,3), and a closing
# Hadamard layer.  Small enough to brute-force, rich enough to exercise
# every gadget except the non-diagonal two-qubit one.
REF4Q_TEXT = """\
1 4
0 h 0
0 h 1
0 h 2
0 h 3
1 cz 0 1
1 x_1_2 2
1 y_1_2 3
2 t 0
2 t 1
2 cz 2 3
3 cz 0 2
3 id 1
3 x_1_2 3
4 x_1_2 0
4 cz 1 3
4 id 2
5 y_1_2 0
5 cz 1 2
5 y_1_2 3
6 cz 0 3
6 id 1
6 id 2
7 h 0
7 h 1
7 h 2
7 h 3
"""

# The ten wire variables of the reference model, named a..j by the
# (qubit, creation cycle) they track.
REF4Q_LETTERS = {
    "a": (0, 0),
    "b": (1, 0),
    "c": (2, 0),
    "d": (3, 0),
    "e": (2, 1),
    "f": (3, 1),
    "g": (3, 3),
    "h": (0, 4),
    "i": (0, 5),
    "j": (3, 5),
}

REF4Q_EDGES = {
    "ab", "ae", "ah", "be", "bg", "ce", "df", "ef", "fg", "gj", "hi", "ij",
}

# Expected CZ pairs of the eight coupling layouts on an 8x7 grid (qubits
# as row-major linear indices); golden data for cz_layer.
LAYOUT_PAIRS_8X7 = {
    1: [(2, 3), (7, 8), (11, 12), (16, 17), (21, 22), (25, 26),
        (30, 31), (35, 36), (39, 40), (44, 45), (49, 50), (53, 54)],
    2: [(0, 1), (4, 5), (9, 10), (14, 15), (18, 19), (23, 24),
        (28, 29), (32, 33), (37, 38), (42, 43), (46, 47), (51, 52)],
    3: [(8, 15), (10, 17), (12, 19), (21, 28), (23, 30), (25, 32),
        (27, 34), (36, 43), (38, 45), (40, 47)],
    4: [(7, 14), (9, 16), (11, 18), (13, 20), (22, 29), (24, 31),
        (26, 33), (35, 42), (37, 44), (39, 46), (41, 48)],
    5: [(3, 4), (8, 9), (12, 13), (17, 18), (22, 23), (26, 27),
        (31, 32), (36, 37), (40, 41), (45, 46), (50, 51), (54, 55)],
    6: [(1, 2), (5, 6), (10, 11), (15, 16), (19, 20), (24, 25),
        (29, 30), (33, 34), (38, 39), (43, 44), (47, 48), (52, 53)],
    7: [(0, 7), (2, 9), (4, 11), (6, 13), (15, 22), (17, 24), (19, 26),
        (28, 35), (30, 37), (32, 39), (34, 41), (43, 50), (45, 52), (47, 54)],
    8: [(1, 8), (3, 10), (5, 12), (14, 21), (16, 23), (18, 25), (20, 27),
        (29, 36), (31, 38), (33, 40), (42, 49), (44, 51), (46, 53), (48, 55)],
}


def with_custom_gates(c: Circuit, every: int, seed: int) -> Circuit:
    """``c`` with every ``every``-th CZ replaced by a random non-diagonal
    two-qubit ``CustomGate``, whose gadget adds two variables and a
    rank-4 factor."""
    rng = np.random.default_rng(seed)
    cycles, n_cz = [], 0
    for gates in c.cycles:
        out = []
        for g in gates:
            if g.kind is GateKind.CZ:
                n_cz += 1
                if n_cz % every == 0:
                    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
                    g = CustomGate(g.qubits, np.linalg.qr(z)[0])
                    assert not g.diagonal
            out.append(g)
        cycles.append(tuple(out))
    return Circuit(c.rows, c.cols, tuple(cycles))


def letter_ids(model: GraphModel) -> dict[str, int]:
    """Map the reference model's letters to its variable ids."""
    by_qc = {(info.qubit, info.cycle): v for v, info in model.var_info.items()}
    return {name: by_qc[qc] for name, qc in REF4Q_LETTERS.items()}


def edge_names(model: GraphModel) -> set[str]:
    ids = letter_ids(model)
    names = {v: name for name, v in ids.items()}
    return {"".join(sorted((names[u], names[v]))) for u, v in model.edges()}


def no_runs(monkeypatch):
    """Patch ``elimination`` so that every step sums its one variable: no
    run forms, and an ``_eliminate_run`` call fails the test."""
    monkeypatch.setattr(elimination, "_run_length", lambda *args: 1)
    monkeypatch.setattr(elimination, "_eliminate_run",
                        mock.Mock(side_effect=AssertionError("a run formed")))


def plan_over_budget(*args, **kwargs):
    """``select_fix_set``'s plan, or the over-budget plan its
    ``BudgetUnreachableError`` carries."""
    try:
        return select_fix_set(*args, **kwargs)
    except BudgetUnreachableError as e:
        return e.plan


def grid_model(rows, depth, seed, custom_every=0):
    """Model of a generated square-grid circuit.  With ``custom_every``,
    every that-many-th CZ becomes a random non-diagonal two-qubit
    ``CustomGate``."""
    c = generate(GenParams(rows, rows, depth, seed))
    if custom_every:
        c = with_custom_gates(c, custom_every, seed)
    return build_model(c, "0" * (rows * rows))


# (rows, depth, seed, custom_every): 4x4 to 6x6, with and without
# non-diagonal two-qubit gates
CASES = [
    (4, 12, 0, 0),
    (4, 16, 3, 2),
    (5, 16, 1, 0),
    (5, 20, 2, 3),
    (6, 16, 4, 0),
    (6, 16, 5, 5),
]
CASE_IDS = [f"{r}x{r}x{d}:{s}" + ("+custom" if k else "") for r, d, s, k in CASES]


def fanout_plan(rows=6, cols=6, depth=24, seed=0, rank=10, select=select_fix_set):
    """A plan made as the fanout-6x6x24 benchmark makes it: restart cap 2
    for both searches, t_max 8, all-zeros output.  The defaults give that
    workload's circuit 0."""
    c = generate(GenParams(rows, cols, depth, seed))
    model = build_model(c, "0" * (rows * cols))
    base, _ = search_ordering(model, SEARCH_BUDGET)
    plan = select(model, base, t_max=8, budget=CostBudget(max_rank=rank),
                  ordering_budget=SEARCH_BUDGET)
    return c, model, plan


def reference_fix_totals(adj, order):
    """Every vertex priced by replaying the whole reduced elimination."""
    totals = {}
    for v in adj:
        reduced = {u: ns - {v} for u, ns in adj.items() if u != v}
        totals[v] = simulate_cost(reduced, [u for u in order if u != v]).total
    return totals


def reference_best_fix(adj, order):
    """The cheapest vertex by full replay; ties go to the lower id."""
    best_v, best_total = None, None
    for v, total in sorted(reference_fix_totals(adj, order).items()):
        if best_total is None or total < best_total:
            best_v, best_total = v, total
    return best_v


@pytest.fixture(scope="session")
def ref4q_circuit() -> Circuit:
    return parse_circuit(REF4Q_TEXT)


@pytest.fixture()
def ref4q_model(ref4q_circuit) -> GraphModel:
    return build_model(ref4q_circuit, "0000")
