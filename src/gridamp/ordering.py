"""Elimination-ordering heuristics.

Three producers: the vertical ordering (each qubit's variables in
temporal order, qubit by qubit), greedy min-fill, and an anytime
randomized search that runs seeded min-fill restarts and keeps the
cheapest by the step-cost sum until its restart cap, or earlier at an
optional deadline.  The search's candidate stream is deterministic given
the seed; budgets only truncate it, between restarts, so a larger budget
can never return a worse result.

Fill counts: min-fill keeps each vertex's fill count (the non-adjacent
pairs among its neighbors) current with exact integer deltas instead of
recounting them.  Eliminating v first removes v: each neighbor u loses
the pairs {v, w} with w outside N[v] = N(v) + v, |N(u) - N[v]| of them.
Then v's fill edges are added one at a time.  Adding {x, y} makes the
pair adjacent for every common neighbor of x and y, which loses 1,
while x gains the pairs {y, w} for w in N(x) - N(y), and y gains
|N(y) - N(x)| likewise.  The counts, and so the pool, the tie-breaks
and the rng draws, are those of a recount.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .elimination import CostEstimate, Ordering, simulate_cost
from .graph_model import GraphModel, copy_adj, remove_vertex


@dataclass(frozen=True)
class OrderingBudget:
    """Search budget: a restart cap and an optional wall-clock deadline in
    seconds, plus the seed for tie-breaking and restart randomization."""

    max_restarts: int
    time_s: float | None = None
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.max_restarts, int) or self.max_restarts < 1:
            raise ValueError(f"restart cap must be an int >= 1, got {self.max_restarts!r}")
        if self.time_s is not None and self.time_s < 0:
            raise ValueError("time budget must be >= 0")


def vertical_ordering(g: GraphModel) -> Ordering:
    """Qubit 0's variables in creation order, then qubit 1's, and so on."""
    info = g.var_info
    vs = sorted(g.adj, key=lambda v: (info[v].qubit, info[v].cycle, v))
    return Ordering(tuple(vs), "vertical")


def fill_count(adj: dict[int, set[int]], v: int) -> int:
    """Number of edges elimination of ``v`` would add right now."""
    nbs = sorted(adj[v])
    fills = 0
    for i, u in enumerate(nbs):
        au = adj[u]
        for w in nbs[i + 1 :]:
            if w not in au:
                fills += 1
    return fills


def _eliminate_keeping_fills(adj: dict[int, set[int]], fills: dict[int, int], v: int):
    """Eliminate ``v`` and bring every fill count up to date by the exact
    deltas of the module docstring: first drop ``v``, then add its fill
    edges one at a time."""
    nbs = remove_vertex(adj, v)
    del fills[v]
    for u in nbs:
        au = adj[u]
        fills[u] -= len(au) - len(au & nbs)
    for x in nbs:
        ax = adj[x]
        missing = nbs - ax
        missing.discard(x)
        for y in missing:
            ay = adj[y]
            common = ax & ay
            for w in common:
                fills[w] -= 1
            fills[x] += len(ax) - len(common)
            fills[y] += len(ay) - len(common)
            ax.add(y)
            ay.add(x)


def min_fill_ordering(g: GraphModel, seed: int = 0) -> Ordering:
    """Greedy ordering: repeatedly eliminate a vertex adding the fewest
    fill edges; ties broken by lower degree, then seeded random choice."""
    adj = copy_adj(g.adj)
    rng = np.random.default_rng(seed)
    fills = {v: fill_count(adj, v) for v in adj}
    order: list[int] = []
    while adj:
        best_fill = min(fills.values())
        pool = [v for v, f in fills.items() if f == best_fill]
        best_deg = min(len(adj[v]) for v in pool)
        pool = sorted(v for v in pool if len(adj[v]) == best_deg)
        v = pool[int(rng.integers(len(pool)))] if len(pool) > 1 else pool[0]
        order.append(v)
        _eliminate_keeping_fills(adj, fills, v)
    return Ordering(tuple(order), "min-fill")


def search_ordering(
    g: GraphModel, budget: OrderingBudget
) -> tuple[Ordering, CostEstimate]:
    """Cheapest ordering found within the budget, with its cost estimate.

    Restart ``i`` runs min-fill with seed ``budget.seed + i``, priced once
    with ``simulate_cost``, for ``budget.max_restarts`` restarts at most;
    restart 0 always runs, so the result is never worse than plain
    ``min_fill_ordering(g, budget.seed)``.  A deadline can only stop the
    search earlier, and is checked only between restarts.  Candidates are
    compared by (total cost, variable tuple).
    """
    deadline = None if budget.time_s is None else time.perf_counter() + budget.time_s
    best: tuple[int, tuple[int, ...], CostEstimate] | None = None
    for i in range(budget.max_restarts):
        if i and deadline is not None and time.perf_counter() >= deadline:
            break
        cand = min_fill_ordering(g, seed=budget.seed + i).vars
        est = simulate_cost(g.adj, cand)
        if best is None or (est.total, cand) < best[:2]:
            best = (est.total, cand, est)
    return Ordering(best[1], "search"), best[2]

