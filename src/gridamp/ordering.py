"""Elimination-ordering heuristics.

Three producers: the vertical ordering (each qubit's variables in
temporal order, qubit by qubit), greedy min-fill, and an anytime
randomized search that runs seeded min-fill restarts plus local
adjacent-transposition improvements against the step-cost sum until a
time or restart budget runs out.  The search's candidate stream is
deterministic given the seed; budgets only truncate it, so a larger
budget can never return a worse result.

Swap locality: eliminating {a, b} leaves the same graph in either order,
so swapping the neighbors a = cur[i], b = cur[i+1] changes only the
costs of steps i and i+1.  On the graph P left by eliminating cur[:i],
if b is a neighbor of a then whichever goes second has degree
|N(a) ∪ N(b)| - 2 either way, so the swap changes the total by
2^|N(b)| - 2^|N(a)|; otherwise neither degree changes.  A sweep of
local moves therefore keeps P, prices each swap from N(a) and N(b)
alone, and then eliminates cur[i] from P; it never replays the whole
ordering.

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

from .elimination import CostEstimate, Ordering, eliminate_vertex, simulate_cost
from .graph_model import GraphModel, copy_adj, remove_vertex


@dataclass(frozen=True)
class OrderingBudget:
    """Search budget: wall-clock seconds and/or a restart cap, plus the
    seed for tie-breaking and restart randomization."""

    time_s: float | None = 60.0
    max_restarts: int | None = None
    seed: int = 0

    def __post_init__(self):
        if self.time_s is None and self.max_restarts is None:
            raise ValueError("budget needs a time limit or a restart cap")
        if self.time_s is not None and self.time_s < 0:
            raise ValueError("time budget must be >= 0")
        if self.max_restarts is not None and self.max_restarts < 1:
            raise ValueError("restart cap must be >= 1")


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


def _swap_delta(prefix: dict[int, set[int]], a: int, b: int) -> int:
    """Change in total cost from eliminating b before a on ``prefix``
    (see the module docstring)."""
    na = prefix[a]
    if b not in na:
        return 0
    # the later of the two steps has degree |N(a) ∪ N(b)| - 2 in either
    # order, so its cost cancels
    return (1 << len(prefix[b])) - (1 << len(na))


def _local_improve(adj, vars_list, est, deadline) -> tuple[list[int], CostEstimate]:
    """First-improvement sweeps of adjacent transpositions; deterministic,
    the deadline only truncates.  A swap is kept when it lowers the total
    cost, priced incrementally against the sweep's prefix graph."""
    cur = list(vars_list)
    moved = False
    improved = True
    while improved:
        improved = False
        prefix = copy_adj(adj)
        for i in range(len(cur) - 1):
            if deadline is not None and time.perf_counter() >= deadline:
                return cur, (simulate_cost(adj, cur) if moved else est)
            if _swap_delta(prefix, cur[i], cur[i + 1]) < 0:
                cur[i], cur[i + 1] = cur[i + 1], cur[i]
                improved = moved = True
            eliminate_vertex(prefix, cur[i])
    return cur, (simulate_cost(adj, cur) if moved else est)


def search_ordering(
    g: GraphModel, budget: OrderingBudget
) -> tuple[Ordering, CostEstimate]:
    """Best ordering found within the budget, with its cost estimate.

    Restart ``i`` runs min-fill with seed ``budget.seed + i`` and then
    polishes it with local moves; restart 0 therefore reproduces plain
    ``min_fill_ordering(g, budget.seed)``, so the result is never worse
    than that.  Candidates are compared by (total cost, variable tuple).
    """
    deadline = (
        None if budget.time_s is None else time.perf_counter() + budget.time_s
    )
    best: tuple[int, tuple[int, ...], CostEstimate] | None = None

    def consider(vars_tuple: tuple[int, ...], est: CostEstimate):
        nonlocal best
        key = (est.total, vars_tuple)
        if best is None or key < (best[0], best[1]):
            best = (est.total, vars_tuple, est)

    i = 0
    while True:
        if i > 0:
            if budget.max_restarts is not None and i >= budget.max_restarts:
                break
            if deadline is not None and time.perf_counter() >= deadline:
                break
        cand = min_fill_ordering(g, seed=budget.seed + i)
        est = simulate_cost(g.adj, cand.vars)
        consider(cand.vars, est)
        moved, moved_est = _local_improve(g.adj, list(cand.vars), est, deadline)
        consider(tuple(moved), moved_est)
        i += 1
    assert best is not None
    return Ordering(best[1], "search"), best[2]


__all__ = [
    "OrderingBudget",
    "vertical_ordering",
    "min_fill_ordering",
    "search_ordering",
    "fill_count",
]
