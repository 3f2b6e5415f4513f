"""Variable-elimination contraction and the cost model used for planning.

Eliminating a variable multiplies every factor containing it into one
product tensor, sums the variable out, and replaces those factors with
the result; the graph mirrors this by connecting all of the variable's
neighbors (the fill-in clique) and removing it.  ``eliminate_vertex`` is
that graph update, and every routine that replays an elimination (the
contraction, the cost model, min-fill, the searches) goes through it.
The cost of a step is 2^degree(v) at elimination time, the size of the
post-summation tensor; ``estimate_cost`` replays only the graph dynamics
and never touches tensor data, so the same routine prices candidate
orderings cheaply.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph_model import GraphModel, remove_vertex
from .tensor import (
    DEFAULT_MAX_RANK,
    RankOverflowError,
    VarId,
    multiply_all,
    sum_out,
)


@dataclass(frozen=True)
class Ordering:
    """Elimination order over the free variables, with provenance tag
    (vertical | min-fill | search | user)."""

    vars: tuple[VarId, ...]
    provenance: str = "user"

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if len(set(self.vars)) != len(self.vars):
            raise ValueError("ordering repeats a variable")

    def __len__(self) -> int:
        return len(self.vars)

    def __iter__(self):
        return iter(self.vars)

    def restrict(self, present) -> "Ordering":
        """Subsequence over the surviving variables, provenance kept."""
        present = set(present)
        return Ordering(tuple(v for v in self.vars if v in present), self.provenance)


@dataclass(frozen=True)
class CostStep:
    var: VarId
    degree: int
    cost: int  # 2**degree, exact integer


@dataclass(frozen=True)
class CostEstimate:
    steps: tuple[CostStep, ...]
    total: int
    max_rank: int


def _check_covers(g: GraphModel, order: Ordering):
    if set(order.vars) != set(g.adj):
        missing = set(g.adj) - set(order.vars)
        extra = set(order.vars) - set(g.adj)
        raise ValueError(
            f"ordering does not match free variables (missing {sorted(missing)},"
            f" extra {sorted(extra)})"
        )


def eliminate_vertex(adj: dict[VarId, set[VarId]], v: VarId) -> set[VarId]:
    """Remove ``v`` from the adjacency map and join its neighbors into a
    clique (the fill-in); returns the neighbors, whose count is the
    step's degree."""
    nbs = remove_vertex(adj, v)
    for u in nbs:
        au = adj[u]
        au |= nbs
        au.discard(u)
    return nbs


def simulate_cost(adj: dict[VarId, set[VarId]], order) -> CostEstimate:
    """Cost of eliminating in the given order, from graph dynamics alone.

    ``adj`` is consumed as scratch; pass a copy if the caller still needs
    it.  ``order`` may cover any subset; only listed vertices are
    eliminated.
    """
    steps = []
    total = 0
    max_rank = 0
    for v in order:
        deg = len(eliminate_vertex(adj, v))
        cost = 1 << deg
        steps.append(CostStep(v, deg, cost))
        total += cost
        max_rank = max(max_rank, deg)
    return CostEstimate(tuple(steps), total, max_rank)


def estimate_cost(g: GraphModel, order: Ordering) -> CostEstimate:
    """Price an ordering without touching tensor data."""
    _check_covers(g, order)
    adj = {v: set(ns) for v, ns in g.adj.items()}
    return simulate_cost(adj, order.vars)


def _eliminate_inplace(g: GraphModel, v: VarId, max_rank: int, step: int | None = None):
    if v not in g.adj:
        raise KeyError(f"variable {v} is not free in this model")
    touching = [f for f in g.factors if v in f.axes]
    rest = [f for f in g.factors if v not in f.axes]
    if touching:
        try:
            sigma = multiply_all(touching, max_rank=max_rank)
        except RankOverflowError as e:
            where = f"eliminating v{v}" + ("" if step is None else f" at step {step}")
            raise RankOverflowError(e.variables, context=where) from None
        reduced = sum_out(sigma, v)
        if reduced.rank == 0:
            g.scalar *= complex(reduced.data)
        else:
            rest.append(reduced)
    else:
        # no factor mentions v: summing an absent variable doubles the term
        g.scalar *= 2.0
    g.factors = rest
    eliminate_vertex(g.adj, v)


def eliminate_variable(
    g: GraphModel, v: VarId, max_rank: int = DEFAULT_MAX_RANK
) -> GraphModel:
    """New model with ``v`` summed out and its fill-in clique added."""
    out = g.clone()
    _eliminate_inplace(out, v, max_rank)
    return out


def contract(
    g: GraphModel,
    order: Ordering,
    max_rank: int = DEFAULT_MAX_RANK,
    trace_ranks: list[int] | None = None,
) -> complex:
    """Eliminate every free variable in order; returns the amplitude.

    ``trace_ranks``, if supplied, receives the rank of each intermediate
    product tensor (one entry per step), which is what peak memory
    follows.  Factor lists and neighbor sets are iterated in a fixed
    order, so the result is bit-reproducible.
    """
    _check_covers(g, order)
    work = g.clone()
    for step, v in enumerate(order.vars):
        if trace_ranks is not None:
            union: set[VarId] = set()
            for f in work.factors:
                if v in f.axes:
                    union.update(f.axes)
            trace_ranks.append(len(union))
        _eliminate_inplace(work, v, max_rank, step=step)
    for f in work.factors:
        # unreachable for a covering ordering; guard against misuse
        raise RuntimeError(f"non-scalar factor {f!r} left after contraction")
    return complex(work.scalar)
