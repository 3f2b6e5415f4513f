"""Parallelization by fixing variable values.

Fixing variables slices every factor at the chosen bits in one pass of
``GraphModel._fix``, the rule that also applies the circuit's boundary
conditions, and deletes the vertices with their edges; no new tensor
appears.  Fixing t variables splits the amplitude sum into 2^t
independent subtasks that contract the same reduced graph under the
same ordering and are summed at the end.  ``select_fix_set`` plans in
three stages (rules in its docstring): a greedy fix priced against the
base ordering until that ordering meets the rank budget, a post-fix
search of the reduced graph that competes with the restricted base
ordering, and a give-back of the fixed variables the budget does not
need, each eliminated last as a batch axis.

Prefix reuse: let candidate v sit at position p_v of the base ordering.
Before step p_v, the graph left by eliminating the same prefix from
G - v is that of G with v removed (removing a vertex commutes with
eliminating others).  Each step k < p_v therefore costs the same in
G - v, halved when v is a neighbor of the step's vertex.  One sweep of
the base elimination prices every candidate's prefix: the base prefix
total minus those halves.  The sweep also records each step's neighbor
set B and its fill pairs, the pairs of B it joins.

Missing edges: after step p_v the candidate's graph has the same
vertices as the base one and is the base graph minus a set D of its
edges.  D starts as v's fill pairs, which the base step p_v adds and the
candidate, which only removes v, does not.  At step j, with u = order[j]
and D(u) the partners of u in D, u has |B| - |D(u)| neighbors in the
candidate's graph, so the step costs 2^|B| - 2^(|B| - |D(u)|) less than
the base step.  Eliminating u then drops u's pairs from D, drops the
pairs with both ends in B - D(u) (the candidate's clique joins them
too), and adds the step's fill pairs that touch D(u) (the candidate's u
does not reach that end).  When D is empty the two graphs are equal, and
the rest of the candidate's cost is the base suffix total.  Each vertex
is named by its position in the round's ordering, which is its step, so
B and the partners of a fill pair's end are int bitmasks over positions,
and D maps each of its vertices to its partner mask.  Only a step whose
u is in D, or whose B holds two or more of D's vertices, can change D or
the cost.  At any other step D(u) is empty, so u keeps all |B| neighbors
and the step costs exactly the base step's 2^|B|; B holds at most one
end of any pair of D, so no pair is dropped; and no fill pair is added,
since none touches an empty D(u).  The walk therefore jumps to the
lowest step past j in D's key mask or in ``twos``, the mask of the steps
whose B holds two or more of D's vertices, and adds the steps it passes
from the suffix totals in one subtraction.  ``twos`` is built from each
vertex's mask of the steps whose B holds it, as ``twos |= ones &
occurs[x]; ones |= occurs[x]`` over D's vertices x, and rebuilt only
when those vertices change.

Kept vertices: ``elimination._kept_sweep`` eliminates an ordering on a
copy of the full graph and never eliminates a vertex the ordering leaves
out, such as the fixed set F; B_k is step k's neighbor set.  Removing a
vertex commutes with eliminating others, so step k's degree is |B_k - F|
with F sliced, |B_k - F| + [v in B_k] with one fixed v given back (v's
own last step has degree 0), and |B_k| with F open as batch axes.  One
sweep thus prices every give-back candidate and the plan it returns;
extended by v's step, it is the sweep of the next give-back round.
Another gives ``run_partitioned`` its batch width.

Fan-out: ``run_partitioned`` slices a prefix S of F and leaves the rest
open as batch axes.  |B_k| is at most t above |B_k - F|, so a batched
step costs at most what its 2^t slices would, and batching never adds
work.  F is all batched when every product, the last one over F
included, fits min(CHUNK_RANK, max_rank) axes (16 MiB at 20; none is
chunked), else all sliced.  Each of the 2^|S| subtasks clones the model,
slices S and is one ``contract`` over the whole post-fix ordering with
the rest of F open, so a sliced amplitude is the fixed sum of
independently contracted slices, bit for bit, on any number of workers.
The workers take the next slice index from one shared iterator, and
each slice writes its values into its row of one complex128 array of
2^t entries, allocated before any slice runs; ``_tree_sum`` adds its
neighbors level by level.
A batched product pairs its inputs otherwise than a slice does, so a
batched amplitude agrees with independent slices to rounding.  Every
slice files the same bucket layouts, so a rank overflow fails them all
at one step and names only its variable and that step.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import elimination
from .elimination import (
    CostEstimate,
    Ordering,
    _check_covers,
    _estimate,
    _kept_sweep,
    contract,
    eliminate_vertex,
    simulate_cost,
)
from .graph_model import GraphModel, copy_adj, remove_vertex
from .ordering import OrderingBudget, search_ordering
from .tensor import DEFAULT_MAX_RANK, VarId

# far above any useful count; a pool may start this many threads
MAX_WORKERS = 1024


class BudgetUnreachableError(RuntimeError):
    """The plan's subtask estimate is over budget after the last fix."""

    def __init__(self, plan: "FixPlan", budget: "CostBudget"):
        self.plan = plan
        estimate = plan.est_subtask_cost
        super().__init__(
            f"after fixing {len(plan.fix_vars)} variables the subtask still needs rank "
            f"{estimate.max_rank} / cost {estimate.total} (budget {budget})"
        )


@dataclass(frozen=True)
class CostBudget:
    """Per-subtask budget: a maximum post-summation rank, set by the caller."""

    max_rank: int


@dataclass(frozen=True)
class FixPlan:
    """Variables to parallelize over, plus the ordering (ending with any
    variables given back) and estimated cost of each of the 2^t subtasks."""

    fix_vars: tuple[VarId, ...]
    post_fix_ordering: Ordering
    est_subtask_cost: CostEstimate

    @property
    def num_subtasks(self) -> int:
        return 1 << len(self.fix_vars)

    @property
    def est_total_cost(self) -> int:
        """The plan's estimated work over all its subtasks."""
        return self.num_subtasks * self.est_subtask_cost.total


@dataclass(frozen=True)
class AmplitudeResult:
    """One amplitude; the plan that made it carries its other facts."""

    amplitude: complex
    est_total_cost: int
    wall_ms: float
    batch_vars: tuple[VarId, ...]  # fixed variables left open as batch axes


def fix_variable(g: GraphModel, v: VarId, bit: int) -> GraphModel:
    """New model with ``v`` fixed to ``bit``; factors sliced, vertex and
    its edges removed."""
    out = g.clone()
    out._fix({v: bit})
    return out


def _fix_sweep(adj: dict[VarId, set[VarId]], order: list[VarId]) -> tuple[list, ...]:
    """B and the fill pairs of each step of the base elimination, as
    bitmasks over positions in ``order``, and for each position the mask
    of the steps whose B holds it and what they cost less without it."""
    pos = {u: k for k, u in enumerate(order)}
    bit = {u: 1 << k for k, u in enumerate(order)}.__getitem__
    base = copy_adj(adj)
    neighbors = []  # B of each step
    fills = []  # each step's fill pairs, as {position: partner mask} over both ends
    occurs = [0] * len(order)  # occurs[x]: mask of the steps whose B holds x
    halves = [0] * len(order)  # what the steps before x cost less without x
    for k, u in enumerate(order):
        nbs = base[u]
        half = (1 << len(nbs)) >> 1
        fill = {}
        for x in nbs:
            p = pos[x]
            occurs[p] |= 1 << k
            halves[p] += half
            joined = nbs - base[x]
            joined.discard(x)
            if joined:
                fill[p] = sum(map(bit, joined))
        fills.append(fill)
        neighbors.append(sum(map(bit, eliminate_vertex(base, u))))
    return neighbors, fills, occurs, halves


def _priced_fixes(order: list[VarId], neighbors: list, fills: list, occurs: list,
                  halves: list) -> dict[VarId, int]:
    """Each vertex's total with it removed from the graph ``_fix_sweep``
    swept: a missing-edge walk each that visits only the steps able to
    change D (module docstring)."""
    degrees = [nbs.bit_count() for nbs in neighbors]
    costs = [1 << d for d in degrees]
    after = [0] * (len(order) + 1)  # after[k]: cost of steps k onwards
    for k in range(len(order) - 1, -1, -1):
        after[k] = after[k + 1] + costs[k]
    totals = {}
    for k, v in enumerate(order):
        total = after[0] - after[k] - halves[k]
        missing = dict(fills[k])  # D
        keyed = sum(map((1).__lshift__, missing))  # D's keys as a mask
        built = 0  # the key mask ``twos`` was built for
        j = k + 1
        while missing:
            if keyed != built:  # the steps whose B holds two or more keys
                ones = twos = 0
                for x in missing:
                    twos |= ones & occurs[x]
                    ones |= occurs[x]
                built = keyed
            ahead = (keyed | twos) >> j
            step = j + (ahead & -ahead).bit_length() - 1
            total += after[j] - after[step]  # each skipped step costs the base's
            j = step
            du = missing.pop(j, None)
            if du is None:
                total += costs[j]
                keep = neighbors[j]
            else:
                keyed ^= 1 << j
                ws = du
                while ws:
                    low = ws & -ws
                    ws ^= low
                    w = low.bit_length() - 1
                    partners = missing[w] ^ (1 << j)
                    if partners:
                        missing[w] = partners
                    else:
                        del missing[w]
                        keyed ^= low
                total += 1 << (degrees[j] - du.bit_count())
                keep = neighbors[j] & ~du
            # the step's clique supplies the missing pairs inside keep
            hit = keep & keyed
            if hit & (hit - 1):
                while hit:
                    low = hit & -hit
                    hit ^= low
                    x = low.bit_length() - 1
                    partners = missing[x] & ~keep
                    if partners:
                        missing[x] = partners
                    else:
                        del missing[x]
                        keyed ^= low
            if du:  # the candidate makes no fill pair at du
                fill = fills[j]
                while du:
                    low = du & -du
                    du ^= low
                    x = low.bit_length() - 1
                    ys = fill.get(x)
                    if ys:
                        missing[x] = missing.get(x, 0) | ys
                        keyed |= low | ys
                        while ys:
                            end = ys & -ys
                            ys ^= end
                            y = end.bit_length() - 1
                            missing[y] = missing.get(y, 0) | low
            j += 1
        totals[v] = total + after[j]
    return totals


def _give_back_degrees(sweep: list[set[VarId]], fixed: set[VarId]) -> dict:
    """Each step's degree, for each v of ``fixed`` given back and
    eliminated last, from ``sweep``, the full graph's kept sweep of the
    post-fix ordering."""
    sliced = [len(nbs - fixed) for nbs in sweep]
    return {v: [d + (v in nbs) for d, nbs in zip(sliced, sweep)] + [0] for v in fixed}


def _give_back(g: GraphModel, plan: FixPlan, budget: CostBudget) -> FixPlan:
    """``plan`` after returning its cheapest fixed variable (lower id on
    ties), eliminated last, while the rank fits and 2^t * total falls.
    One kept sweep of the full graph serves every round: the sweep of the
    ordering with v appended is that sweep plus v's step."""
    if not plan.fix_vars:
        return plan
    adj = copy_adj(g.adj)
    sweep = [eliminate_vertex(adj, u) for u in plan.post_fix_ordering.vars]
    while plan.fix_vars:
        degrees = _give_back_degrees(sweep, set(plan.fix_vars))
        prices = {v: (sum(1 << d for d in ds), max(ds)) for v, ds in degrees.items()}
        fits = [(total, v) for v, (total, rank) in prices.items()
                if rank <= budget.max_rank and total < 2 * plan.est_subtask_cost.total]
        if not fits:
            break
        v = min(fits)[1]
        sweep.append(eliminate_vertex(adj, v))
        order = plan.post_fix_ordering
        order = Ordering(order.vars + (v,), order.provenance)
        plan = FixPlan(tuple(u for u in plan.fix_vars if u != v), order,
                       _estimate(order.vars, degrees[v]))
    return plan


def select_fix_set(
    g: GraphModel,
    base: Ordering,
    t_max: int,
    budget: CostBudget,
    *,
    ordering_budget: OrderingBudget,
) -> FixPlan:
    """Greedily pick variables to fix until the subtask fits the budget.

    Each round prices every surviving vertex by the cost of the reduced
    graph under ``base`` restricted to the survivors, and fixes the
    cheapest (ties to the lower id), until that ordering meets the budget,
    after ``t_max`` fixes, or when no vertex is left.  ``search_ordering``
    then re-orders the reduced graph under ``ordering_budget``.  Both its
    result and the restricted base ordering give back their cheapest
    fixed variable (lower id on ties) while the rank fits and 2^t times
    the total falls.  The plan is the one of the two that meets the
    budget if either does, then the one with less 2^t times the total,
    ties to the search result, whose ordering is tagged ``"post-fix
    search"``; the restricted base keeps its provenance.

    Raises ``ValueError`` before any copy unless ``base`` lists exactly
    the free variables, and :class:`BudgetUnreachableError`, which carries
    the plan, when its estimate is over budget.
    """
    if t_max < 0:
        raise ValueError("t_max must be >= 0")
    _check_covers(g.adj, base)
    adj = copy_adj(g.adj)
    remaining = list(base.vars)
    fix_vars: list[VarId] = []
    current, sweep = simulate_cost(adj, remaining), None
    while adj and len(fix_vars) < t_max and current.max_rank > budget.max_rank:
        totals = _priced_fixes(remaining, *(sweep or _fix_sweep(adj, remaining)))
        best_v = min(totals, key=lambda v: (totals[v], v))
        fix_vars.append(best_v)
        remove_vertex(adj, best_v)
        remaining.remove(best_v)
        sweep = _fix_sweep(adj, remaining)  # the next round prices its fixes from it too
        current = _estimate(remaining, map(int.bit_count, sweep[0]))
    plans = [FixPlan(tuple(fix_vars), base.restrict(adj), current)]
    if fix_vars:
        reduced = GraphModel()  # the search reads only the graph
        reduced.adj = adj
        order, cost = search_ordering(reduced, ordering_budget)
        # first, since min() breaks ties toward it
        plans.insert(0, FixPlan(tuple(fix_vars), Ordering(order.vars, "post-fix search"), cost))
    plan = min((_give_back(g, p, budget) for p in plans), key=lambda p: (
        p.est_subtask_cost.max_rank > budget.max_rank,
        p.est_total_cost))
    if plan.est_subtask_cost.max_rank > budget.max_rank:
        raise BudgetUnreachableError(plan, budget)
    return plan


def _tree_sum(values: np.ndarray) -> complex:
    """Fixed-shape pairwise reduction of 2^k values, independent of
    completion order: each level adds neighbors, as IEEE doubles per
    component, into an array half as long."""
    while len(values) > 1:
        values = np.add(values[0::2], values[1::2])
    return complex(values[0])


def run_partitioned(
    g: GraphModel,
    plan: FixPlan,
    workers: int = 1,
    max_rank: int = DEFAULT_MAX_RANK,
) -> AmplitudeResult:
    """Contract all 2^t slices of the model and sum them.

    Subtask i assigns the bits of i to ``plan.fix_vars`` with the first
    selected variable as the most significant bit.  Each slice is one
    ``contract`` of the whole post-fix ordering with the batched fixes
    open (module docstring).  The slices run on min(``workers``, number
    of slices) tasks, each taking the next index from one shared
    iterator, so the pool queues one future per task, not per slice.
    The sum is the fixed reduction tree, so the amplitude does not
    depend on workers.

    ``ValueError`` comes before any sweep, clone or thread unless the
    plan's fixed variables and ordering list each free variable once.
    Every slice files the same bucket layouts, so a rank overflow names
    only its variable and step, whatever the plan's shape.
    """
    if not 1 <= workers <= MAX_WORKERS:
        raise ValueError(f"workers must be in 1..{MAX_WORKERS}, got {workers}")
    t = len(plan.fix_vars)
    order = plan.post_fix_ordering
    _check_covers(g.adj, Ordering(plan.fix_vars + order.vars))
    start = time.perf_counter()
    sweep = _kept_sweep(g.adj, order.vars) if t else []
    cap = min(elimination.CHUNK_RANK, max_rank)
    s = 0 if max(map(len, sweep), default=0) < cap and t <= cap else t
    sliced, batch = plan.fix_vars[:s], plan.fix_vars[s:]
    values = np.empty((1 << s, 1 << len(batch)), complex)  # row i: slice i's values
    todo = iter(range(1 << s))  # shared; a range iterator's next() is atomic under the GIL

    def drain():
        try:
            for i in todo:
                m = g.clone()
                m._fix({v: (i >> (s - 1 - j)) & 1 for j, v in enumerate(sliced)})
                values[i] = contract(m, order, max_rank=max_rank, keep=batch)
        finally:  # after a failure, the other tasks stop at their next index
            for _ in todo:
                pass

    tasks = min(workers, 1 << s)
    if tasks == 1:
        drain()
    else:
        with ThreadPoolExecutor(max_workers=tasks) as pool:
            for task in [pool.submit(drain) for _ in range(tasks)]:
                task.result()
    amplitude = _tree_sum(values.ravel())
    wall_ms = (time.perf_counter() - start) * 1000.0
    return AmplitudeResult(
        amplitude=amplitude,
        est_total_cost=plan.est_total_cost,
        wall_ms=wall_ms,
        batch_vars=batch,
    )
