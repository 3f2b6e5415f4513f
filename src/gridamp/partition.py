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
is named by its position in the base ordering, which is its step, so
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

Carried rounds: the greedy loop keeps the positions of the round-0 base
ordering for all its rounds.  A fixed vertex's position becomes an empty
step that costs nothing, and no position is renumbered.  Fixing f at
p_f clears f from the B, the fill pairs and the halves of the steps
before p_f, which are then the steps of G - f (prefix reuse), and
eliminates again, with ``eliminate_vertex``, only the steps from p_f on,
from the graph at that time: each later vertex's own edges plus the B
of every earlier step that holds it.  A candidate u before p_f whose
walk emptied D at or before p_f keeps its price.  G - u and G have the
same graph from that step on, so from p_f on f saves as much on G - u as
on G, and before p_f it saves less only where u changes a step.  With C
the round's base total, u's total on G - f is exactly

    T'(u) = T(u) - (C - T(f)) + corr_u(f),

where corr_u(f) sums over the steps whose B holds f: 2^(|B| - 2) for
each step before u's whose B holds u, 2^(|B| - 1) for u's own step, and
2^(|B| - 1) - [f in keep] 2^(|keep| - 1) for each step of u's walk,
where keep = B - D(u) is that step's B in u's graph (at the other steps
of the walk keep = B, and the term is 0).  T(f) is the new base total, so
a record that keeps T(u) - C changes by corr_u(f) alone; it then clears
f from its keeps, which are then the B of G - f - u, for the next fix.
Only the candidates at or after p_f, or whose walk passed it, are walked
again, on the updated sweep.

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
from dataclasses import dataclass, field

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


def _positions(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


@dataclass
class _Sweep:
    """The fix sweep of the greedy loop's base ordering, at stable
    positions, and the prices it carries (module docstring)."""

    order: list  # the round-0 base ordering, None at each fixed position
    links: list  # each position's own edges, as a mask
    neighbors: list  # B of each step, 0 at a fixed position
    fills: list  # each step's fill pairs, as {position: partner mask} over both ends
    occurs: list  # occurs[x]: mask of the steps whose B holds x
    halves: list  # what the steps before x cost less without x
    # position: [its total less the base total, the step its walk ended at, its keeps]
    priced: dict = field(default_factory=dict)


def _fix_sweep(adj: dict[VarId, set[VarId]], order: list[VarId]) -> _Sweep:
    """The round-0 sweep: B and the fill pairs of each step of the base
    elimination, as bitmasks over positions in ``order``, and for each
    position the mask of the steps whose B holds it and what they cost
    less without it.  ``_fix`` keeps it up to date over later rounds."""
    n, pos = len(order), {u: k for k, u in enumerate(order)}
    graph = {k: {pos[w] for w in adj[u]} for k, u in enumerate(order)}
    links = [sum(map((1).__lshift__, graph[k])) for k in range(n)]
    sweep = _Sweep(list(order), links, [0] * n, [None] * n, [0] * n, [0] * n)
    _sweep_from(sweep, 0, graph)
    return sweep


def _sweep_from(sweep: _Sweep, start: int, graph: dict[int, set[int]]) -> None:
    """Eliminate the steps from ``start`` on with ``eliminate_vertex``,
    from ``graph``, the graph at that time over positions, recording each
    step's B and fill pairs and adding it to the ``occurs`` and halves of
    the positions its B holds."""
    occurs, halves = sweep.occurs, sweep.halves
    bit = [1 << k for k in range(len(sweep.order))].__getitem__
    for k in range(start, len(sweep.order)):
        if k not in graph:  # fixed
            continue
        nbs = graph[k]
        half = (1 << len(nbs)) >> 1
        fill = {}
        for x in nbs:
            occurs[x] |= 1 << k
            halves[x] += half
            joined = nbs - graph[x]
            joined.discard(x)
            if joined:
                fill[x] = sum(map(bit, joined))
        sweep.fills[k] = fill
        sweep.neighbors[k] = sum(map(bit, eliminate_vertex(graph, k)))


def _priced_fixes(sweep: _Sweep) -> dict[VarId, int]:
    """Each live vertex's total with it removed from the graph ``sweep``
    holds: a carried price, or a missing-edge walk that visits only the
    steps able to change D (module docstring).  A walk's record keeps
    its total less the base total, the step it ended at and the B of
    each step where the candidate's graph differs, for ``_fix`` to
    carry."""
    order, neighbors, fills, occurs, halves = (
        sweep.order, sweep.neighbors, sweep.fills, sweep.occurs, sweep.halves)
    degrees = [nbs.bit_count() for nbs in neighbors]
    costs = [0 if v is None else 1 << d for v, d in zip(order, degrees)]
    after = [0] * (len(order) + 1)  # after[k]: cost of steps k onwards
    for k in range(len(order) - 1, -1, -1):
        after[k] = after[k + 1] + costs[k]
    for k, v in enumerate(order):
        if v is None or k in sweep.priced:
            continue
        total = after[0] - after[k] - halves[k]
        missing = dict(fills[k])  # D
        keyed = sum(map((1).__lshift__, missing))  # D's keys as a mask
        built = 0  # the key mask ``twos`` was built for
        keeps = {}  # the candidate's B at each step where it is not the base's
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
                keep = keeps[j] = neighbors[j] & ~du
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
        sweep.priced[k] = [total + after[j] - after[0], j, keeps]
    return {order[k]: after[0] + price[0] for k, price in sweep.priced.items()}


def _fix(sweep: _Sweep, v: VarId) -> list[int]:
    """Fix ``v``, which ``_priced_fixes`` priced last: carry each price
    that allows it, clear ``v`` from the steps before its own, and sweep
    the steps from there on again (module docstring).  Returns each live
    step's degree."""
    order, neighbors, fills, occurs, halves = (
        sweep.order, sweep.neighbors, sweep.fills, sweep.occurs, sweep.halves)
    p = order.index(v)
    f = 1 << p
    held = occurs[p]  # the steps whose B holds v
    for u, price in list(sweep.priced.items()):
        if u >= p or price[1] > p:  # its prefix or its walk reaches p: walked again
            del sweep.priced[u]
            continue
        # corr_u(v), from this round's B (module docstring)
        corr = sum((1 << neighbors[k].bit_count()) >> 2 for k in _positions(held & occurs[u]))
        if held >> u & 1:
            corr += (1 << neighbors[u].bit_count()) >> 1
        keeps = price[2]
        for j, keep in keeps.items():
            if held >> j & 1:
                corr += (1 << neighbors[j].bit_count()) >> 1
                if keep & f:
                    corr -= (1 << keep.bit_count()) >> 1
                    keeps[j] = keep ^ f
        price[0] += corr
    order[p], neighbors[p], fills[p] = None, 0, {}
    for x in _positions(sweep.links[p]):
        sweep.links[x] ^= f
    for k in _positions(held):
        nbs = neighbors[k] = neighbors[k] ^ f
        quarter = (1 << nbs.bit_count()) >> 1  # 2^(|B| - 2): what each other half loses
        for x in _positions(nbs):
            halves[x] -= quarter
        fill = fills[k]
        for y in _positions(fill.pop(p, 0)):
            if fill[y] == f:
                del fill[y]
            else:
                fill[y] ^= f
    graph = {}  # at time p: each later vertex's own edges and its earlier steps' B
    for x in range(p + 1, len(order)):
        if order[x] is not None:
            occurs[x] &= f - 1
            edges, halves[x] = sweep.links[x], 0
            for k in _positions(occurs[x]):
                edges |= neighbors[k]
                halves[x] += (1 << neighbors[k].bit_count()) >> 1
            graph[x] = {y for y in _positions(edges) if y > p and y != x}
    _sweep_from(sweep, p + 1, graph)
    return [nbs.bit_count() for u, nbs in zip(order, neighbors) if u is not None]


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
    after ``t_max`` fixes, or when no vertex is left; one sweep serves
    every round, and most prices carry from one round to the next
    (module docstring).  ``search_ordering``
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
        sweep = sweep or _fix_sweep(adj, remaining)
        totals = _priced_fixes(sweep)
        best_v = min(totals, key=lambda v: (totals[v], v))
        fix_vars.append(best_v)
        remove_vertex(adj, best_v)
        remaining.remove(best_v)
        current = _estimate(remaining, _fix(sweep, best_v))
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
