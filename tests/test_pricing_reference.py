"""Incremental fix pricing against full-replay references.

Fix-set selection prices every candidate in one sweep of the base
elimination plus a walk over the edges its graph lacks, and prices every
give-back from one sweep of the full graph that keeps the fixed
vertices.  Full-replay versions are kept here as references; the planner
must return exactly what they return, so every plan is unchanged.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridamp import (
    CostBudget,
    CostEstimate,
    FixPlan,
    Ordering,
    OrderingBudget,
    min_fill_ordering,
    search_ordering,
    vertical_ordering,
)
from gridamp import partition
from gridamp.elimination import eliminate_vertex, simulate_cost

from conftest import (
    CASE_IDS,
    CASES,
    fanout_plan,
    grid_model,
    plan_over_budget,
    reference_best_fix,
    reference_fix_totals,
)


def _copy(adj):
    return {v: set(ns) for v, ns in adj.items()}


def reference_give_back(g, plan, budget):
    """The give-back loop priced by full replay: each round replays the
    graph with each fixed v returned and eliminated last, and returns the
    cheapest (total, id) while the rank fits and 2^t times the total falls."""
    while plan.fix_vars:
        order = plan.post_fix_ordering
        prices = {}
        for v in plan.fix_vars:
            drop = set(plan.fix_vars) - {v}
            adj = {u: ns - drop for u, ns in g.adj.items() if u not in drop}
            prices[v] = simulate_cost(adj, order.vars + (v,))
        half = plan.num_subtasks // 2
        fits = [(est.total, v) for v, est in prices.items() if est.max_rank <= budget.max_rank
                and half * est.total < plan.num_subtasks * plan.est_subtask_cost.total]
        if not fits:
            break
        v = min(fits)[1]
        plan = FixPlan(tuple(u for u in plan.fix_vars if u != v),
                       Ordering(order.vars + (v,), order.provenance), prices[v])
    return plan


@pytest.fixture(scope="module", params=CASES, ids=CASE_IDS)
def model(request):
    return grid_model(*request.param)


def test_custom_gate_models_have_rank_four_factors():
    m = grid_model(4, 16, 3, custom_every=2)
    assert any(f.rank == 4 for f in m.factors)


def check_fix_pricing(adj, order):
    """Every vertex's total equals a full replay's; the caller's graph is
    left alone."""
    before = _copy(adj)
    got = partition._priced_fixes(order, *partition._fix_sweep(adj, order))
    assert got == reference_fix_totals(adj, order)
    assert adj == before


class TestFixSelection:
    def test_every_round_prices_like_the_reference(self, model):
        adj = _copy(model.adj)
        order = list(min_fill_ordering(model, seed=0).vars)
        for _ in range(4):
            check_fix_pricing(adj, order)
            best = reference_best_fix(adj, order)
            for u in adj.pop(best):
                adj[u].discard(best)
            order.remove(best)

    def test_vertical_ordering(self, model):
        # far from min-fill: long suffix walks with many missing edges
        check_fix_pricing(_copy(model.adj), list(vertical_ordering(model).vars))

    def test_select_fix_set_matches_reference_plan(self, model, monkeypatch):
        base = min_fill_ordering(model, seed=1)
        rank = simulate_cost(model.adj, base.vars).max_rank

        def plan():
            return plan_over_budget(
                model, base, t_max=3, budget=CostBudget(max_rank=rank - 2),
                ordering_budget=OrderingBudget(time_s=None, max_restarts=2),
            )

        got = plan()
        assert len(got.fix_vars) >= 1
        # every round priced by full replay of the graph it swept
        fix_sweep, swept, rounds = partition._fix_sweep, [], []

        def sweep(adj, order):
            swept.append((_copy(adj), list(order)))
            return fix_sweep(adj, order)

        def priced(order, *sweep):
            adj, swept_order = swept[-1]
            assert order == swept_order
            rounds.append(order)
            return reference_fix_totals(adj, order)

        monkeypatch.setattr(partition, "_fix_sweep", sweep)
        monkeypatch.setattr(partition, "_priced_fixes", priced)
        assert plan() == got
        assert len(rounds) >= len(got.fix_vars)

    @settings(max_examples=25, deadline=None)
    @given(rows=st.integers(4, 5), seed=st.integers(0, 10_000),
           order_seed=st.integers(0, 10_000), custom=st.sampled_from([0, 3]))
    def test_random_orderings(self, rows, seed, order_seed, custom):
        # random orderings keep the most edges missing for the longest
        m = grid_model(rows, 8, seed, custom)
        order = [int(v) for v in np.random.default_rng(order_seed).permutation(sorted(m.adj))]
        check_fix_pricing(m.adj, order)


def test_give_back_matches_the_replayed_loop(monkeypatch):
    # every give-back of every plan, for both post-fix orderings, equals
    # the replayed loop's plan, estimate steps included
    give_back = partition._give_back
    returned = []

    def checked(g, plan, budget):
        out = give_back(g, plan, budget)
        assert out == reference_give_back(g, plan, budget)
        if out.fix_vars != plan.fix_vars:
            returned.append(out)
        return out

    monkeypatch.setattr(partition, "_give_back", checked)
    search = OrderingBudget(time_s=None, max_restarts=2)
    chosen = 0
    for case in CASES:
        m = grid_model(*case)
        base, est = search_ordering(m, search)
        for rank in range(max(est.max_rank - 6, 1), est.max_rank):
            plan = plan_over_budget(m, base, t_max=8, budget=CostBudget(max_rank=rank),
                                    ordering_budget=search)
            chosen += plan in returned
    assert chosen >= 4


def test_t_max_above_vertex_count_fixes_every_vertex():
    m = grid_model(3, 6, 0)
    base = min_fill_ordering(m, seed=0)
    plan = plan_over_budget(m, base, t_max=len(m.adj) + 5, budget=CostBudget(max_rank=-1),
                            ordering_budget=OrderingBudget(time_s=None, max_restarts=4))
    assert sorted(plan.fix_vars) == sorted(m.adj)
    assert plan.post_fix_ordering.vars == ()
    assert plan.est_subtask_cost == CostEstimate((), 0, 0)


def random_graphs(count, seed):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(2, 12))
        adj = {v: set() for v in range(n)}
        for u, w in rng.integers(0, n, size=(2 * n, 2)):
            if u != w:
                adj[int(u)].add(int(w))
                adj[int(w)].add(int(u))
        yield adj, [int(v) for v in rng.permutation(n)]


def test_eliminate_vertex_joins_neighbors_pairwise():
    for adj, order in random_graphs(20, seed=7):
        v = order[0]
        want = _copy(adj)
        nbs = sorted(want.pop(v))
        for u in nbs:
            want[u].discard(v)
        for i, u in enumerate(nbs):
            for w in nbs[i + 1 :]:
                want[u].add(w)
                want[w].add(u)
        got = _copy(adj)
        assert sorted(eliminate_vertex(got, v)) == nbs
        assert got == want


def sparse_id_graphs(count, seed):
    """Random graphs of 70-150 vertices whose ids are scattered far above
    the vertex count, under random orderings."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n = int(rng.integers(70, 151))
        ids = [int(v) for v in rng.choice(10**9, size=n, replace=False) + 10**9]
        adj = {v: set() for v in ids}
        for u, w in rng.integers(0, n, size=(3 * n // 2, 2)):
            if u != w:
                adj[ids[u]].add(ids[w])
                adj[ids[w]].add(ids[u])
        yield adj, [ids[i] for i in rng.permutation(n)]


def test_fix_pricing_on_random_graphs():
    # arbitrary graphs, not only circuit models: dense spots, isolated
    # vertices and candidates whose removal disconnects the graph; the
    # larger ones index their bitmasks by position across machine words
    for adj, order in [*random_graphs(40, seed=8), *sparse_id_graphs(6, seed=9)]:
        check_fix_pricing(adj, order)


def test_every_fanout_round_prices_like_the_reference(monkeypatch):
    # fanout-6x6x24 circuit 0 at rank budget 10, the benchmark's plan:
    # each greedy round's totals equal a full replay of the graph it swept
    fix_sweep, priced_fixes, swept, rounds = partition._fix_sweep, partition._priced_fixes, [], []

    def sweep(adj, order):
        swept.append((_copy(adj), list(order)))
        return fix_sweep(adj, order)

    def priced(order, *masks):
        adj, swept_order = swept[-1]
        assert order == swept_order
        totals = priced_fixes(order, *masks)
        assert totals == reference_fix_totals(adj, order)
        rounds.append(order)
        return totals

    monkeypatch.setattr(partition, "_fix_sweep", sweep)
    monkeypatch.setattr(partition, "_priced_fixes", priced)
    _, _, plan = fanout_plan()
    # the greedy fixes (14, 112, 94, 55, 9), then v14 given back
    assert plan.fix_vars == (112, 94, 55, 9) and len(rounds) == 5
