"""Ordering heuristics: vertical, min-fill, and the anytime search."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridamp import (
    GenParams,
    Ordering,
    OrderingBudget,
    Tensor,
    build_model,
    estimate_cost,
    fix_variable,
    generate,
    min_fill_ordering,
    parse_circuit,
    search_ordering,
    vertical_ordering,
)
from gridamp import ordering
from gridamp.elimination import simulate_cost
from gridamp.graph_model import GraphModel, VarInfo
from gridamp.ordering import fill_count

from conftest import letter_ids, with_custom_gates


def model_from(rows, cols, depth, seed):
    c = generate(GenParams(rows, cols, depth, seed))
    return build_model(c, "0" * (rows * cols))


def path_model(n):
    g = GraphModel()
    for v in range(n):
        g._add_vertex(v, VarInfo(0, v))
    for v in range(n - 1):
        g._add_factor(Tensor((v, v + 1), np.eye(2)))
    return g


class TestVertical:
    def test_reference_model_groups_by_qubit(self, ref4q_model):
        ids = letter_ids(ref4q_model)
        expected = tuple(ids[ch] for ch in "ahibcedfgj")
        assert vertical_ordering(ref4q_model).vars == expected

    def test_single_variable_model(self):
        c = parse_circuit("1 1\n0 h 0\n1 x_1_2 0\n")
        m = build_model(c, "0")
        order = vertical_ordering(m)
        assert order.vars == tuple(m.vertices)
        assert len(order) == 1

    def test_provenance(self, ref4q_model):
        assert vertical_ordering(ref4q_model).provenance == "vertical"


class TestMinFill:
    def test_tree_has_no_fill(self):
        g = path_model(8)
        order = min_fill_ordering(g, seed=0)
        adj = {v: set(ns) for v, ns in g.adj.items()}
        for v in order:
            assert fill_count(adj, v) == 0
            nbs = sorted(adj.pop(v))
            for u in nbs:
                adj[u].discard(v)
            for i, u in enumerate(nbs):
                for w in nbs[i + 1 :]:
                    adj[u].add(w)
                    adj[w].add(u)

    def test_reference_first_pick_has_zero_fill(self, ref4q_model):
        ids = letter_ids(ref4q_model)
        order = min_fill_ordering(ref4q_model, seed=5)
        zero_fill = {ids[ch] for ch in "cdhij"}
        assert order.vars[0] in zero_fill
        assert fill_count(ref4q_model.adj, order.vars[0]) == 0

    def test_deterministic_for_seed(self):
        m = model_from(4, 4, 12, seed=3)
        assert min_fill_ordering(m, seed=9).vars == min_fill_ordering(m, seed=9).vars

    def test_seed_breaks_ties_differently(self):
        m = model_from(4, 4, 12, seed=3)
        orders = {min_fill_ordering(m, seed=s).vars for s in range(8)}
        assert len(orders) > 1

    @settings(max_examples=30, deadline=None)
    @given(rows=st.integers(4, 6), depth=st.sampled_from([8, 12, 16]),
           seed=st.integers(0, 500), custom=st.sampled_from([0, 2, 5]),
           removed=st.integers(0, 3), pick_seed=st.integers(0, 10_000),
           mf_seed=st.integers(0, 10))
    def test_incremental_fill_matches_scratch_recompute(
        self, rows, depth, seed, custom, removed, pick_seed, mf_seed
    ):
        # rerun the greedy loop with every fill count recomputed from
        # scratch; identical pools mean identical rng draws and ordering.
        # Fixing 1-3 variables gives the reduced graphs that the post-fix
        # search orders.
        c = generate(GenParams(rows, rows, depth, seed))
        if custom:
            c = with_custom_gates(c, custom, seed)
        m = build_model(c, "0" * (rows * rows))
        picks = np.random.default_rng(pick_seed).permutation(sorted(m.adj))
        for v in picks[:removed]:
            m = fix_variable(m, int(v), 0)
        fast = min_fill_ordering(m, seed=mf_seed)
        adj = {v: set(ns) for v, ns in m.adj.items()}
        rng = np.random.default_rng(mf_seed)
        naive, degrees = [], []
        while adj:
            fills = {v: fill_count(adj, v) for v in adj}
            best_fill = min(fills.values())
            pool = [v for v, f in fills.items() if f == best_fill]
            best_deg = min(len(adj[v]) for v in pool)
            pool = sorted(v for v in pool if len(adj[v]) == best_deg)
            v = pool[int(rng.integers(len(pool)))] if len(pool) > 1 else pool[0]
            naive.append(v)
            degrees.append(len(adj[v]))
            nbs = sorted(adj.pop(v))
            for u in nbs:
                adj[u].discard(v)
            for i, u in enumerate(nbs):
                for w in nbs[i + 1 :]:
                    adj[u].add(w)
                    adj[w].add(u)
        assert fast.vars == tuple(naive)
        # the degrees it carries are the ones a replay prices
        assert fast.degrees == tuple(degrees)
        assert fast.degrees == tuple(s.degree for s in simulate_cost(m.adj, fast.vars).steps)

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 500))
    def test_is_permutation(self, seed):
        m = model_from(3, 3, 12, seed=seed)
        assert set(min_fill_ordering(m, seed=0).vars) == m.vertices


class TestSearch:
    def test_degenerate_budget_equals_min_fill(self, ref4q_model):
        budget = OrderingBudget(time_s=0.0, max_restarts=1, seed=7)
        order, est = search_ordering(ref4q_model, budget)
        assert order.vars == min_fill_ordering(ref4q_model, seed=7).vars
        assert order.provenance == "search"

    @pytest.mark.parametrize("rows, depth, seed, budget_seed, cap", [
        (4, 12, 0, 0, 1),
        (4, 16, 2, 3, 4),
        (5, 16, 1, 2, 2),
        (5, 20, 5, 0, 3),
        (6, 20, 2, 1, 4),
        (7, 24, 3, 0, 2),  # adjacent swaps would beat both restarts here
        (7, 20, 4, 5, 1),
    ])
    def test_search_is_the_cheapest_restart(self, rows, depth, seed, budget_seed, cap):
        m = model_from(rows, rows, depth, seed)
        budget = OrderingBudget(time_s=None, max_restarts=cap, seed=budget_seed)
        order, est = search_ordering(m, budget)
        restarts = [min_fill_ordering(m, seed=budget_seed + i).vars for i in range(cap)]
        want = min(restarts, key=lambda vs: (simulate_cost(m.adj, vs).total, vs))
        assert order.vars == want
        assert est == simulate_cost(m.adj, want)

    @pytest.mark.parametrize("rows, depth, seed, cap", [(5, 16, 1, 3), (7, 24, 3, 2)])
    def test_restarts_are_priced_without_a_replay(self, monkeypatch, rows, depth, seed, cap):
        m = model_from(rows, rows, depth, seed)
        budget = OrderingBudget(time_s=None, max_restarts=cap, seed=seed)
        order, _ = search_ordering(m, budget)
        want = simulate_cost(m.adj, order.vars)
        # count restarts as the benchmark's tracer does: through the
        # module attribute the search looks min-fill up by
        calls = mock.Mock(wraps=ordering.min_fill_ordering)
        monkeypatch.setattr(ordering, "min_fill_ordering", calls)
        monkeypatch.setattr(ordering, "simulate_cost", mock.Mock(side_effect=AssertionError))
        again, est = search_ordering(m, budget)
        assert again.vars == order.vars
        assert est == want
        assert calls.call_count == cap

    def test_never_worse_than_min_fill(self):
        for seed in range(5):
            m = model_from(4, 4, 14, seed=seed)
            budget = OrderingBudget(time_s=None, max_restarts=3, seed=1)
            _, est = search_ordering(m, budget)
            plain = estimate_cost(m, min_fill_ordering(m, seed=1))
            assert est.total <= plain.total

    def test_beats_vertical_on_reference_model(self, ref4q_model):
        _, est = search_ordering(
            ref4q_model, OrderingBudget(time_s=None, max_restarts=2)
        )
        vertical_cost = estimate_cost(ref4q_model, vertical_ordering(ref4q_model))
        assert est.total <= vertical_cost.total

    def test_reported_cost_is_self_consistent(self):
        m = model_from(4, 4, 12, seed=8)
        order, est = search_ordering(m, OrderingBudget(time_s=None, max_restarts=3))
        recomputed = estimate_cost(m, order)
        assert (recomputed.total, recomputed.max_rank) == (est.total, est.max_rank)

    def test_anytime_monotone_in_restarts(self):
        m = model_from(4, 4, 16, seed=2)
        costs = [
            search_ordering(m, OrderingBudget(time_s=None, max_restarts=r, seed=0))[1].total
            for r in (1, 2, 4, 8)
        ]
        assert all(costs[i] >= costs[i + 1] for i in range(len(costs) - 1))

    def test_budget_validation(self, ref4q_model, monkeypatch):
        monkeypatch.setattr(ordering, "min_fill_ordering", mock.Mock(side_effect=AssertionError))
        with pytest.raises(TypeError):
            search_ordering(ref4q_model, OrderingBudget())
        with pytest.raises(TypeError):
            search_ordering(ref4q_model, OrderingBudget(time_s=5.0))
        for cap in (None, 0, -1, 2.0):
            with pytest.raises(ValueError, match="restart cap"):
                search_ordering(ref4q_model, OrderingBudget(time_s=None, max_restarts=cap))
        with pytest.raises(ValueError):
            OrderingBudget(time_s=-1.0, max_restarts=1)
        assert OrderingBudget(max_restarts=1).time_s is None

    def test_permutation_and_restriction(self):
        m = model_from(3, 4, 10, seed=4)
        order, _ = search_ordering(m, OrderingBudget(time_s=None, max_restarts=2))
        assert set(order.vars) == m.vertices
        sub = order.restrict(list(m.vertices)[:5])
        assert set(sub.vars) <= m.vertices


def test_ordering_rejects_duplicates():
    with pytest.raises(ValueError):
        Ordering((1, 1, 2))
