"""Variable fixing, greedy fix-set selection, partitioned execution."""

import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridamp import (
    BudgetUnreachableError,
    CostBudget,
    FixPlan,
    GenParams,
    GraphModel,
    Ordering,
    OrderingBudget,
    RankOverflowError,
    amplitude_of,
    build_model,
    contract,
    estimate_cost,
    fix_variable,
    generate,
    min_fill_ordering,
    model_value_bruteforce,
    run_partitioned,
    search_ordering,
    select_fix_set,
)
from gridamp import elimination, partition
from gridamp.cli import main
from gridamp.elimination import simulate_cost
from gridamp.graph_model import VarInfo, remove_vertex
from gridamp.tensor import Tensor

from conftest import (
    SEARCH_BUDGET,
    edge_names,
    fanout_plan,
    grid_model,
    letter_ids,
    no_runs,
    plan_over_budget,
    reference_best_fix,
    with_custom_gates,
)

FOUR_RESTARTS = OrderingBudget(time_s=None, max_restarts=4)


def forced_plan(model, base, t):
    """Exactly t greedy fixes (impossible budget, proceed anyway)."""
    return plan_over_budget(
        model,
        base,
        t_max=t,
        budget=CostBudget(max_rank=-1),
        ordering_budget=SEARCH_BUDGET,
    )


class TestFixVariable:
    def test_fixing_hub_removes_its_edges_only(self, ref4q_model):
        ids = letter_ids(ref4q_model)
        out = fix_variable(ref4q_model, ids["e"], 0)
        assert edge_names(ref4q_model) - edge_names(out) == {"ae", "be", "ce", "ef"}
        assert len(out.vertices) == 9
        assert all(ids["e"] not in f.axes for f in out.factors)

    def test_fixing_leaf_removes_one_edge(self, ref4q_model):
        ids = letter_ids(ref4q_model)
        out = fix_variable(ref4q_model, ids["c"], 1)
        assert edge_names(ref4q_model) - edge_names(out) == {"ce"}

    def test_no_new_factors(self, ref4q_model):
        out = fix_variable(ref4q_model, letter_ids(ref4q_model)["e"], 0)
        assert len(out.factors) <= len(ref4q_model.factors)
        assert all(f.rank <= 4 for f in out.factors)

    def test_sum_splitting(self, ref4q_model):
        v = letter_ids(ref4q_model)["e"]
        rest = Ordering(tuple(u for u in sorted(ref4q_model.vertices) if u != v))
        split = contract(fix_variable(ref4q_model, v, 0), rest) + contract(
            fix_variable(ref4q_model, v, 1), rest
        )
        whole = contract(ref4q_model, Ordering((v,) + rest.vars))
        assert abs(split - whole) < 1e-12

    def test_recursive_splitting(self):
        c = generate(GenParams(3, 3, 10, seed=5))
        model = build_model(c, "0" * 9)
        base = min_fill_ordering(model, seed=0)
        whole = contract(model, base)
        for t in (2, 4, 6):
            if t > len(model.vertices):
                break
            plan = forced_plan(model, base, t)
            total = run_partitioned(model, plan).amplitude
            assert abs(total - whole) < 1e-10

    def test_bad_bit(self, ref4q_model):
        for bit in (2, -1, 0.5, "1", None):
            with pytest.raises(ValueError, match="bit must be 0 or 1"):
                fix_variable(ref4q_model, letter_ids(ref4q_model)["e"], bit)

    @pytest.mark.parametrize("bit", [1.0, True, np.int64(1), np.float64(1.0), False],
                             ids=["float", "bool", "int64", "float64", "false"])
    def test_a_bit_equal_to_0_or_1_is_that_int(self, ref4q_model, bit):
        v = letter_ids(ref4q_model)["e"]
        got, want = fix_variable(ref4q_model, v, bit), fix_variable(ref4q_model, v, int(bit))
        assert [f.axes for f in got.factors] == [f.axes for f in want.factors]
        assert all(np.array_equal(f.data, g.data) for f, g in zip(got.factors, want.factors))
        assert got.adj == want.adj and got.scalar == want.scalar

    def test_slices_the_factor_at_the_bit(self):
        g = GraphModel()
        for v in (0, 1):
            g._add_vertex(v, VarInfo(v, 0))
        g._add_factor(Tensor((0, 1), np.array([[1, 2], [3, 4]], dtype=complex)))
        (f,) = fix_variable(g, 0, 1).factors
        assert f.axes == (1,) and np.array_equal(f.data, [3, 4])
        (f,) = fix_variable(g, 1, 0).factors
        assert f.axes == (0,) and np.array_equal(f.data, [1, 3])

    @pytest.mark.parametrize("bad", [{"v": "missing"}, {"bit": 2}, {"bit": -1}])
    def test_bad_pair_leaves_the_model_unchanged(self, ref4q_model, bad):
        ids = letter_ids(ref4q_model)
        v = bad.get("v", ids["e"])
        assignment = {ids["a"]: 1, ids["c"]: 0, v: bad.get("bit", 0)}
        m = ref4q_model.clone()
        with pytest.raises(KeyError if "v" in bad else ValueError):
            m._fix(assignment)
        assert m.factors == ref4q_model.factors
        assert m.adj == ref4q_model.adj
        assert m.vertices == ref4q_model.vertices
        assert m.scalar == ref4q_model.scalar


@settings(max_examples=30, deadline=None)
@given(rows=st.sampled_from([2, 3]), seed=st.integers(0, 10_000),
       custom_every=st.sampled_from([0, 2]), data=st.data())
def test_one_pass_fix_equals_chained_fixes(rows, seed, custom_every, data):
    """Fixing several variables in one ``_fix`` gives the factors,
    adjacency and vertices of fixing them one at a time; only the scalar
    may differ, at rounding level, since rank-0 results fold in another
    order."""
    c = generate(GenParams(rows, 3, 8, seed=seed))
    if custom_every:
        c = with_custom_gates(c, custom_every, seed)
    model = build_model(c, "0" * (rows * 3))
    fix = data.draw(st.lists(st.sampled_from(sorted(model.adj)), max_size=6, unique=True))
    assignment = {v: data.draw(st.integers(0, 1)) for v in fix}
    one = model.clone()
    one._fix(assignment)
    chained = model
    for v, bit in assignment.items():
        chained = fix_variable(chained, v, bit)
    assert [f.axes for f in one.factors] == [f.axes for f in chained.factors]
    for a, b in zip(one.factors, chained.factors):
        assert a.data.tobytes() == b.data.tobytes()
    assert one.adj == chained.adj
    assert one.vertices == chained.vertices == model.vertices - set(assignment)
    order = min_fill_ordering(one, seed=0)
    assert abs(contract(one, order) - contract(chained, order)) < 1e-12


class TestSelectFixSet:
    def test_t_max_zero_keeps_base_cost(self, ref4q_model):
        base = min_fill_ordering(ref4q_model, seed=0)
        plan = plan_over_budget(
            ref4q_model, base, t_max=0, budget=CostBudget(max_rank=-1),
            ordering_budget=FOUR_RESTARTS,
        )
        assert plan.fix_vars == ()
        assert plan.num_subtasks == 1
        assert plan.est_subtask_cost.total == estimate_cost(ref4q_model, base).total
        assert plan.post_fix_ordering.vars == base.vars

    def test_generous_budget_fixes_nothing(self, ref4q_model):
        base = min_fill_ordering(ref4q_model, seed=0)
        rank = estimate_cost(ref4q_model, base).max_rank
        plan = select_fix_set(ref4q_model, base, t_max=5, budget=CostBudget(max_rank=rank),
                              ordering_budget=FOUR_RESTARTS)
        assert plan.fix_vars == ()
        assert plan.post_fix_ordering.vars == base.vars

    def test_greedy_pick_dominates_alternatives(self, ref4q_model):
        base = Ordering(tuple(sorted(ref4q_model.vertices)))
        plan = forced_plan(ref4q_model, base, 1)
        (picked,) = plan.fix_vars
        adj_cost = {}
        for v in sorted(ref4q_model.vertices):
            reduced = fix_variable(ref4q_model, v, 0)
            order = base.restrict(reduced.vertices)
            adj_cost[v] = estimate_cost(reduced, order).total
        assert adj_cost[picked] == min(adj_cost.values())

    def test_greedy_cost_monotone_in_t(self):
        c = generate(GenParams(4, 4, 14, seed=6))
        model = build_model(c, "0" * 16)
        base = min_fill_ordering(model, seed=0)
        costs = []
        prev_vars = ()
        for t in range(0, 6):
            plan = forced_plan(model, base, t)
            assert plan.fix_vars[: len(prev_vars)] == prev_vars  # greedy prefix
            prev_vars = plan.fix_vars
            reduced = model
            for v in plan.fix_vars:
                reduced = fix_variable(reduced, v, 0)
            costs.append(estimate_cost(reduced, base.restrict(reduced.vertices)).total)
        assert all(costs[i] >= costs[i + 1] for i in range(len(costs) - 1))

    @pytest.mark.parametrize("case", [(4, 16, 3, 2), (5, 16, 1, 0), (5, 20, 2, 3)])
    def test_rounds_match_a_replayed_loop(self, case, monkeypatch):
        """Each round's fix and the final estimate are those of a loop
        that replays the reduced graph for every candidate and after
        every fix."""
        model = grid_model(*case)
        base = min_fill_ordering(model, seed=1)
        rank = simulate_cost(model.adj, base.vars).max_rank
        budget = CostBudget(max_rank=rank - 3)
        adj, order, fixes = {u: set(ns) for u, ns in model.adj.items()}, list(base.vars), []
        current = simulate_cost(adj, order)
        while len(fixes) < 4 and current.max_rank > budget.max_rank:
            v = reference_best_fix(adj, order)
            fixes.append(v)
            remove_vertex(adj, v)
            order.remove(v)
            current = simulate_cost(adj, order)
        plans = []
        monkeypatch.setattr(partition, "_give_back", lambda g, p, b: plans.append(p) or p)
        plan_over_budget(model, base, t_max=4, budget=budget, ordering_budget=SEARCH_BUDGET)
        assert len(fixes) >= 2
        assert plans[-1] == FixPlan(tuple(fixes), base.restrict(order), current)

    def test_budget_unreachable_raises(self, ref4q_model):
        base = min_fill_ordering(ref4q_model, seed=0)
        with pytest.raises(BudgetUnreachableError, match=r"^after fixing 1 variables the "
                                                         r"subtask still needs rank \d+ / cost") as e:
            select_fix_set(ref4q_model, base, t_max=1, budget=CostBudget(max_rank=-1),
                           ordering_budget=FOUR_RESTARTS)
        # the error carries the plan that broke the budget
        assert len(e.value.plan.fix_vars) == 1
        assert f"rank {e.value.plan.est_subtask_cost.max_rank} /" in str(e.value)

    def test_base_missing_a_variable_is_named(self, ref4q_model, monkeypatch):
        base = min_fill_ordering(ref4q_model, seed=0)
        short = Ordering(base.vars[1:])
        with pytest.raises(ValueError, match=rf"missing \[{base.vars[0]}\]"):
            select_fix_set(ref4q_model, short, t_max=1, budget=CostBudget(max_rank=-1),
                           ordering_budget=FOUR_RESTARTS)
        # an id the model lacks is named too, before the graph is copied
        extra = max(ref4q_model.vertices) + 1
        monkeypatch.setattr(partition, "copy_adj", lambda adj: pytest.fail("copied first"))
        with pytest.raises(ValueError, match=rf"missing \[\], extra \[{extra}\]"):
            select_fix_set(ref4q_model, Ordering(base.vars + (extra,)), t_max=1,
                           budget=CostBudget(max_rank=-1), ordering_budget=FOUR_RESTARTS)

    def test_t_max_caps_the_fixes(self, ref4q_model):
        base = min_fill_ordering(ref4q_model, seed=0)
        plan = plan_over_budget(
            ref4q_model, base, t_max=2, budget=CostBudget(max_rank=-1),
            ordering_budget=FOUR_RESTARTS,
        )
        assert len(plan.fix_vars) == 2

    def test_keeps_base_when_only_it_meets_the_rank_budget(self):
        # the post-fix search minimizes total cost, not rank: here it finds
        # a rank-6 ordering (total 575) while the base restricted to the
        # survivors has rank 5 (total 507), so the plan must keep the base
        c = generate(GenParams(4, 5, 16, seed=2))
        model = build_model(c, "0" * 20)
        base, _ = search_ordering(model, SEARCH_BUDGET)
        plan = select_fix_set(
            model, base, t_max=24, budget=CostBudget(max_rank=5),
            ordering_budget=SEARCH_BUDGET,
        )
        assert plan.est_subtask_cost.max_rank <= 5
        assert plan.post_fix_ordering == base.restrict(
            set(model.vertices) - set(plan.fix_vars)
        )
        amp = run_partitioned(model, plan).amplitude
        assert abs(amp - amplitude_of(c, "0" * 20)) < 1e-10

    @pytest.mark.parametrize("rows, cols, depth, seed, rank, fixed, total", [
        (5, 5, 20, 2, 8, (10,), 2_579),  # the search totals 2,667
        (6, 6, 24, 1, 12, (17, 104, 99), 28_650),  # the search totals 39,462
        (4, 5, 20, 4, 6, (2,), 895),  # the search totals 951
    ])
    def test_keeps_the_cheaper_of_two_in_budget_orderings(
        self, rows, cols, depth, seed, rank, fixed, total
    ):
        # the post-fix search and the base restricted to the survivors both
        # meet the budget, and the restricted base costs less
        c, model, plan = fanout_plan(rows, cols, depth, seed, rank)
        base, _ = search_ordering(model, SEARCH_BUDGET)
        reduced = GraphModel()
        reduced.adj = without(model.adj, set(fixed))
        _, searched = search_ordering(reduced, SEARCH_BUDGET)
        assert searched.max_rank <= rank and searched.total > total
        assert plan.fix_vars == fixed
        assert plan.post_fix_ordering == base.restrict(reduced.adj)
        assert (plan.est_subtask_cost.max_rank, plan.est_subtask_cost.total) == (rank, total)
        one, two = (run_partitioned(model, plan, workers=w).amplitude for w in (1, 2))
        assert one == two
        n = rows * cols
        # above 20 qubits the state vector takes minutes: the unsliced
        # contraction is the reference there
        want = amplitude_of(c, "0" * n) if n <= 20 else contract(model, base)
        assert abs(one - want) < 1e-10

    @pytest.mark.parametrize("rows, depth, seed", [(3, 10, 0), (4, 12, 1), (4, 16, 2)])
    def test_returned_estimate_never_breaks_the_budget(self, rows, depth, seed):
        model = build_model(generate(GenParams(rows, 4, depth, seed)), "0" * (rows * 4))
        base = min_fill_ordering(model, seed=0)
        for rank in range(estimate_cost(model, base).max_rank + 1):
            for t_max in (1, 3, 8):
                try:
                    plan = select_fix_set(
                        model, base, t_max=t_max, budget=CostBudget(max_rank=rank),
                        ordering_budget=SEARCH_BUDGET,
                    )
                except BudgetUnreachableError as e:
                    assert e.plan.est_subtask_cost.max_rank > rank
                    continue
                assert plan.est_subtask_cost.max_rank <= rank
                assert len(plan.fix_vars) <= t_max

    def test_rank_budget_stops_early(self):
        c = generate(GenParams(4, 4, 16, seed=1))
        model = build_model(c, "0" * 16)
        base = min_fill_ordering(model, seed=0)
        start_rank = estimate_cost(model, base).max_rank
        plan = select_fix_set(
            model, base, t_max=10, budget=CostBudget(max_rank=start_rank - 1),
            ordering_budget=SEARCH_BUDGET,
        )
        assert 1 <= len(plan.fix_vars) <= 10


# The benchmark workloads' plans, pinned so that a faster planner is
# seen to leave them where they were: (rows, cols, depth, circuit seed,
# rank budget, restart cap), then the fix set, the estimated total and a
# sha256 of the post-fix ordering's ids joined by commas
PINNED_PLANS = [
    ((7, 7, 24, 0, 27, 2), (), 3400363,
     "7006258c6c1b7c2e2df59998293040c0672203bb24eec111ca6cd2d1a7905f3f"),
    ((7, 7, 24, 1, 27, 2), (), 1063179,
     "223c3e1b61529808c9e1bcaeb53ae887380e87aea0d03eed0192deecc4d4e802"),
    ((7, 7, 24, 2, 27, 2), (), 994973,
     "03b4ab40e2a154ebeeb397d97c99f69c7f572cd33389004f0d8bb380481c8006"),
    ((7, 7, 28, 0, 27, 1), (), 52442073,
     "eadfa852ba301f6716d9d6b2f4461c7351b9ad5a92da97684d3813d3e9c57965"),
    ((6, 6, 24, 0, 10, 2), (112, 94, 55, 9), 200560,
     "36c17bca6a214a9a50e5a547f3e28c62397946ee7703a3d7f72a3007e3ca9c83"),
]
BENCH_FIX_MAX = 8  # perfbench/bench.py's FIX_MAX, the CLI's --fix-max default


@pytest.mark.parametrize("config, fix_vars, total, ordering_sha", PINNED_PLANS,
                         ids=["{}x{}x{}:{}".format(*pin[0]) for pin in PINNED_PLANS])
def test_benchmark_plans_are_pinned(config, fix_vars, total, ordering_sha):
    rows, cols, depth, seed, rank, restarts = config
    # the graph, and so the plan, is the same for every output string
    model = build_model(generate(GenParams(rows, cols, depth, seed)), "0" * (rows * cols))
    budget = OrderingBudget(time_s=None, max_restarts=restarts)
    base, _ = search_ordering(model, budget)
    plan = select_fix_set(model, base, BENCH_FIX_MAX, CostBudget(max_rank=rank),
                          ordering_budget=budget)
    assert plan.fix_vars == fix_vars
    assert plan.est_total_cost == total
    ids = ",".join(map(str, plan.post_fix_ordering.vars))
    assert hashlib.sha256(ids.encode()).hexdigest() == ordering_sha


@pytest.mark.parametrize("slack", [1, 3])
@pytest.mark.parametrize(
    "rows, depth, seed, custom_every",
    [(4, 12, 0, 0), (4, 16, 3, 2), (5, 16, 1, 0), (5, 20, 2, 3), (6, 16, 4, 0), (6, 16, 5, 5)],
)
def test_plan_estimate_prices_its_own_ordering(rows, depth, seed, custom_every, slack):
    """The returned estimate is the cost of the returned ordering on the
    reduced model, and it meets the rank budget."""
    c = generate(GenParams(rows, rows, depth, seed))
    if custom_every:
        c = with_custom_gates(c, custom_every, seed)
    model = build_model(c, "0" * (rows * rows))
    base, est = search_ordering(model, SEARCH_BUDGET)
    plan = select_fix_set(
        model, base, t_max=8, budget=CostBudget(max_rank=est.max_rank - slack),
        ordering_budget=SEARCH_BUDGET,
    )
    reduced = model
    for v in plan.fix_vars:
        reduced = fix_variable(reduced, v, 0)
    assert estimate_cost(reduced, plan.post_fix_ordering) == plan.est_subtask_cost
    assert plan.est_subtask_cost.max_rank <= est.max_rank - slack


def without(adj, drop):
    """The graph left when the vertices in ``drop`` are fixed."""
    return {u: nbs - drop for u, nbs in adj.items() if u not in drop}


class TestGiveBack:
    @pytest.mark.parametrize("rows, depth, seed, rank", [(6, 24, 0, 10)] + [
        (5, 20, seed, rank) for seed in range(6) for rank in (4, 5)
    ])
    def test_sweep_prices_each_candidate_like_a_replay(self, rows, depth, seed, rank):
        _, model, plan = fanout_plan(rows, rows, depth, seed, rank, plan_over_budget)
        fixed = set(plan.fix_vars)
        assert fixed
        order = plan.post_fix_ordering.vars
        degrees = partition._give_back_degrees(partition._kept_sweep(model.adj, order), fixed)
        assert degrees.keys() == fixed
        for v in fixed:
            est = simulate_cost(without(model.adj, fixed - {v}), order + (v,))
            assert degrees[v] == [s.degree for s in est.steps]

    def test_fanout_plan_returns_a_fix(self):
        # the greedy fixes (14, 112, 94, 55, 9) leave rank 9 under a budget
        # of 10 with 32 subtasks; returning v14 gives 16 at rank 10
        _, _, plan = fanout_plan()
        assert plan.fix_vars == (112, 94, 55, 9)
        assert plan.post_fix_ordering.vars[-1] == 14
        assert plan.est_subtask_cost.max_rank == 10
        assert plan.est_subtask_cost.total == 12_535

    @pytest.mark.parametrize("seed, rank, t_before, work_before, t_after, work_after", [
        (0, 3, 4, 2_608, 3, 1_736),
        (5, 5, 1, 686, 0, 483),  # every fix is returned
    ])
    def test_fewer_subtasks_less_work_same_amplitude(
        self, monkeypatch, seed, rank, t_before, work_before, t_after, work_after
    ):
        def work(plan):
            return plan.num_subtasks * plan.est_subtask_cost.total

        with monkeypatch.context() as m:
            m.setattr(partition, "_give_back_degrees", lambda *args: {})
            _, _, kept = fanout_plan(4, 5, 16, seed, rank)
        c, model, plan = fanout_plan(4, 5, 16, seed, rank)
        assert (len(kept.fix_vars), work(kept)) == (t_before, work_before)
        assert (len(plan.fix_vars), work(plan)) == (t_after, work_after)
        # the returned fixes are eliminated last; the ordering before them
        # may be the other of the two post-fix orderings
        n = len(kept.post_fix_ordering)
        assert set(plan.post_fix_ordering.vars[:n]) == set(kept.post_fix_ordering.vars)
        assert set(plan.post_fix_ordering.vars[n:]) == set(kept.fix_vars) - set(plan.fix_vars)
        one, two = (run_partitioned(model, plan, workers=w).amplitude for w in (1, 2))
        assert one == two
        assert abs(one - amplitude_of(c, "0" * 20)) < 1e-10

    @pytest.mark.parametrize("rows, cols, depth", [(3, 4, 10), (4, 4, 12), (4, 5, 16)])
    def test_plans_fit_and_no_fix_is_left_to_return(self, monkeypatch, rows, cols, depth):
        changed = 0
        for seed in range(4):
            model = build_model(generate(GenParams(rows, cols, depth, seed)), "0" * (rows * cols))
            base, est = search_ordering(model, SEARCH_BUDGET)
            for rank in range(est.max_rank - 4, est.max_rank):
                budget = CostBudget(max_rank=rank)
                with monkeypatch.context() as m:
                    m.setattr(partition, "_give_back_degrees", lambda *args: {})
                    kept = plan_over_budget(model, base, t_max=8, budget=budget,
                                            ordering_budget=SEARCH_BUDGET)
                plan = plan_over_budget(model, base, t_max=8, budget=budget,
                                        ordering_budget=SEARCH_BUDGET)
                if plan == kept:
                    continue
                changed += 1
                fixed = set(plan.fix_vars)
                est_plan = plan.est_subtask_cost
                assert est_plan.max_rank <= rank
                assert simulate_cost(without(model.adj, fixed), plan.post_fix_ordering) == est_plan
                assert (est_plan.total * plan.num_subtasks
                        < kept.est_subtask_cost.total * kept.num_subtasks)
                degrees = partition._give_back_degrees(
                    partition._kept_sweep(model.adj, plan.post_fix_ordering.vars), fixed)
                assert not [v for v, ds in degrees.items()
                            if max(ds) <= rank and sum(1 << d for d in ds) < 2 * est_plan.total]
        assert changed


class TestRunPartitioned:
    def test_t_zero_equals_contract(self, ref4q_model):
        base = min_fill_ordering(ref4q_model, seed=0)
        plan = plan_over_budget(  # at t_max=0 the budget is never met
            ref4q_model, base, t_max=0, budget=CostBudget(max_rank=-1),
            ordering_budget=FOUR_RESTARTS,
        )
        result = run_partitioned(ref4q_model, plan)
        assert plan.num_subtasks == 1
        assert result.amplitude == contract(ref4q_model, plan.post_fix_ordering)

    def test_matches_oracle_and_worker_invariant(self):
        c = generate(GenParams(4, 4, 12, seed=9))
        model = build_model(c, "0" * 16)
        base = min_fill_ordering(model, seed=0)
        plan = forced_plan(model, base, 4)
        results = {w: run_partitioned(model, plan, workers=w) for w in (1, 4, 16)}
        amp = results[1].amplitude
        assert results[4].amplitude == amp
        assert results[16].amplitude == amp
        assert abs(amp - amplitude_of(c, "0" * 16)) < 1e-10
        assert plan.num_subtasks == 16

    def test_metadata(self, ref4q_model):
        base = min_fill_ordering(ref4q_model, seed=0)
        plan = forced_plan(ref4q_model, base, 2)
        result = run_partitioned(ref4q_model, plan)
        assert plan.num_subtasks == 4
        assert plan.post_fix_ordering.provenance == "post-fix search"
        assert result.est_total_cost == plan.est_subtask_cost.total * 4
        assert result.wall_ms >= 0

    def test_rank_overflow_names_only_the_step(self, ref4q_model):
        # a subtask's products have up to 3 axes; at engine rank 2 the fix
        # cannot stay open as a batch axis, so both subtasks are sliced
        base = min_fill_ordering(ref4q_model, seed=0)
        plan = forced_plan(ref4q_model, base, 1)
        for workers in (1, 2):
            # every slice fails at the same step, so no slice is named
            with pytest.raises(RankOverflowError, match=r"\(eliminating v\d+ at step \d+\)$"):
                run_partitioned(ref4q_model, plan, workers=workers, max_rank=2)

    def test_workers_validation(self, ref4q_model):
        base = min_fill_ordering(ref4q_model, seed=0)
        plan = forced_plan(ref4q_model, base, 1)
        with pytest.raises(ValueError):
            run_partitioned(ref4q_model, plan, workers=0)

    @pytest.mark.parametrize("workers", [partition.MAX_WORKERS + 1, 100_000])
    def test_workers_above_the_cap_start_no_thread(self, ref4q_model, monkeypatch, workers):
        base = min_fill_ordering(ref4q_model, seed=0)
        plan = forced_plan(ref4q_model, base, 3)
        assert plan.num_subtasks == 8

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was built")

        monkeypatch.setattr(partition, "ThreadPoolExecutor", no_pool)
        # one slice per subtask: all 8 go to the pool
        rank = plan.est_subtask_cost.max_rank + 1
        with pytest.raises(AssertionError, match="pool was built"):
            run_partitioned(ref4q_model, plan, workers=partition.MAX_WORKERS, max_rank=rank)
        with pytest.raises(ValueError, match="workers must be in"):
            run_partitioned(ref4q_model, plan, workers=workers, max_rank=rank)

    @pytest.mark.parametrize("fault", ["repeats a fix", "orders a fix", "fixes a stranger",
                                       "leaves a free variable out"])
    def test_malformed_plan_fails_before_anything_runs(self, fault, monkeypatch):
        # a repeated fix once passed the check and doubled the amplitude
        _, model, plan = fanout_plan(4, 5, 16, 0, 3)
        fix, order = plan.fix_vars, plan.post_fix_ordering.vars
        # the faulty plan, and the one variable its error names
        fix, order, named = {
            "repeats a fix": (fix + fix[:1], order, fix[0]),
            "orders a fix": (fix, order + fix[:1], fix[0]),
            "fixes a stranger": (fix + (max(model.adj) + 1,), order, max(model.adj) + 1),
            "leaves a free variable out": (fix, order[1:], order[0]),
        }[fault]
        bad = FixPlan(fix, Ordering(order), plan.est_subtask_cost)

        def ran(*args, **kwargs):
            raise AssertionError("ran before the plan was checked")

        monkeypatch.setattr(GraphModel, "clone", ran)
        monkeypatch.setattr(partition, "_kept_sweep", ran)
        monkeypatch.setattr(partition, "ThreadPoolExecutor", ran)
        # batched, then one slice per subtask
        for max_rank in (30, plan.est_subtask_cost.max_rank + 1):
            with pytest.raises(ValueError, match=rf"\[{named}\]"):
                run_partitioned(model, bad, workers=2, max_rank=max_rank)


@settings(max_examples=40, deadline=None)
@given(rows=st.sampled_from([2, 3]), seed=st.integers(0, 10_000),
       custom_every=st.sampled_from([0, 2, 3]), data=st.data())
def test_any_fix_set_and_ordering_match_references(rows, seed, custom_every, data):
    """Fix sets of 0-3 variables and post-fix orderings, both drawn at
    random, on circuits with and without non-diagonal two-qubit gates: the
    partitioned amplitude agrees with the brute-force model sum and the
    state-vector oracle, and is bit-identical on 1 and 2 workers."""
    n = rows * 3
    c = generate(GenParams(rows, 3, 10 if rows == 2 else 8, seed=seed))
    if custom_every:
        c = with_custom_gates(c, custom_every, seed)
    x = data.draw(st.text("01", min_size=n, max_size=n))
    model = build_model(c, x)
    free = sorted(model.vertices)
    fix_vars = ()
    if free:
        fix_vars = tuple(data.draw(st.lists(
            st.sampled_from(free), max_size=min(3, len(free)), unique=True
        )))
    order = Ordering(tuple(data.draw(st.permutations(
        [v for v in free if v not in fix_vars]
    ))))
    reduced = model
    for v in fix_vars:
        reduced = fix_variable(reduced, v, 0)
    plan = FixPlan(fix_vars, order, estimate_cost(reduced, order))

    one, two = (run_partitioned(model, plan, workers=w) for w in (1, 2))
    assert plan.num_subtasks == 1 << len(fix_vars)
    assert two.amplitude == one.amplitude
    assert abs(one.amplitude - model_value_bruteforce(model)) < 1e-10
    assert abs(one.amplitude - amplitude_of(c, x)) < 1e-10


BATCH_CASES = [(0, 3), (2, 3), (3, 4)]  # (seed, rank): 4x5x16 plans, 3 or 4 fixes


@pytest.fixture(scope="module", params=BATCH_CASES,
                ids=[f"seed{s}-rank{r}" for s, r in BATCH_CASES])
def batch_case(request):
    """A plan, its oracle amplitude, its one-slice-per-subtask amplitude,
    and every engine rank cap from one past the plan's rank, which
    slices the fixes, to two past batching them all."""
    c, model, plan = fanout_plan(4, 5, 16, *request.param)
    rank = plan.est_subtask_cost.max_rank
    sliced = run_partitioned(model, plan, max_rank=rank + 1)
    assert sliced.batch_vars == ()
    caps = range(rank + 1, rank + len(plan.fix_vars) + 3)
    return model, plan, amplitude_of(c, "0" * 20), sliced.amplitude, caps


class TestBatchedSubtasks:
    def test_batched_and_sliced_match_the_references(self, batch_case):
        model, plan, oracle, sliced, caps = batch_case
        batches = set()
        for cap in caps:
            result = run_partitioned(model, plan, max_rank=cap)
            batches.add(result.batch_vars)
            assert abs(result.amplitude - oracle) < 1e-10
            assert abs(result.amplitude - sliced) < 1e-12
            if result.batch_vars == plan.fix_vars:  # one contraction, every step in it
                values = contract(model, plan.post_fix_ordering, keep=plan.fix_vars)
                assert result.amplitude == partition._tree_sum(values)
        assert batches == {(), plan.fix_vars}  # all or none

    def test_kept_values_come_in_subtask_order(self, batch_case):
        model, plan, _, _, _ = batch_case
        t = len(plan.fix_vars)
        values = contract(model, plan.post_fix_ordering, keep=plan.fix_vars)
        assert isinstance(values, np.ndarray) and values.dtype == np.complex128
        assert values.shape == (plan.num_subtasks,)
        for i, value in enumerate(values):
            m = model.clone()
            m._fix({v: (i >> (t - 1 - j)) & 1 for j, v in enumerate(plan.fix_vars)})
            want = contract(m, plan.post_fix_ordering)
            assert abs(value - want) <= 1e-12 * abs(want)

    def test_slice_values_reach_the_sum_as_one_array(self, batch_case, monkeypatch):
        model, plan, _, _, caps = batch_case
        t, order = len(plan.fix_vars), plan.post_fix_ordering
        slices = []
        for i in range(plan.num_subtasks):
            m = model.clone()
            m._fix({v: (i >> (t - 1 - j)) & 1 for j, v in enumerate(plan.fix_vars)})
            slices.append(contract(m, order))
        seen = []
        tree_sum = partition._tree_sum

        def recording(values):
            seen.append(values)
            return tree_sum(values)

        monkeypatch.setattr(partition, "_tree_sum", recording)
        # one past the plan's rank slices every fix; the largest cap batches them all
        for cap, batch, want in ((caps[0], (), np.array(slices)),
                                 (caps[-1], plan.fix_vars,
                                  contract(model, order, keep=plan.fix_vars))):
            for workers in (1, 2):
                seen.clear()
                result = run_partitioned(model, plan, workers=workers, max_rank=cap)
                assert result.batch_vars == batch
                [values] = seen
                assert isinstance(values, np.ndarray) and values.dtype == np.complex128
                assert values.shape == (plan.num_subtasks,)
                assert np.array_equal(values, want)

    def test_same_bits_on_any_worker_count(self, batch_case):
        model, plan, _, _, caps = batch_case
        for cap in caps:
            amps = [run_partitioned(model, plan, workers=w, max_rank=cap).amplitude
                    for w in (1, 2, 4)]
            assert len({(z.real.hex(), z.imag.hex()) for z in amps}) == 1

    @pytest.mark.parametrize("chunk_rank", [None, 5])
    def test_products_fit_the_cap(self, batch_case, chunk_rank, monkeypatch):
        model, plan, oracle, _, caps = batch_case
        if chunk_rank is not None:  # no step of more axes builds its product
            monkeypatch.setattr(elimination, "CHUNK_RANK", chunk_rank)
            monkeypatch.setattr(elimination, "MATMUL_RANK", chunk_rank + 1)
            no_runs(monkeypatch)
            caps = [30]
        ranks = []
        multiply_all = elimination.multiply_all

        def recording(tensors, **kwargs):
            product = multiply_all(tensors, **kwargs)
            ranks.append(product.rank)
            return product

        monkeypatch.setattr(elimination, "multiply_all", recording)
        for cap in caps:
            ranks.clear()
            result = run_partitioned(model, plan, workers=2, max_rank=cap)
            assert max(ranks) <= min(elimination.CHUNK_RANK, cap)
            assert abs(result.amplitude - oracle) < 1e-10

    def test_sweep_width_is_the_unsliced_graphs(self, batch_case):
        model, plan, _, _, _ = batch_case
        order = plan.post_fix_ordering.vars
        width = max(map(len, partition._kept_sweep(model.adj, order)))
        assert width == simulate_cost(model.adj, order).max_rank


def test_engine_rank_one_past_the_plan_slices_the_fixes(capsys):
    args = ["amplitude", "--rows", "4", "--cols", "5", "--depth", "16", "--max-rank", "3",
            "--order-restarts", "2"]
    runs = []
    for extra in ([], ["--engine-max-rank", "4"]):
        assert main(args + extra) == 0
        runs.append(json.loads(capsys.readouterr().out))
    wide, narrow = runs
    assert wide["est_subtask_cost"]["max_rank"] == 3 and len(wide["fix_vars"]) == 3
    assert wide["batch_vars"] == wide["fix_vars"] and wide["contractions"] == 1
    assert narrow["batch_vars"] == [] and narrow["contractions"] == 8
    amps = [complex(r["amplitude"]["re"], r["amplitude"]["im"]) for r in runs]
    assert abs(amps[0] - amps[1]) < 1e-12
