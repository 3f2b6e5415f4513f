"""Steps no fixed variable reaches run once per amplitude.

``run_partitioned`` finds them by one elimination of the full graph that
keeps the fixed vertices, runs them on the unsliced model before any
subtask, and every subtask slices what they leave.  The references here
work on buckets instead:
sliced leaves are marked, a result carries the mark of any input, and a
step is shared when its bucket holds no marked tensor.

Tests of the one-slice-per-subtask path run the engine at one past the
plan's rank, which no product with every fixed variable open fits.
"""

import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gridamp import (
    CostBudget,
    FixPlan,
    GraphModel,
    Ordering,
    OrderingBudget,
    RankOverflowError,
    contract,
    eliminate_variable,
    elimination,
    estimate_cost,
    fix_variable,
    min_fill_ordering,
    run_partitioned,
    search_ordering,
    select_fix_set,
)
from gridamp import partition
from gridamp.graph_model import VarInfo
from gridamp.tensor import Tensor

from test_partition import fanout_plan
from test_pricing_reference import CASE_IDS, CASES, grid_model

SEARCH_BUDGET = OrderingBudget(time_s=None, max_restarts=2)


def reference_shared(model, fix_vars, order):
    """The shared steps of ``order`` and where each step's result goes
    (its bucket, or None when it folds into the scalar), from the
    buckets alone."""
    fixed = set(fix_vars)
    pos = {v: k for k, v in enumerate(order)}
    buckets = [[] for _ in order]

    def file(axes, marked):
        if not axes:
            return None
        k = min(map(pos.__getitem__, axes))
        buckets[k].append((axes, marked))
        return k

    for f in model.factors:
        file(set(f.axes) - fixed, not fixed.isdisjoint(f.axes))
    shared, dest = set(), {}
    for k, v in enumerate(order):
        marked = any(m for _, m in buckets[k])
        if not marked:
            shared.add(k)
        dest[k] = file(set().union(*(a for a, _ in buckets[k])) - {v}, marked)
    return shared, dest


def plan_for(model, fix_vars, order):
    reduced = model
    for v in fix_vars:
        reduced = fix_variable(reduced, v, 0)
    return FixPlan(tuple(fix_vars), order, estimate_cost(reduced, order))


def sliced_amplitude(model, plan):
    """The plan's amplitude from independently contracted slices."""
    t = len(plan.fix_vars)
    parts = []
    for i in range(plan.num_subtasks):
        m = model.clone()
        m._fix({v: (i >> (t - 1 - j)) & 1 for j, v in enumerate(plan.fix_vars)})
        parts.append(contract(m, plan.post_fix_ordering))
    return partition._tree_sum(parts)


def bits(z):
    return z.real.hex(), z.imag.hex()


def small_model():
    """v7 is the one to fix.  In the order 0, 5, 6, 1, 2, 3, 4: v0's
    result goes to v1's shared step, v5 has an empty bucket, v6 folds
    into the scalar, and v1's result goes to v2's unshared step."""
    rng = np.random.default_rng(3)
    g = GraphModel()
    for v in range(8):
        g._add_vertex(v, VarInfo(0, v))
    for axes in [(0, 1), (1, 2), (2, 7), (7, 3), (3, 4), (6,)]:
        data = rng.normal(size=(2,) * len(axes)) + 1j * rng.normal(size=(2,) * len(axes))
        g._add_factor(Tensor(axes, data))
    return g, (7,), Ordering((0, 5, 6, 1, 2, 3, 4))


@pytest.fixture(scope="module", params=CASES, ids=CASE_IDS)
def model(request):
    return grid_model(*request.param)


def sweep_shared(model, fix_vars, order):
    """The steps at which the kept-vertex sweep finds no fixed neighbor."""
    sweep = partition._kept_sweep(model.adj, order)
    return {k for k, nbs in enumerate(sweep) if set(fix_vars).isdisjoint(nbs)}


def run_sliced(model, plan, **kwargs):
    """``run_partitioned`` one slice per subtask."""
    result = run_partitioned(model, plan, max_rank=plan.est_subtask_cost.max_rank + 1, **kwargs)
    assert result.batch_vars == ()
    return result


def check_sweep(model, fix_vars, order):
    """The sweep's shared set is the bucket reference's; returns it."""
    want, _ = reference_shared(model, fix_vars, order)
    assert sweep_shared(model, fix_vars, order) == want
    return want


class TestSweepMatchesBuckets:
    def test_random_fix_sets_and_orderings(self, model):
        rng = np.random.default_rng(len(model.adj))
        free = sorted(model.adj)
        for _ in range(6):
            t = int(rng.integers(1, 5))
            fixed = [int(v) for v in rng.choice(free, size=t, replace=False)]
            order = [int(v) for v in rng.permutation([v for v in free if v not in fixed])]
            check_sweep(model, fixed, order)

    def test_planned_orderings_with_give_backs(self, monkeypatch):
        gave_back = []
        give_back = partition._give_back

        def counted(g, plan, budget):
            out = give_back(g, plan, budget)
            gave_back.append(out.fix_vars != plan.fix_vars)
            return out

        monkeypatch.setattr(partition, "_give_back", counted)
        for case in CASES:
            model = grid_model(*case)
            base, est = search_ordering(model, SEARCH_BUDGET)
            for rank in range(max(est.max_rank - 6, 1), est.max_rank):
                plan = select_fix_set(model, base, t_max=8, budget=CostBudget(max_rank=rank),
                                      ordering_budget=SEARCH_BUDGET, allow_over_budget=True)
                check_sweep(model, plan.fix_vars, plan.post_fix_ordering.vars)
        assert sum(gave_back) >= 4

    def test_small_model(self):
        g, fixed, order = small_model()
        assert check_sweep(g, fixed, order.vars) == {0, 1, 2, 3}


class TestSameBits:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_small_model(self, workers):
        g, fixed, order = small_model()
        plan = plan_for(g, fixed, order)
        result = run_sliced(g, plan, workers=workers)
        assert result.shared_steps == 4
        assert bits(result.amplitude) == bits(sliced_amplitude(g, plan))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_planned_circuits(self, model, workers):
        base = min_fill_ordering(model, seed=0)
        rank = estimate_cost(model, base).max_rank
        plan = select_fix_set(model, base, t_max=4, budget=CostBudget(max_rank=rank - 3),
                              ordering_budget=SEARCH_BUDGET, allow_over_budget=True)
        assert plan.fix_vars
        result = run_sliced(model, plan, workers=workers)
        # a subtask files the shared results ahead of its own, so a product
        # may pair its inputs otherwise than an independent slice does
        want = sliced_amplitude(model, plan)
        assert abs(result.amplitude - want) <= 1e-12 * abs(want)
        assert bits(result.amplitude) == bits(run_sliced(model, plan).amplitude)


def test_the_pool_runs_every_subtask(monkeypatch):
    _, model, plan = fanout_plan(4, 5, 16, 0, 3)
    sent = []

    class Recording(ThreadPoolExecutor):
        def map(self, fn, indices):
            sent.extend(indices)
            return super().map(fn, indices)

    monkeypatch.setattr(partition, "ThreadPoolExecutor", Recording)
    two = run_sliced(model, plan, workers=2)
    assert sent == list(range(plan.num_subtasks)) and plan.num_subtasks == 8
    assert bits(two.amplitude) == bits(run_sliced(model, plan).amplitude)


def test_records_read_by_many_threads():
    # eight workers on two cores, switching threads as often as they can:
    # every subtask reads the same shared results
    _, model, plan = fanout_plan(4, 5, 16, 0, 3)
    want = bits(run_sliced(model, plan).amplitude)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [bits(run_sliced(model, plan, workers=8).amplitude) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 5


def test_each_shared_step_multiplies_once(monkeypatch):
    _, model, plan = fanout_plan(4, 5, 16, 0, 3)
    n = len(plan.post_fix_ordering)
    s = len(sweep_shared(model, plan.fix_vars, plan.post_fix_ordering.vars))
    assert 0 < s < n and plan.num_subtasks == 8
    calls = []
    multiply_all = elimination.multiply_all

    def counted(tensors, **kwargs):
        calls.append(1)
        return multiply_all(tensors, **kwargs)

    monkeypatch.setattr(elimination, "multiply_all", counted)
    result = run_sliced(model, plan, workers=2)
    assert result.shared_steps == s
    assert len(calls) == n + (plan.num_subtasks - 1) * (n - s)


def sliced_case(case):
    """``small_model()``, or a 4x5x16 circuit's plan with 8 subtasks."""
    if case == "small":
        return small_model()
    _, model, plan = fanout_plan(4, 5, 16, 0, 3)
    return model, plan.fix_vars, plan.post_fix_ordering


def prologue(model, plan, monkeypatch):
    """The model each subtask of ``run_sliced`` slices, before its slice."""
    seen = []
    fix = GraphModel._fix

    def recording(m, assignment):
        if not seen:
            seen.append(m.clone())
        fix(m, assignment)

    with monkeypatch.context() as patch:
        patch.setattr(GraphModel, "_fix", recording)
        run_sliced(model, plan)
    return seen[0]


@pytest.mark.parametrize("case", ["small", "circuit"])
def test_prologue_is_eliminate_variable_in_plan_order(case, monkeypatch):
    model, fixed, order = sliced_case(case)
    left = prologue(model, plan_for(model, fixed, order), monkeypatch)
    want = model
    for k in sorted(sweep_shared(model, fixed, order.vars)):
        want = eliminate_variable(want, order.vars[k])
    assert [(f.axes, f.data.tobytes()) for f in left.factors] == [
        (f.axes, f.data.tobytes()) for f in want.factors]
    assert left.scalar == want.scalar
    assert left.adj == want.adj


@pytest.mark.parametrize("case", ["small", "circuit"])
def test_prologue_keeps_only_what_unshared_steps_use(case, monkeypatch):
    model, fixed, order = sliced_case(case)
    shared, dest = reference_shared(model, fixed, order.vars)
    plan = plan_for(model, fixed, order)
    left = prologue(model, plan, monkeypatch)
    # the leaves no shared step multiplies, in their order, then the shared
    # results that unshared steps use, in step order
    pos = {v: k for k, v in enumerate(order.vars)}
    leaves = [f for f in model.factors
              if set(f.axes) <= set(fixed) or min(pos[v] for v in f.axes if v in pos) not in shared]
    kept = [k for k in sorted(shared) if dest[k] is not None and dest[k] not in shared]
    assert left.factors[:len(leaves)] == leaves
    results = left.factors[len(leaves):]
    assert [min(map(pos.__getitem__, r.axes)) for r in results] == [dest[k] for k in kept]
    assert set(left.adj) == set(model.adj) - {order.vars[k] for k in shared}
    # the scalar folds the rest: each slice of what is left is worth the
    # same slice of the whole model
    t = len(fixed)
    for i in (0, plan.num_subtasks - 1):
        assignment = {v: (i >> (t - 1 - j)) & 1 for j, v in enumerate(fixed)}
        a, b = left.clone(), model.clone()
        a._fix(assignment)
        b._fix(assignment)
        got, want = contract(a, order.restrict(a.adj)), contract(b, order)
        assert abs(got - want) <= 1e-12 * abs(want)
    if case == "small":  # v5's empty bucket doubles, v6 folds its factor
        (v6,) = [f for f in model.factors if f.axes == (6,)]
        assert abs(left.scalar - 2.0 * v6.data.sum()) < 1e-15
        assert [r.axes for r in results] == [(2,)]


def test_rank_overflow_in_a_shared_step_names_the_plan_step():
    g, fixed, order = small_model()
    assert 0 in sweep_shared(g, fixed, order.vars)
    with pytest.raises(RankOverflowError, match=r"\(eliminating v0 at step 0 of the shared "
                                                r"steps, run once for all 2 subtasks\)$"):
        run_partitioned(g, plan_for(g, fixed, order), workers=2, max_rank=1)


def test_fanout_plan_shares_69_of_143_steps():
    # fanout-6x6x24: 143 + 15 * (143 - 69) = 1,253 steps per amplitude
    _, model, plan = fanout_plan()
    assert len(plan.post_fix_ordering) == 143 and plan.num_subtasks == 16
    assert run_sliced(model, plan).shared_steps == 69


def test_one_subtask_shares_nothing():
    g, _, _ = small_model()
    order = Ordering((0, 5, 6, 1, 2, 7, 3, 4))
    result = run_partitioned(g, plan_for(g, (), order))
    assert result.shared_steps == 0
    assert result.amplitude == contract(g, order)
