"""Every subtask of a plan is an independent slice of the model.

``run_partitioned`` reads its batch width from one elimination of the
full graph that keeps the fixed vertices; the reference here works on
buckets instead.  A sliced amplitude is the fixed sum of independently
contracted slices, bit for bit.

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
    GenParams,
    GraphModel,
    Ordering,
    OrderingBudget,
    build_model,
    contract,
    elimination,
    estimate_cost,
    fix_variable,
    generate,
    min_fill_ordering,
    run_partitioned,
    search_ordering,
    select_fix_set,
)
from gridamp import partition
from gridamp.graph_model import VarInfo
from gridamp.tensor import Tensor

from conftest import CASE_IDS, CASES, SEARCH_BUDGET, fanout_plan, grid_model, plan_over_budget


def reference_products(model, order):
    """Each step's product variables but its own, from the buckets alone,
    with every variable ``order`` leaves out kept open."""
    pos = dict.fromkeys(model.adj, len(order)) | {v: k for k, v in enumerate(order)}
    buckets = [[] for _ in range(len(order) + 1)]
    for f in model.factors:
        buckets[min(map(pos.__getitem__, f.axes))].append(set(f.axes))
    products = []
    for k, v in enumerate(order):
        rest = set().union(*buckets[k]) - {v}
        products.append(rest)
        if rest:
            buckets[min(map(pos.__getitem__, rest))].append(rest)
    return products


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
    return partition._tree_sum(np.array(parts))


def bits(z):
    return z.real.hex(), z.imag.hex()


def small_model():
    """v7 is the one to fix.  In the order 0, 5, 6, 1, 2, 3, 4: v0's
    result goes to v1's bucket, v5 has an empty bucket, v6 folds into the
    scalar, and v1's result goes to v2's bucket, which holds v7's factor."""
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


def run_sliced(model, plan, **kwargs):
    """``run_partitioned`` one slice per subtask."""
    result = run_partitioned(model, plan, max_rank=plan.est_subtask_cost.max_rank + 1, **kwargs)
    assert result.batch_vars == ()
    return result


def check_sweep(model, order):
    """Each step's B_k is the bucket reference's; returns them."""
    sweep = partition._kept_sweep(model.adj, order)
    assert sweep == reference_products(model, order)
    return sweep


class TestSweepMatchesBuckets:
    """B_k, whose largest size decides the batch split, is the variables
    of step k's product but its own, with the fixed set open."""

    def test_random_fix_sets_and_orderings(self, model):
        rng = np.random.default_rng(len(model.adj))
        free = sorted(model.adj)
        for _ in range(6):
            t = int(rng.integers(1, 5))
            fixed = [int(v) for v in rng.choice(free, size=t, replace=False)]
            order = [int(v) for v in rng.permutation([v for v in free if v not in fixed])]
            check_sweep(model, order)

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
                plan = plan_over_budget(model, base, t_max=8, budget=CostBudget(max_rank=rank),
                                        ordering_budget=SEARCH_BUDGET)
                check_sweep(model, plan.post_fix_ordering.vars)
        assert sum(gave_back) >= 4

    def test_small_model(self):
        g, _, order = small_model()
        assert check_sweep(g, order.vars) == [{1}, set(), set(), {2}, {7}, {4, 7}, {7}]


@pytest.fixture(scope="module")
def chunked_case():
    """The plan of ``gridamp amplitude --rows 7 --cols 7 --depth 28
    --order-restarts 1 --max-rank 21``: two fixes, and steps whose
    products pass the real ``CHUNK_RANK``, summed in runs."""
    model = build_model(generate(GenParams(7, 7, 28, seed=0)), "0" * 49)
    budget = OrderingBudget(time_s=None, max_restarts=1)
    base, _ = search_ordering(model, budget)
    plan = select_fix_set(model, base, t_max=8, budget=CostBudget(max_rank=21),
                          ordering_budget=budget)
    assert plan.num_subtasks == 4
    assert plan.est_subtask_cost.max_rank + 1 > elimination.CHUNK_RANK
    return model, plan


class TestSameBits:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_small_model(self, workers):
        g, fixed, order = small_model()
        plan = plan_for(g, fixed, order)
        result = run_sliced(g, plan, workers=workers)
        assert bits(result.amplitude) == bits(sliced_amplitude(g, plan))

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_planned_circuits(self, model, workers):
        base = min_fill_ordering(model, seed=0)
        rank = estimate_cost(model, base).max_rank
        plan = plan_over_budget(model, base, t_max=4, budget=CostBudget(max_rank=rank - 3),
                                ordering_budget=SEARCH_BUDGET)
        assert plan.fix_vars
        result = run_sliced(model, plan, workers=workers)
        assert bits(result.amplitude) == bits(sliced_amplitude(model, plan))

    @pytest.mark.parametrize("workers", [1, 2])
    def test_chunked_plan(self, chunked_case, workers):
        model, plan = chunked_case
        result = run_partitioned(model, plan, workers=workers)
        assert result.batch_vars == ()
        assert bits(result.amplitude) == bits(sliced_amplitude(model, plan))


def test_the_pool_runs_every_subtask(monkeypatch):
    # 8 slices on 2 workers: the pool holds one task per worker, and the
    # tasks between them slice and contract each subtask once
    _, model, plan = fanout_plan(4, 5, 16, 0, 3)
    one = run_sliced(model, plan)
    sent, slices = [], []

    class Recording(ThreadPoolExecutor):
        def submit(self, fn, *args, **kwargs):
            sent.append(fn)
            return super().submit(fn, *args, **kwargs)

    fix = GraphModel._fix

    def recorded(self, bits):
        slices.append(tuple(sorted(bits.items())))
        return fix(self, bits)

    contracted = []
    contract = partition.contract
    monkeypatch.setattr(partition, "ThreadPoolExecutor", Recording)
    monkeypatch.setattr(GraphModel, "_fix", recorded)
    monkeypatch.setattr(partition, "contract",
                        lambda *args, **kwargs: contracted.append(1) or contract(*args, **kwargs))
    two = run_sliced(model, plan, workers=2)
    assert plan.num_subtasks == 8 and len(sent) <= 2
    assert len(slices) == len(set(slices)) == len(contracted) == 8
    assert bits(two.amplitude) == bits(one.amplitude)


def test_a_failed_subtask_stops_the_pool(monkeypatch):
    # the other worker runs no slice past the one it holds when the first fails
    _, model, plan = fanout_plan(4, 5, 16, 0, 3)
    calls = []
    contract = partition.contract

    def first_fails(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise MemoryError("first slice")
        return contract(*args, **kwargs)

    monkeypatch.setattr(partition, "contract", first_fails)
    with pytest.raises(MemoryError, match="first slice"):
        run_sliced(model, plan, workers=2)
    assert plan.num_subtasks == 8 and len(calls) < 8


def test_slices_read_one_model_from_many_threads():
    # eight workers on two cores, switching threads as often as they can:
    # every subtask slices the same model
    _, model, plan = fanout_plan(4, 5, 16, 0, 3)
    want = bits(run_sliced(model, plan).amplitude)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [bits(run_sliced(model, plan, workers=8).amplitude) for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [want] * 5


def test_each_subtask_multiplies_every_step(monkeypatch):
    _, model, plan = fanout_plan(4, 5, 16, 0, 3)
    assert plan.num_subtasks == 8
    calls = []
    multiply_all = elimination.multiply_all

    def counted(tensors, **kwargs):
        calls.append(1)
        return multiply_all(tensors, **kwargs)

    monkeypatch.setattr(elimination, "multiply_all", counted)
    run_sliced(model, plan, workers=2)
    assert len(calls) == plan.num_subtasks * len(plan.post_fix_ordering)


def test_unfixed_plan_is_one_contract():
    g, _, _ = small_model()
    order = Ordering((0, 5, 6, 1, 2, 7, 3, 4))
    result = run_partitioned(g, plan_for(g, (), order))
    assert result.amplitude == contract(g, order)


def list_by_list_sum(values):
    """The reduction tree of 2^k values built one new list per level."""
    level = list(values)
    while len(level) > 1:
        level = [a + b for a, b in zip(level[::2], level[1::2])]
    return level[0]


def test_tree_sum_in_place_pairs_like_new_lists():
    # magnitudes far apart make any other pairing round differently, and
    # signed zeros keep their signs only under the same additions
    rng = np.random.default_rng(3)
    zeros = [complex(re, im) for re in (0.0, -0.0) for im in (0.0, -0.0)]
    for n in (1 << k for k in range(6)):
        scale = 10.0 ** rng.integers(-8, 17, size=n)
        mixed = list(rng.standard_normal(n) * scale + 1j * rng.standard_normal(n) * scale)
        for i in rng.choice(n, size=n // 3, replace=False):
            mixed[i] = zeros[i % 4]
        for values in (mixed, [zeros[i % 4] for i in range(n)], [-0.0 - 0.0j] * n):
            values = [complex(z) for z in values]
            assert bits(partition._tree_sum(np.array(values))) == bits(list_by_list_sum(values))
