"""Elimination semantics, contraction correctness, and the cost model."""

import functools
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridamp import (
    CostBudget,
    GenParams,
    Ordering,
    OrderingBudget,
    RankOverflowError,
    Tensor,
    amplitude_of,
    build_model,
    contract,
    eliminate_variable,
    estimate_cost,
    generate,
    min_fill_ordering,
    model_value_bruteforce,
    run_partitioned,
    select_fix_set,
)
from gridamp import elimination, partition
from gridamp.graph_model import GraphModel, VarInfo, copy_adj
from gridamp.tensor import _schedule, multiply_all, sum_out

from conftest import (edge_names, fanout_plan, letter_ids, no_runs, plan_over_budget,
                      with_custom_gates)


def ordering_starting_with(model, first):
    rest = sorted(v for v in model.vertices if v not in first)
    return Ordering(tuple(first) + tuple(rest))


class TestEliminateVariable:
    def test_leaf_elimination_adds_no_fill(self, ref4q_model):
        c = letter_ids(ref4q_model)["c"]
        out = eliminate_variable(ref4q_model, c)
        assert len(out.vertices) == 9
        assert edge_names(out) == edge_names(ref4q_model) - {"ce"}

    def test_high_degree_elimination_fills_neighbor_clique(self, ref4q_model):
        ids = letter_ids(ref4q_model)
        out = eliminate_variable(ref4q_model, ids["e"])
        before = edge_names(ref4q_model)
        after = edge_names(out)
        assert after - before == {"ac", "af", "bc", "bf", "cf"}
        assert before - after == {"ae", "be", "ce", "ef"}
        made = [f for f in out.factors if f.rank == 4]
        assert len(made) == 1
        assert set(made[0].axes) == {ids[n] for n in "abcf"}

    def test_isolated_vertex_with_boundary_factor(self):
        g = GraphModel()
        g._add_vertex(0, VarInfo(0, 0))
        g._add_factor(Tensor((0,), [1, 0]))
        out = eliminate_variable(g, 0)
        assert out.vertices == set()
        assert not out.factors
        assert out.scalar == 1.0 + 0j

    def test_vertex_without_factors_doubles_scalar(self):
        g = GraphModel()
        g._add_vertex(0, VarInfo(0, 0))
        out = eliminate_variable(g, 0)
        assert out.scalar == 2.0 + 0j

    def test_unknown_variable(self, ref4q_model, monkeypatch):
        ids = letter_ids(ref4q_model)
        eliminated = eliminate_variable(ref4q_model, ids["c"])
        monkeypatch.setattr(GraphModel, "clone", mock.Mock(side_effect=AssertionError("cloned")))
        for g, v in ((ref4q_model, 999), (eliminated, ids["c"])):
            with pytest.raises(KeyError, match="not free"):
                eliminate_variable(g, v)
        with pytest.raises(TypeError):  # one variable per call
            eliminate_variable(ref4q_model, ids["c"], ids["e"])

    def test_overflow_names_the_step(self, ref4q_model):
        e = letter_ids(ref4q_model)["e"]
        # e's product has e, a, b, c and f
        with pytest.raises(RankOverflowError, match=rf"\(eliminating v{e} at step 0\)$"):
            eliminate_variable(ref4q_model, e, max_rank=4)
        assert eliminate_variable(ref4q_model, e, max_rank=5).vertices == ref4q_model.vertices - {e}


class TestContract:
    def test_reference_model_any_ordering(self, ref4q_circuit, ref4q_model):
        expected = model_value_bruteforce(ref4q_model)
        for first in ("e", "c", "j"):
            order = ordering_starting_with(
                ref4q_model, [letter_ids(ref4q_model)[first]]
            )
            assert abs(contract(ref4q_model, order) - expected) < 1e-12

    def test_letter_order_matches_oracle(self, ref4q_circuit, ref4q_model):
        ids = letter_ids(ref4q_model)
        order = Ordering(tuple(ids[ch] for ch in "abcdefghij"))
        amp = contract(ref4q_model, order)
        assert abs(amp - amplitude_of(ref4q_circuit, "0000")) < 1e-12

    def test_empty_model(self):
        g = GraphModel()
        g.scalar = 0.25 + 0.5j
        assert contract(g, Ordering(())) == 0.25 + 0.5j

    def test_ordering_must_cover(self, ref4q_model):
        with pytest.raises(ValueError):
            contract(ref4q_model, Ordering((0, 1)))

    def test_ordering_invariance_random_models(self):
        rng = np.random.default_rng(42)
        for seed in range(4):
            c = generate(GenParams(3, 3, 8, seed=seed))
            model = build_model(c, "0" * 9)
            vs = sorted(model.vertices)
            results = []
            for _ in range(20):
                order = list(vs)
                rng.shuffle(order)
                results.append(contract(model, Ordering(tuple(order))))
            for r in results[1:]:
                assert abs(r - results[0]) < 1e-10

    def test_rank_overflow_identifies_step(self, ref4q_model):
        e = letter_ids(ref4q_model)["e"]
        order = ordering_starting_with(ref4q_model, [e])
        with pytest.raises(RankOverflowError) as err:
            contract(ref4q_model, order, max_rank=3)
        assert "step 0" in str(err.value)

    def test_keep_over_the_cap_is_refused_before_any_step(self, ref4q_model, monkeypatch):
        # the values over keep come from one product over its axes, so a
        # keep of k variables is refused at max_rank k - 1 before any step
        def no_steps(*args):
            raise AssertionError("a step ran")

        monkeypatch.setattr(elimination, "_eliminate_all", no_steps)
        vs = sorted(ref4q_model.vertices)
        keep, order = tuple(vs[:4]), Ordering(tuple(vs[4:]))
        with pytest.raises(RankOverflowError):
            contract(ref4q_model, order, max_rank=3, keep=keep)
        with pytest.raises(AssertionError, match="a step ran"):
            contract(ref4q_model, order, max_rank=4, keep=keep)

    def test_bit_reproducible(self, ref4q_model):
        order = Ordering(tuple(sorted(ref4q_model.vertices)))
        a = contract(ref4q_model, order)
        b = contract(ref4q_model, order)
        assert a == b


class TestEstimateCost:
    def test_reference_degrees(self, ref4q_model):
        ids = letter_ids(ref4q_model)
        est = estimate_cost(ref4q_model, ordering_starting_with(ref4q_model, [ids["e"]]))
        assert est.steps[0].degree == 4
        assert est.steps[0].cost == 16

    def test_leaf_first_costs(self, ref4q_model):
        ids = letter_ids(ref4q_model)
        est = estimate_cost(
            ref4q_model, ordering_starting_with(ref4q_model, [ids["c"], ids["d"]])
        )
        assert est.steps[0].cost == 2
        assert est.steps[1].cost == 2

    def test_degree_zero_step_costs_one(self):
        g = GraphModel()
        g._add_vertex(0, VarInfo(0, 0))
        est = estimate_cost(g, Ordering((0,)))
        assert est.steps[0].cost == 1
        assert est.total == 1
        assert est.max_rank == 0

    def test_total_is_sum_and_max_rank_is_max_degree(self, ref4q_model):
        order = Ordering(tuple(sorted(ref4q_model.vertices)))
        est = estimate_cost(ref4q_model, order)
        assert est.total == sum(s.cost for s in est.steps)
        assert est.max_rank == max(s.degree for s in est.steps)

    def test_materialized_ranks_track_degrees(self, ref4q_model, monkeypatch):
        order = Ordering(tuple(sorted(ref4q_model.vertices)))
        est = estimate_cost(ref4q_model, order)
        ranks: list[int] = []

        def recording(*args, **kwargs):  # each step's product tensor
            product = multiply_all(*args, **kwargs)
            ranks.append(product.rank)
            return product

        monkeypatch.setattr(elimination, "multiply_all", recording)
        contract(ref4q_model, order)
        assert ranks == [s.degree + 1 for s in est.steps]
        assert max(ranks) == est.max_rank + 1

    def test_graph_dynamics_agree_with_elimination(self, ref4q_model):
        order = sorted(ref4q_model.vertices)
        est = estimate_cost(ref4q_model, Ordering(tuple(order)))
        g = ref4q_model
        for step, v in zip(est.steps, order):
            assert step.degree == len(g.adj[v])
            g = eliminate_variable(g, v)


def bits(z):
    return z.real.hex(), z.imag.hex()


@functools.lru_cache(maxsize=None)
def grid_case(seed):
    """A 4x5x16 model (min-fill rank 6 or 7), its min-fill ordering, its
    amplitude unchunked and the oracle's."""
    c = generate(GenParams(4, 5, 16, seed=seed))
    model = build_model(c, "0" * 20)
    order = min_fill_ordering(model, seed=0)
    return model, order, contract(model, order), amplitude_of(c, "0" * 20)


def close(got, want):
    """Within 1e-12 of ``want``, relative to its largest entry."""
    return np.max(np.abs(got - want), initial=0.0) <= 1e-12 * np.max(np.abs(want), initial=0.0)


def aligned(t, axes):
    """``t``'s data with its axes put in the order ``axes``."""
    return np.transpose(t.data, [t.axes.index(u) for u in axes])


def signed_zero_bucket(layouts, seed, memory=None):
    """Tensors over ``layouts`` whose entries mix 0.0, -0.0 and nonzeros;
    the last one's data is laid out in memory in the axis order
    ``memory`` (outermost first), given as a view in layout order."""
    rng = np.random.default_rng(seed)
    bucket = []
    for axes in layouts:
        shape = (2,) * len(axes)
        data = np.empty(shape, complex)
        data.real = rng.choice([0.0, -0.0, 1.5], shape)
        data.imag = rng.choice([0.0, -0.0, -2.0], shape)
        bucket.append(Tensor(axes, data))
    if memory is not None:
        big = bucket[-1]
        stored = np.ascontiguousarray(aligned(big, memory))
        bucket[-1] = Tensor(big.axes, np.transpose(stored, [memory.index(u) for u in big.axes]))
    return bucket


def record_products(monkeypatch):
    """Patch ``elimination`` so that each ``multiply_all`` call appends
    (whether ``_chunked`` made it, the inputs' axes, the product's rank)
    to the list returned."""
    calls, depth = [], []
    chunked = elimination._chunked

    def chunking(*args):
        depth.append(None)
        try:
            return chunked(*args)
        finally:
            depth.pop()

    def recording(tensors, **kwargs):
        product = multiply_all(tensors, **kwargs)
        calls.append((bool(depth), [t.axes for t in tensors], product.rank))
        return product

    monkeypatch.setattr(elimination, "_chunked", chunking)
    monkeypatch.setattr(elimination, "multiply_all", recording)
    return calls


def model_of(factors):
    """A model whose factors are ``factors``, over their variables."""
    g = GraphModel()
    for v in sorted({u for t in factors for u in t.axes}):
        g._add_vertex(v, VarInfo(v, 0))
    for t in factors:
        g._add_factor(t)
    return g


def chunked(bucket, v):
    """``_chunked``'s sum of ``v`` out of the product of ``bucket``, given
    that product's axes as the dispatch looks them up."""
    return elimination._chunked(bucket, v, _schedule(tuple(t.axes for t in bucket), 30)[0])


# (bucket layouts, the variables eliminated, the kernels called in turn):
# a chunk of _chunked is one multiply_all call of the other factors' slices
ROUTES = {
    "product-15-axes": ([tuple(range(14)), (0, 14)], (0,), ["multiply_all", "sum_out"]),
    "one-factor-17-axes": ([tuple(range(17))], (0,), ["sum_out"]),
    # bucket 1's factor (1, 2) lies within step 0's result, axes 1 to 15
    "run-of-two-steps": ([tuple(range(16)), (0, 1), (1, 2)], (0, 1), ["_eliminate_run"]),
    # bucket 16's factor (16, 17) has an axis outside step 0's result
    "17-axes-no-run": ([tuple(range(16)), (0, 16), (16, 17)], (0, 16),
                       ["_chunked", "multiply_all"] * 2),
    "21-axes": ([tuple(range(20)), (0, 20)], (0,), ["_chunked"] + ["multiply_all"] * 2),
}


@pytest.mark.parametrize("name", list(ROUTES))
def test_each_step_takes_its_kernel_at_the_real_constants(name, monkeypatch):
    """The dispatch in ``_eliminate_all`` routes hand-made buckets by the
    real ``MATMUL_RANK`` and ``CHUNK_RANK``, and each step's value is its
    whole product summed, within 1e-12 relative."""
    layouts, order, kernels = ROUTES[name]
    rng = np.random.default_rng(len(name))
    factors = [Tensor(a, rng.standard_normal((2,) * len(a)) + 1j * rng.standard_normal((2,) * len(a)))
               for a in layouts]
    want = multiply_all(factors)
    for v in order:
        want = sum_out(want, v)
    calls = []

    def logging(kernel, call):
        def log(*args, **kwargs):
            calls.append(kernel)
            return call(*args, **kwargs)
        return log

    for kernel in ("multiply_all", "sum_out", "_chunked", "_eliminate_run"):
        monkeypatch.setattr(elimination, kernel, logging(kernel, getattr(elimination, kernel)))
    [got], scalar = elimination._eliminate_all(model_of(factors), order, max_rank=30)
    assert calls == kernels
    assert scalar == 1 and sorted(got.axes) == sorted(want.axes)
    assert close(aligned(got, want.axes), want.data)


class TestChunkedSteps:
    """Steps of more than one factor whose product has at least
    ``MATMUL_RANK`` axes, and form no run, sum v out in one batched matmul
    per chunk, with chunk axes only above ``CHUNK_RANK``.  Patching the
    constants down, with no runs, makes small models take this path, and
    direct ``_chunked`` calls test its layouts.  BLAS rounds unlike einsum
    and numpy's reduce, and the other factors' slices pair by their own
    sizes, so results are compared with the whole path within 1e-12
    relative."""

    @pytest.mark.parametrize("chunk_rank", [2, 3, 4])
    @pytest.mark.parametrize("seed", range(4))
    def test_same_bits_and_bounded_products(self, seed, chunk_rank, monkeypatch):
        model, order, want, oracle = grid_case(seed)
        calls = record_products(monkeypatch)
        monkeypatch.setattr(elimination, "CHUNK_RANK", chunk_rank)
        monkeypatch.setattr(elimination, "MATMUL_RANK", chunk_rank + 1)
        no_runs(monkeypatch)
        got = contract(model, order)
        assert abs(got - want) <= 1e-12 * abs(want)
        assert bits(contract(model, order)) == bits(got)
        assert abs(got - oracle) < 1e-10
        assert max(rank for _, _, rank in calls) <= chunk_rank
        assert any(chunked for chunked, _, _ in calls)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_plan_with_fixes(self, workers, monkeypatch):
        model, order, _, oracle = grid_case(2)
        plan = select_fix_set(model, order, t_max=4, budget=CostBudget(max_rank=4),
                              ordering_budget=OrderingBudget(time_s=None, max_restarts=2))
        assert plan.num_subtasks > 1
        # an engine cap one past the plan's rank fits no batched product
        want = run_partitioned(model, plan, max_rank=plan.est_subtask_cost.max_rank + 1)
        monkeypatch.setattr(elimination, "CHUNK_RANK", 3)
        monkeypatch.setattr(elimination, "MATMUL_RANK", 4)
        no_runs(monkeypatch)
        got = run_partitioned(model, plan, workers=workers)
        one = run_partitioned(model, plan, workers=1)
        assert want.batch_vars == got.batch_vars == ()  # one slice per subtask
        assert abs(got.amplitude - want.amplitude) <= 1e-12 * abs(want.amplitude)
        assert bits(got.amplitude) == bits(one.amplitude)
        assert abs(got.amplitude - oracle) < 1e-10

    @pytest.mark.parametrize("chunk_rank", [2, 3])
    def test_chunks_slice_inputs_to_rank_zero(self, chunk_rank, monkeypatch):
        # v3 is summed out; the chunk axes 0 (and 1), the largest factor's
        # outermost, slice the first (two) factors down to rank 0; signed
        # zeros reach every multiply
        bucket = signed_zero_bucket([(0,), (1, 0), (3, 0), (0, 1, 3, 2)], chunk_rank)
        want = sum_out(multiply_all(bucket, max_rank=30), 3)
        calls = record_products(monkeypatch)
        monkeypatch.setattr(elimination, "CHUNK_RANK", chunk_rank)
        got = chunked(bucket, 3)
        assert len(calls) == 2 ** (4 - chunk_rank)
        assert got.axes[: 4 - chunk_rank] == (0, 1)[: 4 - chunk_rank]
        sliced = {2: [(), (), (3,)], 3: [(), (1,), (3,)]}[chunk_rank]
        assert all(chunked and axes == sliced for chunked, axes, _ in calls)
        assert sorted(got.axes) == sorted(want.axes)
        assert close(aligned(got, want.axes), want.data)

    # (bucket layouts, v, the largest factor's memory order outermost first,
    # whether each chunk copies its slice of the largest factor)
    SHAPES = {
        "no row axes": ([(2,), (0, 2), (2, 4, 1), (0, 1, 2, 3, 4, 5)], 2, None, False),
        # the short run is all the largest factor's own axes: no copy
        "no batch axes": ([(0, 4, 5), (0, 6), (0, 1, 2, 3)], 0, None, False),
        "one factor": ([(0, 1, 2, 3, 4, 5)], 3, None, False),
        "v outermost": ([(3, 0, 6), (1, 3), (0, 1, 2, 3, 4, 5)], 3, (3, 5, 0, 4, 1, 2), True),
        "v innermost": ([(3, 1, 6), (2, 3), (0, 1, 2, 3, 4, 5)], 3, (0, 4, 1, 5, 2, 3), True),
        "signed zeros": ([(0,), (1, 0), (3, 0), (0, 1, 3, 2)], 3, None, False),
        # the chunk axes take two axes from the first factor and none from
        # the next two, so its slice pairs first, not the other two
        "uneven slices": ([(0, 1, 3), (3, 4), (3, 5), (0, 1, 2, 3, 6)], 3, None, True),
        # a row axis (6) and a run of 3 own axes (3, 4, 5): the columns are
        # all 4 own axes, 1 as well, whatever the chunk axes (2, 7) fix
        "copied columns": ([(0, 2, 6, 7), (0, 1, 2, 3, 4, 5, 7)], 0, None, True),
        # no row axes and a run of 5 own axes (1 to 5) strided by 6 and 7:
        # the columns are its innermost 4
        "strided columns": ([(0, 7), (0, 6), (0, 1, 2, 3, 4, 5, 6, 7)], 0, None, False),
    }

    @pytest.mark.parametrize("name", list(SHAPES))
    def test_each_operand_shape(self, name, monkeypatch):
        layouts, v, memory, copies = self.SHAPES[name]
        bucket = signed_zero_bucket(layouts, len(name), memory)
        if memory is not None:
            big = bucket[-1]
            assert tuple(big.axes[i] for i in elimination._memory_order(big)) == memory
        want = sum_out(multiply_all(bucket), v)
        rank = want.rank + 1
        calls, got = record_products(monkeypatch), {}
        stack, slices = elimination._stack, []

        def stacking(t, batch, rows, cols):
            matrices = stack(t, batch, rows, cols)
            if rows == [v]:  # the largest factor's slice
                slices.append((np.shares_memory(matrices, bucket[-1].data), matrices.size, cols))
            return matrices

        monkeypatch.setattr(elimination, "_stack", stacking)
        monkeypatch.setattr(elimination, "MATMUL_RANK", rank)
        # at chunk_rank = rank the step is below the cap: no chunk axes
        for chunk_rank in (rank - 2, rank - 1, rank):
            calls.clear()
            slices.clear()
            monkeypatch.setattr(elimination, "CHUNK_RANK", chunk_rank)
            if len(bucket) > 1:
                out = chunked(bucket, v)
            else:  # the dispatch sums a one-factor step's factor whole
                [out], _ = elimination._eliminate_all(model_of(bucket), (v,), max_rank=30)
            assert sorted(out.axes) == sorted(want.axes)
            assert close(aligned(out, want.axes), want.data)
            chunks = 0 if len(bucket) == 1 else 2 ** (rank - chunk_rank)
            assert len(calls) == chunks
            assert all(chunked and r <= chunk_rank for chunked, _, r in calls)
            # the slice is a view when the columns are the innermost run of
            # own axes, else a copy of at most 2^CHUNK_RANK entries
            assert len(slices) == len(calls)
            assert all(view != copies and size <= 2**chunk_rank for view, size, _ in slices)
            if name == "strided columns":
                assert all(cols == [2, 3, 4, 5] for _, _, cols in slices)
            got[chunk_rank] = aligned(out, want.axes).tobytes()
        # chunks taken from batch axes leave every matrix's shape, and so
        # its bits, as they were; without batch axes the columns shrink
        if name != "no batch axes":
            assert got[rank - 2] == got[rank - 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_every_step_by_matmul(self, seed, monkeypatch):
        model, order, want, oracle = grid_case(seed)
        calls = record_products(monkeypatch)
        monkeypatch.setattr(elimination, "MATMUL_RANK", 0)
        no_runs(monkeypatch)
        got = contract(model, order)
        assert calls and all(chunked for chunked, _, _ in calls)
        assert abs(got - oracle) < 1e-10
        assert abs(got - want) <= 1e-12 * abs(want)

    def test_every_step_by_matmul_on_a_sliced_plan(self, monkeypatch):
        model, order, _, oracle = grid_case(2)
        plan = select_fix_set(model, order, t_max=4, budget=CostBudget(max_rank=4),
                              ordering_budget=OrderingBudget(time_s=None, max_restarts=2))
        assert plan.num_subtasks > 1
        monkeypatch.setattr(elimination, "MATMUL_RANK", 0)
        no_runs(monkeypatch)
        # an engine cap one past the plan's rank fits no batched product
        rank = plan.est_subtask_cost.max_rank + 1
        one, two = (run_partitioned(model, plan, workers=w, max_rank=rank) for w in (1, 2))
        assert one.batch_vars == two.batch_vars == ()  # one slice per subtask
        assert bits(one.amplitude) == bits(two.amplitude)
        assert abs(one.amplitude - oracle) < 1e-10

    def test_overflow_before_the_output_is_allocated(self, ref4q_model, monkeypatch):
        e = letter_ids(ref4q_model)["e"]
        order = ordering_starting_with(ref4q_model, [e])  # step 0 has rank 5
        monkeypatch.setattr(elimination, "CHUNK_RANK", 2)
        monkeypatch.setattr(elimination, "MATMUL_RANK", 3)
        no_runs(monkeypatch)
        forbid = AssertionError("output allocated")
        monkeypatch.setattr(np, "empty", mock.Mock(side_effect=forbid))
        with pytest.raises(RankOverflowError) as err:
            contract(ref4q_model, order, max_rank=4)
        assert "eliminating v" in str(err.value) and "step 0" in str(err.value)
        # within the rank budget the same step does allocate its output
        with pytest.raises(AssertionError, match="output allocated"):
            contract(ref4q_model, order, max_rank=5)

    @pytest.mark.parametrize("seed", range(4))
    def test_repeated_contraction_by_matmul_keeps_its_bits(self, seed, monkeypatch):
        model, order, _, oracle = grid_case(seed)
        monkeypatch.setattr(elimination, "MATMUL_RANK", 0)
        no_runs(monkeypatch)
        first = contract(model, order)
        assert bits(contract(model, order)) == bits(first)
        assert abs(first - oracle) < 1e-10

    # 4 workers on a short switch interval: more threads than cores, all
    # reading the same model factors
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_sliced_plan_by_matmul_on_many_threads(self, workers, monkeypatch):
        model, order, _, oracle = grid_case(2)
        plan = select_fix_set(model, order, t_max=4, budget=CostBudget(max_rank=4),
                              ordering_budget=OrderingBudget(time_s=None, max_restarts=2))
        monkeypatch.setattr(elimination, "MATMUL_RANK", 0)
        no_runs(monkeypatch)
        rank = plan.est_subtask_cost.max_rank + 1  # fits no batched product
        one = run_partitioned(model, plan, workers=1, max_rank=rank)
        before = [(f.axes, f.data.tobytes()) for f in model.factors]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            got = run_partitioned(model, plan, workers=workers, max_rank=rank)
        finally:
            sys.setswitchinterval(interval)
        assert got.batch_vars == () and plan.num_subtasks > 1
        assert bits(got.amplitude) == bits(one.amplitude)
        assert abs(got.amplitude - oracle) < 1e-10
        # no subtask wrote into the factors of the model that they all slice
        assert [(f.axes, f.data.tobytes()) for f in model.factors] == before


def record_steps(monkeypatch):
    """Patch ``elimination``'s kernels so that each step of a contraction
    that calls one appends (the variables it sums, its factor count) to
    the list returned; a run counts the factors of all its buckets, and a
    ``sum_out`` step those of the ``multiply_all`` product it sums, or 1
    when it sums a factor whole."""
    steps = []  # appends, which no thread can lose
    last = threading.local()  # the thread's last product and its factor count
    multiply, total = elimination.multiply_all, elimination.sum_out
    matmul, eliminate_run = elimination._chunked, elimination._eliminate_run

    def multiplying(tensors, **kwargs):
        product = multiply(tensors, **kwargs)
        last.product = product, len(tensors)
        return product

    def summing(t, v):
        product, factors = getattr(last, "product", (None, 1))
        steps.append(((v,), factors if product is t else 1))
        return total(t, v)

    def chunking(bucket, v, axes):
        steps.append(((v,), len(bucket)))
        return matmul(bucket, v, axes)

    def run(bucket, variables, axes):
        steps.append((tuple(variables), len(bucket)))
        return eliminate_run(bucket, variables, axes)

    monkeypatch.setattr(elimination, "multiply_all", multiplying)
    monkeypatch.setattr(elimination, "sum_out", summing)
    monkeypatch.setattr(elimination, "_chunked", chunking)
    monkeypatch.setattr(elimination, "_eliminate_run", run)
    return steps


def graph_runs(adj, order, steps):
    """The runs that the graph rule gives from ``_kept_sweep``'s neighbor
    sets: from each step that ``steps`` starts with more than one factor,
    step j joins while v_j is in B_{j-1} and B_j = B_{j-1} - {v_j}."""
    sweep = elimination._kept_sweep(adj, order)
    runs = []
    for (v, *_), factors in steps:
        k, n = order.index(v), 1
        while (factors > 1 and k + n < len(order) and order[k + n] in sweep[k + n - 1]
               and sweep[k + n] == sweep[k + n - 1] - {order[k + n]}):
            n += 1
        runs.append((k, tuple(order[k:k + n])))
    return runs


class TestFusedRuns:
    """A step whose product has at least ``MATMUL_RANK`` axes and more than
    one factor sums, in one einsum, every following step whose variable is
    an axis of the result so far and whose other factors lie within it.
    Patching ``MATMUL_RANK`` to 0 makes runs form on small models.  The
    einsum pairs the factors by its own path, so a run agrees with
    one-variable steps to rounding, not bit for bit."""

    @pytest.fixture(autouse=True)
    def fuse_every_run(self, monkeypatch):
        monkeypatch.setattr(elimination, "MATMUL_RANK", 0)

    # (rows, cols, every how many CZs a non-diagonal gate), depth 10:
    # 12 to 20 variables, within the brute-force cap
    @pytest.mark.parametrize("grid", [(3, 4, 0), (3, 3, 4), (3, 3, 3)])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_orderings_match_bruteforce_and_oracle(self, seed, grid, monkeypatch):
        rows, cols, custom_every = grid
        c = generate(GenParams(rows, cols, 10, seed=seed))
        if custom_every:
            c = with_custom_gates(c, custom_every, seed)
        x = "0" * (rows * cols)
        model = build_model(c, x)
        want, oracle = model_value_bruteforce(model), amplitude_of(c, x)
        steps = record_steps(monkeypatch)
        rng = np.random.default_rng(seed)
        orders = [min_fill_ordering(model, seed=0)] + [
            Ordering(tuple(rng.permutation(sorted(model.vertices)).tolist())) for _ in range(5)]
        for order in orders:
            amp = contract(model, order)
            assert abs(amp - want) < 1e-10 and abs(amp - oracle) < 1e-10
        # every variable is summed once, and some in runs of several
        assert sum(len(run) for run, _ in steps) == len(orders) * len(model.vertices)
        assert any(len(run) > 1 for run, _ in steps)

    def test_overflow_names_the_runs_first_step_before_any_einsum(self, monkeypatch):
        # step 0's product has axes 0..3; steps 1 to 3 fold into it
        g = GraphModel()
        for v in range(5):
            g._add_vertex(v, VarInfo(v, 0))
        rng = np.random.default_rng(0)
        for axes in [(0, 1, 2), (0, 3), (1, 2, 3), (4,)]:
            g._add_factor(Tensor(axes, rng.standard_normal((2,) * len(axes))))
        order = Ordering(tuple(range(5)))
        steps = record_steps(monkeypatch)
        fused = contract(g, order)
        assert steps == [((0, 1, 2, 3), 3), ((4,), 1)]
        assert abs(fused - model_value_bruteforce(g)) < 1e-12
        monkeypatch.setattr(np, "einsum", mock.Mock(side_effect=AssertionError("einsum ran")))
        messages = []
        for matmul_rank in (0, 5):  # 5: past every product here, so no run forms
            monkeypatch.setattr(elimination, "MATMUL_RANK", matmul_rank)
            with pytest.raises(RankOverflowError, match=r"\(eliminating v0 at step 0\)$") as err:
                contract(g, order, max_rank=3)
            messages.append(str(err.value))
        assert messages[0] == messages[1]  # as the one-variable steps name it

    def test_runs_start_only_at_large_steps_of_several_factors(self, monkeypatch):
        # step 0 has one factor, so it sums v0 alone; its result joins
        # bucket 1, whose product (1, 2) nests v2's bucket
        g = GraphModel()
        for v in range(3):
            g._add_vertex(v, VarInfo(v, 0))
        rng = np.random.default_rng(1)
        for axes in [(0, 1, 2), (1, 2), (2,)]:
            g._add_factor(Tensor(axes, rng.standard_normal((2,) * len(axes))))
        order, want = Ordering((0, 1, 2)), model_value_bruteforce(g)
        for matmul_rank, runs in [(2, [((0,), 1), ((1, 2), 3)]),
                                  (3, [((0,), 1), ((1,), 2), ((2,), 2)])]:
            monkeypatch.setattr(elimination, "MATMUL_RANK", matmul_rank)
            steps = record_steps(monkeypatch)
            assert abs(contract(g, order) - want) < 1e-12
            assert steps == runs

    def test_path_is_searched_on_zero_stride_views(self, monkeypatch):
        strides, einsum_path = [], np.einsum_path

        def searching(expr, *operands, **kwargs):
            strides.extend(op.strides for op in operands)
            return einsum_path(expr, *operands, **kwargs)

        monkeypatch.setattr(np, "einsum_path", searching)
        # past the memo, which another test may have filled for these layouts
        expr, path = elimination._run_path.__wrapped__(((0, 1), (1, 2), (2, 3)), (0, 3))
        assert expr == "ab,bc,cd->ad" and path[0] == "einsum_path" and len(path) == 3
        assert strides == [(0, 0)] * 3  # no tensor data allocated
        # (1,) joins its host (1, 2), the later of two rank-2 holders, before
        # the search, which sees the three operands left
        strides.clear()
        expr, path = elimination._run_path.__wrapped__(((0, 1), (1, 2), (2, 3), (1,)), (0, 3))
        assert expr == "ab,bc,cd,b->ad" and path[:2] == ("einsum_path", (3, 1)) and len(path) == 4
        assert strides == [(0, 0)] * 3

    def test_contained_factors_join_the_large_factor_once(self, monkeypatch):
        # one rank-7 factor and five rank-1 and rank-2 factors inside it;
        # step 0's product nests every later step, so all 7 sum in one run
        g = GraphModel()
        for v in range(7):
            g._add_vertex(v, VarInfo(v, 0))
        rng = np.random.default_rng(2)
        layouts = [(0, 1), (3,), tuple(range(7)), (4, 5), (0,), (2, 6), (1, 2)]
        for axes in layouts:
            data = rng.standard_normal((2,) * len(axes)) + 1j * rng.standard_normal((2,) * len(axes))
            g._add_factor(Tensor(axes, data))
        paths, run_path = [], elimination._run_path

        def searching(layouts, out):
            found = run_path(layouts, out)
            paths.append((layouts, found[1]))
            return found

        monkeypatch.setattr(elimination, "_run_path", searching)
        steps = record_steps(monkeypatch)
        got = contract(g, Ordering(tuple(range(7))))
        assert steps == [(tuple(range(7)), 7)] and len(paths) == 1
        (layouts, path), = paths
        # replay on the operands' lineage: each holds whether the large
        # factor went into it; exactly one contraction takes that operand
        ops, joins = [len(a) == 7 for a in layouts], 0
        for pair in path[1:]:
            joins += any(ops[i] for i in pair)
            ops = [x for i, x in enumerate(ops) if i not in pair] + [any(ops[i] for i in pair)]
        assert joins == 1
        assert abs(got - model_value_bruteforce(g)) <= 1e-12 * abs(got)

    @pytest.mark.parametrize("seed", range(4))
    def test_grid_models_match_the_oracle(self, seed, monkeypatch):
        model, order, want, oracle = grid_case(seed)
        steps = record_steps(monkeypatch)
        got = contract(model, order)
        assert any(len(run) > 1 for run, _ in steps)
        assert abs(got - oracle) < 1e-10
        assert abs(got - want) <= 1e-12 * abs(want)
        assert bits(contract(model, order)) == bits(got)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sliced_plan_same_bits_on_any_worker_count(self, workers, monkeypatch):
        model, order, _, oracle = grid_case(2)
        plan = select_fix_set(model, order, t_max=4, budget=CostBudget(max_rank=4),
                              ordering_budget=OrderingBudget(time_s=None, max_restarts=2))
        rank = plan.est_subtask_cost.max_rank + 1  # fits no batched product
        one = run_partitioned(model, plan, workers=1, max_rank=rank)
        steps = record_steps(monkeypatch)
        misses = elimination._run_path.cache_info().misses
        got = run_partitioned(model, plan, workers=workers, max_rank=rank)
        assert got.batch_vars == () and plan.num_subtasks > 1
        assert any(len(run) > 1 for run, _ in steps)
        # the slices share every run's layouts, so no path is searched again
        assert elimination._run_path.cache_info().misses == misses
        assert bits(got.amplitude) == bits(one.amplitude)
        assert abs(got.amplitude - oracle) < 1e-10

    def test_runs_are_the_graph_rules_runs(self, monkeypatch):
        # a 7x7x24 plan's slice: runs found from bucket axes are the runs
        # that the neighbor sets of the plan's graph sweep give
        model = build_model(generate(GenParams(7, 7, 24, seed=0)), "0" * 49)
        budget = OrderingBudget(time_s=None, max_restarts=1)
        base = min_fill_ordering(model, seed=0)
        plan = select_fix_set(model, base, t_max=4, budget=CostBudget(max_rank=16),
                              ordering_budget=budget)
        assert plan.fix_vars
        m = model.clone()
        m._fix({v: 1 for v in plan.fix_vars})
        order = plan.post_fix_ordering.vars
        steps = record_steps(monkeypatch)
        contract(m, plan.post_fix_ordering)
        assert sum(len(run) for run, _ in steps) == len(order)
        assert sum(len(run) > 1 for run, _ in steps) >= 5
        assert [(order.index(run[0]), run) for run, _ in steps] == graph_runs(m.adj, order, steps)


def replay_path(layouts, out, path):
    """The axes of each operand that numpy's einsum makes along ``path``:
    a contraction keeps the axes of its operands that the operands left
    or ``out`` still hold, and its result goes last."""
    ops, made = [set(a) for a in layouts], []
    for pair in path[1:]:
        taken = set().union(*(ops[i] for i in pair))
        ops = [s for i, s in enumerate(ops) if i not in pair]
        made.append(taken & set(out).union(*ops))
        ops.append(made[-1])
    assert ops == [set(out)]
    return made


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(3, 4), cols=st.integers(3, 5), depth=st.integers(8, 16),
       seed=st.integers(0, 1000), t=st.integers(0, 3))
def test_no_run_intermediate_outgrows_the_runs_largest_factor_or_result(rows, cols, depth, seed, t):
    """A small grid plan's slice, every multi-factor step a run: replayed
    on axes alone, no operand that a run's path makes has more axes than
    the run's largest factor or its result, so the first step's
    ``_schedule`` lookup bounds the whole run."""
    model = build_model(generate(GenParams(rows, cols, depth, seed=seed)), "0" * (rows * cols))
    plan = plan_over_budget(model, min_fill_ordering(model, seed=seed), t_max=t,
                            budget=CostBudget(max_rank=1),
                            ordering_budget=OrderingBudget(time_s=None, max_restarts=1))
    sliced = model.clone()
    sliced._fix({v: 0 for v in plan.fix_vars})
    runs, eliminate_run = [], elimination._eliminate_run

    def run(bucket, variables, axes):
        runs.append((tuple(f.axes for f in bucket), tuple(u for u in axes if u not in variables)))
        return eliminate_run(bucket, variables, axes)

    with mock.patch.object(elimination, "MATMUL_RANK", 0), \
            mock.patch.object(elimination, "_eliminate_run", run):
        contract(sliced, plan.post_fix_ordering)
    assume(runs)  # a few small plans form no run
    for layouts, out in runs:
        cap = max(map(len, layouts + (out,)))
        assert all(len(s) <= cap for s in replay_path(layouts, out, elimination._run_path(layouts, out)[1]))


class TestZeroScalar:
    def test_empty_order_returns_the_factors(self, ref4q_model):
        left, scalar = elimination._eliminate_all(ref4q_model, (), max_rank=30)
        assert left is not ref4q_model.factors
        assert all(a is b for a, b in zip(left, ref4q_model.factors, strict=True))
        assert scalar == ref4q_model.scalar

    def test_zero_scalar_stops_the_elimination(self, ref4q_model, monkeypatch):
        order = Ordering(sorted(ref4q_model.vertices))
        ref4q_model.scalar = 0j
        kernels = ("sum_out", "_chunked", "_eliminate_run")
        for kernel in kernels:
            monkeypatch.setattr(elimination, kernel, mock.Mock())
        assert elimination._eliminate_all(ref4q_model, order.vars, max_rank=30) == ([], 0j)
        assert contract(ref4q_model, order) == 0j
        assert not any(getattr(elimination, kernel).called for kernel in kernels)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_zero_slices_stop_early(self, workers, monkeypatch):
        # gridamp amplitude --rows 4 --cols 5 --depth 16 --seed 2 --max-rank 2
        # --fix-max 8 --order-restarts 2 --engine-max-rank 7: 256 slices, of
        # which 128 are exactly 0 from a slice's scalar on
        c, model, plan = fanout_plan(4, 5, 16, 2, rank=2)
        assert plan.num_subtasks == 256
        one = run_partitioned(model, plan, workers=1, max_rank=7)
        parts, contract_slice = [], partition.contract  # appends, which no thread can lose

        def recording(*args, **kwargs):
            parts.append(contract_slice(*args, **kwargs))
            return parts[-1]

        steps = record_steps(monkeypatch)
        monkeypatch.setattr(partition, "contract", recording)
        got = run_partitioned(model, plan, workers=workers, max_rank=7)
        assert got.batch_vars == () and len(parts) == 256
        assert sum(z == 0 for z in parts) == 128
        assert len(steps) < 256 * len(plan.post_fix_ordering)
        assert bits(got.amplitude) == bits(one.amplitude)
        assert abs(got.amplitude - amplitude_of(c, "0" * 20)) < 1e-10


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 5000),
    custom_every=st.sampled_from([0, 2, 3]),
    data=st.data(),
)
def test_contract_matches_bruteforce(seed, custom_every, data):
    """Random orderings, circuits with and without non-diagonal two-qubit
    gates; the input model is left as it was, and the amplitude equals
    eliminating one variable at a time bit for bit."""
    c = generate(GenParams(2, 3, 8, seed=seed))
    if custom_every:
        c = with_custom_gates(c, custom_every, seed)
    model = build_model(c, "0" * 6)
    if len(model.vertices) > 16:
        return
    order = Ordering(tuple(data.draw(st.permutations(sorted(model.vertices)))))
    factors = list(model.factors)
    arrays = [f.data.copy() for f in factors]
    adj = copy_adj(model.adj)
    scalar = model.scalar

    amp = contract(model, order)

    assert abs(amp - model_value_bruteforce(model)) < 1e-10
    assert model.factors == factors
    assert all(np.array_equal(f.data, a) for f, a in zip(model.factors, arrays))
    assert model.adj == adj
    assert model.scalar == scalar
    stepwise = model
    for v in order:
        stepwise = eliminate_variable(stepwise, v)
    assert amp == complex(stepwise.scalar)
