"""Tensor engine primitives: products over shared variables, summation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridamp import (
    GraphModel,
    MissingAxisError,
    RankOverflowError,
    Tensor,
    fix_variable,
    multiply_all,
    sum_out,
)
from gridamp.graph_model import VarInfo
from gridamp.tensor import scalar_tensor


def assignment_sum(tensors, free_vars):
    """Brute-force reference: sum the factor product over all assignments."""
    total = 0j
    for bits in itertools.product((0, 1), repeat=len(free_vars)):
        env = dict(zip(free_vars, bits))
        term = 1.0 + 0j
        for t in tensors:
            term *= t.data[tuple(env[v] for v in t.axes)]
        total += term
    return total


@st.composite
def tensor_lists(draw, max_vars=6, max_tensors=5):
    n_vars = draw(st.integers(1, max_vars))
    n_tensors = draw(st.integers(1, max_tensors))
    out = []
    for _ in range(n_tensors):
        rank = draw(st.integers(0, min(3, n_vars)))
        axes = tuple(draw(st.permutations(range(n_vars)))[:rank])
        seed = draw(st.integers(0, 2**31 - 1))
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((2,) * rank) + 1j * rng.standard_normal((2,) * rank)
        out.append(Tensor(axes, data))
    return out


class TestTensor:
    def test_duplicate_axes_rejected(self):
        with pytest.raises(ValueError):
            Tensor((1, 1), np.zeros((2, 2)))

    def test_shape_must_match_rank(self):
        with pytest.raises(ValueError):
            Tensor((1,), np.zeros((3,)))


class TestMultiplyAll:
    def test_scalars(self):
        out = multiply_all([scalar_tensor(2 + 0j), scalar_tensor(3 + 0j)])
        assert out.rank == 0
        assert out.data == 6 + 0j

    def test_empty_list_is_one(self):
        assert multiply_all([]).data == 1.0 + 0j

    def test_shared_axis_is_elementwise(self):
        a = Tensor((5,), [1, 2])
        b = Tensor((5,), [3, 4])
        out = multiply_all([a, b])
        assert out.axes == (5,)
        assert np.array_equal(out.data, [3, 8])

    def test_axes_in_first_appearance_order(self):
        a = Tensor((2, 0), np.ones((2, 2)))
        b = Tensor((1, 0), np.ones((2, 2)))
        assert multiply_all([a, b]).axes == (2, 0, 1)

    def test_result_is_permuted_to_first_appearance_order(self):
        # the size-2 tensor pairs first, so the raw product's axes are
        # (2, 0, 1) and must be permuted back to (0, 1, 2)
        a = Tensor((0, 1), np.arange(4).reshape(2, 2))
        b = Tensor((2,), [1, 10])
        out = multiply_all([a, b])
        assert out.axes == (0, 1, 2)
        raw = np.einsum("a,bc->abc", b.data, a.data)
        assert np.array_equal(out.data, np.transpose(raw, (1, 2, 0)))

    def test_rank_overflow_names_variables(self):
        ts = [Tensor((i, i + 1), np.ones((2, 2))) for i in range(5)]
        with pytest.raises(RankOverflowError) as err:
            multiply_all(ts, max_rank=3)
        assert err.value.variables == (0, 1, 2, 3, 4, 5)

    def test_einsum_letter_limit_is_rank_overflow(self, monkeypatch):
        # 53 variables need 53 einsum letters; only 52 exist, whatever
        # max_rank allows.  einsum must not even be reached.
        ts = [Tensor((v,), [1, 1]) for v in range(53)]

        def einsum(*args, **kwargs):
            raise AssertionError("einsum called on an overflowing product")

        monkeypatch.setattr(np, "einsum", einsum)
        with pytest.raises(RankOverflowError) as err:
            multiply_all(ts, max_rank=60)
        assert err.value.variables == tuple(range(53))

    @settings(max_examples=60, deadline=None)
    @given(ts=tensor_lists(), seed=st.integers(0, 999))
    def test_order_insensitive(self, ts, seed):
        base = multiply_all(ts)
        rng = np.random.default_rng(seed)
        shuffled = list(ts)
        rng.shuffle(shuffled)
        other = multiply_all(shuffled)
        perm = [other.axes.index(v) for v in base.axes]
        assert np.allclose(np.transpose(other.data, perm), base.data, atol=1e-12)

    @settings(max_examples=50, deadline=None)
    @given(ts=tensor_lists())
    def test_entries_are_products(self, ts):
        out = multiply_all(ts)
        for bits in itertools.product((0, 1), repeat=out.rank):
            env = dict(zip(out.axes, bits))
            expected = 1.0 + 0j
            for t in ts:
                expected *= t.data[tuple(env[v] for v in t.axes)]
            assert abs(out.data[bits] - expected) < 1e-12


class TestSumOut:
    def test_boundary_vector(self):
        assert sum_out(Tensor((3,), [1, 0]), 3).data == 1.0 + 0j

    def test_identity_matrix_rows(self):
        t = Tensor((1, 2), np.eye(2))
        for axis in (1, 2):
            assert np.array_equal(sum_out(t, axis).data, [1, 1])

    def test_missing_axis(self):
        with pytest.raises(MissingAxisError):
            sum_out(Tensor((1,), [1, 0]), 2)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_sum_out_commutes(self, seed):
        rng = np.random.default_rng(seed)
        t = Tensor((0, 1, 2, 3), rng.standard_normal((2,) * 4) * (1 + 1j))
        a = sum_out(sum_out(t, 1), 3)
        b = sum_out(sum_out(t, 3), 1)
        perm = [a.axes.index(v) for v in b.axes]
        assert np.allclose(np.transpose(a.data, perm), b.data, atol=1e-12)


class TestSliceAxis:
    """Slicing a tensor axis at a bit goes through ``GraphModel._fix``;
    here it is reached by ``fix_variable`` on a one-factor model."""

    def test_bad_bit(self):
        g = GraphModel()
        g._add_vertex(0, VarInfo(0, 0))
        g._add_factor(Tensor((0,), np.array([1, 0], dtype=complex)))
        with pytest.raises(ValueError):
            fix_variable(g, 0, 2)


@settings(max_examples=40, deadline=None)
@given(ts=tensor_lists(), seed=st.integers(0, 999))
def test_full_contraction_matches_assignment_sum(ts, seed):
    all_vars = sorted({v for t in ts for v in t.axes})
    rng = np.random.default_rng(seed)
    order = list(all_vars)
    rng.shuffle(order)
    work = list(ts)
    for v in order:
        touching = [t for t in work if v in t.axes]
        work = [t for t in work if v not in t.axes]
        work.append(sum_out(multiply_all(touching), v))
    result = multiply_all(work).data
    expected = assignment_sum(ts, all_vars)
    assert abs(complex(result) - expected) < 1e-10
