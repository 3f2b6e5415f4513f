"""The memoized tensor engine against the per-call engine it replaced.

``multiply_all`` replays a schedule worked out once per tuple of input
axes, and both it and ``sum_out`` build their results without the
public constructor's checks.  The versions they replaced, which paired
tensors through a heap on every call and built every result through
``Tensor``, are kept here as references.  The engine must return the
same axes and bit-for-bit the same data, so every amplitude is
unchanged.
"""

import heapq
import itertools
import string
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gridamp import RankOverflowError, Tensor, multiply_all, sum_out
from gridamp.tensor import _schedule, _sliced

_LETTERS = string.ascii_letters
# entries whose products and sums hit signed zeros and exact cancellation
_SPECIAL = np.array([0.0, -0.0, 1.0, -1.0, 0.5])


def reference_pair_product(a, b):
    out_axes = a.axes + tuple(v for v in b.axes if v not in set(a.axes))
    sub = {v: _LETTERS[i] for i, v in enumerate(out_axes)}
    expr = "{},{}->{}".format(
        "".join(sub[v] for v in a.axes),
        "".join(sub[v] for v in b.axes),
        "".join(sub[v] for v in out_axes),
    )
    return Tensor(out_axes, np.einsum(expr, a.data, b.data))


def reference_multiply_all(tensors, max_rank=30):
    """Heap pairing, smallest first, ties to the earlier tensor."""
    combined = list(dict.fromkeys(v for t in tensors for v in t.axes))
    if len(combined) > max_rank:
        raise RankOverflowError(combined)
    counter = itertools.count()
    heap = [(t.size, next(counter), t) for t in tensors]
    heapq.heapify(heap)
    while len(heap) > 1:
        _, _, a = heapq.heappop(heap)
        _, _, b = heapq.heappop(heap)
        p = reference_pair_product(a, b)
        heapq.heappush(heap, (p.size, next(counter), p))
    product = heap[0][2]
    perm = [product.axes.index(v) for v in combined]
    return Tensor(combined, np.transpose(product.data, perm))


def reference_sum_out(t, v):
    k = t.axes.index(v)
    return Tensor(t.axes[:k] + t.axes[k + 1 :], t.data.sum(axis=k))


def assert_same(got, want):
    assert got.axes == want.axes
    assert got.data.shape == want.data.shape
    # tobytes reads in C order whatever the layout, and tells -0.0 from 0.0
    assert got.data.tobytes() == want.data.tobytes()


def random_data(rng, rank):
    shape = (2,) * rank

    def part():
        special = rng.choice(_SPECIAL, shape)
        return np.where(rng.random(shape) < 0.4, special, rng.standard_normal(shape))

    # set the parts apart: re + 1j * im would turn some -0.0 into 0.0
    data = np.empty(shape, dtype=np.complex128)
    data.real = part()
    data.imag = part()
    return data


@st.composite
def layouts(draw, max_vars=8, max_tensors=5):
    """Axes of a bucket: ranks 0-6 over a few shared variables."""
    n_vars = draw(st.integers(1, max_vars))
    n_tensors = draw(st.integers(1, max_tensors))
    out = []
    for _ in range(n_tensors):
        rank = draw(st.integers(0, min(6, n_vars)))
        out.append(tuple(draw(st.permutations(range(n_vars)))[:rank]))
    return out


def fill(layout, seed):
    rng = np.random.default_rng(seed)
    return [Tensor(axes, random_data(rng, len(axes))) for axes in layout]


def check_multiply_and_sum(ts):
    before = [t.data.copy() for t in ts]
    got = multiply_all(ts)
    want = reference_multiply_all(ts)
    assert_same(got, want)
    # a one-factor bucket hands sum_out an input tensor as it is, so the
    # inputs' signed zeros reach it too
    for t in [got] + ts:
        for v in t.axes:
            assert_same(sum_out(t, v), reference_sum_out(t, v))
    for t, data in zip(ts, before):
        assert t.data.tobytes() == data.tobytes()


@settings(max_examples=150, deadline=None)
@given(layout=layouts(), seeds=st.lists(st.integers(0, 2**31 - 1), min_size=2, max_size=3))
def test_same_product_and_sums_on_repeated_layouts(layout, seeds):
    # the first call fills the memo entry, later data reuse it
    for seed in seeds:
        check_multiply_and_sum(fill(layout, seed))


@settings(max_examples=150, deadline=None)
@given(layout=layouts(), seed=st.integers(0, 2**31 - 1), data=st.data())
def test_sliced_product_is_the_product_sliced(layout, seed, data):
    """The product of the inputs' ``_sliced`` slices, as a chunked step
    builds it, is the reference product sliced.  Slices pair by their own
    sizes, not the full layouts', so the two agree within 1e-12 relative
    to the largest entry."""
    ts = fill(layout, seed)
    combined = list(dict.fromkeys(v for t in ts for v in t.axes))
    chunk = data.draw(st.lists(st.sampled_from(combined), unique=True)) if combined else []
    at = {v: data.draw(st.integers(0, 1)) for v in chunk}
    want = reference_multiply_all(ts)
    index = tuple(at.get(v, slice(None)) for v in want.axes)
    want = Tensor([v for v in want.axes if v not in at], want.data[index])
    got = multiply_all([_sliced(t.axes, t.data, at) for t in ts])
    assert got.axes == want.axes
    error = np.max(np.abs(got.data - want.data), initial=0.0)
    assert error <= 1e-12 * np.max(np.abs(want.data), initial=0.0)


@settings(max_examples=60, deadline=None)
@given(layout=layouts(max_vars=7, max_tensors=6), seed=st.integers(0, 2**31 - 1))
def test_same_scalar_after_full_elimination(layout, seed):
    """Whole eliminations chain sum_out's output layouts into the next
    products; the final scalar must still match bit for bit."""
    ts = fill(layout, seed)
    order = list(np.random.default_rng(seed).permutation(sorted({v for t in ts for v in t.axes})))
    results = []
    for multiply, sum_ in ((multiply_all, sum_out), (reference_multiply_all, reference_sum_out)):
        work = list(ts)
        for v in order:
            touching = [t for t in work if v in t.axes]
            work = [t for t in work if v not in t.axes]
            work.append(sum_(multiply(touching), v))
        results.append(multiply(work).data.tobytes())
    assert results[0] == results[1]


@settings(max_examples=20, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.tuples(layouts(), st.integers(0, 2**31 - 1)), min_size=4, max_size=8),
        min_size=2,
        max_size=2,
    )
)
def test_two_threads_at_once(batches):
    cases = [[fill(layout, seed) for layout, seed in batch] for batch in batches]
    want = [[reference_multiply_all(ts) for ts in batch] for batch in cases]
    barrier = threading.Barrier(2, timeout=30)

    def run(batch):
        barrier.wait()
        # twice: both threads miss the memo together, then both hit it
        return [multiply_all(ts) for ts in batch + batch]

    _schedule.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(2) as pool:
            futures = [pool.submit(run, batch) for batch in cases]
            got = [f.result(timeout=60) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for results, refs in zip(got, want):
        for result, ref in zip(results, refs + refs):
            assert_same(result, ref)


@settings(max_examples=60, deadline=None)
@given(layout=layouts(), data=st.data())
def test_rank_overflow_before_any_einsum(layout, data):
    ts = fill(layout, 0)
    n = len({v for t in ts for v in t.axes})
    assume(n > 0)
    max_rank = data.draw(st.integers(0, n - 1))
    with pytest.raises(RankOverflowError) as want:
        reference_multiply_all(ts, max_rank=max_rank)
    forbid = AssertionError("einsum called on an overflowing product")
    with mock.patch.object(np, "einsum", side_effect=forbid):
        with pytest.raises(RankOverflowError) as got:
            multiply_all(ts, max_rank=max_rank)
    assert got.value.variables == want.value.variables
