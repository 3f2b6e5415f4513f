"""Contraction by bucket elimination, and the cost model used for planning.

Eliminating a variable multiplies the factors that contain it, sums it
out and keeps the result in their place.  ``_eliminate_all`` does this
on factor lists alone, for ``contract`` and ``eliminate_variable``: each
factor waits in the bucket of its earliest-eliminated variable, and each
step's result goes to the bucket of its earliest remaining one.  No live
factor holds an eliminated variable, so bucket k is exactly the live
factors that contain step k's variable, in the order a scan of the live
factor list meets them (original factors in list order, then results in
creation order), which is also the order of the factors no step
consumes.

``_eliminate_all`` is also where each step's kernel is picked, from one
``_schedule`` lookup of the axes of the bucket's product, which refuses
more than ``max_rank`` of them before anything is allocated and names
the step's variable and its position in the order.  The first that
applies runs:

- an empty bucket doubles the scalar;
- a product of fewer than ``MATMUL_RANK`` axes: ``sum_out`` of the
  ``multiply_all`` product;
- one factor: ``sum_out`` of the factor;
- a run of two or more nested variables: ``_eliminate_run``;
- any other step: ``_chunked``.

Every kernel returns a tensor; a rank-0 one folds into the scalar.

A step may sum a run of nested variables.  Let U be the axes of step k's
product less v_k, which are its result's.  Step k+1 joins the run when
v_{k+1} is in U and every factor already filed in bucket k+1 has its
axes in U; U then drops v_{k+1}, and the run goes on.  A result's axes
are v_k's neighbors at its elimination, so this is the graph condition
N_{k+1}(v_{k+1}) = N_k(v_k) - {v_{k+1}} of a fundamental supernode of
sparse Cholesky (Liu, Ng & Peyton 1993).  It depends on axes alone, so
the 2^t slices of a plan share every run.  A run starts only at a step
whose product has at least ``MATMUL_RANK`` axes and more than one
factor.  One ``np.einsum`` over all its buckets' factors, with output
axes U, sums it along a pairwise path that ``_run_path`` finds once per
tuple of input layouts.  Many of a run's factors have one or two axes
and lie within a factor of 2^16 entries or more, and numpy's greedy
search, which scores a pair by the size it removes, would multiply
them into it one at a time, each a pass over all of it.  So each factor
whose axes lie within another's first joins its smallest such host
(the later one on a tie; a host that has a host passes its guests up).
A host's guests multiply smallest-first, and their product, which has
no axis outside the host's, joins the host in one pass.  numpy's greedy
search, on zero-stride views, then pairs what is left, and admits no
intermediate larger than the run's largest factor or result; a guest
product lies within its host, so it is no larger either.  Every factor
of a run, and so every intermediate of its path, lies within the first
step's product, whose axes one ``_schedule`` lookup has checked against
``max_rank`` before any einsum runs: a run overflows where its first
step would, and the error names that step.  A run writes only its last
result, where one-variable steps would write one per variable: a
rank-26 8x8x40 subtask's largest written result falls from 2^26 to 2^22
entries.  The path pairs factors its own way, so a run agrees with
one-variable steps to rounding, not bit for bit.

Every other step sums its one variable.  A step of degree d has a
product of rank d + 1.  ``multiply_all`` pairs the same tensors as a
rescan would, so a step that builds its product, and a one-factor step,
is bit-identical to eliminating its variable alone.  ``_chunked`` never
builds its product: one ``np.matmul`` per assignment of its chunk axes
(d + 1 - ``CHUNK_RANK`` of them, none within that cap) sums v out of
the ``multiply_all`` product of the other factors' ``_sliced`` slices
and the largest factor's slice, straight into the rank-d output's
block.  The largest factor's memory order lays the matmul out: v is the
inner dimension, of size 2; the other factors' own axes are the rows;
the columns are the innermost run, in that memory, of axes only the
largest factor has, cut to its innermost 4 when it is strided and there
are no rows, or widened to all such axes when it is shorter than 4 and
there are rows (each chunk then copies its slice of that factor; other
slices are views); every other axis is a batch axis, over which the
product broadcasts where it lacks the axis.  Chunk axes are batch axes
first, outermost in that memory, so every matrix keeps its shape
whatever the chunk count.  Besides its inputs and output, a step holds
per chunk the product and at most one copy of each operand's slice,
each of at most 2^``CHUNK_RANK`` entries (16 MiB).  BLAS rounds unlike
einsum and numpy's reduce, and the slices pair smallest-first by their
own sizes, so such a step agrees with the whole product summed to
rounding, not bit for bit.

Each thread keeps a pool of large step buffers, since the 2^t subtasks
of a plan repeat the same step shapes.  ``_chunked`` takes each output
of at least ``POOL_FLOOR`` entries from it: the smallest kept buffer
that fits, else a new one once the pool has freed all it kept.  After
each step, a run included, ``_eliminate_all`` gives back the pooled
buffers of the results that ``_chunked`` made in this call and the step
consumed,
never a model factor or a result it returns, so at most one
contraction's large buffers stay kept after a call, until a request
that none fits or the thread's end.  A run's result is not pooled: the
einsum lays it out in arrays of its own, not in one flat buffer.  The
floor is glibc's 32 MiB mmap ceiling: a larger block is mapped afresh
and unmapped on free, and on a 2-core Xeon writing 256 MiB took 90 ms
into fresh pages against 30 ms into reused ones.  Only where outputs
live changes, so the bits are the same.

On the graph, eliminating v joins its neighbors into a clique (the
fill-in) and removes v; ``eliminate_vertex`` is that update, shared by
the cost model and fix-set selection.  A step costs 2^degree(v) at
elimination time, the size of the post-summation tensor, so
``estimate_cost`` prices an ordering from graph dynamics alone.
"""

from __future__ import annotations

import functools
import itertools
import threading
from dataclasses import dataclass, field

import numpy as np

from .graph_model import GraphModel, copy_adj, remove_vertex
from .tensor import (
    DEFAULT_MAX_RANK,
    RankOverflowError,
    Tensor,
    VarId,
    _LETTERS,
    _SCHEDULE_MEMO,
    _schedule,
    _sliced,
    _tensor,
    multiply_all,
    sum_out,
)

# no array that _chunked builds per chunk has more than 2^20 entries (16 MiB)
CHUNK_RANK = 20
# a step with more than one factor and a product of at least this many axes
# starts a run, summed in one einsum, or sums v out by matmul alone, never
# building the product; multiply_all and sum_out are faster below
MATMUL_RANK = 16
# a step output of at least this many entries (32 MiB, glibc's mmap
# ceiling) comes from the thread's buffer pool (module docstring)
POOL_FLOOR = 1 << 21


class _Pool(threading.local):
    def __init__(self):
        self.kept: list[np.ndarray] = []


_POOL = _Pool()


@dataclass(frozen=True)
class Ordering:
    """Elimination order over the free variables, with provenance tag
    (vertical | min-fill | search | post-fix search | user).

    ``degrees`` is each step's degree on the graph the ordering was made
    for, where its producer learned them while eliminating (min-fill
    does), else None.  It is not part of the ordering's identity, and
    ``restrict`` drops it."""

    vars: tuple[VarId, ...]
    provenance: str = "user"
    degrees: tuple[int, ...] | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "vars", tuple(self.vars))
        if len(set(self.vars)) != len(self.vars):
            repeated = sorted({v for v in self.vars if self.vars.count(v) > 1})
            raise ValueError(f"ordering repeats variables {repeated}")

    def __len__(self) -> int:
        return len(self.vars)

    def __iter__(self):
        return iter(self.vars)

    def restrict(self, present) -> "Ordering":
        """Subsequence over the surviving variables, provenance kept."""
        present = set(present)
        return Ordering(tuple(v for v in self.vars if v in present), self.provenance)


@dataclass(frozen=True)
class CostStep:
    var: VarId
    degree: int
    cost: int  # 2**degree, exact integer


@dataclass(frozen=True)
class CostEstimate:
    steps: tuple[CostStep, ...]
    total: int
    max_rank: int


def _check_covers(free, order: Ordering):
    """Raise ``ValueError`` unless ``order`` lists exactly the ``free``
    variables."""
    if set(order.vars) != set(free):
        missing = set(free) - set(order.vars)
        extra = set(order.vars) - set(free)
        raise ValueError(
            f"ordering does not match free variables (missing {sorted(missing)},"
            f" extra {sorted(extra)})"
        )


def eliminate_vertex(adj: dict[VarId, set[VarId]], v: VarId) -> set[VarId]:
    """Remove ``v`` from the adjacency map and join its neighbors into a
    clique (the fill-in); returns the neighbors, whose count is the
    step's degree."""
    nbs = remove_vertex(adj, v)
    for u in nbs:
        au = adj[u]
        au |= nbs
        au.discard(u)
    return nbs


def _kept_sweep(adj: dict[VarId, set[VarId]], order) -> list[set[VarId]]:
    """Each step's neighbor set B_k, whose size is its degree, eliminating
    ``order`` on a copy of ``adj`` that keeps the vertices it leaves out."""
    adj = copy_adj(adj)
    return [eliminate_vertex(adj, v) for v in order]


def _estimate(order, degrees) -> CostEstimate:
    """The estimate of eliminating ``order`` at the given degrees."""
    steps = tuple(CostStep(v, d, 1 << d) for v, d in zip(order, degrees))
    rank = max((s.degree for s in steps), default=0)
    return CostEstimate(steps, sum(s.cost for s in steps), rank)


def simulate_cost(adj: dict[VarId, set[VarId]], order) -> CostEstimate:
    """Cost of eliminating in the given order, from graph dynamics alone.

    ``adj`` is only read; the elimination runs on a copy.  ``order`` may
    cover any subset; only listed vertices are eliminated.
    """
    return _estimate(order, map(len, _kept_sweep(adj, order)))


def estimate_cost(g: GraphModel, order: Ordering) -> CostEstimate:
    """Price an ordering without touching tensor data."""
    _check_covers(g.adj, order)
    return simulate_cost(g.adj, order.vars)


def _run_length(buckets: list, order, k: int, axes: tuple) -> int:
    """How many steps from step k on sum as one run, given the axes of step
    k's product: step j joins while v_j is an axis of the run's result so
    far and every factor in bucket j lies within that result."""
    kept = set(axes)
    kept.discard(order[k])
    n = 1
    while k + n < len(order) and order[k + n] in kept and all(
            kept.issuperset(t.axes) for t in buckets[k + n]):
        kept.discard(order[k + n])
        n += 1
    return n


@functools.lru_cache(maxsize=_SCHEDULE_MEMO)
def _run_path(layouts: tuple[tuple[VarId, ...], ...], out: tuple[VarId, ...]):
    """The einsum subscripts that multiply tensors with these axes and sum
    every axis not in ``out``, and a pairwise path for them.

    A factor whose axes lie within another's is a guest of its host: the
    smallest such factor ranked above it by (rank, position), the later
    on a tie, or that host's own host, up to one with none.  Each host
    takes the product of its guests, multiplied smallest-first, in one
    pass, since that product has no axis outside the host's.  numpy's
    greedy search, on zero-stride views, pairs what is left, under the
    limit it would set on the whole run: the run's largest factor or
    result.  A guest product lies within its host, so no intermediate of
    the path is larger than that."""
    sub = dict(zip(dict.fromkeys(u for axes in layouts for u in axes), _LETTERS))
    term = lambda axes: "".join(map(sub.get, axes))
    expr = "{}->{}".format(",".join(map(term, layouts)), term(out))
    n, sets = len(layouts), [set(a) for a in layouts]
    above = [(len(a), i) for i, a in enumerate(layouts)]
    up = [min((j for j in range(n) if above[j] > above[i] and sets[i] <= sets[j]),
              key=lambda j: (len(sets[j]), -j), default=None) for i in range(n)]
    guests = {}
    for i in sorted(range(n), key=above.__getitem__):
        if up[i] is not None:
            h = i
            while up[h] is not None:
                h = up[h]
            guests.setdefault(h, []).append(i)
    ops, path = list(range(n)), ["einsum_path"]

    def join(a, b):  # as numpy contracts two operands: the result goes last
        path.append((ops.index(a), ops.index(b)))
        ops[:] = [o for o in ops if o not in (a, b)]
        sets.append((sets[a] | sets[b]) & set(out).union(*(sets[o] for o in ops)))
        ops.append(len(sets) - 1)
        return ops[-1]

    for h, gs in guests.items():
        join(functools.reduce(join, gs), h)
    if len(ops) > 1:
        limit = max(1 << len(a) for a in layouts + (out,))
        views = [np.broadcast_to(0j, (2,) * len(sets[o])) for o in ops]
        rest = "{}->{}".format(",".join(term(sorted(sets[o])) for o in ops), term(out))
        path += np.einsum_path(rest, *views, optimize=("greedy", limit))[0][1:]
    return expr, tuple(path)


def _eliminate_run(bucket: list[Tensor], run, axes: tuple) -> Tensor:
    """Sum the variables of ``run`` out of the product of ``bucket``, the
    factors of all its steps, in one einsum along the memoized path; the
    first step's product has ``axes``."""
    out = tuple(u for u in axes if u not in run)
    expr, path = _run_path(tuple(t.axes for t in bucket), out)
    return _tensor(out, np.einsum(expr, *(t.data for t in bucket), optimize=path))


def _chunked(bucket: list[Tensor], v: VarId, axes: tuple) -> Tensor:
    """``v`` summed out of the product of ``bucket``, two or more factors,
    without building that product, whose ``axes`` it takes (the last
    kernel of the module docstring's dispatch): per chunk, one matmul of
    the product of the other factors' slices and the largest factor's
    slice fills the chunk's contiguous block of the output.  No rank cap:
    the lookup has admitted ``axes``, and a chunk product has a subset of
    them, at most ``CHUNK_RANK``, under ``multiply_all``'s default guard."""
    big = max(bucket, key=lambda t: t.rank)
    others = [t for t in bucket if t is not big]
    theirs = {u for t in others for u in t.axes}
    mem = [big.axes[i] for i in _memory_order(big)]
    runs = [list(g) for own, g in itertools.groupby(mem, lambda u: u not in theirs) if own]
    cols = runs[-1] if runs else []
    rows = [u for u in axes if u not in big.axes]
    if rows and len(cols) < 4:  # too narrow to pay per matmul: copy all own axes in
        cols = [u for u in mem if u not in theirs]
    elif not rows and mem[-1] not in cols:  # wider strided columns thrash cache sets
        cols = cols[-4:]
    batch = [u for u in mem if u != v and u not in cols]
    chunk = (batch + cols + rows)[: max(0, len(axes) - CHUNK_RANK)]
    batch, rows, cols = ([u for u in x if u not in chunk] for x in (batch, rows, cols))
    shape = (1 << len(chunk),) + (2,) * len(batch) + (1 << len(rows), 1 << len(cols))
    size = 1 << (len(axes) - 1)
    data = (_take(size) if size >= POOL_FLOOR else np.empty(size, complex)).reshape(shape)
    for k, bits in enumerate(itertools.product((0, 1), repeat=len(chunk))):
        at = dict(zip(chunk, bits))
        product = multiply_all([_sliced(t.axes, t.data, at) for t in others])
        np.matmul(
            _stack(product, batch, rows, [v]),
            _stack(_sliced(big.axes, big.data, at), batch, [v], cols),
            out=data[k],
        )
    return Tensor(tuple(chunk + batch + rows + cols), data.reshape((2,) * (len(axes) - 1)))


def _take(size: int) -> np.ndarray:
    """A flat buffer of ``size`` entries from the thread's pool: the
    smallest kept one that fits, else a new one once the pool is empty."""
    kept = _POOL.kept
    fits = [i for i, buf in enumerate(kept) if buf.size >= size]
    if not fits:
        kept.clear()  # free them before the new buffer is mapped
        return np.empty(size, complex)
    return kept.pop(min(fits, key=lambda i: kept[i].size))[:size]


def _stack(t: Tensor, batch: list, rows: list, cols: list) -> np.ndarray:
    """``t``'s data as matrices, ``rows`` down and ``cols`` across, one per
    assignment of ``batch``; a batch axis ``t`` lacks has length 1, so
    matmul broadcasts over it.  A view where the memory allows."""
    data = np.transpose(t.data, [t.axes.index(u) for u in batch + rows + cols if u in t.axes])
    shape = tuple(2 if u in t.axes else 1 for u in batch) + (1 << len(rows), 1 << len(cols))
    return data.reshape(shape)


def _memory_order(t: Tensor) -> list[int]:
    """Positions of ``t``'s axes from outermost to innermost in memory."""
    return sorted(range(t.rank), key=t.data.strides.__getitem__, reverse=True)


def _eliminate_all(g: GraphModel, order, max_rank: int) -> tuple[list[Tensor], complex]:
    """Eliminate ``order`` from ``g``, which is only read, each step by the
    kernel that the module docstring's dispatch picks; returns the factors
    left (module docstring) and the scalar.  A step that finds the scalar 0
    stops it, with no factors left.  Unlisted variables count last."""
    pos = dict.fromkeys(g.adj, len(order)) | {v: k for k, v in enumerate(order)}
    buckets: list[list[Tensor] | None] = [[] for _ in range(len(order) + 1)]
    for f in g.factors:
        buckets[min(map(pos.__getitem__, f.axes))].append(f)
    scalar = g.scalar
    made = set()  # ids of the live results whose buffers _chunked took from the pool
    for k, v in enumerate(order):
        if buckets[k] is None:  # summed in an earlier step's run
            continue
        if scalar == 0:  # every term carries it
            return [], scalar
        # release the bucket's list, so its factors die with the step
        bucket, buckets[k] = buckets[k], None
        if not bucket:  # v is in no factor: both of its values count
            scalar = scalar * 2.0
            continue
        try:
            axes = _schedule(tuple(t.axes for t in bucket), max_rank)[0]
        except RankOverflowError as e:
            raise RankOverflowError(e.variables, context=f"eliminating v{v} at step {k}") from None
        if len(axes) < MATMUL_RANK:
            r = sum_out(multiply_all(bucket, max_rank=max_rank), v)
        elif len(bucket) == 1:
            r = sum_out(bucket[0], v)
        elif (n := _run_length(buckets, order, k, axes)) > 1:
            for j in range(k + 1, k + n):
                bucket += buckets[j]
                buckets[j] = None
            r = _eliminate_run(bucket, order[k:k + n], axes)
        else:
            r = _chunked(bucket, v, axes)
            if r.size >= POOL_FLOOR:
                made.add(id(r))
        # a pooled result is a view of its buffer; a comprehension binds no
        # name that would keep a consumed factor alive into the next step
        _POOL.kept.extend([t.data.base for t in bucket if id(t) in made])
        made.difference_update(map(id, bucket))  # a later result may reuse an id
        if r.axes:
            buckets[min(map(pos.__getitem__, r.axes))].append(r)
        else:
            scalar = scalar * complex(r.data)
    return buckets[-1], scalar


def eliminate_variable(g: GraphModel, v: VarId, *, max_rank: int = DEFAULT_MAX_RANK) -> GraphModel:
    """New model with ``v`` summed out by ``_eliminate_all`` and its
    fill-in clique added.  A rank overflow names ``v`` at step 0; nothing
    runs if ``v`` is not free (``KeyError``)."""
    if v not in g.adj:
        raise KeyError(f"variable {v} is not free in this model")
    out = g.clone()
    out.factors, out.scalar = _eliminate_all(g, (v,), max_rank)
    eliminate_vertex(out.adj, v)
    return out


def contract(
    g: GraphModel,
    order: Ordering,
    max_rank: int = DEFAULT_MAX_RANK,
    *,
    keep: tuple[VarId, ...] = (),
) -> complex | np.ndarray:
    """Eliminate every free variable in order; returns the amplitude.

    ``g`` is only read.  Each step runs the kernel that the dispatch in
    the module docstring picks.  Buckets and paths keep a fixed order, so
    the result is bit-reproducible.  A rank overflow names its variable
    and step, counted from 0 in ``order``; a run's is its first step's.

    ``keep`` names variables left open: the result is a flat complex128
    array of the values at each assignment of them, the first one's bit
    the most significant.  They come from one product over ``keep``'s
    axes, which ``_schedule`` refuses above ``max_rank`` before any step
    runs.
    """
    _check_covers(g.adj, Ordering(order.vars + keep))
    _schedule((keep,), max_rank)
    left, scalar = _eliminate_all(g, order.vars, max_rank)
    if not keep:
        return complex(scalar)
    ones = Tensor(keep, np.ones((2,) * len(keep)))  # first: the axes come in keep's order
    return (multiply_all([ones] + left, max_rank=max_rank).data * scalar).ravel()
