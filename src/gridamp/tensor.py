"""Dense complex tensors over binary indices.

Two primitives drive elimination: multiplying a set of tensors over
their shared variables and summing one variable out.  Which steps use
them, and which kernel the others run, is the dispatch in
``elimination``'s module docstring.
Axes carry variable ids; data is a complex128 array of shape (2,)*rank
in axis order.  Tensors are treated as immutable values: every
operation returns a new tensor and never writes through ``data``.

``multiply_all`` replays a memoized schedule.  How it pairs its inputs
depends on their axes alone: the output axes in first-appearance order,
the smallest-first pairing with ties to the earlier tensor, each pair's
einsum subscripts and the final permutation.  ``_schedule`` works all
of that out once per tuple of input axes, so the 2^t subtasks of a fix
plan, which share every bucket layout, only run the einsums.

Results are bit-identical to pairing afresh on every call.  The pairing
is the same function of the axes, and each pair product is elementwise
(no index is summed), so every entry is one complex multiply whatever
the memory layout.  ``sum_out`` keeps numpy's reduce, which computes
(0 + a) + b over the two halves: a plain a + b differs from it when
both halves are -0.0.  Both primitives skip the checks of the public
constructor, since their axes and shapes are right by construction.
"""

from __future__ import annotations

import functools
import heapq
import string

import numpy as np

VarId = int

DEFAULT_MAX_RANK = 30

_LETTERS = string.ascii_letters
MAX_RANK_LIMIT = len(_LETTERS)  # einsum subscripts run out past 52 axes

# Distinct bucket layouts kept.  A plan has one per elimination step
# (about 200 at 7x7x24), and every subtask of the plan reuses them.
_SCHEDULE_MEMO = 4096


class RankOverflowError(RuntimeError):
    """A product tensor would exceed the configured maximum rank.  The
    message names its variables and ``context``, the step that would build
    it; every slice of a plan fails at that step, so none is named."""

    def __init__(self, variables, context: str | None = None):
        self.variables = tuple(sorted(variables))
        msg = f"product over {len(self.variables)} variables {self.variables} exceeds max rank"
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class MissingAxisError(ValueError):
    """The requested variable is not an axis of the tensor."""


class Tensor:
    """Immutable-by-convention dense tensor with an axis -> variable map."""

    __slots__ = ("axes", "data")

    def __init__(self, axes, data):
        axes = tuple(axes)
        if len(set(axes)) != len(axes):
            raise ValueError(f"duplicate variables in axes {axes}")
        data = np.asarray(data, dtype=np.complex128)
        if data.shape != (2,) * len(axes):
            raise ValueError(
                f"data shape {data.shape} does not match rank {len(axes)}"
            )
        self.axes = axes
        self.data = data

    @property
    def rank(self) -> int:
        return len(self.axes)

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self):
        return f"Tensor(axes={self.axes}, rank={self.rank})"


def scalar_tensor(value: complex) -> Tensor:
    return Tensor((), np.asarray(value, dtype=np.complex128))


def _tensor(axes: tuple[VarId, ...], data: np.ndarray) -> Tensor:
    """Tensor from axes and a complex128 array already known to match
    them; skips the checks of the public constructor."""
    t = object.__new__(Tensor)
    t.axes = axes
    t.data = data
    return t


@functools.lru_cache(maxsize=_SCHEDULE_MEMO)
def _schedule(layouts: tuple[tuple[VarId, ...], ...], max_rank: int):
    """How ``multiply_all`` combines tensors with these axes.

    Returns the output axes, the steps and the final permutation (None
    if there is none).  Slots 0..n-1 hold the inputs; step (i, j, expr)
    multiplies slots i and j by ``np.einsum(expr, ...)`` and fills the
    next slot.  The rank check comes before any subscript is built.
    """
    combined = tuple(dict.fromkeys(v for axes in layouts for v in axes))
    if len(combined) > min(max_rank, MAX_RANK_LIMIT):
        raise RankOverflowError(combined)
    slot_axes = list(layouts)
    # (size, slot): slots are numbered in creation order, which breaks
    # size ties toward the earlier tensor
    heap = [(1 << len(axes), k) for k, axes in enumerate(layouts)]
    heapq.heapify(heap)
    steps = []
    while len(heap) > 1:
        _, i = heapq.heappop(heap)
        _, j = heapq.heappop(heap)
        a, b = slot_axes[i], slot_axes[j]
        out = a + tuple(v for v in b if v not in a)
        sub = {v: _LETTERS[k] for k, v in enumerate(out)}
        expr = "{},{}->{}".format(
            *("".join(map(sub.__getitem__, axes)) for axes in (a, b, out))
        )
        steps.append((i, j, expr))
        heapq.heappush(heap, (1 << len(out), len(slot_axes)))
        slot_axes.append(out)
    final = slot_axes[-1]
    perm = None if final == combined else tuple(map(final.index, combined))
    return combined, tuple(steps), perm


def _sliced(axes: tuple, data: np.ndarray, bits: dict) -> Tensor:
    """The tensor left when the axes named in ``bits`` are fixed: numpy
    basic indexing with an int at each of them and a full slice
    elsewhere."""
    index = tuple(bits.get(v, slice(None)) for v in axes)
    return Tensor(tuple(v for v in axes if v not in bits), data[index])


def multiply_all(tensors, max_rank: int = DEFAULT_MAX_RANK) -> Tensor:
    """Product of tensors over the union of their variables.

    Output axes appear in first-appearance order over the input list; the
    entry at an assignment is the product of the inputs' entries at that
    assignment restricted to their own axes.  Inputs are combined pairwise
    smallest-first so large intermediates appear as late as possible.
    More than ``max_rank`` variables, or more than ``MAX_RANK_LIMIT``,
    raise ``RankOverflowError`` before anything is allocated.
    """
    tensors = list(tensors)
    if not tensors:
        return scalar_tensor(1.0)
    axes, steps, perm = _schedule(tuple(t.axes for t in tensors), max_rank)
    slots = [t.data for t in tensors]
    for i, j, expr in steps:
        slots.append(np.einsum(expr, slots[i], slots[j]))
        slots[i] = slots[j] = None  # free consumed intermediates
    data = np.asarray(slots[-1])  # einsum returns a numpy scalar at rank 0
    return _tensor(axes, data if perm is None else np.transpose(data, perm))


def sum_out(t: Tensor, v: VarId) -> Tensor:
    """Sum the tensor over one variable; rank drops by one."""
    if v not in t.axes:
        raise MissingAxisError(f"variable {v} is not an axis of {t.axes}")
    k = t.axes.index(v)
    # a sum down to rank 0 comes back as a numpy scalar
    return _tensor(t.axes[:k] + t.axes[k + 1 :], np.asarray(t.data.sum(axis=k)))

