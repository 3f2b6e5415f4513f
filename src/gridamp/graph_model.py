"""Undirected graphical model of a circuit amplitude.

Each qubit wire threads through the circuit as a sequence of binary
variables.  Every gate contributes one factor by one rule.  A
non-diagonal gate gives its wires fresh variables ``new`` and links them
to the current ones ``old`` by its full matrix,
``data[old..., new...] = <new...|U|old...>``; a diagonal gate reuses
``old`` and contributes its diagonal over them.  Identity gates are
skipped.

Both boundaries are slices, not variables.  A wire that has no variable
yet is still at its input |0>, so a gate that meets it slices its factor
at bit 0 on that wire; at the end, the requested output bitstring fixes
each wire's last variable through ``GraphModel._fix``, so output-layer
variables never survive into the model.  Both use the slicing rule that
``_fix`` applies to any fixed variable: an int index at each fixed axis
and a full slice elsewhere.  Two vertices share an edge exactly when
some factor contains both.

The resulting object is the summation target: the amplitude equals
``scalar`` times the sum over all 0/1 assignments of the free vertices of
the product of all factors.  ``model_value_bruteforce`` evaluates that
sum directly and serves as the reference semantics for every other
evaluation path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuit import Circuit, GateKind
from .tensor import Tensor, VarId, _sliced, _tensor

BRUTEFORCE_MAX_VARS = 24  # model_value_bruteforce's grid has 2^24 entries at most


class TooManyVariablesError(ValueError):
    """Brute-force evaluation refused above the variable cap."""


@dataclass(frozen=True)
class VarInfo:
    """Debug record: which qubit wire a variable lives on and the cycle
    that created it."""

    qubit: int
    cycle: int


class GraphModel:
    """Vertices, edges and tensor factors.

    Mutating helpers are private, and public operations apply them only
    to clones or to models they build; ``contract`` and the planners only
    read, so a model handed to concurrent workers is never written to.
    """

    __slots__ = ("adj", "factors", "scalar", "var_info")

    def __init__(self):
        self.adj: dict[VarId, set[VarId]] = {}
        self.factors: list[Tensor] = []
        self.scalar: complex = 1.0 + 0.0j
        self.var_info: dict[VarId, VarInfo] = {}

    @property
    def vertices(self) -> set[VarId]:
        return set(self.adj)

    def edges(self) -> set[tuple[VarId, VarId]]:
        return {(u, v) for u, ns in self.adj.items() for v in ns if u < v}

    def clone(self) -> "GraphModel":
        m = GraphModel()
        m.adj = copy_adj(self.adj)
        m.factors = list(self.factors)
        m.scalar = self.scalar
        m.var_info = self.var_info  # immutable records, shared
        return m

    def _add_vertex(self, v: VarId, info: VarInfo):
        if v in self.var_info:
            raise ValueError(f"variable {v} already exists")
        self.adj[v] = set()
        self.var_info[v] = info

    def _add_factor(self, t: Tensor):
        if t.rank == 0:
            self.scalar *= complex(t.data)
            return
        for v in t.axes:
            if v not in self.adj:
                raise ValueError(f"factor references unknown variable {v}")
        self.factors.append(t)
        for i, u in enumerate(t.axes):
            for v in t.axes[i + 1 :]:
                self.adj[u].add(v)
                self.adj[v].add(u)

    def _fix(self, assignment: dict[VarId, int]):
        """Fix each variable of ``assignment`` to its bit: slice every
        factor at all its assigned axes in one pass, fold rank-0 results
        into ``scalar`` and drop the vertices.  Every pair is checked
        before anything changes; a bit equal to 0 or 1 is taken as that
        int, as ``_as_bits`` does."""
        for v, bit in assignment.items():
            if v not in self.adj:
                raise KeyError(f"variable {v} is not free in this model")
            if bit not in (0, 1):
                raise ValueError(f"bit must be 0 or 1, got {bit!r}")
        assignment = {v: int(bit) for v, bit in assignment.items()}
        factors = []
        for f in self.factors:
            if not assignment.keys().isdisjoint(f.axes):
                f = _sliced(f.axes, f.data, assignment)
                if f.rank == 0:
                    self.scalar *= complex(f.data)
                    continue
            factors.append(f)
        self.factors = factors
        for v in assignment:
            remove_vertex(self.adj, v)


def copy_adj(adj: dict[VarId, set[VarId]]) -> dict[VarId, set[VarId]]:
    """Copy of an adjacency map that shares no neighbor set with it."""
    return {v: set(ns) for v, ns in adj.items()}


def remove_vertex(adj: dict[VarId, set[VarId]], v: VarId) -> set[VarId]:
    """Pop ``v`` from the adjacency map and drop its edges; returns its
    neighbors.  This is what fixing a variable does to the graph."""
    nbs = adj.pop(v)
    for u in nbs:
        adj[u].discard(v)
    return nbs


def _as_bits(output_bits, n: int) -> tuple[int, ...]:
    """n characters 0/1, or n items equal to 0 or 1, as ints, qubit 0
    first; anything else raises ``ValueError``, never truncated to a bit."""
    if isinstance(output_bits, str):
        output_bits = ["01".find(ch) for ch in output_bits]  # -1: not a bit
    bits = tuple(output_bits)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"output bits must be {n} binary values")
    return tuple(map(int, bits))


def build_model(circuit: Circuit, output_bits) -> GraphModel:
    """Build the graphical model of ``<x|C|0...0>`` for one output string.

    ``output_bits[q]`` is qubit q's measured bit.  Identity gates are
    skipped (their factor is the constant all-ones vector); every other
    catalog or custom gate contributes one factor by the rule of the
    module docstring.  Each distinct gate matrix's factor array is made
    once per call, read-only, and shared by every factor of that gate:
    its diagonal, or its matrix with the old axes moved first.  A factor
    whose wires all have variables takes it as it is, and its edges go
    straight into the adjacency map.
    """
    n = circuit.n_qubits
    bits = _as_bits(output_bits, n)
    model = GraphModel()
    # a catalog kind or a custom gate -> (diagonal, factor array)
    prepared: dict = {}
    cur: list[VarId | None] = [None] * n  # each wire's current variable
    for k, gates in enumerate(circuit.cycles):
        for gate in gates:
            if gate.kind is GateKind.ID:
                continue
            key = gate.kind or gate
            prep = prepared.get(key)
            if prep is None:
                prep = prepared[key] = gate.diagonal, _factor_array(gate)
            diagonal, data = prep
            old = tuple(cur[q] for q in gate.qubits)
            if diagonal:
                axes = old
            else:
                for q in gate.qubits:  # fresh ids count up from 0
                    cur[q] = len(model.var_info)
                    model._add_vertex(cur[q], VarInfo(q, k))
                axes = old + tuple(cur[q] for q in gate.qubits)
            if None in old:
                # wires still at the input |0>: slice them at bit 0
                model._add_factor(_sliced(axes, data, {None: 0}))
                continue
            model.factors.append(_tensor(axes, data))
            for u in axes:
                nbs = model.adj[u]
                nbs.update(axes)
                nbs.discard(u)
    # a wire that never left |0> has no variable; <x_q|0> is 1 or 0
    if any(b for v, b in zip(cur, bits) if v is None):
        model.scalar *= 0.0
    model._fix({v: b for v, b in zip(cur, bits) if v is not None})
    return model


def _factor_array(gate) -> np.ndarray:
    """A read-only view of ``gate``'s factor array by the module
    docstring's rule: its diagonal, or ``data[old..., new...] =
    <new...|U|old...>``."""
    r = len(gate.qubits)
    if gate.diagonal:
        data = np.diagonal(gate.matrix).reshape((2,) * r)
    else:
        # rows of U are new bits, columns old: move old first
        u = gate.matrix.reshape((2,) * (2 * r))
        data = np.transpose(u, tuple(range(r, 2 * r)) + tuple(range(r)))
    data.flags.writeable = False
    return data


def model_value_bruteforce(g: GraphModel) -> complex:
    """Sum the factor product over every assignment of the free variables.

    Materializes the full 2^n assignment grid, n <= ``BRUTEFORCE_MAX_VARS``
    or :class:`TooManyVariablesError`, independent of the elimination code.
    """
    free = sorted(g.adj)
    if len(free) > BRUTEFORCE_MAX_VARS:
        raise TooManyVariablesError(
            f"{len(free)} free variables exceed the brute-force cap of {BRUTEFORCE_MAX_VARS}"
        )
    pos = {v: i for i, v in enumerate(free)}
    grid = np.ones((2,) * len(free), dtype=np.complex128)
    for f in g.factors:
        targets = [pos[v] for v in f.axes]
        order = np.argsort(targets)
        data = np.transpose(f.data, order)
        shape = [1] * len(free)
        for t in sorted(targets):
            shape[t] = 2
        grid = grid * data.reshape(shape)
    return complex(grid.sum() * g.scalar)


def export_dot(g: GraphModel) -> str:
    """DOT text ``graph model`` of the free vertices and edges, for eyeballing."""
    lines = ["graph model {"]
    for v in sorted(g.adj):
        info = g.var_info.get(v)
        label = f"v{v}" if info is None else f"v{v} q{info.qubit}c{info.cycle}"
        lines.append(f'  v{v} [label="{label}"];')
    for u, v in sorted(g.edges()):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
