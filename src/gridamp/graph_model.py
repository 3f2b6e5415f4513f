"""Undirected graphical model of a circuit amplitude.

Each qubit wire threads through the circuit as a sequence of binary
variables.  Diagonal gates reuse the wire's current variable (their
factor is the diagonal, stored at the rank of their qubit count);
non-diagonal gates introduce fresh variables and contribute their full
matrix as a factor linking old and new.  The input state |0...0> is a
boundary condition, not a variable: the first factor on each wire is
already sliced at input bit 0.  The requested output bitstring is applied
the same way at the end, so output-layer variables never survive into
the model.  Two vertices share an edge exactly when some factor contains
both.

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
from .tensor import Tensor, VarId, slice_axis


class TooManyVariablesError(ValueError):
    """Brute-force evaluation refused above the variable cap."""


@dataclass(frozen=True)
class VarInfo:
    """Debug record: which qubit wire a variable lives on and the cycle
    that created it."""

    qubit: int
    cycle: int


class GraphModel:
    """Vertices, edges, tensor factors and the fixed-variable record.

    Mutating helpers are private, and public operations apply them only
    to clones or to models they build; ``contract`` and the planners only
    read, so a model handed to concurrent workers is never written to.
    """

    __slots__ = ("adj", "factors", "fixed", "scalar", "var_info")

    def __init__(self):
        self.adj: dict[VarId, set[VarId]] = {}
        self.factors: list[Tensor] = []
        self.fixed: dict[VarId, int] = {}
        self.scalar: complex = 1.0 + 0.0j
        self.var_info: dict[VarId, VarInfo] = {}

    @property
    def vertices(self) -> set[VarId]:
        return set(self.adj)

    def edges(self) -> set[tuple[VarId, VarId]]:
        out = set()
        for u, ns in self.adj.items():
            for v in ns:
                if u < v:
                    out.add((u, v))
        return out

    def neighbors(self, v: VarId) -> set[VarId]:
        return set(self.adj[v])

    def degree(self, v: VarId) -> int:
        return len(self.adj[v])

    def clone(self) -> "GraphModel":
        m = GraphModel()
        m.adj = copy_adj(self.adj)
        m.factors = list(self.factors)
        m.fixed = dict(self.fixed)
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

    def _fix(self, v: VarId, bit: int):
        """Slice every factor at ``v = bit`` and drop the vertex."""
        if v not in self.adj:
            raise KeyError(f"variable {v} is not free in this model")
        new_factors = []
        for f in self.factors:
            if v in f.axes:
                f = slice_axis(f, v, bit)
                if f.rank == 0:
                    self.scalar *= complex(f.data)
                    continue
            new_factors.append(f)
        self.factors = new_factors
        remove_vertex(self.adj, v)
        self.fixed[v] = bit


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
    if isinstance(output_bits, str):
        bits = tuple(int(ch) for ch in output_bits)
    else:
        bits = tuple(int(b) for b in output_bits)
    if len(bits) != n or any(b not in (0, 1) for b in bits):
        raise ValueError(f"output bits must be {n} binary values")
    return bits


def build_model(circuit: Circuit, output_bits) -> GraphModel:
    """Build the graphical model of ``<x|C|0...0>`` for one output string.

    ``output_bits[q]`` is qubit q's measured bit.  Identity gates are
    skipped (their factor is the constant all-ones vector); every other
    catalog or custom gate contributes its gadget as described in the
    module docstring.
    """
    n = circuit.n_qubits
    bits = _as_bits(output_bits, n)
    model = GraphModel()
    cur: list[VarId | None] = [None] * n
    next_id = 0

    def new_var(q: int, cycle: int) -> VarId:
        nonlocal next_id
        v = next_id
        next_id += 1
        model._add_vertex(v, VarInfo(q, cycle))
        return v

    for k, gates in enumerate(circuit.cycles):
        for gate in gates:
            m = gate.matrix
            if len(gate.qubits) == 1:
                (q,) = gate.qubits
                if gate.diagonal:
                    if gate.kind is GateKind.ID:
                        continue
                    diag = np.diagonal(m)
                    if cur[q] is None:
                        model.scalar *= complex(diag[0])
                    else:
                        model._add_factor(Tensor((cur[q],), np.array(diag)))
                else:
                    w = new_var(q, k)
                    if cur[q] is None:
                        # <w|U|0>: input boundary folded into the column
                        model._add_factor(Tensor((w,), np.array(m[:, 0])))
                    else:
                        # data[old, new] = <new|U|old>
                        model._add_factor(Tensor((cur[q], w), m.T.copy()))
                    cur[q] = w
            else:
                qa, qb = gate.qubits
                va, vb = cur[qa], cur[qb]
                if gate.diagonal:
                    diag = np.diagonal(m).reshape(2, 2)  # [bit_a, bit_b]
                    if va is None and vb is None:
                        model.scalar *= complex(diag[0, 0])
                    elif va is None:
                        model._add_factor(Tensor((vb,), np.array(diag[0, :])))
                    elif vb is None:
                        model._add_factor(Tensor((va,), np.array(diag[:, 0])))
                    else:
                        model._add_factor(Tensor((va, vb), np.array(diag)))
                else:
                    wa = new_var(qa, k)
                    wb = new_var(qb, k)
                    # u[ia, ib, ja, jb] = <ja jb|U|ia ib>
                    u = np.transpose(m.reshape(2, 2, 2, 2), (2, 3, 0, 1))
                    if va is None and vb is None:
                        model._add_factor(Tensor((wa, wb), u[0, 0]))
                    elif va is None:
                        model._add_factor(Tensor((vb, wa, wb), u[0]))
                    elif vb is None:
                        model._add_factor(Tensor((va, wa, wb), u[:, 0]))
                    else:
                        model._add_factor(Tensor((va, vb, wa, wb), u))
                    cur[qa], cur[qb] = wa, wb
    for q in range(n):
        v = cur[q]
        if v is None:
            # wire never left |0>; <x_q|0> is 1 or 0
            if bits[q] == 1:
                model.scalar *= 0.0
        else:
            model._fix(v, bits[q])
    return model


def model_value_bruteforce(g: GraphModel, max_vars: int = 24) -> complex:
    """Sum the factor product over every assignment of the free variables.

    Materializes the full 2^n assignment grid with plain broadcasting;
    deliberately independent of the elimination machinery.
    """
    free = sorted(g.adj)
    if len(free) > max_vars:
        raise TooManyVariablesError(
            f"{len(free)} free variables exceed the brute-force cap of {max_vars}"
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


def export_dot(g: GraphModel, name: str = "model") -> str:
    """DOT text of the free vertices and edges, for eyeballing graphs."""
    lines = [f"graph {name} {{"]
    for v in sorted(g.adj):
        info = g.var_info.get(v)
        label = f"v{v}" if info is None else f"v{v} q{info.qubit}c{info.cycle}"
        lines.append(f'  v{v} [label="{label}"];')
    for u, v in sorted(g.edges()):
        lines.append(f"  v{u} -- v{v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
