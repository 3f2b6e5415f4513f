"""Per-layer tracing from outside the package.

``Tracer`` wraps the public functions of each layer at the name its
caller looks it up under, and restores them on exit:

=================  ===================================================
layer              wrapped names
=================  ===================================================
graph_model        ``graph_model.build_model``
ordering           ``ordering.search_ordering`` (the base search),
                   ``ordering.min_fill_ordering`` (one per restart),
                   ``ordering.simulate_cost`` (one per priced candidate)
partition          ``partition.select_fix_set``,
                   ``partition.search_ordering`` (the post-fix search),
                   ``partition.simulate_cost``,
                   ``partition.run_partitioned``,
                   ``GraphModel.clone`` (the start of a subtask)
elimination        ``partition.contract``
tensor             ``elimination.multiply_all``, ``elimination.sum_out``
=================  ===================================================

Each ``build_model`` call opens a new :class:`AmpTrace`; everything until
the next one is charged to it.  Subtasks run on worker threads, so
per-thread state lives in a ``threading.local`` and shared totals are
updated under a lock.
"""

from __future__ import annotations

import math
import threading
import time
from dataclasses import dataclass, field

from gridamp import elimination, graph_model, ordering, partition


@dataclass
class AmpTrace:
    """What one amplitude did in each layer."""

    key: str = ""
    build_s: float = 0.0
    vars: int = 0
    search_s: float = 0.0
    restarts: int = 0
    max_rank: int = 0
    cost_log2: float = math.nan
    price_calls: int = 0
    fix_s: float = 0.0
    fix_vars: tuple = ()
    fix_research_s: float = 0.0
    fix_restarts: int = 0
    fix_price_calls: int = 0
    over_budget: bool = False
    planned_product_rank: int = 0
    fanout_s: float = 0.0
    workers: int = 1
    subtask_s: list = field(default_factory=list)
    contract_s: float = 0.0
    multiply_s: float = 0.0
    sum_s: float = 0.0
    # (estimated cost units, measured seconds) per elimination step
    steps: list = field(default_factory=list)
    peak_product_rank: int = 0

    def diagnostics(self) -> dict:
        return {
            "key": self.key,
            "fix_vars": list(self.fix_vars),
            "restarts": self.restarts,
            "fix_restarts": self.fix_restarts,
            "planned_product_rank": self.planned_product_rank,
            "measured_product_rank": self.peak_product_rank,
            "subtask_s": [round(s, 6) for s in self.subtask_s],
        }


def _now() -> float:
    return time.perf_counter()


class Tracer:
    """Context manager that installs the layer wrappers."""

    def __init__(self):
        self.records: list[AmpTrace] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._in_fix = False
        self._in_fanout = False
        self._step_cost: dict = {}
        self._saved: list = []

    @property
    def rec(self) -> AmpTrace:
        return self.records[-1]

    def __enter__(self):
        o, p = ordering, partition
        self._patch(graph_model, "build_model", self._build_model)
        self._patch(o, "search_ordering", self._timed(self._base_search))
        self._patch(o, "min_fill_ordering", self._counted("restarts"))
        self._patch(o, "simulate_cost", self._counted("price_calls"))
        self._patch(p, "select_fix_set", self._select_fix_set)
        self._patch(p, "search_ordering", self._timed(self._research))
        self._patch(p, "simulate_cost", self._counted("price_calls"))
        self._patch(p, "run_partitioned", self._run_partitioned)
        self._patch(p, "contract", self._contract)
        self._patch(graph_model.GraphModel, "clone", self._clone)
        self._patch(elimination, "multiply_all", self._multiply_all)
        self._patch(elimination, "sum_out", self._sum_out)
        return self

    def __exit__(self, *exc):
        for owner, name, orig in reversed(self._saved):
            setattr(owner, name, orig)
        self._saved.clear()
        return False

    def _patch(self, owner, name, make_wrapper):
        orig = getattr(owner, name)
        self._saved.append((owner, name, orig))
        setattr(owner, name, make_wrapper(orig))

    # -- graph_model -------------------------------------------------------

    def _build_model(self, orig):
        def build_model(circuit, output_bits):
            self.records.append(AmpTrace())
            t0 = _now()
            model = orig(circuit, output_bits)
            self.rec.build_s = _now() - t0
            self.rec.vars = len(model.adj)
            return model

        return build_model

    # -- ordering ----------------------------------------------------------

    def _timed(self, on_done):
        def make(orig):
            def timed(*args, **kwargs):
                t0 = _now()
                out = orig(*args, **kwargs)
                on_done(_now() - t0, out)
                return out

            return timed

        return make

    def _base_search(self, dt, out):
        _, est = out
        self.rec.search_s += dt
        self.rec.max_rank = est.max_rank
        self.rec.cost_log2 = math.log2(est.total)

    def _counted(self, counter):
        def make(orig):
            def counted(*args, **kwargs):
                # calls inside select_fix_set belong to the partition layer
                name = ("fix_" if self._in_fix else "") + counter
                setattr(self.rec, name, getattr(self.rec, name) + 1)
                return orig(*args, **kwargs)

            return counted

        return make

    # -- partition ---------------------------------------------------------

    def _research(self, dt, out):
        self.rec.fix_research_s += dt

    def _select_fix_set(self, orig):
        def select_fix_set(g, base, t_max, budget, **kwargs):
            self._in_fix = True
            t0 = _now()
            try:
                plan = orig(g, base, t_max, budget, **kwargs)
            finally:
                self._in_fix = False
            rec = self.rec
            rec.fix_s = _now() - t0
            rec.fix_vars = plan.fix_vars
            rank = plan.est_subtask_cost.max_rank
            rec.over_budget = budget.max_rank is not None and rank > budget.max_rank
            rec.planned_product_rank = rank + 1 if plan.est_subtask_cost.steps else 0
            return plan

        return select_fix_set

    def _run_partitioned(self, orig):
        def run_partitioned(g, plan, workers=1, **kwargs):
            self._step_cost = {s.var: s.cost for s in plan.est_subtask_cost.steps}
            self._in_fanout = True
            t0 = _now()
            try:
                result = orig(g, plan, workers=workers, **kwargs)
            finally:
                self._in_fanout = False
            self.rec.fanout_s = _now() - t0
            self.rec.workers = workers
            return result

        return run_partitioned

    def _clone(self, orig):
        local = self._local

        def clone(model):
            # a subtask starts by cloning the model; contract's own clone
            # is part of the subtask already
            if self._in_fanout and not getattr(local, "in_contract", False):
                local.subtask_start = _now()
            return orig(model)

        return clone

    # -- elimination -------------------------------------------------------

    def _contract(self, orig):
        local = self._local

        def contract(g, order, **kwargs):
            local.in_contract = True
            t0 = _now()
            try:
                return orig(g, order, **kwargs)
            finally:
                t1 = _now()
                local.in_contract = False
                with self._lock:
                    self.rec.contract_s += t1 - t0
                    self.rec.subtask_s.append(t1 - local.subtask_start)

        return contract

    # -- tensor ------------------------------------------------------------

    def _multiply_all(self, orig):
        local = self._local

        def multiply_all(tensors, **kwargs):
            t0 = _now()
            product = orig(tensors, **kwargs)
            local.pending = (_now() - t0, product.rank)
            return product

        return multiply_all

    def _sum_out(self, orig):
        local = self._local

        def sum_out(t, v):
            t0 = _now()
            out = orig(t, v)
            dt = _now() - t0
            mul_dt, rank = local.pending
            with self._lock:
                rec = self.rec
                rec.multiply_s += mul_dt
                rec.sum_s += dt
                rec.steps.append((self._step_cost[v], mul_dt + dt))
                rec.peak_product_rank = max(rec.peak_product_rank, rank)
            return out

        return sum_out
