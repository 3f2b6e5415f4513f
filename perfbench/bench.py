"""Workloads, the timed amplitude pipeline and its correctness check.

Every amplitude runs the same public calls as ``gridamp amplitude``:
``build_model``, ``search_ordering``, ``select_fix_set`` and
``run_partitioned``.  The ordering budget is a restart cap with no time
limit, so a plan depends only on its inputs and repeats exactly.

The pipeline calls go through the module attributes
(``graph_model.build_model`` and so on), so that the tracer in
``tracer.py`` can wrap them without editing the package.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridamp import graph_model, ordering, partition
from gridamp.generator import GenParams, generate
from gridamp.ordering import OrderingBudget
from gridamp.partition import CostBudget

GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"

FIX_MAX = 8  # the CLI's --fix-max default
MIN_AMPLITUDES = 8  # per run, whatever --seconds allows
POOL_SEED = 1805_01450  # bitstring pools; fixed so golden.json covers them
# Amplitudes of an n-qubit random circuit are about 2^(-n/2); the check
# scales its tolerance by that, so near-zero amplitudes are not held to
# a relative error their rounding cannot meet.
REL_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a pool of (circuit seed, bitstring) cases
    and the planning configuration every amplitude uses."""

    name: str
    rows: int
    cols: int
    depth: int
    circuit_seeds: tuple[int, ...]
    n_bitstrings: int  # 0: the all-zeros string only
    restarts: int
    rank_budget: int
    workers: int

    @property
    def n_qubits(self) -> int:
        return self.rows * self.cols

    @property
    def min_amplitudes(self) -> int:
        """Every run visits each circuit of the pool at least once, so
        metrics taken over the first visits are the same for every seed."""
        return max(MIN_AMPLITUDES, len(self.circuit_seeds))

    @property
    def pass_len(self) -> int:
        """Amplitudes in one pass over the circuits.  Planning time differs
        from circuit to circuit, so a run ends on a whole number of passes:
        every seed then weights the circuits alike."""
        return len(self.circuit_seeds) if self.n_bitstrings == 0 else 1

    def ordering_budget(self) -> OrderingBudget:
        return OrderingBudget(time_s=None, max_restarts=self.restarts, seed=0)

    def pool(self) -> list[tuple[int, str]]:
        """Every (circuit seed, bitstring) case the workload can visit."""
        if self.n_bitstrings == 0:
            xs = ["0" * self.n_qubits]
        else:
            rng = np.random.default_rng(POOL_SEED)
            bits = rng.integers(0, 2, size=(self.n_bitstrings, self.n_qubits))
            xs = ["".join(map(str, row)) for row in bits]
        return [(s, x) for s in self.circuit_seeds for x in xs]

    def key(self, circuit_seed: int, x: str) -> str:
        return f"{self.rows}x{self.cols}x{self.depth}:{circuit_seed}:{x}"


# why each workload is in the matrix: see the workloads in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "plan-7x7x24", 7, 7, 24, tuple(range(12)), 0,
            restarts=2, rank_budget=27, workers=1,
        ),
        Workload(
            "contract-7x7x28", 7, 7, 28, (0,), 32,
            restarts=1, rank_budget=27, workers=1,
        ),
        Workload(
            "fanout-6x6x24", 6, 6, 24, (0,), 64,
            restarts=2, rank_budget=10, workers=2,
        ),
    )
}


class Calibration:
    """A fixed piece of work owned by the benchmark, timed between
    amplitudes and their stages to measure how fast the machine runs at
    that moment.

    The speed of a shared machine drifts by tens of percent over minutes,
    which would swamp the bounds of the end-to-end times.  They are
    therefore reported at reference speed: wall seconds times
    ``REF_S / kernel seconds``.  The kernel mixes the two kinds of work
    the pipeline does: set-based graph elimination in Python, and
    complex einsum products and sums over binary axes in numpy.
    """

    # median kernel time on the reference machine (2 cores, Python 3.11.7,
    # numpy 2.4.6)
    REF_S = 0.032

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 300
        adj = {v: set() for v in range(n)}
        for v in range(n):
            for u in rng.choice(n, 6, replace=False):
                if u != v:
                    adj[v].add(int(u))
                    adj[int(u)].add(v)
        self._adj = adj
        # rank 12 (64 KiB): far below any workload's own peak memory, so
        # the kernel cannot set the high-water mark of peak_rss_mb
        self._a = rng.random((2,) * 12) + 1j * rng.random((2,) * 12)
        self._b = rng.random((2,) * 4) + 0j

    def _eliminate(self):
        adj = {v: set(ns) for v, ns in self._adj.items()}
        for v in range(len(adj)):
            nbs = sorted(adj.pop(v))
            for u in nbs:
                adj[u].discard(v)
            nbs = nbs[:8]  # caps the fill-in, so the graph stays sparse
            for i, u in enumerate(nbs):
                for w in nbs[i + 1 :]:
                    adj[u].add(w)
                    adj[w].add(u)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        for _ in range(6):
            self._eliminate()
        for _ in range(256):
            np.einsum("abcdefghijkl,abmn->cdefghijklmn", self._a, self._b).sum(0)
        return time.perf_counter() - t0


@dataclass
class Case:
    key: str
    circuit: object
    x: str


def make_cases(wl: Workload, seed: int) -> list[Case]:
    """The workload's pool in the visiting order the seed gives."""
    pool = wl.pool()
    circuits = {
        s: generate(GenParams(wl.rows, wl.cols, wl.depth, s)) for s in wl.circuit_seeds
    }
    order = np.random.default_rng(seed).permutation(len(pool))
    return [
        Case(wl.key(*pool[i]), circuits[pool[i][0]], pool[i][1]) for i in order
    ]


@dataclass
class Amp:
    """One attempted amplitude; ``failed`` marks one that raised or failed a
    check, and ``error`` says why."""

    key: str
    amplitude: complex | None = None
    plan_s: float = math.nan
    fanout_s: float = math.nan
    cost_log2: float = math.nan
    mid_kernel_s: float = math.nan  # calibration between planning and fan-out
    rerun_s: float = 0.0  # wall seconds of the re-run fan-out; 0 if none ran
    error: str | None = None
    failed: bool = False
    # Calibration.REF_S / kernel seconds around each stage
    plan_speed: float = 1.0
    fanout_speed: float = 1.0

    @property
    def amp_s(self) -> float:
        return self.plan_s + self.fanout_s

    @property
    def ref_plan_s(self) -> float:
        return self.plan_s * self.plan_speed

    @property
    def ref_amp_s(self) -> float:
        return self.ref_plan_s + self.fanout_s * self.fanout_speed


def plan_for(wl: Workload, model):
    ob = wl.ordering_budget()
    base, _ = ordering.search_ordering(model, ob)
    return partition.select_fix_set(
        model, base, FIX_MAX, CostBudget(max_rank=wl.rank_budget), ordering_budget=ob
    )


def compute(wl: Workload, case: Case, calibration, rerun_workers=None) -> Amp:
    """Circuit to number, planning included, timed.

    The calibration kernel runs between planning and fan-out, outside the
    timed spans.  With ``rerun_workers``, the fan-out then runs again on
    that many threads, outside the timed spans, and must give the same
    amplitude bit for bit.  The model and plan are dropped on return, so
    memory does not grow with the number of amplitudes a run completes."""
    t0 = time.perf_counter()
    model = graph_model.build_model(case.circuit, case.x)
    plan = plan_for(wl, model)
    t1 = time.perf_counter()
    mid_kernel_s = calibration()
    t2 = time.perf_counter()
    result = partition.run_partitioned(model, plan, workers=wl.workers)
    t3 = time.perf_counter()
    amp = Amp(
        case.key, result.amplitude, t1 - t0, t3 - t2,
        math.log2(result.est_total_cost), mid_kernel_s,
    )
    if rerun_workers is not None:
        again = partition.run_partitioned(model, plan, workers=rerun_workers)
        amp.rerun_s = time.perf_counter() - t3
        if again.amplitude != amp.amplitude:
            amp.failed = True
            amp.error = (
                f"{wl.workers} workers gave {amp.amplitude!r}, "
                f"{rerun_workers} gave {again.amplitude!r}"
            )
    return amp


def attempt(wl: Workload, case: Case, calibration, rerun_workers=None) -> Amp:
    # the benchmark loop must keep running past a failing amplitude; the
    # failure is reported and counted, never skipped
    try:
        return compute(wl, case, calibration, rerun_workers)
    except Exception:  # noqa: BLE001
        traceback.print_exc(file=sys.stderr)
        return Amp(case.key, error=traceback.format_exc(limit=1), failed=True)


def timed_loop(wl, cases, seconds, min_count, calibration, on_amp=None,
               rerun_workers=None):
    """Amplitudes over the cases (cycled) until ``seconds`` have passed, at
    least ``min_count`` were attempted and the last pass is whole (see
    ``Workload.pass_len``).

    The calibration kernel runs between amplitudes and between planning
    and fan-out; each stage's speed factor uses the kernel times on both
    sides of it, which follows the machine's drift more closely than one
    factor per amplitude would.  With ``rerun_workers`` every fan-out is
    re-run (see ``compute``); the re-runs do not count towards
    ``seconds``."""
    amps = []
    start = time.perf_counter()
    rerun_s = 0.0
    before = calibration()
    while (len(amps) < min_count or len(amps) % wl.pass_len
           or time.perf_counter() - start - rerun_s < seconds):
        amp = attempt(wl, cases[len(amps) % len(cases)], calibration, rerun_workers)
        rerun_s += amp.rerun_s
        after = calibration()
        if amp.amplitude is not None:
            amp.plan_speed = 2 * calibration.REF_S / (before + amp.mid_kernel_s)
            amp.fanout_speed = 2 * calibration.REF_S / (amp.mid_kernel_s + after)
        before = after
        if on_amp is not None and not amp.failed:
            on_amp(amp)
        amps.append(amp)
    return amps


def matches(value: complex, expected: complex, n_qubits: int) -> bool:
    scale = max(abs(expected), 2.0 ** (-n_qubits / 2))
    return abs(value - expected) <= REL_TOL * scale


def check(amps, reference: dict, n_qubits: int) -> None:
    """Mark every amplitude that raised, has no reference, or differs from
    its reference as failed."""
    for a in amps:
        if a.failed:
            continue
        expected = reference.get(a.key)
        if expected is None:
            a.failed, a.error = True, "no reference amplitude"
        elif not matches(a.amplitude, expected, n_qubits):
            a.failed = True
            a.error = f"amplitude {a.amplitude!r} != reference {expected!r}"


def load_golden() -> dict[str, complex]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        raw = json.load(fh)["amplitudes"]
    return {k: complex(re, im) for k, (re, im) in raw.items()}
