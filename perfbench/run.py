"""Benchmark of the gridamp amplitude pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src/`` directory.  The seed chooses the order in which the workload's
pool of (circuit, bitstring) cases is visited.  Every amplitude is
checked against ``golden.json``, and on a multi-worker workload also
against the same plan run on one worker, bit for bit.

End-to-end times are reported at reference machine speed (see
``bench.Calibration``); the summary lines before the result give the raw
wall seconds and the speed factors.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half under ``tracer.Tracer`` on the same cases,
and reports the per-layer metrics; it also prints one diagnostics line
per traced amplitude.  The last line of standard output is the result
object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 11
MIN_TRACE_AMPLITUDES = 3  # per phase of a traced run


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def import_package():
    """Put the checkout's ``src/`` first on the path and import from it."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import gridamp
    except ImportError as e:
        raise SystemExit(f"cannot import gridamp from {src}: {e}") from None
    if Path(gridamp.__file__).resolve().parent != src / "gridamp":
        raise SystemExit(f"gridamp was imported from {gridamp.__file__}, not {src}")


def setup_seconds(workload: str, seed: int, calibration) -> float:
    """Median time, at reference speed, from launching a fresh interpreter
    to having imported gridamp and generated the workload's inputs."""
    cmd = [sys.executable, __file__, "--workload", workload, "--seed", str(seed),
           "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        speed = calibration.REF_S / calibration()
        t0 = time.monotonic()
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        times.append((float(out.stdout.split()[-1]) - t0) * speed)
    return statistics.median(times)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def summary_line(name, samples):
    """Median, and the highest percentile with at least ten samples above it."""
    n = len(samples)
    out = {"n": n, "p50": statistics.median(samples) if samples else None}
    if n > 10:
        pct = int(100 * (n - 10) / n)
        out[f"p{pct}"] = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
    print(json.dumps({name: out}))


def end_to_end(bench, wl, cases, reference, seconds, setup_s, calibration):
    amps = bench.timed_loop(wl, cases, seconds, wl.min_amplitudes, calibration,
                            rerun_workers=None if wl.workers == 1 else 1)
    bench.check(amps, reference, wl.n_qubits)
    done = [a for a in amps if a.amplitude is not None]
    summary_line("wall_amp_s", [a.amp_s for a in done])
    summary_line("wall_plan_s", [a.plan_s for a in done])
    summary_line("plan_speed", [a.plan_speed for a in done])
    summary_line("fanout_speed", [a.fanout_speed for a in done])
    failed = sum(a.failed for a in amps)
    first = done[: wl.min_amplitudes]
    metrics = {
        "setup_s": metric(setup_s, "s"),
        "amps_per_s": metric(len(done) / sum(a.ref_amp_s for a in done), "1/s"),
        "amp_s_p50": metric(statistics.median(a.ref_amp_s for a in done), "s"),
        "plan_s_p50": metric(statistics.median(a.ref_plan_s for a in done), "s"),
        "plan_cost_log2": metric(statistics.fmean(a.cost_log2 for a in first), "log2"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "ok_ratio": metric(1.0 - failed / len(amps), "ratio"),
    }
    return amps, metrics


def per_layer(bench, wl, cases, reference, seconds, calibration):
    from tracer import Tracer

    half = seconds / 2
    # the untraced fan-outs are re-run on the other worker count, for
    # speedup_w2 on the same plans
    untraced = bench.timed_loop(wl, cases, half, MIN_TRACE_AMPLITUDES, calibration,
                                rerun_workers=2 if wl.workers == 1 else 1)
    bench.check(untraced, reference, wl.n_qubits)

    with Tracer() as tracer:
        def on_amp(amp):
            tracer.rec.key = amp.key

        traced = bench.timed_loop(
            wl, cases, half, MIN_TRACE_AMPLITUDES, calibration, on_amp)
    bench.check(traced, reference, wl.n_qubits)
    amps = untraced + traced
    recs = [r for r, a in zip(tracer.records, traced) if not a.failed]
    for r in recs:
        print(json.dumps({"diag": r.diagnostics()}))

    def med(f):
        return statistics.median(f(r) for r in recs)

    # fan-out wall time on 1 worker / on 2 workers
    speedup = [
        a.fanout_s / a.rerun_s if wl.workers == 1 else a.rerun_s / a.fanout_s
        for a in untraced if not a.failed
    ]
    steps = [s for r in recs for s in r.steps]
    est = [c for c, _ in steps]
    measured = [t for _, t in steps]
    engine_s = sum(measured)
    try:
        corr = statistics.correlation(est, measured)
    except statistics.StatisticsError:  # fewer than two steps, or constant cost
        corr = 0.0
    peak_rank = max(r.peak_product_rank for r in recs)
    untraced_p50 = statistics.median(a.ref_amp_s for a in untraced if not a.failed)
    traced_p50 = statistics.median(a.ref_amp_s for a in traced if not a.failed)
    summary_line("wall_untraced_amp_s", [a.amp_s for a in untraced if not a.failed])
    summary_line("wall_traced_amp_s", [a.amp_s for a in traced if not a.failed])
    metrics = {
        "graph_model.build_s": metric(med(lambda r: r.build_s), "s"),
        "graph_model.vars": metric(med(lambda r: r.vars), "count"),
        "ordering.search_s": metric(med(lambda r: r.search_s), "s"),
        "ordering.restarts": metric(med(lambda r: r.restarts), "count"),
        "ordering.max_rank": metric(med(lambda r: r.max_rank), "rank"),
        "ordering.cost_log2": metric(statistics.fmean(r.cost_log2 for r in recs), "log2"),
        "ordering.price_calls": metric(med(lambda r: r.price_calls), "count"),
        "partition.fix_s": metric(med(lambda r: r.fix_s), "s"),
        "partition.fix_t": metric(med(lambda r: len(r.fix_vars)), "count"),
        "partition.fix_research_s": metric(med(lambda r: r.fix_research_s), "s"),
        "partition.fix_price_calls": metric(med(lambda r: r.fix_price_calls), "count"),
        "partition.fix_over_budget": metric(sum(r.over_budget for r in recs), "count"),
        "partition.fanout_s": metric(med(lambda r: r.fanout_s), "s"),
        "partition.subtasks": metric(med(lambda r: len(r.subtask_s)), "count"),
        "partition.subtask_s_p50": metric(
            statistics.median(s for r in recs for s in r.subtask_s), "s"),
        "partition.busy_share": metric(
            med(lambda r: sum(r.subtask_s) / (r.workers * r.fanout_s)), "ratio"),
        "partition.speedup_w2": metric(statistics.median(speedup), "ratio"),
        "elimination.contract_s": metric(med(lambda r: r.contract_s), "s"),
        "elimination.steps": metric(med(lambda r: len(r.steps)), "count"),
        "elimination.bookkeeping_s": metric(
            med(lambda r: sum(r.subtask_s) - r.multiply_s - r.sum_s), "s"),
        "elimination.est_time_corr": metric(corr, "ratio"),
        "tensor.multiply_s": metric(med(lambda r: r.multiply_s), "s"),
        "tensor.sum_s": metric(med(lambda r: r.sum_s), "s"),
        "tensor.cu_per_s": metric(sum(est) / engine_s, "cu/s"),
        "tensor.peak_product_rank": metric(peak_rank, "rank"),
        "tensor.peak_bytes": metric(16 * 2**peak_rank, "B_computed"),
        "trace.overhead": metric(traced_p50 / untraced_p50, "ratio"),
    }
    return amps, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    # no workload may use more threads than its fan-out workers
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    import_package()
    import bench

    if args.workload not in bench.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(bench.WORKLOADS)}")
    wl = bench.WORKLOADS[args.workload]
    if args.setup_probe:
        bench.make_cases(wl, args.seed)
        print(time.monotonic())
        return 0
    import numpy

    print(json.dumps({"machine": {
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "workers": wl.workers}}))
    calibration = bench.Calibration()
    if args.trace:
        cases = bench.make_cases(wl, args.seed)
        amps, metrics = per_layer(
            bench, wl, cases, bench.load_golden(), args.seconds, calibration)
    else:
        setup_s = setup_seconds(wl.name, args.seed, calibration)
        cases = bench.make_cases(wl, args.seed)
        amps, metrics = end_to_end(
            bench, wl, cases, bench.load_golden(), args.seconds, setup_s, calibration)
    for a in amps:
        if a.failed:
            print(json.dumps({"failure": {"key": a.key, "error": a.error}}))
    failed = sum(a.failed for a in amps)
    print(json.dumps({"correct": failed == 0, "attempted": len(amps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
