"""Regenerate ``golden.json``, the reference amplitudes of every workload.

    python3 perfbench/make_golden.py [WORKLOAD ...]

Each amplitude is computed twice: once by the benchmark's pipeline, and
once under a different plan (a min-fill ordering with another seed, split
to a per-subtask rank of at most 22).  The two must agree within the
benchmark's tolerance; the second one is stored, so the reference is not
a product of the timed code path.  The plan of a circuit does not depend
on the output bitstring, so each route plans a circuit once.
"""

from __future__ import annotations

import json
import sys
import time

from run import import_package

import_package()

import bench  # noqa: E402
from gridamp import build_model, min_fill_ordering, run_partitioned, select_fix_set  # noqa: E402
from gridamp.ordering import OrderingBudget  # noqa: E402
from gridamp.partition import CostBudget  # noqa: E402

ALT_SEED = 7
ALT_MAX_RANK = 22


def alt_plan(wl, model):
    base = min_fill_ordering(model, seed=ALT_SEED)
    return select_fix_set(
        model, base, 16, CostBudget(max_rank=min(wl.rank_budget, ALT_MAX_RANK)),
        ordering_budget=OrderingBudget(time_s=None, max_restarts=1, seed=ALT_SEED),
    )


def golden_for(wl) -> dict[str, list[float]]:
    out = {}
    plans = {}
    for case in bench.make_cases(wl, 0):
        seed = int(case.key.split(":")[1])
        model = build_model(case.circuit, case.x)
        if seed not in plans:
            plans[seed] = (bench.plan_for(wl, model), alt_plan(wl, model))
        plan, alt = plans[seed]
        if (plan.fix_vars, plan.post_fix_ordering.vars) == (
                alt.fix_vars, alt.post_fix_ordering.vars):
            raise AssertionError(f"{case.key}: the reference plan is the timed plan")
        timed = run_partitioned(model, plan, workers=1).amplitude
        ref = run_partitioned(model, alt, workers=1).amplitude
        if not bench.matches(timed, ref, wl.n_qubits):
            raise AssertionError(f"{case.key}: pipeline {timed!r} != reference {ref!r}")
        out[case.key] = [ref.real, ref.imag]
        print(f"{case.key[:40]} t={len(alt.fix_vars)} ok", file=sys.stderr, flush=True)
    return out


def main(names) -> int:
    try:
        with open(bench.GOLDEN_PATH, encoding="utf-8") as fh:
            table = json.load(fh)["amplitudes"]
    except FileNotFoundError:
        table = {}
    for name in names or sorted(bench.WORKLOADS):
        t0 = time.perf_counter()
        table.update(golden_for(bench.WORKLOADS[name]))
        print(f"{name}: {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    pools = {wl.key(*c) for wl in bench.WORKLOADS.values() for c in wl.pool()}
    table = {k: v for k, v in table.items() if k in pools}
    rows = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items()))
    with open(bench.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        fh.write(f"{{\"amplitudes\": {{\n{rows}\n}}}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
