"""Command-line surface: generate circuits, compute amplitudes, plan
contractions, run the reference simulator, report fidelity estimates,
benchmark, and export graphs.

Every run is seeded via flags (no environment configuration).
``amplitude`` prints ``plan``'s record, then the run's facts
(``amplitude``, ``batch_vars``, ``contractions``, ``wall_ms``); both
end with the fully resolved configuration, and that configuration alone
determines the plan: the ordering search stops at a restart cap, never
at a wall-clock limit.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
import time
from contextlib import nullcontext
from dataclasses import asdict, dataclass

from .circuit import MAX_DEPTH, MAX_QUBITS, Circuit, CircuitError, parse_circuit, serialize_circuit
from .elimination import Ordering, estimate_cost
from .fidelity import ErrorRates, fidelity_report
from .generator import GenParams, generate
from .graph_model import _as_bits, build_model, export_dot
from .oracle import TooManyQubitsError, amplitude_of
from .ordering import OrderingBudget, min_fill_ordering, search_ordering, vertical_ordering
from .partition import (
    MAX_WORKERS,
    BudgetUnreachableError,
    CostBudget,
    FixPlan,
    run_partitioned,
    select_fix_set,
)
from .tensor import DEFAULT_MAX_RANK, MAX_RANK_LIMIT, RankOverflowError


@dataclass(frozen=True)
class RunConfig:
    """Resolved inputs of one amplitude run; embedded in the output JSON."""

    circuit: str | None
    rows: int | None
    cols: int | None
    depth: int | None
    gen_seed: int
    x: str
    order: str
    order_restarts: int
    order_seed: int
    fix_max: int
    max_rank: int
    engine_max_rank: int
    workers: int


# RunConfig's fields that _add_pipeline_flags sets, under the same names
PIPELINE_FLAGS = ("order", "order_restarts", "order_seed", "fix_max", "max_rank",
                  "engine_max_rank", "workers")


# the error kind a run reports for each failure it does not raise;
# matched by isinstance, since numpy raises a MemoryError subclass
ERROR_KINDS = {RankOverflowError: "rank_overflow", BudgetUnreachableError: "budget_unreachable",
               FloatingPointError: "non_finite", MemoryError: "out_of_memory"}


class UsageError(Exception):
    """Bad command-line input found after parsing; exit code 2."""


def _read_circuit(path: str) -> Circuit:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read circuit file {path!r}: {e.strerror}") from None
    except UnicodeDecodeError as e:
        raise UsageError(
            f"circuit file {path!r} is not UTF-8 text ({e.reason} at byte {e.start})"
        ) from None
    return parse_circuit(text)


def _output(path: str | None):
    """The file at ``path`` opened for writing, or stdout when there is
    none; either way a context manager."""
    if not path:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", encoding="utf-8")
    except OSError as e:
        raise UsageError(f"cannot write {path!r}: {e.strerror}") from None


def _grid_size(args) -> tuple[int, int, int]:
    if args.rows is None or args.cols is None or args.depth is None:
        raise UsageError("either --circuit or --rows/--cols/--depth is required")
    return args.rows, args.cols, args.depth


def _load_circuit(args) -> Circuit:
    if args.circuit:
        return _read_circuit(args.circuit)
    return generate(GenParams(*_grid_size(args), args.seed))


def _resolve_x(args, circuit: Circuit) -> str:
    x = args.x if args.x is not None else "0" * circuit.n_qubits
    try:
        _as_bits(x, circuit.n_qubits)
    except ValueError as e:
        raise UsageError(f"--x {x!r}: {e}") from None
    return x


def _make_plan(model, cfg: RunConfig) -> tuple[FixPlan, Ordering]:
    """The plan and the base ordering it was made from."""
    budget = OrderingBudget(max_restarts=cfg.order_restarts, seed=cfg.order_seed)
    if cfg.order == "vertical":
        base = vertical_ordering(model)
    elif cfg.order == "minfill":
        base = min_fill_ordering(model, seed=cfg.order_seed)
    else:
        base = search_ordering(model, budget)[0]
    plan = select_fix_set(model, base, t_max=cfg.fix_max,
                          budget=CostBudget(max_rank=cfg.max_rank), ordering_budget=budget)
    return plan, base


def _run(model, plan: FixPlan, cfg: RunConfig):
    """``run_partitioned`` as ``cfg`` says; a non-finite amplitude is a
    ``FloatingPointError``."""
    result = run_partitioned(model, plan, workers=cfg.workers, max_rank=cfg.engine_max_rank)
    amp = result.amplitude
    if not (math.isfinite(amp.real) and math.isfinite(amp.imag)):
        raise FloatingPointError("amplitude is not finite")
    return result


def _error_kind(e: Exception) -> str:
    return next(kind for cls, kind in ERROR_KINDS.items() if isinstance(e, cls))


def _config_from_args(args, circuit: Circuit, gen_seed: int) -> RunConfig:
    return RunConfig(
        circuit=args.circuit,
        rows=circuit.rows,
        cols=circuit.cols,
        depth=circuit.depth,
        gen_seed=gen_seed,
        x=_resolve_x(args, circuit),
        **{name: getattr(args, name) for name in PIPELINE_FLAGS},
    )


def cmd_generate(args) -> int:
    text = serialize_circuit(generate(GenParams(args.rows, args.cols, args.depth, args.seed)))
    with _output(args.output) as out:
        out.write(text)
    return 0


def cmd_plan(args) -> int:
    """``plan`` prints the plan record; ``amplitude`` runs the plan too and
    prints the record, then the run's facts.  ``config`` comes last."""
    circuit = _load_circuit(args)
    cfg = _config_from_args(args, circuit, args.seed)
    model = build_model(circuit, cfg.x)
    try:
        plan, base = _make_plan(model, cfg)
        record = {
            "fix_vars": list(plan.fix_vars),
            "num_subtasks": plan.num_subtasks,
            "post_fix_ordering": list(plan.post_fix_ordering.vars),
            "ordering_provenance": plan.post_fix_ordering.provenance,
            "est_subtask_cost": {
                "total": plan.est_subtask_cost.total,
                "max_rank": plan.est_subtask_cost.max_rank,
            },
            "est_total_cost": plan.est_total_cost,
            "base_ordering_cost": estimate_cost(model, base).total,
        }
        if args.command == "amplitude":
            result = _run(model, plan, cfg)
            amp = result.amplitude
            record |= {
                "amplitude": {"re": amp.real, "im": amp.imag},
                "batch_vars": list(result.batch_vars),
                "contractions": 1 << (len(plan.fix_vars) - len(result.batch_vars)),
                "wall_ms": result.wall_ms,
            }
    except tuple(ERROR_KINDS) as e:
        record = {"error": {"type": _error_kind(e), "message": str(e)}}
    print(json.dumps(record | {"config": asdict(cfg)}))
    return 1 if "error" in record else 0


def cmd_oracle(args) -> int:
    circuit = _load_circuit(args)
    x = _resolve_x(args, circuit)
    amp = amplitude_of(circuit, x)
    print(json.dumps({"amplitude": {"re": amp.real, "im": amp.imag}, "x": x}))
    return 0


def cmd_fidelity(args) -> int:
    try:
        rates = ErrorRates.from_two_qubit_rate(args.eps)
    except ValueError as e:
        raise UsageError(f"--eps {args.eps}: {e}") from None
    if args.circuit or args.exact:
        circuit = _load_circuit(args)
        m, n, d = circuit.rows, circuit.cols, circuit.depth
    else:
        circuit = None
        m, n, d = _grid_size(args)
    report = fidelity_report(m, n, d, rates, circuit)
    print(json.dumps({**asdict(report), "eps": args.eps}))
    return 0


def cmd_export_dot(args) -> int:
    circuit = _load_circuit(args)
    text = export_dot(build_model(circuit, _resolve_x(args, circuit)))
    with _output(args.output) as out:
        out.write(text)
    return 0


def _percentile_ms(times: list[float], pct: float) -> float:
    """The ceil(pct/100 * n)-th order statistic."""
    k = max(1, math.ceil(pct / 100.0 * len(times)))
    return sorted(times)[k - 1]


def cmd_bench(args) -> int:
    # every row repeats the run's pipeline flags, so it can be replayed
    flags = ",".join(str(getattr(args, f)) for f in PIPELINE_FLAGS)
    with _output(args.output) as writer:
        writer.write("n,d,seed,samples,ok,status,percentile_ms,mean_max_rank,mean_t,"
                     f"mean_est_cost,{','.join(PIPELINE_FLAGS)}\n")
        for n in args.grids:
            for d in args.depths:
                times, ranks, ts, costs = [], [], [], []
                failures = []
                for s in range(args.samples):
                    seed = args.seed + s
                    circuit = generate(GenParams(n, n, d, seed))
                    cfg = _config_from_args(args, circuit, seed)
                    start = time.perf_counter()
                    try:
                        model = build_model(circuit, cfg.x)
                        plan, _ = _make_plan(model, cfg)
                        result = _run(model, plan, cfg)
                    except tuple(ERROR_KINDS) as e:
                        failures.append((seed, _error_kind(e)))
                        continue
                    times.append((time.perf_counter() - start) * 1000.0)
                    ranks.append(plan.est_subtask_cost.max_rank)
                    ts.append(len(plan.fix_vars))
                    costs.append(result.est_total_cost)
                if times:
                    writer.write(
                        f"{n},{d},{args.seed},{args.samples},{len(times)},ok,"
                        f"{_percentile_ms(times, args.percentile):.3f},"
                        f"{statistics.mean(ranks):.3f},{statistics.mean(ts):.3f},"
                        f"{statistics.mean(costs):.1f},{flags}\n"
                    )
                for seed, kind in failures:
                    writer.write(f"{n},{d},{seed},1,0,{kind},,,,,{flags}\n")
    return 0


def _bounded(low, high=None, kind=int):
    """Argparse type: a number of ``kind`` in ``low..high`` (no upper
    bound when ``high`` is None)."""

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid {kind.__name__} {text!r}") from None
        if not (value >= low and (high is None or value <= high)):  # NaN fails too
            span = f">= {low}" if high is None else f"in {low}..{high}"
            raise argparse.ArgumentTypeError(f"must be {span}, got {text}")
        return value

    return parse


def _bounded_list(low, high):
    """Argparse type: a non-empty comma list of ints, each in
    ``low..high``."""
    each = _bounded(low, high)

    def parse(text: str):
        values = [each(t) for t in text.split(",") if t]
        if not values:
            raise argparse.ArgumentTypeError(f"needs at least one value, got {text!r}")
        return values

    return parse


def _add_grid_size(p: argparse.ArgumentParser, required: bool):
    p.add_argument("--rows", type=_bounded(1), required=required, help="grid rows")
    p.add_argument("--cols", type=_bounded(1), required=required, help="grid cols")
    p.add_argument("--depth", type=_bounded(0, MAX_DEPTH), required=required,
                   help="cycles after the Hadamard layer")


def _add_circuit_source(p: argparse.ArgumentParser):
    p.add_argument("--circuit", help="circuit file to load")
    _add_grid_size(p, required=False)
    p.add_argument("--seed", type=_bounded(0), default=0, help="generator seed")


def _add_pipeline_flags(p: argparse.ArgumentParser, one_amplitude: bool = True):
    if one_amplitude:  # bench always runs the all-zeros string
        p.add_argument("--x", help="output bitstring, qubit 0 first (default all zeros)")
    p.add_argument(
        "--order", choices=("vertical", "minfill", "search"), default="search"
    )
    p.add_argument("--order-restarts", type=_bounded(1), default=8,
                   help="ordering search restart cap")
    p.add_argument("--order-seed", type=_bounded(0), default=0)
    p.add_argument("--fix-max", type=_bounded(0), default=8,
                   help="max number of variables fixed for parallelization")
    p.add_argument("--max-rank", type=_bounded(0), default=27,
                   help="per-subtask rank budget")
    p.add_argument("--engine-max-rank", type=_bounded(1, MAX_RANK_LIMIT),
                   default=DEFAULT_MAX_RANK,
                   help="refuse, before allocating, any step whose product would have more axes")
    p.add_argument("--workers", type=_bounded(1, MAX_WORKERS), default=1)


class _Parser(argparse.ArgumentParser):
    """Usage errors print one ``error:`` line and exit 2, the same as the
    input errors ``main`` catches."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gridamp",
        description="Single-amplitude simulator for grid quantum circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a random circuit file")
    _add_grid_size(p, required=True)
    p.add_argument("--seed", type=_bounded(0), default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("amplitude", help="compute <x|C|0...0>")
    _add_circuit_source(p)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("plan", help="print the fix plan and cost estimates")
    _add_circuit_source(p)
    _add_pipeline_flags(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("oracle", help="reference state-vector amplitude")
    _add_circuit_source(p)
    p.add_argument("--x")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("fidelity", help="gate counts and fidelity estimates")
    _add_circuit_source(p)
    p.add_argument("--eps", type=float, default=0.005,
                   help="two-qubit Pauli error rate")
    p.add_argument("--exact", action="store_true",
                   help="generate a circuit (--seed) for exact counts; implied by --circuit")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("bench", help="percentile-runtime sweep, CSV output")
    p.add_argument("--grids", type=_bounded_list(1, math.isqrt(MAX_QUBITS)), required=True,
                   help="comma list of n (n x n grids)")
    p.add_argument("--depths", type=_bounded_list(0, MAX_DEPTH), required=True,
                   help="comma list of depths")
    p.add_argument("--samples", type=_bounded(1), default=10)
    p.add_argument("--percentile", type=_bounded(0.0, 100.0, float), default=80.0)
    p.add_argument("--seed", type=_bounded(0), default=0)
    p.add_argument("-o", "--output")
    _add_pipeline_flags(p, one_amplitude=False)
    p.set_defaults(func=cmd_bench, circuit=None, x=None)

    p = sub.add_parser("export-dot", help="write the model graph as DOT")
    _add_circuit_source(p)
    p.add_argument("--x")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_export_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CircuitError, TooManyQubitsError, UsageError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
