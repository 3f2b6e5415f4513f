"""CLI subcommands: output schemas, determinism, error paths."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import gridamp
from gridamp import (
    CircuitError,
    CircuitParseError,
    CycleConflictError,
    GateKind,
    QubitBoundsError,
    amplitude_of,
    count_gates,
    cz_layer,
    parse_circuit,
)
from gridamp import cli
from gridamp.cli import _percentile_ms, main
from gridamp.partition import MAX_WORKERS

from conftest import REF4Q_TEXT


@pytest.fixture()
def ref4q_file(tmp_path):
    path = tmp_path / "ref4q.txt"
    path.write_text(REF4Q_TEXT)
    return str(path)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


# the run's facts, which an amplitude prints after ``plan``'s keys but config
RUN_KEYS = ("amplitude", "batch_vars", "contractions", "wall_ms")
PLAN_KEYS = ("fix_vars", "num_subtasks", "post_fix_ordering", "ordering_provenance",
             "est_subtask_cost", "est_total_cost", "base_ordering_cost", "config")


def plan_record(payload: dict) -> dict:
    """An amplitude's output without the run's facts."""
    return {k: v for k, v in payload.items() if k not in RUN_KEYS}


class TestGenerate:
    def test_deterministic_file(self, capsys):
        _, a = run_cli(capsys, "generate", "--rows", "4", "--cols", "4",
                       "--depth", "10", "--seed", "7")
        _, b = run_cli(capsys, "generate", "--rows", "4", "--cols", "4",
                       "--depth", "10", "--seed", "7")
        assert a == b

    def test_depth_zero_is_hadamard_only(self, capsys):
        code, out = run_cli(capsys, "generate", "--rows", "2", "--cols", "3",
                            "--depth", "0")
        assert code == 0
        c = parse_circuit(out)
        assert c.depth == 0
        assert all(g.kind is GateKind.H for g in c.cycles[0])

    def test_8x7_layers_follow_layout_sequence(self, capsys):
        code, out = run_cli(capsys, "generate", "--rows", "8", "--cols", "7",
                            "--depth", "8", "--seed", "0")
        c = parse_circuit(out)
        for k in range(1, 9):
            layer = {g.qubits for g in c.cycles[k] if g.kind is GateKind.CZ}
            assert layer == cz_layer(k, 8, 7)

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "c.txt"
        code, _ = run_cli(capsys, "generate", "--rows", "2", "--cols", "2",
                          "--depth", "4", "-o", str(out_path))
        assert code == 0
        parse_circuit(out_path.read_text())


@pytest.mark.parametrize(
    "argv",
    [
        ["generate", "--rows", "0", "--cols", "3", "--depth", "4"],
        ["generate", "--rows", "2", "--cols", "2", "--depth", "4", "--seed", "-1"],
        ["amplitude", "--rows", "2", "--cols", "2", "--depth", "-3"],
        ["amplitude", "--rows", "2", "--cols", "2", "--depth", "4",
         "--engine-max-rank", "53"],
        ["amplitude", "--rows", "2", "--cols", "2", "--depth", "4",
         "--engine-max-rank", "0"],
        ["bench", "--grids", "a", "--depths", "4"],
        ["bench", "--grids", "2", "--depths", "4", "--percentile", "101"],
        ["fidelity", "--rows", "2", "--cols", "2", "--depth", "4", "--eps", "2"],
        ["fidelity", "--rows", "0", "--cols", "2", "--depth", "4"],
        ["oracle", "--rows", "5", "--cols", "6", "--depth", "4"],
        ["generate", "--rows", "2", "--cols", "2", "--depth", "4", "-o", "{missing}"],
        ["export-dot", "--rows", "2", "--cols", "2", "--depth", "4", "-o", "{missing}"],
        ["bench", "--grids", "2", "--depths", "4", "-o", "{missing}"],
        ["bench", "--grids", "2", "--depths", "4", "--x", "0000"],
        ["bench", "--grids", "2", "--depths", "4", "--samples", "0"],
        ["bench", "--grids", "2", "--depths", "4", "--samples", "-1"],
        ["bench", "--grids", "", "--depths", "4"],
        ["bench", "--grids", "2", "--depths", ","],
        ["fidelity"],
        ["generate", "--rows", "3000", "--cols", "3000", "--depth", "0"],
        ["fidelity", "--rows", "3000", "--cols", "3000", "--depth", "0", "--exact"],
        ["amplitude", "--rows", "20", "--cols", "21", "--depth", "4"],
        ["amplitude", "--rows", "2", "--cols", "2", "--depth", "4", "--order-time", "2"],
        ["plan", "--rows", "2", "--cols", "2", "--depth", "4", "--order-time", "2"],
        ["bench", "--grids", "2", "--depths", "4", "--order-time", "2"],
        ["amplitude", "--rows", "2", "--cols", "2", "--depth", "4", "--format", "csv"],
        ["plan", "--rows", "2", "--cols", "2", "--depth", "4", "--format", "csv"],
        ["bench", "--grids", "2", "--depths", "4", "--format", "csv"],
        ["plan", "--rows", "3", "--cols", "3", "--depth", "8", "--max-rank", "-3"],
        ["plan", "--rows", "1", "--cols", "1", "--depth", "1000000000"],
        ["bench", "--grids", "2", "--depths", "4,1000000000"],
        ["bench", "--grids", "2,21", "--depths", "4"],
        ["bench", "--grids", "2", "--depths", "4", "--max-rank", "-1"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_bad_input_is_one_line_usage_error(capsys, tmp_path, argv):
    missing = str(tmp_path / "no-such-dir" / "out.txt")
    try:
        code = main([a.format(missing=missing) for a in argv])
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


class TestAmplitude:
    def test_json_schema_and_value(self, capsys, ref4q_file):
        code, out = run_cli(capsys, "amplitude", "--circuit", ref4q_file,
                            "--x", "0110")
        assert code == 0
        payload = json.loads(out)
        # the plan record, then the run's facts, then the config
        assert list(payload) == list(PLAN_KEYS[:-1] + RUN_KEYS + PLAN_KEYS[-1:])
        c = parse_circuit(REF4Q_TEXT)
        expected = amplitude_of(c, "0110")
        got = complex(payload["amplitude"]["re"], payload["amplitude"]["im"])
        assert abs(got - expected) < 1e-10
        assert payload["config"]["x"] == "0110"

    def test_identical_bits_across_fix_and_worker_settings(self, capsys, ref4q_file):
        # rank budget is already met with no fixing, so both runs execute
        # the same single subtask
        _, a = run_cli(capsys, "amplitude", "--circuit", ref4q_file,
                       "--fix-max", "0", "--workers", "1")
        _, b = run_cli(capsys, "amplitude", "--circuit", ref4q_file,
                       "--fix-max", "5", "--workers", "8")
        amp_a = json.loads(a)["amplitude"]
        amp_b = json.loads(b)["amplitude"]
        assert amp_a == amp_b

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--workers", "0"),
            ("--workers", str(MAX_WORKERS + 1)),
            ("--fix-max", "-1"),
            ("--order-restarts", "0"),
            ("--circuit", "/nonexistent"),
            ("--x", "01"),
            ("--x", "01 0"),
            pytest.param(None, None, id="no-circuit-source"),
        ],
    )
    def test_bad_flag_is_one_line_usage_error(self, capsys, ref4q_file, flag, value):
        argv = ["amplitude"]
        if flag is not None:
            argv += ["--circuit", ref4q_file, flag, value]
        try:
            code = main(argv)
        except SystemExit as e:
            code = e.code
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        if flag is None:
            assert "--circuit" in lines[0]
        else:
            assert (value if flag == "--circuit" else flag) in lines[0]

    def test_budget_unreachable_error_json(self, capsys, ref4q_file):
        code, out = run_cli(capsys, "amplitude", "--circuit", ref4q_file,
                            "--max-rank", "0", "--fix-max", "0")
        assert code == 1
        payload = json.loads(out)
        assert payload["error"]["type"] == "budget_unreachable"

    def test_non_finite_error_json(self, capsys, ref4q_file, monkeypatch):
        run = cli.run_partitioned

        def overflowed(*args, **kwargs):
            return dataclasses.replace(run(*args, **kwargs), amplitude=complex(math.inf, 0))

        monkeypatch.setattr(cli, "run_partitioned", overflowed)
        code, out = run_cli(capsys, "amplitude", "--circuit", ref4q_file)
        assert code == 1
        payload = json.loads(out)
        assert list(payload) == ["error", "config"]
        assert payload["error"] == {"type": "non_finite", "message": "amplitude is not finite"}

    def test_rank_overflow_error_json(self, capsys, ref4q_file):
        # an unsliced plan, and one of t = 3 whose fixes are all sliced:
        # every slice fails at one step, so the message ends there
        for args in (["--circuit", ref4q_file, "--engine-max-rank", "1"],
                     ["--rows", "4", "--cols", "5", "--depth", "16", "--order-restarts", "2",
                      "--max-rank", "3", "--engine-max-rank", "3"]):
            code, out = run_cli(capsys, "amplitude", *args)
            assert code == 1
            payload = json.loads(out)
            assert payload["error"]["type"] == "rank_overflow"
            assert re.search(r"\(eliminating v\d+ at step \d+\)$", payload["error"]["message"])

    def test_slice_values_past_memory_are_one_error_line(self, capsys):
        # t = 51: the 2^51 slice values (32 PiB) are refused before any slice runs
        code = main(["amplitude", "--rows", "6", "--cols", "6", "--depth", "24",
                     "--max-rank", "1", "--fix-max", "60", "--order-restarts", "1"])
        out, err = capsys.readouterr()
        assert code == 1
        assert out.count("\n") == 1 and err == ""
        assert json.loads(out)["error"]["type"] == "out_of_memory"

    @pytest.mark.parametrize(
        "text, error, named",
        [
            ("1 2\n0 h 0\n0 h 1\n1 t 5\n", QubitBoundsError, (5, 1)),
            ("1 2\n0 h 0\n0 h 1\n2 t 1\n2 h 1\n", CycleConflictError, (1, 2)),
            ("0 2\n0 h 0\n0 h 1\n", CircuitError, None),
            ("1 1\n0 h 0\n1000000000 t 0\n", CircuitParseError, None),
            ("1 401\n0 h 0\n", CircuitError, None),
        ],
        ids=["off-grid", "qubit-twice-in-cycle", "empty-grid", "cycle-past-depth-limit",
             "grid-past-qubit-limit"],
    )
    def test_bad_circuit_file_is_one_line_error(self, capsys, tmp_path, text, error, named):
        with pytest.raises(error) as err:
            parse_circuit(text)
        path = tmp_path / "bad.txt"
        path.write_text(text)
        code = main(["amplitude", "--circuit", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert lines == [f"error: {err.value}"]
        if named:  # the cycle is the first field of the gate's line
            qubit, cycle = named
            assert re.search(rf"\bqubit {qubit}\b.*\bcycle {cycle}\b", lines[0])

    @pytest.mark.parametrize("command", ["amplitude", "plan", "oracle", "fidelity", "export-dot"])
    def test_circuit_file_not_utf8_is_one_line_error(self, capsys, tmp_path, command):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"\xff\xfe\x00bad")
        code = main([command, "--circuit", str(path)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ") and str(path) in lines[0]

    @pytest.mark.parametrize(
        "source",
        [["--circuit", "{ref4q}"],
         ["--rows", "4", "--cols", "5", "--depth", "16", "--max-rank", "4"]],
        ids=["ref4q", "4x5x16-rank4"],
    )
    def test_json_carries_the_plans_facts(self, capsys, ref4q_file, source):
        argv = [a.format(ref4q=ref4q_file) for a in source]
        code, out = run_cli(capsys, "amplitude", *argv)
        assert code == 0
        amp = json.loads(out)
        code, out = run_cli(capsys, "plan", *argv)
        assert code == 0
        assert plan_record(amp) == json.loads(out)

    def test_generated_source(self, capsys):
        code, out = run_cli(capsys, "amplitude", "--rows", "2", "--cols", "2",
                            "--depth", "6", "--seed", "3")
        assert code == 0
        assert "amplitude" in json.loads(out)


def replay_argv(command: str, config: dict) -> list[str]:
    """The command line that the ``config`` of a run's output records."""
    argv = [command]
    for key, value in config.items():
        if value is not None:
            flag = "--seed" if key == "gen_seed" else "--" + key.replace("_", "-")
            argv += [flag, str(value)]
    return argv


def test_runs_replay_from_their_own_config(capsys):
    argv = ["--rows", "4", "--cols", "5", "--depth", "16", "--seed", "1",
            "--x", "01101001011010010110", "--order-restarts", "3",
            "--order-seed", "5", "--max-rank", "4", "--fix-max", "6", "--workers", "2"]
    code, plan = run_cli(capsys, "plan", *argv)
    assert code == 0 and len(json.loads(plan)["fix_vars"]) == 2
    code, replayed = run_cli(capsys, *replay_argv("plan", json.loads(plan)["config"]))
    assert code == 0 and replayed == plan

    code, out = run_cli(capsys, "amplitude", *argv)
    first = json.loads(out)
    assert code == 0 and first["num_subtasks"] == 4
    code, out = run_cli(capsys, *replay_argv("amplitude", first["config"]))
    second = json.loads(out)
    assert code == 0 and second["config"] == first["config"]
    assert second["amplitude"] == first["amplitude"]
    assert plan_record(second) == plan_record(first) == json.loads(plan)


class TestPlanOracleDot:
    def test_plan_schema(self, capsys, ref4q_file):
        code, out = run_cli(capsys, "plan", "--circuit", ref4q_file)
        payload = json.loads(out)
        assert list(payload) == list(PLAN_KEYS)
        assert payload["num_subtasks"] == 1 << len(payload["fix_vars"])
        assert "est_subtask_cost" in payload
        assert "base_ordering_cost" in payload

    def test_plan_meets_its_rank_budget(self, capsys):
        # the post-fix search finds rank 6 here; the plan must keep the
        # rank-5 base ordering instead
        code, out = run_cli(capsys, "plan", "--rows", "4", "--cols", "5",
                            "--depth", "16", "--seed", "2", "--max-rank", "5",
                            "--order-restarts", "2", "--fix-max", "24")
        assert code == 0
        assert json.loads(out)["est_subtask_cost"]["max_rank"] <= 5

    @pytest.mark.parametrize("argv, provenance", [
        (["--rows", "4", "--cols", "5", "--depth", "16", "--max-rank", "3"], "search"),
        (["--rows", "6", "--cols", "6", "--depth", "24", "--max-rank", "10"], "post-fix search"),
    ], ids=["restricted-base-won", "post-fix-search-won"])
    def test_provenance_names_the_winning_ordering(self, capsys, argv, provenance):
        code, out = run_cli(capsys, "plan", *argv, "--order-restarts", "2")
        assert code == 0
        payload = json.loads(out)
        assert payload["fix_vars"] and payload["ordering_provenance"] == provenance

    def test_oracle_matches_amplitude(self, capsys, ref4q_file):
        _, a = run_cli(capsys, "oracle", "--circuit", ref4q_file, "--x", "1010")
        _, b = run_cli(capsys, "amplitude", "--circuit", ref4q_file, "--x", "1010")
        ora = json.loads(a)["amplitude"]
        amp = json.loads(b)["amplitude"]
        assert math.isclose(ora["re"], amp["re"], abs_tol=1e-10)
        assert math.isclose(ora["im"], amp["im"], abs_tol=1e-10)

    def test_export_dot(self, capsys, ref4q_file):
        code, out = run_cli(capsys, "export-dot", "--circuit", ref4q_file)
        assert code == 0
        assert out.startswith("graph model {")
        assert out.count(" -- ") == 12


class TestFidelityCmd:
    def test_defaults(self, capsys):
        code, out = run_cli(capsys, "fidelity", "--rows", "7", "--cols", "7",
                            "--depth", "40")
        payload = json.loads(out)
        assert payload["eps"] == 0.005
        assert abs(payload["alpha_square"] - math.exp(-2.938375)) < 1e-9

    def test_formulas_take_any_grid(self, capsys):
        # without --exact no circuit is made, so the qubit limit does not apply
        code, out = run_cli(capsys, "fidelity", "--rows", "3000", "--cols", "3000",
                            "--depth", "0")
        payload = json.loads(out)
        assert code == 0 and (payload["rows"], payload["cols"]) == (3000, 3000)

    def test_exact_counts(self, capsys):
        code, out = run_cli(capsys, "fidelity", "--rows", "4", "--cols", "4",
                            "--depth", "16", "--exact", "--seed", "5")
        payload = json.loads(out)
        assert payload["g2_exact"] == payload["g2"] == 48

    def test_circuit_file_sets_the_grid(self, capsys, ref4q_file):
        c = parse_circuit(REF4Q_TEXT)
        code, out = run_cli(capsys, "fidelity", "--circuit", ref4q_file)
        payload = json.loads(out)
        assert code == 0
        assert (payload["rows"], payload["cols"], payload["depth"]) == (c.rows, c.cols, c.depth)
        assert (payload["g1_exact"], payload["g2_exact"]) == count_gates(c)


class TestBench:
    def test_single_sample_row(self, capsys):
        code, out = run_cli(capsys, "bench", "--grids", "2", "--depths", "4",
                            "--samples", "1", "--order", "minfill")
        assert code == 0
        header, row = out.strip().splitlines()
        assert header.startswith("n,d,seed,samples,ok,status")
        fields = row.split(",")
        assert fields[:6] == ["2", "4", "0", "1", "1", "ok"]

    def test_percentile_is_order_statistic(self):
        times = [float(t) for t in (9, 1, 8, 3, 7, 4, 6, 5, 2, 10)]
        assert _percentile_ms(times, 80) == 8.0
        assert _percentile_ms(times, 100) == 10.0
        assert _percentile_ms([5.0], 80) == 5.0

    def test_rows_stable_across_runs(self, capsys):
        args = ("bench", "--grids", "2,3", "--depths", "4,6", "--samples", "2",
                "--order", "minfill")
        _, a = run_cli(capsys, *args)
        _, b = run_cli(capsys, *args)

        def strip_timing(text):
            rows = []
            for line in text.strip().splitlines()[1:]:
                f = line.split(",")
                rows.append(f[:6] + f[7:])  # drop percentile_ms
            return rows

        assert strip_timing(a) == strip_timing(b)

    def test_rows_record_the_pipeline_flags(self, capsys):
        flags = {"--order": "minfill", "--order-restarts": "3", "--order-seed": "2",
                 "--fix-max": "0", "--max-rank": "1", "--engine-max-rank": "20",
                 "--workers": "2"}
        code, out = run_cli(capsys, "bench", "--grids", "2,3", "--depths", "4,8",
                            "--samples", "1", *[x for kv in flags.items() for x in kv])
        assert code == 0
        header, *rows = [line.split(",") for line in out.strip().splitlines()]
        assert header[10:] == [f[2:].replace("-", "_") for f in flags]
        assert {r[5] for r in rows} == {"ok", "budget_unreachable"}
        for row in rows:
            assert len(row) == 17
            assert row[10:] == list(flags.values())

    def test_failure_rows(self, capsys):
        code, out = run_cli(capsys, "bench", "--grids", "3", "--depths", "8",
                            "--samples", "2", "--order", "minfill",
                            "--max-rank", "0", "--fix-max", "0")
        assert code == 0
        rows = out.strip().splitlines()[1:]
        assert all("budget_unreachable" in r for r in rows)

    def test_slice_values_that_cannot_be_held_are_a_failure_row(self, capsys):
        # rank budget 1 fixes t = 51 variables: the fan-out's 2^51 slice
        # values are refused, and the sweep writes that sample's row
        code, out = run_cli(capsys, "bench", "--grids", "6", "--depths", "24", "--samples", "1",
                            "--max-rank", "1", "--fix-max", "60", "--order-restarts", "1")
        assert code == 0
        header, row = out.strip().splitlines()
        assert row.split(",")[:6] == ["6", "24", "0", "1", "0", "out_of_memory"]

    def test_non_finite_amplitude_is_a_failure_row(self, capsys, monkeypatch):
        run = cli.run_partitioned

        def overflowed(*args, **kwargs):
            return dataclasses.replace(run(*args, **kwargs), amplitude=complex(math.nan, 0))

        monkeypatch.setattr(cli, "run_partitioned", overflowed)
        code, out = run_cli(capsys, "bench", "--grids", "2", "--depths", "4", "--samples", "1")
        assert code == 0
        assert out.strip().splitlines()[1].split(",")[:6] == ["2", "4", "0", "1", "0", "non_finite"]


@pytest.mark.parametrize("preset, expected", [(None, "1"), ("3", "3")])
def test_numpy_loads_with_one_blas_thread_unless_set(preset, expected):
    # BLAS reads its thread count when numpy loads; importing gridamp first
    # (as the CLI does) must set it to 1, and keep a count already set
    blas = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in blas}
    env["PYTHONPATH"] = str(Path(gridamp.__file__).resolve().parents[1])
    if preset:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = (
        "import os, sys\n"
        "class Probe:\n"
        "    def find_spec(self, name, *args):\n"
        "        if name == 'numpy':\n"
        "            print(*(os.environ.get(v) for v in %r))\n"
        "sys.meta_path.insert(0, Probe())\n"
        "import gridamp\n" % (blas,)
    )
    run = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["1", expected, "1"]
