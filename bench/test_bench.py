"""Tests of the benchmark harness itself, on the smoke-size workloads.

    python3 -m pytest bench/test_bench.py -q

Each output check must accept the program's real output and reject a
corrupted copy of it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from fixfunc import cli  # noqa: E402


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def produced(request, tmp_path_factory):
    """Smoke-size inputs and one output directory per command."""
    base = tmp_path_factory.mktemp(request.param)
    plan = workloads.materialize(request.param, 3, "smoke", base / "inputs", cli.main)
    outs = []
    for k, template in enumerate(plan["commands"]):
        out = base / f"cmd{k}"
        assert cli.main([a.replace("{out}", str(out)) for a in template]) == 0
        outs.append(out)
    return plan, outs


def _copy(out: Path, tmp_path: Path) -> Path:
    dst = tmp_path / out.name
    shutil.copytree(out, dst)
    return dst


def _edit_json(path: Path, edit) -> None:
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(json.dumps(obj))


def test_real_outputs_pass(produced):
    plan, outs = produced
    for kind, out in zip(plan["checks"], outs):
        failures, _ = workloads.CHECKS[kind](out, plan["expect"])
        assert failures == [], failures


def _corruptions(kind):
    """(file, edit) pairs, each of which must make the check fail."""

    def set_path(keys, value):
        def edit(obj):
            for key in keys[:-1]:
                obj = obj[key]
            obj[keys[-1]] = value
        return edit

    def scale_first(keys, factor):
        def edit(obj):
            for key in keys:
                obj = obj[key]
            obj[0] = obj[0] * factor + 1e-3
        return edit

    def scale_all(keys, factor):
        def edit(obj):
            for key in keys[:-1]:
                obj = obj[key]
            obj[keys[-1]] = [v * factor for v in obj[keys[-1]]]
        return edit

    if kind == "fmo":
        return [
            ("fmo_report.json", scale_all(["report", "fluence"], 1.3)),
            ("fmo_report.json", set_path(["report", "fluence", 0], -1.0)),
            ("fmo_report.json", set_path(["report", "reference_gap"], 0.5)),
        ]
    if kind == "iterate_banach":
        return [
            ("iteration_report.json", scale_first(["report", "final", "values"], 1.0)),
            ("iteration_report.json", set_path(["report", "converged"], False)),
            ("iteration_report.json", set_path(["report", "iterations"], 3)),
        ]
    if kind == "iterate_alpha":
        return [
            ("iteration_report.json", scale_first(["report", "final", "values"], 1.0)),
            ("iteration_report.json", set_path(["report", "alpha_chain_held"], False)),
            ("iteration_report.json", set_path(["report", "psi_bound_ok"], None)),
        ]
    return [
        ("verify_report.json", set_path(["all_satisfied"], False)),
        ("verify_report.json", set_path(["results", 2, "satisfied"], False)),
        ("verify_report.json", lambda obj: obj["results"].pop()),
    ]


def test_corrupted_outputs_fail(produced, tmp_path):
    plan, outs = produced
    for kind, out in zip(plan["checks"], outs):
        for i, (name, edit) in enumerate(_corruptions(kind)):
            bad = _copy(out, tmp_path / f"{kind}{i}")
            _edit_json(bad / name, edit)
            failures, _ = workloads.CHECKS[kind](bad, plan["expect"])
            assert failures, f"{kind} corruption {i} was accepted"


def test_missing_trace_row_fails(tmp_path):
    plan = workloads.materialize(workloads.ITERATE, 5, "smoke", tmp_path / "inputs", cli.main)
    out = tmp_path / "out"
    assert cli.main([a.replace("{out}", str(out)) for a in plan["commands"][0]]) == 0
    lines = (out / "trace.csv").read_text().splitlines(keepends=True)
    (out / "trace.csv").write_text("".join(lines[:-1]))
    failures, _ = workloads.check_iterate_banach(out, plan["expect"])
    assert any("trace.csv" in f for f in failures)


def test_raising_command_counts_as_failed(tmp_path, monkeypatch):
    inputs = tmp_path / "inputs"
    assert worker.main(["setup", "--workload", workloads.ALPHA, "--seed", "1", "--inputs", str(inputs), "--size", "smoke"]) == 0
    plan = json.loads((inputs / "plan.json").read_text())
    assert [c[0] for c in plan["commands"]] == ["iterate", "verify"]
    real_main = cli.main

    def crash_first(argv):
        if argv[0] == "iterate":
            raise ValueError("boom")
        return real_main(argv)

    monkeypatch.setattr(cli, "main", crash_first)
    result_path = tmp_path / "result.json"
    assert worker.main(["run", "--inputs", str(inputs), "--seconds", "0", "--result", str(result_path)]) == 0
    result = json.loads(result_path.read_text())
    assert len(result["reps"]) == 1
    attempted, failed, reasons, _ = run._check_outputs(plan, result)
    assert (attempted, failed) == (len(plan["commands"]), 1)
    assert "raised ValueError: boom" in reasons[0]


def test_traced_overhead_falls_back_to_run_phase_wrapper_time(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    real_pass = run._run_pass

    def untraced_out_of_time(run_dir, seconds, deadline, trace):
        if trace is None:
            raise run.OutOfTime("no time left")
        return real_pass(run_dir, seconds, deadline, trace)

    monkeypatch.setattr(run, "_run_pass", untraced_out_of_time)
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    outcome = run.bench_traced(workloads.ALPHA, 1, 0, "smoke", run_dir, run.time.monotonic() + 120)
    assert outcome["failed"] == 0
    trace_dir = outcome["trace_dir"]
    run_wrapper_s = json.loads((trace_dir / "run.json").read_text())["counters"]["trace.wrapper_s"]
    setup_wrapper_s = json.loads((trace_dir / "setup.json").read_text())["counters"]["trace.wrapper_s"]
    m = outcome["metrics"]
    assert m["trace.wrapper_s"] == pytest.approx(run_wrapper_s + setup_wrapper_s)
    assert m["trace.overhead_s"] == pytest.approx(run_wrapper_s)
    assert "wrapper time" in outcome["baseline"]


def test_sampler_takes_its_probes_out_of_the_block_time():
    with speed.Sampler() as timer:
        t0 = time.process_time()
        while time.process_time() - t0 < 1.5 * speed.INTERVAL_S:
            pass
        busy = time.process_time() - t0
    # one probe before, at least one during, one after
    assert len(timer.probes) >= 3
    assert timer.cpu_s == pytest.approx(busy - sum(timer.probes[1:-1]), abs=0.02)
    with speed.Sampler(probing=False) as timer:
        pass
    assert timer.probes == [] and timer.cpu_s >= 0


def test_same_seed_same_inputs(tmp_path):
    for w in workloads.WORKLOADS:
        a = workloads.materialize(w, 11, "smoke", tmp_path / w / "a", cli.main)
        b = workloads.materialize(w, 11, "smoke", tmp_path / w / "b", cli.main)
        for name in sorted(p.name for p in (tmp_path / w / "a").iterdir()):
            assert (tmp_path / w / "a" / name).read_bytes() == (tmp_path / w / "b" / name).read_bytes()
        assert a["expect"].keys() == b["expect"].keys()


def test_self_time_subtracts_direct_children():
    # 0 [0, 10) has children 1 [1, 4) and 2 [5, 9); 3 [2, 3) is a grandchild
    spans = {
        "name_id": np.array([0, 1, 1, 2]),
        "parent": np.array([-1, 0, 0, 1]),
        "start": np.array([0, 1, 5, 2]),
        "end": np.array([10, 4, 9, 3]),
    }
    assert tracing._self_ns(spans).tolist() == [3, 2, 4, 1]
    assert tracing._has_ancestor_in(spans, np.array([False, True, False, False])).tolist() == [
        False, False, False, True,
    ]


def test_instrument_rebinds_every_binding():
    code = """
import fixfunc.function_space as fs, fixfunc.iteration as it, fixfunc.cli as cli, fixfunc
import tracing
n = tracing.instrument(tracing.Tracer("run"))
assert n > 50, n
assert it.uniform_distance is fs.uniform_distance is fixfunc.uniform_distance
assert hasattr(it.uniform_distance, "__wrapped__")
assert all(hasattr(f, "__wrapped__") for f in fs._DISPATCH.values())
assert hasattr(cli.fmo_mod.fmo_solve, "__wrapped__")
assert hasattr(fs.Domain.uniform_grid.__func__, "__wrapped__")
"""
    env = {"PYTHONPATH": f"{ROOT / 'src'}:{BENCH}", "PATH": "/usr/bin:/bin"}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_harness_fails_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workloads.ALPHA, "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
