"""Benchmark of the ``fixfunc`` command line over three workloads.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--size full|smoke]
    python3 bench/run.py --workload all ...

Run from the repository root; the program is imported from ``src/``.  The
driver is a closed loop with one client: one command runs at a time, in a
single worker process, and the driver waits for it.

Workloads (see ``workloads.py`` and ``BENCHMARK.json`` for why each exists):

* ``fmo-2d-split``: ``fixfunc phantom`` on the 60x40 stress phantom and the
  25th-percentile tau (setup), then ``fixfunc fmo``.
* ``iterate-grid-1e6``: ``fixfunc iterate --format csv``, banach mode,
  y -> s + y/2 on a 10^6-point trapezoid grid, ``grid_l1`` trace.
* ``alpha-verify-3k``: ``fixfunc iterate`` in alpha_psi mode on 3001
  points, then ``fixfunc verify`` with all seven check kinds.

With ``--trace 0`` a run times setup several times, each in a fresh
interpreter that imports ``fixfunc.cli`` and materializes the inputs, then
runs the solve commands for ``--seconds`` (at least once) and reports:

* ``setup_s``: median normalized CPU time of one setup process [s];
* ``run_s``: for each solve command, the median of its normalized CPU time
  over the passes; summed over the commands [s];
* ``peak_rss_mb``: peak resident memory of the process that ran them [MB];
* ``fail_ratio``: commands that exited non-zero or failed their output
  check over commands attempted (also the ``failed``/``attempted`` fields).

Times are CPU time (user + system) of the single-threaded process that did
the work, which on an idle host equals its wall time; the wall clock of a
shared virtual host also counts time the hypervisor gave the CPU to other
guests.  Other guests also slow the CPU itself, by 20 to 50 % for seconds to
minutes, so each time is normalized: divided by the host's slowdown, the
mean time of a fixed speed probe (``speed.py``) taken before, during and
after it, over the probe's reference time.  Over twelve 20-second runs of
``alpha-verify-3k`` on a 2-CPU host whose speed drifted, the fastest pass's
raw CPU time spread by 0.29 (interquartile range over median) and
``run_s`` by 0.03.  The unnormalized CPU and wall-clock figures and
the slowdown are printed alongside.

With ``--trace 1`` a run sets up once (traced) and runs the commands once,
traced; spans are written to ``.bench_work/trace/<workload>-seed<N>/`` and
the per-layer metrics are reported, including the tracing overhead: the
traced pass's CPU time minus that of an untraced pass in the same run (see
``bench_traced``), neither normalized.  Human-readable lines come first; the last line of
standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import speed  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
SETUP_REPEATS = 11
# speed probes taken just before and just after each setup process
PROBES_PER_SIDE = 2
# which sample of a run each end-to-end metric reports
REPORTED = {"setup_s": "median", "run_s": "sum of each command's median", "peak_rss_mb": "peak"}
# every run must end within 180 s; leave room for the output checks
DEADLINE_S = 165.0

WORK = ROOT / ".bench_work"


class BenchError(RuntimeError):
    """The benchmark could not run; no result is printed."""


class OutOfTime(BenchError):
    """A worker could not finish before the run's deadline."""


def _worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    # one client, one thread: keep BLAS pools from adding threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _cpu_of_children() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _worker(args: list[str], deadline: float) -> tuple[float, float]:
    """Run ``worker.py`` with ``args``; return its CPU and wall time in seconds."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise OutOfTime("out of time before the next worker could start")
    c0, w0 = _cpu_of_children(), time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), *args],
            env=_worker_env(),
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        raise OutOfTime(f"worker {args[0]} passed the {DEADLINE_S:g} s deadline") from None
    cpu, wall = _cpu_of_children() - c0, time.perf_counter() - w0
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return cpu, wall


def _high_percentile(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (1.0 - 10.0 / n), sorted(values)[n - 11]


def _check_outputs(plan: dict, result: dict) -> tuple[int, int, list[str], dict]:
    """Apply the oracle to every command output; returns counts, reasons, oracle numbers."""
    attempted = failed = 0
    reasons: list[str] = []
    measured: dict[str, list[float]] = {}
    for rep in result["reps"]:
        for kind, code, error, out in zip(plan["checks"], rep["codes"], rep["errors"], rep["outs"]):
            attempted += 1
            problems = [] if code == 0 else [f"exit code {code}"]
            if error:
                problems.append(f"raised {error}")
            try:
                found, numbers = workloads.CHECKS[kind](Path(out), plan["expect"])
            except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
                found, numbers = [f"output unreadable: {exc!r}"], {}
            problems += found
            for key, value in numbers.items():
                measured.setdefault(key, []).append(value)
            if problems:
                failed += 1
                reasons.append(f"{kind} ({out}): " + "; ".join(problems))
    return attempted, failed, reasons, measured


def _run_pass(run_dir: Path, seconds: float, deadline: float, trace: Path | None) -> dict:
    inputs = run_dir / "inputs"
    shutil.rmtree(inputs / "out", ignore_errors=True)
    result_path = run_dir / "result.json"
    args = ["run", "--inputs", str(inputs), "--seconds", str(seconds), "--result", str(result_path)]
    if trace:
        args += ["--trace", str(trace)]
    _worker(args, deadline)
    return json.loads(result_path.read_text())


def _setup(workload, seed, size, run_dir: Path, deadline: float, trace: Path | None) -> tuple[float, float]:
    inputs = run_dir / "inputs"
    shutil.rmtree(inputs, ignore_errors=True)
    args = ["setup", "--workload", workload, "--seed", str(seed), "--inputs", str(inputs), "--size", size]
    if trace:
        args += ["--trace", str(trace)]
    return _worker(args, deadline)


def bench_untraced(workload, seed, seconds, size, run_dir, deadline) -> dict:
    setup_cpu, setup_wall, setup_norm = [], [], []
    for _ in range(SETUP_REPEATS):
        probes = [speed.probe() for _ in range(PROBES_PER_SIDE)]
        cpu, wall = _setup(workload, seed, size, run_dir, deadline, None)
        probes += [speed.probe() for _ in range(PROBES_PER_SIDE)]
        setup_cpu.append(cpu)
        setup_wall.append(wall)
        setup_norm.append(cpu / speed.slowdown(probes))
    plan = json.loads((run_dir / "inputs" / "plan.json").read_text())
    result = _run_pass(run_dir, seconds, deadline, None)
    attempted, failed, reasons, _ = _check_outputs(plan, result)
    reps = result["reps"]
    # each command's CPU time at the reference speed, per pass
    norm = [[cpu / speed.slowdown(probes) for cpu, probes in zip(rep["cpu"], rep["probes"])] for rep in reps]
    run_s = sum(statistics.median(column) for column in zip(*norm))
    return {
        "samples": {"setup_s": setup_norm, "run_s": [sum(row) for row in norm], "peak_rss_mb": [result["peak_rss_mb"]]},
        "raw": {
            "setup_s": {"cpu": setup_cpu, "wall": setup_wall},
            "run_s": {"cpu": [sum(rep["cpu"]) for rep in reps], "wall": [sum(rep["wall"]) for rep in reps]},
        },
        "slowdown": speed.slowdown([p for rep in reps for probes in rep["probes"] for p in probes]),
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "metrics": {"setup_s": statistics.median(setup_norm), "run_s": run_s, "peak_rss_mb": result["peak_rss_mb"]},
    }


def bench_traced(workload, seed, seconds, size, run_dir, deadline) -> dict:
    """One traced pass; the overhead is measured against untraced run_s.

    A traced run makes exactly one pass, whatever ``seconds`` says.  The
    untraced figure comes from one untraced pass over the same inputs in
    this run.  When that pass cannot finish before the deadline, it is
    stopped and the figure is the traced pass's time minus the time its
    tracing wrappers took.
    """
    import tracing

    trace_dir = WORK / "trace" / f"{workload}-seed{seed}"
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    _setup(workload, seed, size, run_dir, deadline, trace_dir / "setup")
    plan = json.loads((run_dir / "inputs" / "plan.json").read_text())
    traced = _run_pass(run_dir, 0, deadline, trace_dir / "run")
    attempted, failed, reasons, measured = _check_outputs(plan, traced)
    traced_s = sum(traced["reps"][0]["cpu"])
    spans, names, counters = tracing.load_spans([trace_dir / "setup", trace_dir / "run"])
    metrics = tracing.layer_metrics(spans, names, counters)

    try:
        plain = _run_pass(run_dir, 0, deadline, None)
    except OutOfTime:
        plain = None
    if plain:
        more = _check_outputs(plan, plain)
        attempted, failed, reasons = attempted + more[0], failed + more[1], reasons + more[2]
        untraced_s = sum(plain["reps"][0]["cpu"])
        baseline = "one untraced pass in this run"
    else:
        run_meta = json.loads((trace_dir / "run.json").read_text())
        untraced_s = traced_s - run_meta["counters"]["trace.wrapper_s"]
        baseline = "traced run_s minus the run phase's wrapper time (no time left for an untraced pass)"

    excess = [v for v in measured.get("fmo.oracle_rel_excess", []) if v == v]
    metrics["fmo.oracle_rel_excess"] = max(excess) if excess else 0.0
    metrics["cli.report_bytes"] = sum(sum(rep["out_bytes"]) for rep in traced["reps"])
    metrics["trace.untraced_run_s"] = untraced_s
    metrics["trace.run_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    summary = {"metrics": metrics, "untraced_baseline": baseline}
    (trace_dir / "layers.json").write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return {
        "attempted": attempted,
        "failed": failed,
        "reasons": reasons,
        "metrics": metrics,
        "trace_dir": trace_dir,
        "baseline": baseline,
    }


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_workload(workload: str, seed: int, seconds: float, trace: bool, size: str, deadline: float) -> dict:
    run_dir = WORK / f"{workload}-seed{seed}-pid{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        bench = bench_traced if trace else bench_untraced
        return bench(workload, seed, seconds, size, run_dir, deadline)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def report_lines(workload: str, outcome: dict, spec: dict, trace: bool) -> list[str]:
    lines = []
    if trace:
        for m in spec["per_layer"]:
            lines.append(f"{workload} {m['name']} = {outcome['metrics'][m['name']]:.6g} {m['unit']}")
        lines.append(f"{workload} trace.untraced_run_s is the {outcome['baseline']}")
        lines.append(f"{workload} spans written to {outcome['trace_dir']}")
    else:
        for m in spec["end_to_end"]:
            samples = outcome["samples"][m["name"]]
            line = f"{workload} {m['name']} = {outcome['metrics'][m['name']]:.6g} {m['unit']} ({REPORTED[m['name']]} of n={len(samples)})"
            high = _high_percentile(samples)
            if high:
                line += f", p{high[0]:g} = {high[1]:.6g} {m['unit']}"
            raw = outcome["raw"].get(m["name"])
            if raw:
                line += (
                    f"; unnormalized: CPU {min(raw['cpu']):.6g} s fastest, {statistics.median(raw['cpu']):.6g} s median,"
                    f" wall clock {statistics.median(raw['wall']):.6g} s median"
                )
            lines.append(line)
        lines.append(f"{workload} host slowdown = {outcome['slowdown']:.4g} (mean probe time over {speed.REFERENCE_S:g} s)")
    ratio = outcome["failed"] / outcome["attempted"]
    lines.append(
        f"{workload} fail_ratio = {ratio:g} ({outcome['failed']}/{outcome['attempted']} commands, n={outcome['attempted']})"
    )
    lines += [f"{workload} FAILED {reason}" for reason in outcome["reasons"]]
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark of the fixfunc command line.")
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="measuring time per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full", help="smoke: tiny inputs")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if not (ROOT / "src" / "fixfunc" / "cli.py").is_file():
            raise BenchError(f"no fixfunc source under {ROOT / 'src'}")
        spec = _spec()
        seconds = float(spec["run_seconds"] if args.seconds is None else args.seconds)
        names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
        if len(names) > 1:
            deadline = time.monotonic() + DEADLINE_S * len(names)
        outcomes = {w: run_workload(w, args.seed, seconds, bool(args.trace), args.size, deadline) for w in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for w, outcome in outcomes.items():
        for line in report_lines(w, outcome, spec, bool(args.trace)):
            print(line)
    key = "per_layer" if args.trace else "end_to_end"
    attempted = sum(o["attempted"] for o in outcomes.values())
    failed = sum(o["failed"] for o in outcomes.values())

    def metric_block(outcome):
        return {m["name"]: {"value": outcome["metrics"][m["name"]], "unit": m["unit"]} for m in spec[key]}

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed}
    if len(names) == 1:
        result["metrics"] = metric_block(outcomes[names[0]])
    else:
        result["metrics"] = {
            f"{w}/{name}": value for w, o in outcomes.items() for name, value in metric_block(o).items()
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
