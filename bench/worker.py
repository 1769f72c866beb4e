"""One phase of a benchmark run, in a fresh interpreter.

    python3 bench/worker.py setup --workload W --seed N --inputs DIR [--size full|smoke] [--trace FILE]
    python3 bench/worker.py run --inputs DIR --seconds S [--trace FILE] --result FILE

``setup`` imports ``fixfunc.cli`` and materializes the workload's inputs; the
caller times the whole process, interpreter start included.  ``run`` executes
the solve commands in a closed loop (one command at a time, each output in a
fresh directory) until ``--seconds`` have passed, at least once (``--seconds
0`` makes exactly one pass), and writes per-command CPU and wall times, exit
codes, error texts, output sizes and the process's peak resident memory to
``--result``, with the speed probes taken before, during and after each
command (see ``speed.py``; none in a traced pass).  A command that raises
counts as exit code 1, as it would for the console script.  With
``--trace`` every public callable of ``fixfunc`` records spans, which are
written to FILE at the end.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def setup(args) -> int:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer("setup")
        tracing.instrument(tracer)
        tracer.current_request = 0
    from fixfunc import cli

    plan = workloads.materialize(args.workload, args.seed, args.size, Path(args.inputs), cli.main)
    plan["workload"] = args.workload
    (Path(args.inputs) / "plan.json").write_text(json.dumps(plan, indent=1) + "\n")
    if tracer:
        tracer.dump(Path(args.trace))
    return 0


def run(args) -> int:
    tracer = None
    if args.trace:
        tracer = tracing.Tracer("run")
        tracing.instrument(tracer)
    from fixfunc import cli

    inputs = Path(args.inputs)
    plan = json.loads((inputs / "plan.json").read_text())
    reps = []
    began = time.perf_counter()
    while True:
        rep = len(reps)
        wall, cpu, probes, codes, errors, sizes, outs = [], [], [], [], [], [], []
        for k, template in enumerate(plan["commands"]):
            out = inputs / "out" / f"rep{rep:03d}" / f"cmd{k}"
            argv = [a.replace("{out}", str(out)) for a in template]
            gc.collect()
            if tracer:
                tracer.current_request = rep * len(plan["commands"]) + k
            with speed.Sampler(probing=tracer is None) as timer:
                # a command that raises is a failed command, not a fault of the harness
                try:
                    rc, error = cli.main(argv), None
                except Exception as exc:
                    rc, error = 1, f"{type(exc).__name__}: {exc}"
            cpu.append(timer.cpu_s)
            wall.append(timer.wall_s)
            probes.append(timer.probes)
            codes.append(rc)
            errors.append(error)
            sizes.append(_dir_bytes(out) if out.exists() else 0)
            outs.append(str(out))
        reps.append({"cpu": cpu, "wall": wall, "probes": probes, "codes": codes, "errors": errors, "out_bytes": sizes, "outs": outs})
        if time.perf_counter() - began >= args.seconds:
            break
    if tracer:
        tracer.dump(Path(args.trace))
    result = {
        "reps": reps,
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(args.result).write_text(json.dumps(result) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="phase", required=True)
    p = sub.add_parser("setup")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--inputs", required=True)
    p.add_argument("--size", default="full", choices=sorted(workloads.SIZES))
    p.add_argument("--trace")
    p = sub.add_parser("run")
    p.add_argument("--inputs", required=True)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace")
    p.add_argument("--result", required=True)
    args = parser.parse_args(argv)
    return setup(args) if args.phase == "setup" else run(args)


if __name__ == "__main__":
    sys.exit(main())
