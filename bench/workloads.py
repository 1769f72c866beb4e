"""Workload definitions: inputs made from a seed, and oracles for the outputs.

Every workload is a list of ``fixfunc`` CLI commands.  ``materialize`` writes
the generated configs (and, for the planning workload, runs ``fixfunc
phantom`` and picks tau); the program only ever sees those files.  Each
``check_*`` function returns a list of failure reasons for one command's
output, empty when the output is correct, plus any numbers the oracle
measured on the way.
"""

from __future__ import annotations

import csv
import json
import math
import random
from pathlib import Path

import numpy as np

FMO = "fmo-2d-split"
ITERATE = "iterate-grid-1e6"
ALPHA = "alpha-verify-3k"
# ITERATE takes about 40 s a run on a 2-CPU machine; with FMO at 60 to 90 s
# the three together do not fit the benchmark's time budget, so BENCHMARK.json
# lists only FMO and ALPHA.  ITERATE stays runnable by name.
WORKLOADS = (FMO, ITERATE, ALPHA)

# The stress phantom from the roadmap: 60x40 voxels, 30 beamlets, about
# 32,000 nonzeros.  Every inner solve on it stops at the 20,000-iteration
# cap, so its run time is proportional to the number of outer rounds, and
# that number moves with the amplitude jitter (15 to 23 rounds over jitter
# seeds 0 to 20).  The benchmark seed therefore picks the jitter seed from
# this pool, screened to 17 outer rounds each, so that a run's work does not
# depend on which seed is passed.  Every pool member still hits the cap.
FMO_JITTER_SEEDS = (6, 10)
FMO_SPEC = {
    "grid": [60, 40],
    "n_beamlets": 30,
    "kernel_width": 3.0,
    "ptv_region": [20, 40, 10, 30],
    "prescription_ptv": 60.0,
    "cap_oar": 20.0,
}
FMO_GAP_BOUND = 1e-2
TAU_PERCENTILE = 25.0

# Sizes of the full workloads and of the smoke mode used by the tests.
SIZES = {
    "full": {"grid": (60, 40), "iterate_n": 1_000_000, "alpha_n": 3001, "table_n": 1001},
    "smoke": {"grid": (100,), "iterate_n": 1001, "alpha_n": 101, "table_n": 51},
}

ITERATE_TOL = 1e-9
ALPHA_TOL = 1e-9
FINAL_TOL = 1e-8


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write(path: Path, obj: dict) -> None:
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# inputs


def materialize(workload: str, seed: int, size: str, inputs: Path, cli_main) -> dict:
    """Write the workload's inputs under ``inputs``; return its plan.

    The plan lists the solve commands (``argv`` for ``fixfunc.cli.main``,
    with ``{out}`` standing for each command's output directory), the check
    that applies to each, and the expectations the oracles need.  ``cli_main`` is
    ``fixfunc.cli.main``, used to run ``fixfunc phantom`` in setup.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    dims = SIZES[size]
    if workload == FMO:
        return _materialize_fmo(seed, dims, inputs, cli_main)
    if workload == ITERATE:
        return _materialize_iterate(seed, dims, inputs)
    if workload == ALPHA:
        return _materialize_alpha(seed, dims, inputs)
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


def _materialize_fmo(seed, dims, inputs: Path, cli_main) -> dict:
    spec = dict(FMO_SPEC)
    if len(dims["grid"]) == 1:
        spec.update(grid=list(dims["grid"]), n_beamlets=10, ptv_region=[40, 60])
    jitter_seed = FMO_JITTER_SEEDS[seed % len(FMO_JITTER_SEEDS)]
    _write(inputs / "spec.json", spec)
    argv = ["phantom", "--config", str(inputs / "spec.json"), "--out", str(inputs), "--seed", str(jitter_seed)]
    rc = cli_main(argv)
    if rc != 0:
        raise RuntimeError(f"fixfunc phantom exited {rc}")
    coeffs = np.loadtxt(inputs / "phantom_matrix.csv", delimiter=",", skiprows=2, usecols=2, ndmin=1)
    problem_path = inputs / "phantom_problem.json"
    problem = json.loads(problem_path.read_text(encoding="utf-8"))
    problem["tau"] = float(np.percentile(coeffs, TAU_PERCENTILE))
    problem["gap_bound"] = FMO_GAP_BOUND
    _write(problem_path, problem)
    return {
        "commands": [["fmo", "--config", str(problem_path), "--out", "{out}"]],
        "checks": ["fmo"],
        "expect": {"matrix": str(inputs / "phantom_matrix.csv")},
    }


def _materialize_iterate(seed, dims, inputs: Path) -> dict:
    # s in [0.3, 0.45] keeps the step count fixed: the first step is s and
    # each step halves it, so log2(s / tol) never crosses an integer
    s = _rng(ITERATE, seed).uniform(0.3, 0.45)
    config = {
        "schema_version": 1,
        "mode": "banach",
        "operator": {"kind": "affine", "scale": 0.5, "shift": s},
        "f0": {
            "grid": {"start": 0.0, "stop": 1.0, "n": dims["iterate_n"], "weights": "trapezoid"},
            "init": "coordinate",
        },
        "metric": "grid_l1",
        "tol": ITERATE_TOL,
        "max_iters": 200,
        "lambda_hint": 0.5,
    }
    path = inputs / "iterate.json"
    _write(path, config)
    return {
        "commands": [["iterate", "--config", str(path), "--out", "{out}", "--format", "csv"]],
        "checks": ["iterate_banach"],
        "expect": {"fixed_value": 2.0 * s, "n": dims["iterate_n"]},
    }


def _materialize_alpha(seed, dims, inputs: Path) -> dict:
    rng = _rng(ALPHA, seed)
    # start f0(x) = x on [0, top]; y -> y/2 needs 31 steps for every top in
    # [1.1, 1.9] at tol 1e-9, so the work does not depend on the seed
    top = rng.uniform(1.1, 1.9)
    level = rng.uniform(0.2, 0.9)
    n, n_table = dims["alpha_n"], dims["table_n"]
    halve = {"kind": "affine", "scale": 0.5, "shift": 0.0}
    window = {"kind": "window", "arg": "first", "lower": 0.0, "upper": 4.0, "inside": 1.0, "outside": 0.0}
    psi = {"kind": "linear", "c": 0.5}

    def ramp(hi, points=n):
        return {"grid": {"start": 0.0, "stop": hi, "n": points}, "init": "coordinate"}

    def flat(value, hi, points=n):
        return {"grid": {"start": 0.0, "stop": hi, "n": points}, "init": {"constant": value}}

    pairs = [[ramp(top), flat(level, top)]]
    iterate_cfg = {
        "schema_version": 1,
        "mode": "alpha_psi",
        "operator": halve,
        "alpha": window,
        "psi": psi,
        "f0": ramp(top),
        "metric": "uniform",
        "tol": ALPHA_TOL,
        "max_iters": 200,
        "lambda_hint": 0.5,
    }
    verify_cfg = {
        "schema_version": 1,
        "checks": [
            {"name": "contraction", "check": "contraction", "operator": halve, "metric": "uniform", "pairs": pairs},
            {"name": "reich", "check": "reich", "operator": halve, "metric": "uniform",
             "a": 0.0, "b": 0.0, "c": 0.6, "pairs": pairs},
            {"name": "admissible_window", "check": "alpha_admissible", "operator": halve, "alpha": window,
             "pairs": pairs},
            {"name": "alpha_psi", "check": "alpha_psi", "operator": halve, "alpha": window, "psi": psi,
             "metric": "uniform", "pairs": pairs},
            {"name": "psi_family", "check": "psi_family", "psi": psi, "t_samples": [0.1, 1.0, top]},
            {"name": "metric_axioms", "check": "metric_axioms", "metric": "uniform",
             "functions": [ramp(top), flat(level, top), flat(top / 2.0, top)]},
            {"name": "hypothesis_h", "check": "hypothesis_h", "alpha": window,
             "candidates": [ramp(top), flat(level, top)], "pool": [flat(level, top), ramp(top)]},
            # table weights are looked up per value pair in Python, so this
            # pair is smaller; the default weight 1 activates the implication
            {"name": "admissible_table", "check": "alpha_admissible", "operator": halve,
             "alpha": {"kind": "table", "entries": [[top, level, 2.0]], "default": 1.0},
             "pairs": [[ramp(top, n_table), flat(level, top, n_table)]]},
        ],
    }
    it_path, ver_path = inputs / "alpha_iterate.json", inputs / "verify.json"
    _write(it_path, iterate_cfg)
    _write(ver_path, verify_cfg)
    return {
        "commands": [
            ["iterate", "--config", str(it_path), "--out", "{out}"],
            ["verify", "--config", str(ver_path), "--out", "{out}"],
        ],
        "checks": ["iterate_alpha", "verify"],
        "expect": {"n": n, "checks": [c["name"] for c in verify_cfg["checks"]]},
    }


# ---------------------------------------------------------------------------
# oracles


def _load(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_fmo(out: Path, expect: dict) -> tuple[list[str], dict]:
    """Fluence finite and nonnegative, gap within bound, objective near NNLS.

    The reference is ``scipy.optimize.nnls`` on the dense matrix, the same
    oracle the unit tests use.
    """
    from scipy.optimize import nnls

    payload = _load(out / "fmo_report.json")
    report = payload["report"]
    bound = float(payload["gap_bound"])
    failures = []
    x = np.asarray(report["fluence"], dtype=float)
    if x.size == 0 or not np.all(np.isfinite(x)):
        failures.append("fluence has non-finite entries")
    elif x.min() < 0:
        failures.append(f"fluence has a negative entry {x.min():g}")
    if not report["reference_gap"] <= bound:
        failures.append(f"reference_gap {report['reference_gap']:g} exceeds gap_bound {bound:g}")

    matrix = Path(expect["matrix"])
    with open(matrix, "r", encoding="utf-8") as fh:
        header = fh.readline()
    dims = dict(part.split("=") for part in header.strip("# \n").split())
    n_vox, n_beam = int(dims["voxels"]), int(dims["beamlets"])
    trip = np.loadtxt(matrix, delimiter=",", skiprows=2, ndmin=2)
    dense = np.zeros((n_vox, n_beam))
    dense[trip[:, 0].astype(int), trip[:, 1].astype(int)] = trip[:, 2]
    problem = _load(matrix.with_name("phantom_problem.json"))
    target = np.asarray(problem["T"], dtype=float)
    x_ref, _ = nnls(dense, target)
    obj_ref = float(np.sum((dense @ x_ref - target) ** 2))
    excess = math.nan
    if x.shape == (n_beam,) and not failures:
        obj = float(np.sum((dense @ x - target) ** 2))
        excess = (obj - obj_ref) / max(obj_ref, np.finfo(float).tiny)
        if not excess <= bound:
            failures.append(f"objective exceeds the NNLS oracle by {excess:g} (bound {bound:g})")
    elif x.shape != (n_beam,):
        failures.append(f"fluence has {x.size} entries, expected {n_beam}")
    return failures, {"fmo.oracle_rel_excess": excess}


def check_iterate_banach(out: Path, expect: dict) -> tuple[list[str], dict]:
    """Converged, every final value within 1e-8 of 2s, one trace row per step."""
    report = _load(out / "iteration_report.json")["report"]
    failures = []
    if not report["converged"]:
        failures.append("iteration did not converge")
    values = np.asarray(report["final"]["values"], dtype=float)
    if values.size != expect["n"]:
        failures.append(f"final function has {values.size} values, expected {expect['n']}")
    else:
        err = float(np.max(np.abs(values - expect["fixed_value"])))
        if not err <= FINAL_TOL:
            failures.append(f"final values are {err:g} from the fixed value {expect['fixed_value']!r}")
    with open(out / "trace.csv", "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[:1] != [["iter", "distance", "bound"]]:
        failures.append("trace.csv lacks its header")
    if len(rows) - 1 != report["iterations"]:
        failures.append(f"trace.csv has {len(rows) - 1} rows for {report['iterations']} steps")
    return failures, {}


def check_iterate_alpha(out: Path, expect: dict) -> tuple[list[str], dict]:
    """Converged, alpha chain held, psi bound held, final function 0 within tol."""
    report = _load(out / "iteration_report.json")["report"]
    failures = []
    for flag in ("converged", "alpha_chain_held", "psi_bound_ok"):
        if report[flag] is not True:
            failures.append(f"{flag} is {report[flag]!r}")
    values = np.asarray(report["final"]["values"], dtype=float)
    if values.size != expect["n"]:
        failures.append(f"final function has {values.size} values, expected {expect['n']}")
    elif not float(np.max(np.abs(values))) <= ALPHA_TOL:
        failures.append(f"final value {float(np.max(np.abs(values))):g} is not 0 within {ALPHA_TOL:g}")
    return failures, {}


def check_verify(out: Path, expect: dict) -> tuple[list[str], dict]:
    """Every configured check present and satisfied."""
    report = _load(out / "verify_report.json")
    failures = []
    if report["all_satisfied"] is not True:
        failures.append("all_satisfied is not true")
    names = [r.get("name") for r in report["results"]]
    if names != expect["checks"]:
        failures.append(f"report lists checks {names}, expected {expect['checks']}")
    failures += [f"check {r.get('name')} not satisfied" for r in report["results"] if r["satisfied"] is not True]
    return failures, {}


CHECKS = {
    "fmo": check_fmo,
    "iterate_banach": check_iterate_banach,
    "iterate_alpha": check_iterate_alpha,
    "verify": check_verify,
}
