"""End-to-end command line tests.

Exit code contract: 0 success, 1 input or validation problems, 2 when the
run finished but did not succeed (non-convergence, failed check, excessive
gap).
"""

import copy
import json
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from fixfunc import TableAlpha, WindowAlpha, function_space
from fixfunc.cli import main

# the worked two-point profiles, in explicit function JSON
P1_F1 = {
    "domain": [
        {"label": "s1", "coordinate": 1.0},
        {"label": "s2", "coordinate": 0.5},
    ],
    "values": [2.0, 1.0],
}
P1_F2 = {
    "domain": [
        {"label": "s1", "coordinate": 1.0},
        {"label": "s2", "coordinate": 0.5},
    ],
    "values": [1.0 / 3.0, 1.0 / 6.0],
}
QUAD_OP = {"kind": "pointwise", "poly": [2.0, -2.0, 1.0]}


def write_config(tmp_path, obj, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj, indent=2) + "\n", encoding="utf-8")
    return path


def grid_constant(c, n=5):
    return {
        "grid": {"start": 0.0, "stop": 1.0, "n": n},
        "init": {"constant": c},
    }


def read_report(out_dir, name):
    with open(out_dir / name, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# iterate
# ---------------------------------------------------------------------------


class TestIterate:
    def test_banach_run_with_csv_trace(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "operator": {"kind": "affine", "scale": 2.0 / 3.0, "shift": 1.0},
                "f0": grid_constant(0.0),
                "tol": 1e-9,
                "max_iters": 500,
                "lambda_hint": 2.0 / 3.0,
            },
        )
        out = tmp_path / "out"
        code = main(["iterate", "--config", str(cfg), "--out", str(out), "--format", "csv"])
        assert code == 0
        report = read_report(out, "iteration_report.json")["report"]
        assert report["converged"] is True
        # fixed point of (2/3)y + 1 is 3
        assert report["final"]["values"][0] == pytest.approx(3.0, abs=1e-8)
        lines = (out / "trace.csv").read_text().strip().splitlines()
        assert lines[0] == "iter,distance,bound"
        assert len(lines) == report["iterations"] + 1
        first = lines[1].split(",")
        assert float(first[1]) == report["trace"][0]
        assert first[2] != ""  # bound column filled when a hint is given

    def test_reich_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "mode": "reich",
                "reich": {"a": 0.2, "b": 0.2, "c": 0.5},
                "operator": {"kind": "pointwise", "poly": [1.0, 0.5]},
                "f0": grid_constant(0.0),
                "tol": 1e-10,
            },
        )
        out = tmp_path / "out"
        assert main(["iterate", "--config", str(cfg), "--out", str(out)]) == 0
        report = read_report(out, "iteration_report.json")["report"]
        assert report["reich_condition_held"] is True
        assert report["final"]["values"][0] == pytest.approx(2.0, abs=1e-8)

    def test_alpha_psi_run(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "mode": "alpha_psi",
                "alpha": {"kind": "window"},
                "psi": {"kind": "linear", "c": 0.5},
                "operator": {"kind": "affine", "scale": 0.5, "shift": 0.0},
                "f0": grid_constant(1.0),
                "tol": 1e-10,
            },
        )
        out = tmp_path / "out"
        assert main(["iterate", "--config", str(cfg), "--out", str(out)]) == 0
        report = read_report(out, "iteration_report.json")["report"]
        assert report["alpha_chain_held"] is True
        assert report["psi_bound_ok"] is True

    def test_alpha_gate_violation_is_input_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "mode": "alpha_psi",
                "alpha": {"kind": "window", "arg": "first", "lower": 0.0, "upper": 1.0},
                "psi": {"kind": "linear", "c": 0.5},
                "operator": {"kind": "pointwise", "name": "identity"},
                "f0": grid_constant(5.0),
            },
        )
        code = main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_divergence_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {"operator": QUAD_OP, "f0": grid_constant(3.0), "max_iters": 1000},
        )
        out = tmp_path / "out"
        assert main(["iterate", "--config", str(cfg), "--out", str(out)]) == 2
        report = read_report(out, "iteration_report.json")["report"]
        assert report["diverged"] is True

    def test_non_convergence_exits_two(self, tmp_path):
        cfg = write_config(
            tmp_path,
            {
                "operator": {"kind": "affine", "scale": 0.99, "shift": 1.0},
                "f0": grid_constant(0.0),
                "tol": 1e-14,
                "max_iters": 3,
            },
        )
        assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_missing_operator(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"f0": grid_constant(0.0)})
        assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "/operator" in capsys.readouterr().err

    def test_unknown_metric(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"operator": QUAD_OP, "f0": grid_constant(1.5), "metric": "l7"},
        )
        assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "/metric" in capsys.readouterr().err

    def test_bad_schema_version(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {"schema_version": 99, "operator": QUAD_OP, "f0": grid_constant(1.5)},
        )
        assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "schema_version" in capsys.readouterr().err

    def test_config_not_found(self, tmp_path, capsys):
        code = main(
            ["iterate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path)]
        )
        assert code == 1
        assert "not found" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_full_passing_sheet(self, tmp_path):
        checks = [
            {
                "name": "worked-pair",
                "check": "reich",
                "operator": QUAD_OP,
                "metric": "cross_sup",
                "a": 0.0,
                "b": 0.0,
                "c": 2.0 / 3.0,
                "pairs": [[P1_F1, P1_F2]],
            },
            {
                "check": "contraction",
                "operator": QUAD_OP,
                "metric": "cross_sup",
                "pairs": [[P1_F1, P1_F2]],
            },
            {
                "check": "alpha_admissible",
                "operator": {"kind": "pointwise", "name": "identity"},
                "alpha": {"kind": "window", "arg": "first", "lower": 0.0, "upper": 1.0},
                "pairs": [[grid_constant(0.5), grid_constant(0.25)]],
            },
            {
                "check": "psi_family",
                "psi": {"kind": "linear", "c": 0.5},
                "t_samples": [0.1, 1.0, 10.0],
            },
            {
                "check": "alpha_psi",
                "operator": {"kind": "affine", "scale": 0.25, "shift": 0.0},
                "alpha": {"kind": "window", "arg": "first", "lower": 0.0, "upper": 1.0},
                "psi": {"kind": "linear", "c": 0.5},
                "metric": "uniform",
                "pairs": [[grid_constant(1.0), grid_constant(0.0)]],
            },
            {
                "check": "metric_axioms",
                "metric": "uniform",
                "functions": [
                    {"grid": {"start": 0.0, "stop": 1.0, "n": 4}, "init": "coordinate"},
                    grid_constant(0.25, n=4),
                    grid_constant(2.0, n=4),
                ],
            },
            {
                "check": "hypothesis_h",
                "alpha": {"kind": "window", "arg": "second", "lower": 0.0},
                "candidates": [grid_constant(1.0), grid_constant(2.0)],
                "pool": [grid_constant(1.0)],
            },
        ]
        cfg = write_config(tmp_path, {"checks": checks})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
        payload = read_report(out, "verify_report.json")
        assert payload["all_satisfied"] is True
        assert len(payload["results"]) == 7
        assert payload["results"][0]["name"] == "worked-pair"
        row = payload["results"][0]["details"]["pairs"][0]
        assert row["lhs"] == pytest.approx(25.0 / 36.0, abs=1e-12)
        assert row["rhs"] == pytest.approx(44.0 / 36.0, abs=1e-12)
        assert payload["results"][1]["estimated_constant"] == pytest.approx(
            25.0 / 66.0, abs=1e-12
        )

    def test_failing_check_exits_two(self, tmp_path):
        checks = [
            {
                "check": "psi_family",
                "psi": {"kind": "table", "knots": [[0.0, 0.0], [10.0, 10.0]]},
                "t_samples": [0.5, 1.0, 2.0],
            }
        ]
        cfg = write_config(tmp_path, {"checks": checks})
        out = tmp_path / "out"
        assert main(["verify", "--config", str(cfg), "--out", str(out)]) == 2
        payload = read_report(out, "verify_report.json")
        assert payload["all_satisfied"] is False
        assert payload["results"][0]["satisfied"] is False
        assert payload["results"][0]["witness"] is not None

    def test_unknown_check_kind(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"checks": [{"check": "sorcery"}]})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "/checks/0" in capsys.readouterr().err

    def test_nan_alpha_weight_is_input_error(self, tmp_path, capsys):
        checks = [
            {
                "check": "alpha_admissible",
                "operator": {"kind": "pointwise", "name": "identity"},
                "alpha": {"kind": "window", "inside": float("nan"), "outside": float("nan")},
                "pairs": [[grid_constant(0.5), grid_constant(0.25)]],
            }
        ]
        cfg = write_config(tmp_path, {"checks": checks})
        assert "NaN" in cfg.read_text()
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert "/checks/0/alpha" in err and "inside" in err

    def test_degenerate_pair_is_input_error(self, tmp_path, capsys):
        checks = [
            {
                "check": "contraction",
                "operator": QUAD_OP,
                "metric": "uniform",
                "pairs": [[grid_constant(1.0), grid_constant(1.0)]],
            }
        ]
        cfg = write_config(tmp_path, {"checks": checks})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "/checks/0" in capsys.readouterr().err


class TestArrayNative:
    def test_grid_runs_build_no_weight_matrix_and_no_points(self, tmp_path, monkeypatch, capsys):
        """Grid inputs stay arrays: no n x n weight matrix, no per-point objects."""

        def refuse(*args, **kwargs):
            raise AssertionError("built a weight matrix or a DomainPoint")

        monkeypatch.setattr(WindowAlpha, "pair_matrix", refuse)
        monkeypatch.setattr(TableAlpha, "pair_matrix", refuse)
        monkeypatch.setattr(function_space, "DomainPoint", refuse)
        with pytest.raises(AssertionError):
            function_space.Domain.uniform_grid(0.0, 1.0, 3).points

        ramp = {"grid": {"start": 0.0, "stop": 1.0, "n": 40, "weights": "trapezoid"}, "init": "coordinate"}
        zero = {"grid": {"start": 0.0, "stop": 1.0, "n": 40, "weights": "trapezoid"}, "init": {"constant": 0.0}}
        window = {"kind": "window", "arg": "first", "lower": 0.0, "upper": 1.0}
        halve = {"kind": "affine", "scale": 0.5, "shift": 0.0}
        run = {
            "mode": "alpha_psi",
            "alpha": window,
            "psi": {"kind": "linear", "c": 0.5},
            "operator": halve,
            "f0": ramp,
            "metric": "grid_l1",
            "tol": 1e-10,
        }
        out = tmp_path / "it"
        args = ["iterate", "--config", str(write_config(tmp_path, run, "it.json")), "--out", str(out)]
        assert main(args + ["--format", "csv"]) == 0
        report = read_report(out, "iteration_report.json")["report"]
        assert report["alpha_chain_held"] is True
        assert report["final"]["domain"][39] == {"label": "u0039", "coordinate": 1.0, "weight": 1.0 / 78.0}

        run["operator"] = {"kind": "affine", "scale": 1.0, "shift": 2.0}
        run["alpha"] = dict(window, arg="second")
        assert main(["iterate", "--config", str(write_config(tmp_path, run, "gate.json")), "--out", str(out)]) == 1
        assert "('u0000', 'u0000')" in capsys.readouterr().err

        checks = [
            {"check": "alpha_admissible", "operator": halve, "alpha": window, "pairs": [[ramp, zero]]},
            {"check": "alpha_admissible", "operator": {"kind": "affine", "scale": 1.0, "shift": 0.5},
             "alpha": window, "pairs": [[ramp, zero]]},
            {"check": "alpha_admissible", "operator": halve,
             "alpha": {"kind": "table", "entries": [[1.0, 0.0, 2.0]], "default": 1.0}, "pairs": [[ramp, zero]]},
            {"check": "alpha_psi", "operator": {"kind": "affine", "scale": 0.9, "shift": 0.0}, "alpha": window,
             "psi": {"kind": "linear", "c": 0.1}, "metric": "grid_l1", "pairs": [[ramp, zero]]},
            {"check": "hypothesis_h", "alpha": {"kind": "window", "arg": "second", "lower": 0.5},
             "candidates": [ramp, zero], "pool": [ramp, zero]},
            {"check": "contraction", "operator": halve, "metric": "cross_sup", "pairs": [[ramp, zero]]},
        ]
        out = tmp_path / "verify"
        assert main(["verify", "--config", str(write_config(tmp_path, {"checks": checks}, "v.json")), "--out", str(out)]) == 2
        results = read_report(out, "verify_report.json")["results"]
        assert [r["satisfied"] for r in results] == [True, False, True, False, False, True]
        assert results[1]["witness"]["point_pair"] == ["u0020", "u0000"]
        assert results[3]["witness"]["point_pair"] == ["u0000", "u0000"]


# ---------------------------------------------------------------------------
# phantom and fmo
# ---------------------------------------------------------------------------


PHANTOM_CFG = {
    "grid": [30],
    "n_beamlets": 5,
    "kernel_width": 2.0,
    "ptv_region": [10, 20],
    "prescription_ptv": 60.0,
    "cap_oar": 20.0,
    "seed": 5,
}


class TestPhantomAndFmo:
    def _materialize(self, tmp_path, sub="case", extra=None, seed=None):
        cfg_obj = dict(PHANTOM_CFG)
        if extra:
            cfg_obj.update(extra)
        cfg = write_config(tmp_path, cfg_obj, name=f"{sub}.json")
        out = tmp_path / sub
        argv = ["phantom", "--config", str(cfg), "--out", str(out)]
        if seed is not None:
            argv += ["--seed", str(seed)]
        assert main(argv) == 0
        return out

    def test_phantom_writes_instance(self, tmp_path):
        out = self._materialize(tmp_path)
        assert (out / "phantom_matrix.csv").exists()
        problem = read_report(out, "phantom_problem.json")
        assert problem["tau"] == 0.0
        assert len(problem["T"]) == 30
        assert problem["labels"][10] == "PTV" and problem["labels"][9] == "OAR"

    def test_phantom_deterministic(self, tmp_path):
        a = self._materialize(tmp_path, "a")
        b = self._materialize(tmp_path, "b")
        assert (a / "phantom_matrix.csv").read_bytes() == (
            b / "phantom_matrix.csv"
        ).read_bytes()

    def test_phantom_seed_override(self, tmp_path):
        a = self._materialize(tmp_path, "a")
        c = self._materialize(tmp_path, "c", seed=9)
        assert (a / "phantom_matrix.csv").read_bytes() != (
            c / "phantom_matrix.csv"
        ).read_bytes()

    def test_phantom_tau_passthrough(self, tmp_path):
        out = self._materialize(tmp_path, "t", extra={"tau": 0.5})
        assert read_report(out, "phantom_problem.json")["tau"] == 0.5

    def test_fmo_on_phantom_output(self, tmp_path):
        out = self._materialize(tmp_path)
        res = tmp_path / "res"
        code = main(["fmo", "--config", str(out / "phantom_problem.json"), "--out", str(res)])
        assert code == 0
        payload = read_report(res, "fmo_report.json")
        assert payload["report"]["converged"] is True
        assert payload["report"]["reference_gap"] <= payload["gap_bound"]
        assert payload["dose_statistics"]["PTV"]["voxels"] == 10

    def test_fmo_degenerate_split_exits_two(self, tmp_path):
        out = self._materialize(tmp_path, extra={"tau": 1e6})
        res = tmp_path / "res"
        code = main(["fmo", "--config", str(out / "phantom_problem.json"), "--out", str(res)])
        assert code == 2
        payload = read_report(res, "fmo_report.json")
        assert payload["report"]["degenerate_inner"] is True

    def test_fmo_cap_hit_exits_two(self, tmp_path):
        out = self._materialize(tmp_path)
        problem_path = out / "phantom_problem.json"
        problem = json.loads(problem_path.read_text())
        problem["inner"]["max_iters"] = 1
        problem_path.write_text(json.dumps(problem))
        res = tmp_path / "res"
        code = main(["fmo", "--config", str(problem_path), "--out", str(res)])
        assert code == 2
        report = read_report(res, "fmo_report.json")["report"]
        assert report["converged"] is False
        assert report["inner_cap_hits"] >= 1
        assert report["reference_converged"] is True
        assert report["lipschitz"] > 0.0

    def _set_step_rule(self, tmp_path, rule):
        out = self._materialize(tmp_path)
        problem_path = out / "phantom_problem.json"
        problem = json.loads(problem_path.read_text())
        assert "step_rule" not in problem["inner"]
        problem["inner"]["step_rule"] = rule
        problem_path.write_text(json.dumps(problem))
        return main(["fmo", "--config", str(problem_path), "--out", str(tmp_path / "res")])

    def test_fmo_rejects_unknown_step_rule(self, tmp_path, capsys):
        assert self._set_step_rule(tmp_path, "barzilai_borwein") == 1
        assert "step_rule" in capsys.readouterr().err

    def test_fmo_loads_file_naming_the_step_rule(self, tmp_path):
        # problem files written while the step rule was a field still name it
        assert self._set_step_rule(tmp_path, "one_over_L") == 0

    def test_fmo_missing_matrix(self, tmp_path, capsys):
        out = self._materialize(tmp_path)
        (out / "phantom_matrix.csv").unlink()
        code = main(
            ["fmo", "--config", str(out / "phantom_problem.json"), "--out", str(tmp_path / "r")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_phantom_invalid_spec(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**PHANTOM_CFG, "ptv_region": [20, 10]})
        assert main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "ptv_region" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------

HALVE = {"kind": "affine", "scale": 0.5, "shift": 0.0}
BANACH = {"operator": HALVE, "f0": grid_constant(1.0)}
ONE_POINT = {"grid": {"start": 0.0, "stop": 1.0, "n": 1}, "init": "coordinate"}
REICH_CHECK = {"check": "reich", "operator": HALVE, "metric": "uniform", "a": 0.1, "b": 0.1, "c": 0.1,
               "pairs": [[grid_constant(1.0), grid_constant(0.0)]]}
PSI_CHECK = {"check": "psi_family", "psi": {"kind": "linear", "c": 0.5}, "t_samples": [1.0]}
AXIOM_CHECK = {"check": "metric_axioms", "metric": "uniform", "functions": [grid_constant(c) for c in (0, 1, 2)]}
H_CHECK = {"check": "hypothesis_h", "alpha": {"kind": "window"}, "candidates": [grid_constant(1.0)],
           "pool": [grid_constant(1.0)]}


def one_check(check, **fields):
    return {"checks": [dict(check, **fields)]}


INPUT_ERRORS = [
    # an error inside a field prints that field's pointer, not its check's or mode's as well
    pytest.param("verify", one_check(REICH_CHECK, pairs=[[ONE_POINT, ONE_POINT]]), "/checks/0/pairs/0/0/grid", id="reich-grid"),
    pytest.param("verify", one_check(PSI_CHECK, psi={"kind": "linear", "c": 1.5}), "/checks/0/psi", id="psi-family-psi"),
    pytest.param("verify", one_check(AXIOM_CHECK, metric="l7"), "/checks/0/metric", id="axioms-metric"),
    pytest.param("verify", one_check(H_CHECK, candidates=[ONE_POINT]), "/checks/0/candidates/0/grid", id="h-grid"),
    pytest.param("iterate", dict(BANACH, mode="reich", reich={"b": 0.1, "c": 0.1}), "/reich/a", id="reich-mode-a"),
    # values of the wrong type
    pytest.param("iterate", dict(BANACH, tol=None), "/tol", id="tol-null"),
    pytest.param("iterate", dict(BANACH, tol=10**400), "/tol", id="tol-beyond-float"),
    pytest.param("verify", one_check(REICH_CHECK, a=None), "/checks/0/a", id="a-null"),
    pytest.param("verify", one_check(PSI_CHECK, t_samples=5), "/checks/0/t_samples", id="t-samples-number"),
    pytest.param("verify", one_check(AXIOM_CHECK, functions=5), "/checks/0/functions", id="functions-number"),
    pytest.param("verify", one_check(H_CHECK, candidates=None), "/checks/0/candidates", id="candidates-null"),
    pytest.param("iterate", dict(BANACH, f0={"grid": 5, "init": "coordinate"}), "/f0/grid", id="grid-number"),
    pytest.param("iterate", dict(BANACH, f0=grid_constant("x")), "/f0/init/constant", id="constant-string"),
    pytest.param("iterate", dict(BANACH, metric=["uniform"]), "/metric", id="metric-list"),
    # booleans and integers are typed: no truthy strings, no truncation
    pytest.param("iterate", dict(BANACH, record_trace="false"), "/record_trace", id="record-trace-string"),
    pytest.param("iterate", dict(BANACH, max_iters=1.5), "/max_iters", id="max-iters-fraction"),
    pytest.param("iterate", dict(BANACH, f0=grid_constant(1.0, n=2.5)), "/f0/grid/n", id="grid-n-fraction"),
    pytest.param("verify", one_check(PSI_CHECK, n_max=12.5), "/checks/0/n_max", id="n-max-fraction"),
]


@pytest.mark.parametrize("command, config, pointer", INPUT_ERRORS)
def test_input_error_prints_its_pointer_once(tmp_path, capsys, command, config, pointer):
    cfg = write_config(tmp_path, config)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {pointer}: ") and err.count("\n") == 1, err
    assert err.count(": /") == 1, err


def test_integral_floats_count_as_integers(tmp_path):
    cfg = write_config(tmp_path, dict(BANACH, max_iters=1e3, f0=grid_constant(1.0, n=5.0)))
    assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


# Every leaf or object of these small valid configs is replaced by one of these.
JUNK = [None, "x", 5, 1.5, True, [], {}, float("nan")]
VALID_CONFIGS = {
    "iterate-reich": {
        "schema_version": 1, "mode": "reich", "reich": {"a": 0.1, "b": 0.1, "c": 0.3},
        "operator": {"kind": "composite", "ops": [HALVE, {"kind": "pointwise", "poly": [0.5, 0.5]}]},
        "f0": {"grid": {"start": 0.0, "stop": 1.0, "n": 4}, "init": "coordinate"},
        "metric": "cross_sup", "tol": 1e-6, "max_iters": 100, "record_trace": True, "lambda_hint": 0.5,
    },
    "iterate-alpha-psi": {
        "mode": "alpha_psi", "psi": {"kind": "linear", "c": 0.5},
        "alpha": {"kind": "window", "arg": "first", "lower": 0.0, "upper": 4.0, "open_lower": False,
                  "open_upper": True, "inside": 1.0, "outside": 0.0},
        "operator": HALVE,
        "f0": {"grid": {"start": 0.0, "stop": 1.0, "n": 5, "weights": "trapezoid"}, "init": {"constant": 1.0}},
        "metric": "grid_l1", "tol": 1e-6,
    },
    "verify": {"checks": [
        dict(REICH_CHECK, name="reich"),
        {"check": "contraction", "operator": QUAD_OP, "metric": "cross_sup", "pairs": [[P1_F1, P1_F2]]},
        {"check": "alpha_admissible", "operator": HALVE,
         "alpha": {"kind": "table", "entries": [[1.0, 0.0, 2.0]], "default": 1.0},
         "pairs": [[grid_constant(1.0, n=3), grid_constant(0.0, n=3)]]},
        dict(PSI_CHECK, psi={"kind": "table", "knots": [[0.0, 0.0], [2.0, 1.0]]}, n_max=20, tail_tol=1e-3),
        {"check": "alpha_psi", "operator": HALVE, "alpha": {"kind": "window", "upper": 2.0},
         "psi": {"kind": "linear", "c": 0.5}, "metric": "uniform", "pairs": [[grid_constant(1.0), grid_constant(0.0)]]},
        AXIOM_CHECK,
        H_CHECK,
    ]},
}


def json_paths(obj, path=()):
    """The path of every value in a JSON document, the root's included."""
    yield path
    items = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield from json_paths(value, path + (key,))


def replaced(obj, path, value):
    if not path:
        return value
    out = copy.deepcopy(obj)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return out


@pytest.fixture(scope="module")
def valid_configs(tmp_path_factory):
    """(subcommand, config, directory to write it in) per name; the fmo one needs its matrix beside it."""
    out = tmp_path_factory.mktemp("phantom")
    assert main(["phantom", "--config", str(write_config(out, {**PHANTOM_CFG, "grid": [100], "n_beamlets": 10,
                                                                  "ptv_region": [40, 60]}, "spec.json")),
                 "--out", str(out)]) == 0
    fmo = dict(read_report(out, "phantom_problem.json"), gap_bound=1e-2, tau=0.05)
    cases = {name: (name.split("-")[0], cfg, tmp_path_factory.mktemp(name)) for name, cfg in VALID_CONFIGS.items()}
    return dict(cases, fmo=("fmo", fmo, out))


@pytest.mark.parametrize("name", [*VALID_CONFIGS, "fmo"])
@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_config_never_raises(valid_configs, capsys, name, data):
    command, valid, where = valid_configs[name]
    path = data.draw(st.sampled_from(list(json_paths(valid))), label="path")
    value = data.draw(st.sampled_from(JUNK), label="value")
    cfg = write_config(where, replaced(valid, path, value), name="junk.json")
    code = main([command, "--config", str(cfg), "--out", str(where / "out")])
    err = capsys.readouterr().err
    assert code in (0, 1, 2)
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: /"), err


# ---------------------------------------------------------------------------
# process level
# ---------------------------------------------------------------------------


class TestProcess:
    def test_module_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fixfunc.cli", "--help"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        for word in ("iterate", "verify", "fmo", "phantom"):
            assert word in proc.stdout

    def test_missing_subcommand_is_usage_error(self):
        proc = subprocess.run(
            [sys.executable, "-m", "fixfunc.cli"], capture_output=True, text=True
        )
        assert proc.returncode == 2
        assert "usage" in proc.stderr.lower()
