"""End-to-end command line tests.

Exit code contract: 0 success, 1 input or validation problems, 2 when the
run finished but did not succeed (non-convergence, failed check, excessive
gap).
"""

import dataclasses
import io
import json
import os
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import fixfunc
from conftest import strict_json
from fixfunc import Domain, cli, function_space, iteration
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
    return strict_json((out_dir / name).read_text(encoding="utf-8"))


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

    @pytest.mark.parametrize(
        "operator, start",
        # the second keeps every value below the divergence limit, but its first step is past it
        [(QUAD_OP, 3.0), ({"kind": "affine", "scale": -1.0, "shift": 0.0}, 9e11)],
        ids=["values-past-limit", "step-past-limit"],
    )
    def test_divergence_exits_two(self, tmp_path, operator, start):
        cfg = write_config(
            tmp_path,
            {"operator": operator, "f0": grid_constant(start), "max_iters": 1000},
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

    def test_config_not_valid_json(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text('{"operator": ', encoding="utf-8")
        assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: /: not valid JSON (") and err.count("\n") == 1, err

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


# The config format: the (required, optional) keys of each object built from
# its callee's parameters.  A renamed parameter renames a key, so it fails here.
CONFIG_KEYS = [
    pytest.param(cli._pointwise, (), ("poly", "name"), id="operator-pointwise"),
    pytest.param(fixfunc.AffineMap, ("scale", "shift"), (), id="operator-affine"),
    pytest.param(fixfunc.CompositeMap, ("ops",), (), id="operator-composite"),
    pytest.param(fixfunc.WindowAlpha, (), ("arg", "lower", "upper", "open_lower", "open_upper", "inside", "outside"),
                 id="alpha-window"),
    pytest.param(fixfunc.TableAlpha, ("entries",), ("default",), id="alpha-table"),
    pytest.param(fixfunc.LinearPsi, ("c",), (), id="psi-linear"),
    pytest.param(fixfunc.TablePsi, ("knots",), (), id="psi-table"),
    pytest.param(cli._CHECKS["contraction"], ("operator", "metric", "pairs"), (), id="check-contraction"),
    pytest.param(cli._CHECKS["reich"], ("operator", "metric", "a", "b", "c", "pairs"), (), id="check-reich"),
    pytest.param(cli._CHECKS["alpha_admissible"], ("operator", "alpha", "pairs"), (), id="check-alpha-admissible"),
    pytest.param(cli._CHECKS["psi_family"], ("psi", "t_samples"), ("n_max", "tail_tol"), id="check-psi-family"),
    pytest.param(cli._CHECKS["alpha_psi"], ("operator", "alpha", "psi", "metric", "pairs"), (), id="check-alpha-psi"),
    pytest.param(cli._CHECKS["metric_axioms"], ("metric", "functions"), (), id="check-metric-axioms"),
    pytest.param(cli._CHECKS["hypothesis_h"], ("alpha", "candidates", "pool"), (), id="check-hypothesis-h"),
    pytest.param(iteration.ReichMode, ("a", "b", "c"), (), id="mode-reich"),
    pytest.param(iteration.AlphaPsiMode, ("alpha", "psi"), (), id="mode-alpha-psi"),
    pytest.param(Domain.uniform_grid, ("start", "stop", "n"), ("weights",), id="grid"),
    pytest.param(fixfunc.fmo.InnerParams, (), ("tol", "max_iters"), id="fmo-inner"),
    pytest.param(fixfunc.fmo.OuterParams, (), ("tol", "max_iters"), id="fmo-outer"),
]


@pytest.mark.parametrize("callee, required, optional", CONFIG_KEYS)
def test_config_keys_are_the_callee_parameters(callee, required, optional):
    assert cli._keys(callee) == (required, optional)
    # a key without a reader would raise KeyError, a traceback instead of an error line
    assert set(required + optional) <= cli._FIELDS.keys()


class TestArrayNative:
    def test_grid_runs_build_no_weight_matrix_and_no_points(self, tmp_path, monkeypatch, capsys):
        """Grid inputs stay arrays: no per-point objects.

        The weight checks' O(n) memory is pinned by
        ``tests/test_iteration.py::TestSharedLoop::test_alpha_psi_memory_is_linear``.
        """

        def refuse(*args, **kwargs):
            raise AssertionError("built a DomainPoint")

        monkeypatch.setattr(function_space, "DomainPoint", refuse)
        monkeypatch.setattr(cli, "DomainPoint", refuse)

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
        # the final function is written as its grid recipe, not per point
        assert report["final"]["grid"] == ramp["grid"] and len(report["final"]["values"]) == 40
        final = cli._read(cli._FIELDS["f0"], report["final"], "/f0")
        assert final.domain.label(39) == "u0039" and final.domain.weight_array()[39] == 1.0 / 78.0

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
# report schema
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Field:
    value: object


# report values: floats (NaN and both infinities among them, numpy's too) and
# other leaves, in lists, tuples, dicts and dataclass fields
REPORT_PAYLOADS = st.recursive(
    st.floats() | st.floats().map(np.float64) | st.integers() | st.booleans() | st.none() | st.text(max_size=3),
    lambda inner: (
        st.lists(inner, max_size=4)
        | st.lists(inner, max_size=4).map(tuple)
        | st.dictionaries(st.text(max_size=3), inner, max_size=4)
        | inner.map(Field)
    ),
    max_leaves=20,
)


def as_json(value):
    """What JSON holds of a payload: each non-finite float as None, a tuple as a list, a Field as its object."""
    if isinstance(value, float):
        return float(value) if np.isfinite(value) else None
    if isinstance(value, (list, tuple)):
        return [as_json(v) for v in value]
    if isinstance(value, dict):
        return {k: as_json(v) for k, v in value.items()}
    if isinstance(value, Field):
        return {"value": as_json(value.value)}
    return value


def float_bits(value):
    """``value`` with each float as its hex string, so that equality is bit for bit."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, list):
        return [float_bits(v) for v in value]
    if isinstance(value, dict):
        return {k: float_bits(v) for k, v in value.items()}
    return value


class TestReportSchema:
    """Reports are version 2: one line each, a grid function as its recipe and values."""

    @staticmethod
    def run_iterate(tmp_path, monkeypatch, cfg, name):
        """The f0 ``fixfunc iterate`` reads from ``cfg``, the final function it computes and its report."""
        runs = []

        def spy(op, f0, config):
            report = iteration.iterate(op, f0, config)
            runs.append((f0, report.final))
            return report

        monkeypatch.setattr(cli, "iterate", spy)
        out = tmp_path / name
        assert main(["iterate", "--config", str(write_config(tmp_path, cfg, f"{name}.json")), "--out", str(out)]) == 0
        ((f0, final),) = runs
        return f0, final, read_report(out, "iteration_report.json")

    @pytest.mark.parametrize(
        "f0",
        [
            pytest.param({"grid": {"start": -1.0, "stop": 2.0, "n": 7, "weights": "trapezoid"}, "init": "coordinate"},
                         id="trapezoid-grid"),
            pytest.param({"grid": {"start": 0, "stop": 3, "n": 1e3}, "init": "coordinate"}, id="grid"),
            pytest.param(P1_F1, id="explicit-labels"),
            pytest.param(dict(P1_F1, domain=[dict(e, weight=w) for e, w in zip(P1_F1["domain"], (0.25, 0.75))]),
                         id="explicit-labels-weights"),
        ],
    )
    def test_report_function_reads_back_as_f0(self, tmp_path, monkeypatch, f0):
        cfg = {"operator": {"kind": "affine", "scale": 0.5, "shift": 1.0 / 3.0}, "f0": f0, "tol": 1e-3}
        _, final, payload = self.run_iterate(tmp_path, monkeypatch, cfg, "first")
        assert payload["schema_version"] == 4
        written = payload["report"]["final"]
        assert ("grid" in written) == ("grid" in f0) and ("domain" in written) == ("domain" in f0)
        back, _, _ = self.run_iterate(tmp_path, monkeypatch, dict(cfg, f0=written), "again")
        assert back.domain == final.domain and back.domain.labels == final.domain.labels
        assert back.domain.grid == final.domain.grid and back.domain.weights == final.domain.weights
        assert np.array_equal(back.values, final.values)

    def test_every_report_is_version_4_and_configs_stay_at_1(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"schema_version": 1, "checks": [AXIOM_CHECK]})
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "v")]) == 0
        assert read_report(tmp_path / "v", "verify_report.json")["schema_version"] == 4
        cfg = write_config(tmp_path, dict(BANACH, schema_version=2))
        assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "i")]) == 1
        assert capsys.readouterr().err == "error: /schema_version: unsupported schema version 2\n"

    def test_write_json_bytes(self, tmp_path):
        payload = {"b": [0.1, 1e-20, 1.0 / 3.0, 2], "a": {"z": None, "y": True}, "c": "\u00e9"}
        path = cli._write_json(tmp_path / "o", "r.json", payload)
        assert path.read_bytes() == b'{"a": {"y": true, "z": null}, "b": [0.1, 1e-20, 0.3333333333333333, 2], "c": "\\u00e9"}\n'

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(payload=REPORT_PAYLOADS)
    def test_write_json_writes_every_float_past_the_range_as_null(self, tmp_path, payload):
        text = cli._write_json(tmp_path, "r.json", {"report": Field(payload)}).read_text(encoding="utf-8")
        # strict_json refuses NaN and Infinity; a float's hex compares it bit for bit
        assert float_bits(strict_json(text)) == float_bits({"report": as_json(Field(payload))})

    def test_reports_write_every_field_under_its_own_name(self, tmp_path):
        def fields(cls, *extra):
            return {f.name for f in dataclasses.fields(cls)} | set(extra)

        def run(command, cfg, name, code=0):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / name)]) == code
            return read_report(tmp_path / name, f"{name}_report.json")

        report = run("iterate", write_config(tmp_path, BANACH, "i.json"), "iteration")["report"]
        assert set(report) == fields(fixfunc.IterationReport)
        assert main(["phantom", "--config", str(write_config(tmp_path, PHANTOM_CFG)), "--out", str(tmp_path)]) == 0
        report = run("fmo", tmp_path / "phantom_problem.json", "fmo")["report"]
        assert set(report) == fields(fixfunc.FmoReport)
        # some of these checks fail, so their reports carry a witness
        verify = VALID_CONFIGS["verify"]
        results = run("verify", write_config(tmp_path, verify, "v.json"), "verify", code=2)["results"]
        for check, result in zip(verify["checks"], results, strict=True):
            cls = fixfunc.AxiomReport if check["check"] == "metric_axioms" else fixfunc.ConditionReport
            assert set(result) == fields(cls, *(["name"] if "name" in check else [])), check["check"]

    @pytest.mark.parametrize("obj", [Domain.uniform_grid(0.0, 1.0, 3), {1, 2}], ids=["domain", "set"])
    def test_write_json_rejects_what_it_cannot_write(self, tmp_path, obj):
        with pytest.raises(TypeError, match=f"cannot write a {type(obj).__name__} as JSON"):
            cli._write_json(tmp_path, "r.json", {"report": obj})

    def test_write_json_refuses_a_non_finite_array_entry(self, tmp_path):
        # arrays are not walked: their values are finite by construction, and an entry that is not raises
        with pytest.raises(ValueError, match="not JSON compliant"):
            cli._write_json(tmp_path, "r.json", {"fluence": np.array([1.0, np.nan])})
        assert not (tmp_path / "r.json").exists()

    def test_grid_report_size(self, tmp_path):
        n = 100_000
        cfg = {
            "operator": {"kind": "affine", "scale": 0.5, "shift": 0.3},
            "f0": {"grid": {"start": 0.0, "stop": 1.0, "n": n, "weights": "trapezoid"}, "init": "coordinate"},
            "metric": "grid_l1",
            "tol": 1e-9,
        }
        out = tmp_path / "o"
        assert main(["iterate", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
        # version 1 wrote about 160 bytes a point
        assert (out / "iteration_report.json").stat().st_size < 32 * n


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
        # the instance only: the solver settings keep their defaults, and fmo finds its own warnings
        assert sorted(problem) == ["T", "labels", "matrix_path", "schema_version", "tau"]
        assert problem["tau"] == 0.0
        assert len(problem["T"]) == 30
        assert problem["labels"][10] == "PTV" and problem["labels"][9] == "OAR"

    def test_phantom_deterministic(self, tmp_path):
        a = self._materialize(tmp_path, "a")
        b = self._materialize(tmp_path, "b")
        for name in ("phantom_matrix.csv", "phantom_matrix.npz"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_phantom_seed_override(self, tmp_path):
        a = self._materialize(tmp_path, "a")
        c = self._materialize(tmp_path, "c", seed=9)
        for name in ("phantom_matrix.csv", "phantom_matrix.npz"):
            assert (a / name).read_bytes() != (c / name).read_bytes()

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

    def test_fmo_holds_no_parsed_list_through_the_solve(self, tmp_path, monkeypatch):
        # the problem file's labels list, one str per voxel, is not kept past building the problem
        out = self._materialize(tmp_path)
        solve, found = cli.fmo_mod.fmo_solve, []

        def wrapped(problem):
            frame = sys._getframe(1)
            assert frame.f_code is cli.cmd_fmo.__code__
            values = list(frame.f_locals.values())
            values += [v for d in values if isinstance(d, dict) for v in d.values()]
            found.extend(v for v in values if isinstance(v, list))
            return solve(problem)

        monkeypatch.setattr(cli.fmo_mod, "fmo_solve", wrapped)
        assert main(["fmo", "--config", str(out / "phantom_problem.json"), "--out", str(tmp_path / "res")]) == 0
        assert found == []

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
        problem = strict_json(problem_path.read_text())
        problem["inner"] = {"max_iters": 1}
        problem_path.write_text(json.dumps(problem))
        res = tmp_path / "res"
        code = main(["fmo", "--config", str(problem_path), "--out", str(res)])
        assert code == 2
        report = read_report(res, "fmo_report.json")["report"]
        assert report["converged"] is False
        assert report["inner_cap_hits"] >= 1
        assert report["reference_converged"] is True
        # the solver takes no step, so no step-size bound is reported
        assert "lipschitz" not in report

    def test_fmo_missing_matrix(self, tmp_path, capsys):
        out = self._materialize(tmp_path)
        (out / read_report(out, "phantom_problem.json")["matrix_path"]).unlink()
        code = main(
            ["fmo", "--config", str(out / "phantom_problem.json"), "--out", str(tmp_path / "r")]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_fmo_missing_csv_matrix(self, tmp_path, capsys):
        out = self._materialize(tmp_path)
        problem = dict(read_report(out, "phantom_problem.json"), matrix_path="phantom_matrix.csv")
        cfg = write_config(out, problem, name="csv_problem.json")
        (out / "phantom_matrix.csv").unlink()
        assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert capsys.readouterr().err.startswith("error: /matrix_path: ")

    @pytest.mark.parametrize(
        "extra",
        [{}, {"grid": [60, 40], "n_beamlets": 30, "ptv_region": [20, 40, 10, 30], "tau": 0.05}],
        ids=["1d", "2d"],
    )
    def test_fmo_report_is_the_same_from_csv_and_npz(self, tmp_path, extra):
        out = self._materialize(tmp_path, extra=extra)
        problem = read_report(out, "phantom_problem.json")
        assert problem["matrix_path"] == "phantom_matrix.npz"
        configs = {
            "npz": out / "phantom_problem.json",
            "csv": write_config(out, dict(problem, matrix_path="phantom_matrix.csv"), name="csv_problem.json"),
        }
        codes = {fmt: main(["fmo", "--config", str(cfg), "--out", str(tmp_path / fmt)]) for fmt, cfg in configs.items()}
        assert codes["npz"] == codes["csv"] in (0, 2)
        assert (tmp_path / "npz" / "fmo_report.json").read_bytes() == (tmp_path / "csv" / "fmo_report.json").read_bytes()

    def test_phantom_negative_seed_option(self, tmp_path, capsys):
        cfg = write_config(tmp_path, PHANTOM_CFG)
        assert main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "o"), "--seed", "-1"]) == 1
        assert capsys.readouterr().err == "error: --seed: must not be negative, got -1\n"
        assert not (tmp_path / "o").exists()

    def test_phantom_invalid_spec(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {**PHANTOM_CFG, "ptv_region": [20, 10]})
        assert main(["phantom", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "ptv_region" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# input errors
# ---------------------------------------------------------------------------

HALVE = {"kind": "affine", "scale": 0.5, "shift": 0.0}
BANACH = {"operator": HALVE, "f0": grid_constant(1.0)}
ALPHA_PSI = dict(BANACH, mode="alpha_psi", alpha={"kind": "window"}, psi={"kind": "linear", "c": 0.5})
ONE_POINT = {"grid": {"start": 0.0, "stop": 1.0, "n": 1}, "init": "coordinate"}
REICH_CHECK = {"check": "reich", "operator": HALVE, "metric": "uniform", "a": 0.1, "b": 0.1, "c": 0.1,
               "pairs": [[grid_constant(1.0), grid_constant(0.0)]]}
PSI_CHECK = {"check": "psi_family", "psi": {"kind": "linear", "c": 0.5}, "t_samples": [1.0]}
AXIOM_CHECK = {"check": "metric_axioms", "metric": "uniform", "functions": [grid_constant(c) for c in (0, 1, 2)]}
H_CHECK = {"check": "hypothesis_h", "alpha": {"kind": "window"}, "candidates": [grid_constant(1.0)],
           "pool": [grid_constant(1.0)]}
# every field is read before the matrix is opened, so field errors need no matrix file
FMO = {"matrix_path": "matrix.csv", "T": [60.0, 20.0], "labels": ["PTV", "OAR"], "tau": 0.1}
# entries a list of numbers rejects; a list of plain numbers is read in one
# numpy pass, any other by entry, so the bad one is still named
LIST_JUNK = {"true": True, "nan": float("nan"), "string": "x", "null": None, "beyond-float": 10**400, "list": [1]}


def one_check(check, **fields):
    return {"checks": [dict(check, **fields)]}


def explicit(f, k, **fields):
    """The explicit function ``f`` with ``fields`` set in its domain entry ``k``."""
    return dict(f, domain=[dict(e, **fields) if i == k else e for i, e in enumerate(f["domain"])])


INPUT_ERRORS = [
    # an error inside a field prints that field's pointer, not its check's or mode's as well
    pytest.param("verify", one_check(REICH_CHECK, pairs=[[ONE_POINT, ONE_POINT]]), "/checks/0/pairs/0/0/grid", id="reich-grid"),
    pytest.param("verify", one_check(REICH_CHECK, pairs=[[ONE_POINT]]), "/checks/0/pairs/0", id="pair-of-one"),
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
    pytest.param("iterate", dict(BANACH, f0={"grid": {"start": 0.0, "stop": 1.0, "n": 2}, "values": [1.0, "x"]}),
                 "/f0/values/1", id="grid-values-string"),
    pytest.param("iterate", dict(BANACH, f0={"grid": {"start": 0.0, "stop": 1.0, "n": 2}, "values": [1.0]}),
                 "/f0", id="grid-values-length"),
    pytest.param("iterate", dict(BANACH, f0={"grid": {"start": 0.0, "stop": 1.0, "n": 100_000},
                                             "values": [1.0] * 76543 + [float("nan")] + [0.5] * 23456}),
                 "/f0/values/76543", id="grid-values-long-nan"),
    pytest.param("iterate", dict(BANACH, f0={"grid": {"start": 0.0, "stop": 1.0, "n": 2}, "values": [1.0, 2.0],
                                             "init": "coordinate"}), "/f0/init", id="grid-values-and-init"),
    # booleans and integers are typed: no truthy strings, no truncation
    pytest.param("iterate", dict(BANACH, max_iters=1.5), "/max_iters", id="max-iters-fraction"),
    pytest.param("iterate", dict(BANACH, f0=grid_constant(1.0, n=2.5)), "/f0/grid/n", id="grid-n-fraction"),
    pytest.param("verify", one_check(PSI_CHECK, n_max=12.5), "/checks/0/n_max", id="n-max-fraction"),
    # problem files and phantom specs go through the same readers
    pytest.param("fmo", dict(FMO, tau="x"), "/tau", id="fmo-tau-string"),
    pytest.param("fmo", dict(FMO, tau=True), "/tau", id="fmo-tau-boolean"),
    pytest.param("fmo", dict(FMO, inner={"max_iters": 1.5}), "/inner/max_iters", id="fmo-inner-max-iters-fraction"),
    pytest.param("fmo", dict(FMO, outer={"max_iters": 2.7}), "/outer/max_iters", id="fmo-outer-max-iters-fraction"),
    pytest.param("fmo", dict(FMO, inner={"tol": "1e-3"}), "/inner/tol", id="fmo-inner-tol-string"),
    pytest.param("fmo", dict(FMO, T=["x", 20.0]), "/T/0", id="fmo-prescription-string"),
    *(pytest.param("fmo", dict(FMO, T=[60.0] * 1234 + [junk] + [20] * 1165), "/T/1234", id=f"fmo-prescription-{name}")
      for name, junk in LIST_JUNK.items()),
    pytest.param("fmo", dict(FMO, labels=["PTV"] * 1234 + ["ptv"] + ["OAR"] * 1165), "/labels/1234",
                 id="fmo-labels-bad-tag"),
    pytest.param("fmo", dict(FMO, labels=["PTV", 7]), "/labels/1", id="fmo-labels-number"),
    pytest.param("fmo", dict(FMO, tau=-1.0), "/tau", id="fmo-tau-negative"),
    pytest.param("fmo", FMO, "/matrix_path", id="fmo-matrix-missing"),
    pytest.param("phantom", dict(PHANTOM_CFG, n_beamlets=10.9), "/n_beamlets", id="phantom-beamlets-fraction"),
    pytest.param("phantom", dict(PHANTOM_CFG, grid=[100.7]), "/grid/0", id="phantom-grid-fraction"),
    pytest.param("phantom", dict(PHANTOM_CFG, seed=5.5), "/seed", id="phantom-seed-fraction"),
    pytest.param("phantom", dict(PHANTOM_CFG, seed=-1), "/seed", id="phantom-seed-negative"),
    pytest.param("phantom", dict(PHANTOM_CFG, ptv_region=[10, 20.5]), "/ptv_region/1", id="phantom-region-fraction"),
    # operators, alpha weights, psi maps and explicit functions are read leaf by leaf
    pytest.param("iterate", dict(BANACH, operator={"kind": "pointwise", "poly": {"0": 1}}), "/operator/poly",
                 id="poly-object"),
    pytest.param("iterate", dict(BANACH, operator={"kind": "pointwise", "poly": "12"}), "/operator/poly",
                 id="poly-string"),
    pytest.param("iterate", dict(BANACH, operator=dict(HALVE, scale="0.5")), "/operator/scale", id="scale-string"),
    pytest.param("iterate", dict(BANACH, operator=dict(HALVE, shift=True)), "/operator/shift", id="shift-boolean"),
    pytest.param("iterate", dict(BANACH, operator={"kind": "composite", "ops": [HALVE, {"kind": "affine", "scale": 0.5}]}),
                 "/operator/ops/1/shift", id="composite-part-shift-missing"),
    pytest.param("iterate", dict(BANACH, operator={"kind": "spline"}), "/operator/kind", id="operator-kind"),
    pytest.param("iterate", dict(BANACH, operator={"kind": "pointwise"}), "/operator", id="pointwise-without-map"),
    pytest.param("iterate", dict(ALPHA_PSI, alpha={"kind": "window", "inside": True}), "/alpha/inside",
                 id="window-inside-boolean"),
    pytest.param("iterate", dict(ALPHA_PSI, alpha={"kind": "window", "lower": "-1"}), "/alpha/lower",
                 id="window-lower-string"),
    pytest.param("iterate", dict(ALPHA_PSI, alpha={"kind": "table", "entries": [["1", True, "2"]]}),
                 "/alpha/entries/0/0", id="table-entry-string"),
    pytest.param("iterate", dict(ALPHA_PSI, alpha={"kind": "table", "entries": [[1.0, 2.0]]}), "/alpha/entries/0",
                 id="table-entry-short"),
    pytest.param("iterate", dict(ALPHA_PSI, psi={"kind": "linear", "c": "0.5"}), "/psi/c", id="psi-c-string"),
    pytest.param("iterate", dict(ALPHA_PSI, psi={"kind": "table", "knots": [[0.0, 0.0], ["2", 1]]}), "/psi/knots/1/0",
                 id="psi-knot-string"),
    pytest.param("iterate", dict(BANACH, f0=explicit(P1_F1, 0, coordinate="1.0")), "/f0/domain/0/coordinate",
                 id="explicit-coordinate-string"),
    pytest.param("iterate", dict(BANACH, f0=explicit(P1_F1, 1, label=7)), "/f0/domain/1/label",
                 id="explicit-label-number"),
    pytest.param("iterate", dict(BANACH, f0=dict(P1_F1, values=["1.5", True])), "/f0/values/0",
                 id="explicit-values-string"),
    pytest.param("verify", one_check(REICH_CHECK, pairs=[[P1_F1, explicit(P1_F2, 0, coordinate="1.0")]]),
                 "/checks/0/pairs/0/1/domain/0/coordinate", id="pair-explicit-coordinate-string"),
    # the version, a grid's weight rule and a check's name are typed too
    pytest.param("iterate", dict(BANACH, schema_version=True), "/schema_version", id="schema-version-boolean"),
    pytest.param("iterate", dict(BANACH, f0={"grid": {"start": 0.0, "stop": 1.0, "n": 3, "weights": 5},
                                             "init": "coordinate"}), "/f0/grid/weights", id="grid-weights-number"),
    pytest.param("verify", one_check(PSI_CHECK, name=7), "/checks/0/name", id="check-name-number"),
    # a tail tolerance of 0 or below would fail every contractive map's tail gate
    *(pytest.param("verify", one_check(PSI_CHECK, tail_tol=tol), "/checks/0", id=f"psi-family-tail-tol-{tol}")
      for tol in (0, -1)),
]


def saved(save, *args, **kwargs) -> bytes:
    """The bytes ``save`` (``np.save`` or ``np.savez``) writes for its arguments."""
    buf = io.BytesIO()
    save(buf, *args, **kwargs)
    return buf.getvalue()


def zip_bytes(compression=zipfile.ZIP_STORED, **members) -> bytes:
    """A zip of raw ``members``, which need not be .npy arrays."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", compression=compression) as zf:
        for name, data in members.items():
            zf.writestr(name, data)
    return buf.getvalue()


def central_field_set(data: bytes, offset: int, value: int) -> bytes:
    """``data`` with the two-byte field at ``offset`` of every zip central directory header set to ``value``."""
    buf = bytearray(data)
    start = buf.find(b"PK\x01\x02")
    while start != -1:
        buf[start + offset:start + offset + 2] = value.to_bytes(2, "little")
        start = buf.find(b"PK\x01\x02", start + 4)
    return bytes(buf)


def damaged(compression: int, keep: int = 0) -> bytes:
    """GOOD_NPZ's members compressed by ``compression``, the first one's compressed bytes after ``keep`` overwritten with 0xff."""
    buf = bytearray(zip_bytes(compression, **{f"{k}.npy": saved(np.save, v) for k, v in GOOD_NPZ.items()}))
    with zipfile.ZipFile(io.BytesIO(buf)) as zf:
        info = zf.infolist()[0]
    # a local header is 30 bytes, then the name and the extra field
    start = info.header_offset + 30 + len(info.filename) + len(info.extra)
    buf[start + keep:start + info.compress_size] = b"\xff" * (info.compress_size - keep)
    return bytes(buf)


# a 2 x 2 matrix archive for FMO's two voxels, two entries in voxel 0 and one in voxel 1
GOOD_NPZ = {
    "shape": np.array([2, 2]),
    "indptr": np.array([0, 2, 3]),
    "indices": np.array([0, 1, 0]),
    "data": np.array([1.0, 0.25, 0.5]),
}


def one_fault(**arrays) -> bytes:
    """GOOD_NPZ with the named arrays replaced, as an archive."""
    return saved(np.savez, **dict(GOOD_NPZ, **arrays))


# GOOD_NPZ with one fault each, and a fragment of the message that names that fault
BAD_NPZ = {
    "truncated": (saved(np.savez, **GOOD_NPZ)[:300], "File is not a zip file"),
    "empty-file": (b"", "not an .npz archive"),
    "text-file": (b"# voxels=2 beamlets=2\nrow,col,value\n0,1,1.0\n", "not an .npz archive"),
    "npy-file": (saved(np.save, GOOD_NPZ["indptr"]), "not an .npz archive"),
    "missing-array": (
        saved(np.savez, **{k: v for k, v in GOOD_NPZ.items() if k != "data"}),
        "got ['indices', 'indptr', 'shape']",
    ),
    "extra-array": (saved(np.savez, **GOOD_NPZ, weights=np.ones(2)), "got ['data', 'indices', 'indptr', 'shape', 'weights']"),
    "old-triplet-layout": (
        saved(np.savez, shape=GOOD_NPZ["shape"], rows=np.array([0, 0, 1]), cols=np.array([0, 1, 0]), values=GOOD_NPZ["data"]),
        "got ['cols', 'rows', 'shape', 'values']; run `fixfunc phantom` again",
    ),
    "object-array": (one_fault(data=np.array([1.0, None, 0.5])), "allow_pickle=False"),
    "member-not-npy": (zip_bytes(**{f"{k}.npy": v.tobytes() for k, v in GOOD_NPZ.items()}), "shape must hold integers, got |S"),
    "shape-fraction": (one_fault(shape=np.array([2.5, 2.0])), "shape must hold integers, got float64"),
    "shape-three": (one_fault(shape=np.array([2, 2, 1])), "shape must hold two integers [n_voxels, n_beamlets], got [2, 2, 1]"),
    "shape-scalar": (one_fault(shape=np.array(2)), "shape must hold two integers [n_voxels, n_beamlets], got 2"),
    # the offsets are compared with the size before anything of that size is made
    "shape-huge": (one_fault(shape=np.array([10**12, 2])), "indptr must be 1000000000001 nondecreasing offsets from 0"),
    "indptr-float": (one_fault(indptr=np.array([0.0, 2.0, 3.0])), "indptr must hold integers, got float64"),
    "indptr-short": (one_fault(indptr=np.array([0, 3])), "indptr must be 3 nondecreasing offsets from 0"),
    "indptr-decreasing": (one_fault(indptr=np.array([0, 3, 2])), "indptr must be 3 nondecreasing offsets from 0"),
    "indices-float": (one_fault(indices=np.array([0.0, 1.0, 0.0])), "indices must hold integers, got float64"),
    "index-out-of-range": (one_fault(indices=np.array([0, 2, 0])), "indices hold a beamlet index out of range [0, 2)"),
    "indices-not-rising": (one_fault(indices=np.array([1, 0, 0])), "beamlet indices of voxel 0 must rise, got 0 after 1"),
    "duplicate-entry": (one_fault(indices=np.array([1, 1, 0])), "duplicate entry for voxel 0, beamlet 1"),
    "data-string": (one_fault(data=np.array(["1.0", "0.25", "0.5"])), "data must hold numbers, got <U4"),
    "negative-value": (one_fault(data=np.array([1.0, -0.25, 0.5])), "dose coefficients must be finite and nonnegative"),
    "nan-value": (one_fault(data=np.array([1.0, np.nan, 0.5])), "dose coefficients must be finite and nonnegative"),
    # the general purpose flags sit 8 bytes into a central header, the compression method 10
    "encrypted-member": (central_field_set(saved(np.savez, **GOOD_NPZ), 8, 0x1), "encrypted"),
    "unsupported-compression": (central_field_set(saved(np.savez, **GOOD_NPZ), 10, 98), "compression method"),
    "damaged-deflate": (damaged(zipfile.ZIP_DEFLATED), "while decompressing data"),
    "damaged-bzip2": (damaged(zipfile.ZIP_BZIP2), "Invalid data stream"),
    # past zip's 9-byte LZMA header, so that the stream itself is corrupt
    "damaged-lzma": (damaged(zipfile.ZIP_LZMA, keep=9), "Corrupt input data"),
}


@pytest.mark.parametrize("data, fault", [pytest.param(*case, id=name) for name, case in BAD_NPZ.items()])
def test_malformed_npz_is_reported_at_matrix_path(tmp_path, capsys, data, fault):
    (tmp_path / "matrix.npz").write_bytes(data)
    cfg = write_config(tmp_path, dict(FMO, matrix_path="matrix.npz"))
    assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: /matrix_path: {tmp_path / 'matrix.npz'}: ") and err.count("\n") == 1, err
    assert fault in err, err


def test_matrix_csv_with_a_bad_column_line_is_reported_at_matrix_path(tmp_path, capsys):
    (tmp_path / "matrix.csv").write_text("# voxels=2 beamlets=2\nrow,column,value\n0,1,1.0\n", encoding="utf-8")
    cfg = write_config(tmp_path, dict(FMO, matrix_path="matrix.csv"))
    assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err == f"error: /matrix_path: {tmp_path / 'matrix.csv'}: second line must be 'row,col,value', got 'row,column,value'\n"


def refusing_huge(monkeypatch, name):
    """numpy's ``name`` raising MemoryError, as it would, when given a size past 10**9; other calls go through."""
    real = getattr(np, name)

    def allocate(*args, **kwargs):
        huge = [a for a in args if isinstance(a, int) and a > 10**9]
        if huge:
            raise MemoryError(f"Unable to allocate an array of {huge[0]} entries")
        return real(*args, **kwargs)

    monkeypatch.setattr(np, name, allocate)


def test_matrix_csv_too_large_to_allocate_is_reported_at_matrix_path(tmp_path, capsys, monkeypatch):
    # the header sizes the offsets; nothing of that size is allocated here
    (tmp_path / "matrix.csv").write_text("# voxels=1000000000000 beamlets=2\nrow,col,value\n0,1,1.0\n", encoding="utf-8")
    cfg = write_config(tmp_path, dict(FMO, matrix_path="matrix.csv"))
    refusing_huge(monkeypatch, "zeros")
    assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: /matrix_path: Unable to allocate an array of 1000000000001 entries\n"


def test_grid_too_large_to_allocate_is_reported_at_its_field(tmp_path, capsys, monkeypatch):
    cfg = write_config(tmp_path, {"operator": QUAD_OP, "f0": grid_constant(0.5, n=10**12)})
    refusing_huge(monkeypatch, "linspace")
    assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == "error: /f0/grid: Unable to allocate an array of 1000000000000 entries\n"


def test_fmo_with_a_non_finite_support_solve_exits_two(tmp_path, capsys):
    # coefficients of 1e-10 against doses of 1e308 overflow the support
    # solve; the solver names the cause instead of failing inside it
    entries = "".join(f"{r},{c},1e-10\n" for r, c in ((0, 0), (1, 0), (1, 1), (2, 1)))
    (tmp_path / "matrix.csv").write_text(f"# voxels=3 beamlets=2\nrow,col,value\n{entries}", encoding="utf-8")
    problem = {"matrix_path": "matrix.csv", "T": [1e308] * 3, "labels": ["PTV"] * 3, "tau": 0.0, "inner": {"max_iters": 5}}
    cfg = write_config(tmp_path, problem)
    assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: solver produced non-finite values; instance is ill-posed\n"
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "entries, target, tau",
    [
        # the Gram matrix D^T D overflows, and with it the first pivot's gradient
        pytest.param([(0, 0, 1e200), (0, 1, 1e200), (1, 0, 1e200), (1, 1, 1e200)], [1, 2], 0.0, id="gram-overflow"),
        # the objective overflows though every dose is finite
        pytest.param([(0, 0, 1), (1, 0, 0.5), (1, 1, 0.5), (2, 1, 1)], [1e200, 2e200, 1e200], 0.6, id="objective-overflow"),
    ],
)
def test_fmo_with_a_non_finite_objective_exits_two_with_one_line(tmp_path, capsys, entries, target, tau):
    # no warning filter: pytest turns any numpy warning that escapes into an error
    lines = "".join(f"{r},{c},{v}\n" for r, c, v in entries)
    (tmp_path / "matrix.csv").write_text(f"# voxels={len(target)} beamlets=2\nrow,col,value\n{lines}", encoding="utf-8")
    cfg = write_config(tmp_path, {"matrix_path": "matrix.csv", "T": target, "labels": ["PTV"] * len(target), "tau": tau})
    assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err == "error: solver produced non-finite values; instance is ill-posed\n"
    assert not (tmp_path / "o").exists()


def test_fmo_reports_the_voxels_whose_entries_are_all_zero(tmp_path):
    # voxel 1's row holds an entry, but a zero one: it receives no dose either
    (tmp_path / "matrix.csv").write_text("# voxels=3 beamlets=2\nrow,col,value\n0,0,1\n1,0,0.0\n2,1,1\n", encoding="utf-8")
    cfg = write_config(tmp_path, {"matrix_path": "matrix.csv", "T": [10, 10, 10], "labels": ["PTV"] * 3, "tau": 0.5})
    assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert read_report(tmp_path / "o", "fmo_report.json")["warnings"] == ["1 voxels receive zero dose from every beamlet"]


def test_fmo_reports_the_voxels_its_matrix_leaves_unreached(tmp_path):
    # a matrix made elsewhere gets the warning too: voxel 1's row holds no entry
    (tmp_path / "matrix.csv").write_text("# voxels=3 beamlets=2\nrow,col,value\n0,0,1\n2,1,1\n", encoding="utf-8")
    cfg = write_config(tmp_path, {"matrix_path": "matrix.csv", "T": [10, 10, 10], "labels": ["PTV"] * 3, "tau": 0.5})
    assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert read_report(tmp_path / "o", "fmo_report.json")["warnings"] == ["1 voxels receive zero dose from every beamlet"]


@pytest.mark.parametrize(
    "lines, fault",
    [
        # the same fault is named at its line whether or not a line of spaces sends the file to the line reader
        pytest.param("0,0,1.0\n5,1,2.0\n", ":4: voxel index 5 out of range [0, 2)", id="row-out-of-range"),
        pytest.param("0,0,1.0\n   \n5,1,2.0\n", ":5: voxel index 5 out of range [0, 2)", id="row-out-of-range-after-spaces"),
        pytest.param("0,2,1.0\n", ":3: beamlet index 2 out of range [0, 2)", id="col-out-of-range"),
        pytest.param("0,-1,1.0\n", ":3: beamlet index -1 out of range [0, 2)", id="col-negative"),
        pytest.param("0,1,1.0\n0,1,2.0\n", ": duplicate entry for voxel 0, beamlet 1", id="duplicate"),
        pytest.param("0,1,1.0\n   \n0,1,2.0\n", ": duplicate entry for voxel 0, beamlet 1", id="duplicate-after-spaces"),
    ],
)
def test_matrix_csv_fault_names_its_file(tmp_path, capsys, lines, fault):
    (tmp_path / "matrix.csv").write_text(f"# voxels=2 beamlets=2\nrow,col,value\n{lines}", encoding="utf-8")
    cfg = write_config(tmp_path, dict(FMO, matrix_path="matrix.csv"))
    assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    assert capsys.readouterr().err == f"error: /matrix_path: {tmp_path / 'matrix.csv'}{fault}\n"


def test_grid_l1_past_the_floats_passes_the_axiom_survey(tmp_path):
    # the distance from 1e307 to 0 weighs 100 units of trapezoid width: past the float range, so inf
    grid = {"start": 0.0, "stop": 100.0, "n": 101, "weights": "trapezoid"}
    functions = [{"grid": grid, "init": {"constant": c}} for c in (1e307, 0.0, 1.0)]
    cfg = write_config(tmp_path, one_check(AXIOM_CHECK, metric="grid_l1", functions=functions))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    assert read_report(tmp_path / "o", "verify_report.json")["all_satisfied"] is True


def test_fmo_gap_past_the_floats_is_written_as_null(tmp_path):
    # the reference fits T exactly, the degenerate split leaves it all: the
    # relative gap over a zero reference objective overflows
    (tmp_path / "matrix.csv").write_text("# voxels=2 beamlets=2\nrow,col,value\n0,0,1\n1,1,1\n", encoding="utf-8")
    cfg = write_config(tmp_path, {"matrix_path": "matrix.csv", "T": [10, 10], "labels": ["PTV", "OAR"], "tau": 1.0})
    assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    report = read_report(tmp_path / "o", "fmo_report.json")["report"]
    assert report["degenerate_inner"] is True and report["reference_converged"] is True
    assert report["reference_gap"] is None


def test_psi_family_partial_sum_past_the_floats_is_written_as_null(tmp_path):
    # the orbit of 1e308 under 0.9 t holds finite terms whose sum passes the float range
    cfg = write_config(tmp_path, one_check(PSI_CHECK, psi={"kind": "linear", "c": 0.9}, t_samples=[1e308]))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    report = read_report(tmp_path / "o", "verify_report.json")
    assert report["all_satisfied"] is False
    assert report["results"][0]["details"]["samples"][0]["partial_sum"] is None


def test_iterate_writes_a_residual_past_the_floats_as_null(tmp_path):
    # y^30 of 5e10 overflows, so the run stops at its start with no finite image
    operator = {"kind": "pointwise", "poly": [0] * 30 + [1]}
    cfg = write_config(tmp_path, {"operator": operator, "f0": grid_constant(5e10, n=3)})
    assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    report = read_report(tmp_path / "o", "iteration_report.json")["report"]
    assert report["diverged"] is True and report["residual"] is None


# grids whose weighted L1 distances pass the float range: the weights of [0, 2e298] sum to 2e298, so
# the first step of the halving map from 1e10 measures 1e308 and every later one less, while
# d(f0, 0) and the sum of the steps pass the range; on [0, 1e300] a step from 1e11 or 1e10 is inf
GIANT_F0 = {"grid": {"start": 0, "stop": 2e298, "n": 3, "weights": "trapezoid"}, "init": {"constant": 1e10}}
HUGE_GRID = {"start": 0, "stop": 1e300, "n": 3, "weights": "trapezoid"}
HUGE_STEPS = {"operator": HALVE, "f0": {"grid": HUGE_GRID, "init": {"constant": 1e11}}, "metric": "grid_l1",
              "max_iters": 5}
# y -> 2y from 1 on [0, 1e307]: four doublings, then steps past the float range
DOUBLING = {"operator": {"kind": "affine", "scale": 2, "shift": 0}, "metric": "grid_l1", "max_iters": 8,
            "f0": {"grid": {"start": 0, "stop": 1e307, "n": 3, "weights": "trapezoid"}, "init": {"constant": 1}}}
REICH_C = {"mode": "reich", "reich": {"a": 0, "b": 0, "c": 0.1}}


@pytest.mark.parametrize(
    "command, cfg, code, expected",
    [
        pytest.param(
            "iterate",
            {"mode": "reich", "reich": {"a": 0, "b": 0, "c": 0.6}, "operator": HALVE, "f0": GIANT_F0,
             "metric": "grid_l1", "max_iters": 200},
            0, {"converged": True, "iterations": 60, "reich_condition_held": True},
            id="reich-trace-sum",
        ),
        pytest.param(
            # steps that shrink by 0.9 break the allowed 0.1: the rounding allowance is sized from
            # d(f0, 0) = 2e308 without overflowing, so it cannot hide the failure
            "iterate",
            {"mode": "reich", "reich": {"a": 0, "b": 0, "c": 0.1}, "operator": {"kind": "affine", "scale": 0.9, "shift": 0},
             "f0": GIANT_F0, "metric": "grid_l1", "max_iters": 200},
            2, {"converged": False, "reich_condition_held": False},
            id="reich-broken-past-the-floats",
        ),
        pytest.param(
            "iterate", dict(HUGE_STEPS, lambda_hint=0.5), 2,
            {"converged": False, "apriori_bounds": [], "trace": [None] * 5, "rate_estimates": [None] * 4},
            id="lambda-hint-infinite-first-step",
        ),
        pytest.param(
            "iterate", HUGE_STEPS, 2, {"converged": False, "trace": [None] * 5, "rate_estimates": [None] * 4},
            id="infinite-steps",
        ),
        pytest.param(
            "verify",
            one_check({"check": "contraction", "operator": HALVE, "metric": "grid_l1",
                       "pairs": [[{"grid": HUGE_GRID, "init": {"constant": c}} for c in (1e10, 0)]]}),
            2, {"estimated_constant": None, "details": {"pair_count": 1, "ratios": [None], "skipped_degenerate": 0}},
            id="contraction-infinite-distances",
        ),
        # a rounding allowance past the float range allows nothing, so no inequality holds against it
        pytest.param(
            # the first 5 steps pass the float range, and the 54 finite step pairs halve against the allowed 0.1
            "iterate",
            dict(REICH_C, operator=HALVE, f0={"grid": HUGE_GRID, "init": {"constant": 1e10}}, metric="grid_l1",
                 max_iters=200),
            0, {"converged": True, "iterations": 60, "reich_condition_held": False},
            id="reich-allowance-past-the-floats",
        ),
        pytest.param(
            "iterate", dict(DOUBLING, **REICH_C), 2, {"converged": False, "reich_condition_held": False},
            id="reich-doubling-past-the-floats",
        ),
        pytest.param(
            "iterate",
            dict(DOUBLING, mode="alpha_psi", alpha={"kind": "window", "inside": 1, "outside": 1},
                 psi={"kind": "linear", "c": 0.1}),
            2, {"converged": False, "alpha_chain_held": True, "psi_bound_ok": False},
            id="psi-bound-doubling-past-the-floats",
        ),
        pytest.param(
            # every distance is finite, but d(f, 0) of either constant, and so the allowance, is not
            "verify",
            one_check({"check": "reich", "operator": {"kind": "affine", "scale": 1, "shift": 0}, "metric": "grid_l1",
                       "a": 0, "b": 0, "c": 0.1,
                       "pairs": [[{"grid": HUGE_GRID, "init": {"constant": c}} for c in (1e23, 1.0000000000000003e23)]]}),
            2, {"satisfied": False, "witness": {"pair_index": 0, "lhs": 3.3554432e307, "rhs": 3.3554432e306}},
            id="reich-check-allowance-past-the-floats",
        ),
    ],
)
def test_distances_past_the_floats_keep_the_run_code_and_write_strict_json(tmp_path, capsys, command, cfg, code, expected):
    assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(tmp_path / "o")]) == code
    assert capsys.readouterr().err == ""
    name = {"iterate": "iteration_report.json", "verify": "verify_report.json"}[command]
    payload = read_report(tmp_path / "o", name)
    report = payload["report"] if command == "iterate" else payload["results"][0]
    assert {key: report[key] for key in expected} == expected


def test_alpha_start_gate_names_an_overflowing_image_in_one_line(tmp_path, capsys):
    # the gate maps f0 before the run starts, and y^30 of 5e10 overflows there
    operator = {"kind": "pointwise", "poly": [0] * 30 + [1]}
    cfg = write_config(tmp_path, dict(ALPHA_PSI, operator=operator, f0=grid_constant(5e10, n=3)))
    assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: /f0: operator produced a non-finite value at point ") and err.count("\n") == 1, err


def nested_composite(depth):
    op = HALVE
    for _ in range(depth):
        op = {"kind": "composite", "ops": [op]}
    return op


# configs that ended in a Python traceback: (command, file contents, the start of the one error line)
UNREADABLE = [
    pytest.param("verify", b'{"checks": "\xff\xfe"}', "error: /: not valid JSON (", id="not-utf-8"),
    pytest.param("iterate", json.dumps(dict(BANACH, operator=nested_composite(200))).encode(),
                 "error: /: nested too deeply (", id="composite-nested-200"),
    pytest.param("verify", b'{"checks": ' + b"[" * 100_000 + b"]" * 100_000 + b"}",
                 "error: /: nested too deeply (", id="json-nested-100000"),
    pytest.param("iterate", json.dumps(dict(BANACH, f0={"grid": {"start": -1e308, "stop": 1e308, "n": 3},
                                                         "init": {"constant": 1.0}})).encode(),
                 "error: /f0/grid: grid span stop - start must be finite, got ", id="grid-span"),
]


@pytest.mark.parametrize("command, data, line", UNREADABLE)
def test_config_past_what_can_be_read_exits_one_with_one_line(tmp_path, capsys, command, data, line):
    (tmp_path / "config.json").write_bytes(data)
    assert main([command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert err.startswith(line) and err.count("\n") == 1 and "Traceback" not in err, err


HUGE_F = {"domain": [{"label": "a", "coordinate": 0.0}, {"label": "b", "coordinate": 1.0}], "values": [1e308, -1e308]}
HUGE_G = dict(HUGE_F, values=[-1e308, 1e308])


# f and g = -f lie 2e308 apart, past the float range.  d(Tf, Tg) / d(f, g) would
# read 1e308 / inf = 0.0, so the contraction checks fail on that pair (exit 2);
# the triangle survey's sums of such distances are inf, and it passes (exit 0)
@pytest.mark.parametrize(
    "check, status",
    [
        pytest.param({"check": "contraction", "operator": HALVE, "metric": metric, "pairs": [[HUGE_F, HUGE_G]]}, 2,
                     id=f"contraction-{metric}")
        for metric in ("uniform", "cross_sup")
    ] + [
        pytest.param(dict(AXIOM_CHECK, functions=[HUGE_F, dict(HUGE_F, values=[0, 0]), HUGE_G]), 0,
                     id="axioms-triangle-sum"),
    ],
)
def test_verify_with_distances_past_the_floats_prints_no_warning(tmp_path, capsys, check, status):
    cfg = write_config(tmp_path, one_check(check))
    assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "o")]) == status
    assert capsys.readouterr().err == ""


def test_phantom_takes_every_positive_finite_kernel_width(tmp_path, capsys):
    spec = {"grid": [3], "n_beamlets": 1, "ptv_region": [0, 1], "prescription_ptv": 60.0, "cap_oar": 20.0}
    matrices = {}
    for width in (1e154, 1e155, 1e-300):
        cfg = write_config(tmp_path, dict(spec, kernel_width=width), f"{width}.json")
        assert main(["phantom", "--config", str(cfg), "--out", str(tmp_path / str(width))]) == 0
        matrices[width] = (tmp_path / str(width) / "phantom_matrix.csv").read_text(encoding="utf-8")
    assert capsys.readouterr().err == ""
    # 1e155, whose square passes the float range, gives the flat profile, as 1e154 does
    assert matrices[1e155] == matrices[1e154]
    # the narrowest keeps the beamlet's own centre, voxel 1, and nothing else
    assert matrices[1e-300].splitlines()[2:] == ["1,0,1.0250190933209335"]


def test_well_formed_npz_is_read(tmp_path):
    (tmp_path / "matrix.npz").write_bytes(saved(np.savez, **GOOD_NPZ))
    cfg = write_config(tmp_path, dict(FMO, matrix_path="matrix.npz"))
    assert main(["fmo", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


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


# Keys that were settings once; files written then still carry them, and the CLI does not read them.
RETIRED_KEYS = [
    *(pytest.param("iterate", ("record_trace",), value, id=f"record-trace-{value}") for value in (True, False, "x")),
    *(pytest.param("fmo", ("inner",), {"step_rule": value}, id=f"step-rule-{value}")
      for value in ("one_over_L", "barzilai_borwein")),
    # fmo counts the unreached voxels in the matrix it reads
    *(pytest.param("fmo", ("warnings",), value, id=f"warnings-{name}") for name, value in (("list", ["x"]), ("string", "x"))),
]


@pytest.mark.parametrize("command, path, value", RETIRED_KEYS)
def test_a_retired_key_changes_nothing(tmp_path, command, path, value):
    if command == "iterate":
        config, report = BANACH, "iteration_report.json"
    else:
        assert main(["phantom", "--config", str(write_config(tmp_path, PHANTOM_CFG, "spec.json")),
                     "--out", str(tmp_path)]) == 0
        config, report = read_report(tmp_path, "phantom_problem.json"), "fmo_report.json"
    written = []
    for name, obj in (("without", config), ("with", replaced(config, path, value))):
        cfg = write_config(tmp_path, obj, name=f"{name}.json")
        assert main([command, "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        written.append((tmp_path / name / report).read_bytes())
    assert written[0] == written[1]


def test_integral_float_schema_version_counts(tmp_path):
    cfg = write_config(tmp_path, dict(BANACH, schema_version=1.0))
    assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0


# Every leaf or object of these small valid configs is replaced by one of these.
JUNK = [None, "x", 5, 1.5, True, [], {}, float("nan")]
VALID_CONFIGS = {
    "iterate-reich": {
        "schema_version": 1, "mode": "reich", "reich": {"a": 0.1, "b": 0.1, "c": 0.3},
        "operator": {"kind": "composite", "ops": [HALVE, {"kind": "pointwise", "poly": [0.5, 0.5]}]},
        "f0": {"grid": {"start": 0.0, "stop": 1.0, "n": 4}, "init": "coordinate"},
        "metric": "cross_sup", "tol": 1e-6, "max_iters": 100, "lambda_hint": 0.5,
    },
    "iterate-alpha-psi": {
        "mode": "alpha_psi", "psi": {"kind": "linear", "c": 0.5},
        "alpha": {"kind": "window", "arg": "first", "lower": 0.0, "upper": 4.0, "open_lower": False,
                  "open_upper": True, "inside": 1.0, "outside": 0.0},
        "operator": HALVE,
        "f0": {"grid": {"start": 0.0, "stop": 1.0, "n": 5, "weights": "trapezoid"}, "init": {"constant": 1.0}},
        "metric": "grid_l1", "tol": 1e-6,
    },
    "iterate-values": {
        "operator": HALVE,
        "f0": {"grid": {"start": 0.0, "stop": 1.0, "n": 3, "weights": "trapezoid"}, "values": [0.5, 1.0, 2.0]},
        "metric": "grid_l1",
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
    "phantom": dict(PHANTOM_CFG, tau=0.1),
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
    out = json.loads(json.dumps(obj))  # a copy that shares no object, such as HALVE, between two places
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


# Every one of these is a JSON value that a number field rejects.
NOT_NUMBERS = ["x", True, [], {}, float("nan")]


def at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


@pytest.mark.parametrize("name", [*VALID_CONFIGS, "fmo"])
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_every_number_field_rejects_a_non_number_at_its_pointer(valid_configs, capsys, name, data):
    command, valid, where = valid_configs[name]
    numbers = [path for path in json_paths(valid) if type(at(valid, path)) in (int, float)]
    path = data.draw(st.sampled_from(numbers), label="path")
    value = data.draw(st.sampled_from(NOT_NUMBERS), label="value")
    cfg = write_config(where, replaced(valid, path, value), name="junk.json")
    assert main([command, "--config", str(cfg), "--out", str(where / "out")]) == 1
    err = capsys.readouterr().err
    pointer = "".join(f"/{key}" for key in path)
    assert len(err.splitlines()) == 1 and err.startswith(f"error: {pointer}: "), err


# ---------------------------------------------------------------------------
# one parser per process
# ---------------------------------------------------------------------------


class TestOneParser:
    """Every ``main`` call in a process shares one parser, which carries nothing from one call to the next."""

    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_seed_option_does_not_stick(self, tmp_path):
        spec = write_config(tmp_path, PHANTOM_CFG, "spec.json")

        def phantom(sub, *extra):
            assert main(["phantom", "--config", str(spec), "--out", str(tmp_path / sub), *extra]) == 0
            return [(tmp_path / sub / name).read_bytes() for name in ("phantom_matrix.csv", "phantom_matrix.npz")]

        overridden = phantom("overridden", "--seed", str(PHANTOM_CFG["seed"] + 4))
        default = phantom("default")
        assert default == phantom("spec-seed", "--seed", str(PHANTOM_CFG["seed"]))
        assert default != overridden

    def test_format_option_does_not_stick(self, tmp_path):
        cfg = write_config(tmp_path, VALID_CONFIGS["iterate-reich"])
        assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "csv"), "--format", "csv"]) == 0
        assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "json")]) == 0
        assert (tmp_path / "csv" / "trace.csv").exists()
        assert sorted(p.name for p in (tmp_path / "json").iterdir()) == ["iteration_report.json"]

    def test_usage_error_then_valid_command(self, tmp_path, capsys):
        cfg = write_config(tmp_path, VALID_CONFIGS["iterate-reich"])
        with pytest.raises(SystemExit) as exc:
            main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "bad"), "--format", "xml"])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err
        assert main(["iterate", "--config", str(cfg), "--out", str(tmp_path / "good")]) == 0

    def test_command_rebound_after_first_call_is_reached(self, tmp_path, monkeypatch):
        cfg = write_config(tmp_path, one_check(AXIOM_CHECK))
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "first")]) == 0
        calls = []

        def spy(config_path, out_dir):
            calls.append((config_path, out_dir))
            return 0

        monkeypatch.setattr(cli, "cmd_verify", spy)
        assert main(["verify", "--config", str(cfg), "--out", str(tmp_path / "second")]) == 0
        assert calls == [(cfg, tmp_path / "second")]
        assert not (tmp_path / "second").exists()


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


# Runs (name, argv) steps through cli.main in one interpreter and prints, per
# step, the exit code and the scipy modules loaded so far.  With "block" as
# the first argument, scipy cannot be imported at all.
SCIPY_PROBE = """
import json, sys
if sys.argv[1] == "block":
    sys.modules["scipy"] = None
from fixfunc import cli

def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy" and sys.modules[m] is not None)

loaded = {"import fixfunc.cli": [0, scipy_modules()]}
for name, argv in json.loads(sys.argv[2]):
    loaded[name] = [cli.main(argv), scipy_modules()]
print(json.dumps(loaded))
"""


def run_scipy_probe(tmp_path, steps, mode="watch"):
    """The probe's {step name: [exit code, scipy modules loaded]} for ``steps`` run in a fresh interpreter."""
    src = str(Path(fixfunc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCIPY_PROBE, mode, json.dumps(steps)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def phantom_then_fmo(tmp_path):
    spec = write_config(tmp_path, PHANTOM_CFG, "spec.json")
    return [
        ("phantom", ["phantom", "--config", str(spec), "--out", str(tmp_path / "case")]),
        ("fmo", ["fmo", "--config", str(tmp_path / "case" / "phantom_problem.json"), "--out", str(tmp_path / "res")]),
    ]


def test_no_command_loads_scipy(tmp_path):
    """Start-up and every command, fmo included, leave scipy unimported."""
    cfg = {name: write_config(tmp_path, VALID_CONFIGS[name], f"{name}.json")
           for name in ("iterate-reich", "iterate-alpha-psi", "verify")}
    steps = [
        *((name, [name.split("-")[0], "--config", str(path), "--out", str(tmp_path / name)]) for name, path in cfg.items()),
        *phantom_then_fmo(tmp_path),
    ]
    loaded = run_scipy_probe(tmp_path, steps)
    # every command ran (the verify sheet has a failing check, so it exits 2)
    assert {name: code for name, (code, _) in loaded.items()} == dict.fromkeys(loaded, 0) | {"verify": 2}
    assert {name: modules for name, (_, modules) in loaded.items()} == dict.fromkeys(loaded, [])


def test_phantom_and_fmo_run_where_scipy_cannot_be_imported(tmp_path):
    # numpy is the only runtime dependency
    loaded = run_scipy_probe(tmp_path, phantom_then_fmo(tmp_path), mode="block")
    assert loaded == {"import fixfunc.cli": [0, []], "phantom": [0, []], "fmo": [0, []]}
