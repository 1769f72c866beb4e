"""Command line front end.

Four subcommands: ``iterate`` runs one of the iteration engines from a JSON
config, ``verify`` evaluates hypothesis checkers, ``fmo`` solves a planning
instance, ``phantom`` materializes a synthetic one.  Exit codes: 0 on
success, 1 for input or validation problems, 2 when the algorithm ran but
did not succeed (non-convergence, failed check, excessive gap).

Config fields are read through one table from field name to reader.  An
input error becomes one :class:`ConfigError` at the pointer of the deepest
field it can be traced to.  Optional fields reach their callee only when
present, so their defaults live with the callee.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

from . import fmo as fmo_mod
from .function_space import (
    DiscreteFunction,
    Domain,
    MetricKind,
    check_metric_axioms,
)
from .iteration import (
    AlphaPsiMode,
    BanachMode,
    IterationConfig,
    ReichMode,
    check_hypothesis_H,
    iterate,
)
from .operators import (
    AlphaFunction,
    OperatorSpec,
    PsiSpec,
    check_alpha_admissible,
    check_alpha_psi_contractive,
    check_psi_family,
    check_reich_condition,
    estimate_contraction_constant,
)
from .phantom import PhantomSpec, generate_phantom

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Validation failure, tagged with a JSON-pointer-ish path."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _load_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("/", f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError("/", f"not valid JSON ({exc})")
    if not isinstance(obj, dict):
        raise ConfigError("/", "top level must be a JSON object")
    version = obj.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError("/schema_version", f"unsupported schema version {version!r}")
    return obj


@contextmanager
def _at(pointer: str):
    """Raise an input error of the block as one ConfigError at ``pointer``.

    Input errors are ValueError, TypeError, OverflowError and KeyError.  A
    ConfigError of a deeper field passes through, so every error names one
    pointer.
    """
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(pointer, f"missing field {exc}") from None
    except (ValueError, TypeError, OverflowError) as exc:
        raise ConfigError(pointer, str(exc)) from None


def _read(reader, value, pointer: str):
    with _at(pointer):
        return reader(value, pointer)


def _fields(obj, pointer: str, required=(), optional=()) -> dict:
    """The ``required`` and the present ``optional`` fields of ``obj``, read by their ``_FIELDS`` readers."""
    if not isinstance(obj, dict):
        raise ConfigError(pointer or "/", "must be an object")
    out = {}
    for key in (*required, *optional):
        if key in obj:
            out[key] = _read(_FIELDS[key], obj[key], f"{pointer}/{key}")
        elif key in required:
            raise ConfigError(f"{pointer}/{key}", "missing required field")
    return out


# ---------------------------------------------------------------------------
# readers: (JSON value, its pointer) -> value for the callee


def _number(value, pointer: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {value!r}")
    return float(value)


def _integer(value, pointer: str) -> int:
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def _boolean(value, pointer: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _choice(name, choices, what: str) -> str:
    if not isinstance(name, str) or name not in choices:
        raise ValueError(f"unknown {what} {name!r}, expected one of {sorted(choices)}")
    return name


def _list(read_item):
    """Reader of a non-empty list whose items ``read_item`` reads, each at its own pointer."""

    def read(value, pointer: str) -> list:
        if not isinstance(value, list) or not value:
            raise ValueError("must be a non-empty list")
        return [_read(read_item, item, f"{pointer}/{k}") for k, item in enumerate(value)]

    return read


def _function(obj, pointer: str) -> DiscreteFunction:
    """A grid with an ``init`` rule, or a function in explicit JSON."""
    if not isinstance(obj, dict) or "grid" not in obj:
        return DiscreteFunction.from_json_dict(obj)
    domain = _fields(obj, pointer, ("grid",))["grid"]
    init = obj.get("init")
    if init == "coordinate":
        return DiscreteFunction(domain, domain.coordinates)
    if isinstance(init, dict) and "constant" in init:
        return DiscreteFunction.constant(domain, _read(_number, init["constant"], f"{pointer}/init/constant"))
    raise ConfigError(f"{pointer}/init", "expected 'coordinate' or {'constant': value}")


def _pair(value, pointer: str) -> tuple[DiscreteFunction, DiscreteFunction]:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError("each pair must be a two-element list")
    return tuple(_read(_function, f, f"{pointer}/{k}") for k, f in enumerate(value))


def _check(entry, pointer: str) -> dict:
    """Run one verify entry; its JSON report, named when the entry is."""
    kind = _fields(entry, pointer, ("check",))["check"]
    required, optional = _CHECK_FIELDS[kind]
    fields = _fields(entry, pointer, required, optional)
    args = [fields.pop(key) for key in required]
    report = _CHECKS[kind](*args, **fields).to_json_dict()
    if "name" in entry:
        report["name"] = entry["name"]
    return report


_FIELDS = {
    "operator": lambda v, p: OperatorSpec.from_json_dict(v),
    "alpha": lambda v, p: AlphaFunction.from_json_dict(v),
    "psi": lambda v, p: PsiSpec.from_json_dict(v),
    "metric": lambda v, p: MetricKind(_choice(v, [m.value for m in MetricKind], "metric")),
    "reich": lambda v, p: ReichMode(**_fields(v, p, ("a", "b", "c"))),
    "lambda_hint": lambda v, p: None if v is None else _number(v, p),
    "record_trace": _boolean,
    "f0": _function,
    "grid": lambda v, p: Domain.uniform_grid(**_fields(v, p, ("start", "stop", "n"), ("weights",))),
    "weights": lambda v, p: v,
    "pairs": _list(_pair),
    "functions": _list(_function),
    "candidates": _list(_function),
    "pool": _list(_function),
    "t_samples": _list(_number),
    "checks": _list(_check),
    "check": lambda v, p: _choice(v, _CHECKS, "check kind"),
    **dict.fromkeys(("tol", "tail_tol", "a", "b", "c", "start", "stop", "gap_bound", "tau"), _number),
    **dict.fromkeys(("max_iters", "n_max", "n"), _integer),
}

# each mode's constructor, given the top-level config that holds its fields
_MODES = {
    "banach": lambda cfg: BanachMode(),
    "reich": lambda cfg: _fields(cfg, "", ("reich",))["reich"],
    "alpha_psi": lambda cfg: AlphaPsiMode(**_fields(cfg, "", ("alpha", "psi"))),
}

# A flat dict, so that tracing can rebind the checkers it wraps.
_CHECKS = {
    "contraction": estimate_contraction_constant,
    "reich": check_reich_condition,
    "alpha_admissible": check_alpha_admissible,
    "psi_family": check_psi_family,
    "alpha_psi": check_alpha_psi_contractive,
    "metric_axioms": check_metric_axioms,
    "hypothesis_h": check_hypothesis_H,
}

# per kind: the checker's positional arguments in order, then its optional keywords
_CHECK_FIELDS = {
    "contraction": (("operator", "metric", "pairs"), ()),
    "reich": (("operator", "metric", "a", "b", "c", "pairs"), ()),
    "alpha_admissible": (("operator", "alpha", "pairs"), ()),
    "psi_family": (("psi", "t_samples"), ("n_max", "tail_tol")),
    "alpha_psi": (("operator", "alpha", "psi", "metric", "pairs"), ()),
    "metric_axioms": (("metric", "functions"), ()),
    "hypothesis_h": (("alpha", "candidates", "pool"), ()),
}


def _write_json(out_dir: Path, name: str, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_iterate(config_path: Path, out_dir: Path, fmt: str) -> int:
    cfg = _load_json(config_path)
    fields = _fields(
        cfg, "", ("operator", "f0"), ("metric", "tol", "max_iters", "record_trace", "lambda_hint")
    )
    op, f0 = fields.pop("operator"), fields.pop("f0")
    if "mode" in cfg:
        fields["mode"] = _read(lambda v, p: _MODES[_choice(v, _MODES, "mode")](cfg), cfg["mode"], "/mode")
    with _at("/"):
        config = IterationConfig(**fields)
    # the alpha start gate rejects f0; that is an input problem, not a failed run
    with _at("/f0"):
        report = iterate(op, f0, config)

    payload = {"schema_version": SCHEMA_VERSION, "report": report.to_json_dict()}
    path = _write_json(out_dir, "iteration_report.json", payload)
    if fmt == "csv":
        trace_path = out_dir / "trace.csv"
        with open(trace_path, "w", encoding="utf-8") as fh:
            fh.write("iter,distance,bound\n")
            bounds = report.apriori_bounds
            for i, d in enumerate(report.trace):
                bound = repr(bounds[i]) if i < len(bounds) else ""
                fh.write(f"{i},{d!r},{bound}\n")
    print(f"wrote {path}")
    return 0 if report.converged else 2


def cmd_verify(config_path: Path, out_dir: Path) -> int:
    results = _fields(_load_json(config_path), "", ("checks",))["checks"]
    all_ok = all(r["satisfied"] for r in results)
    path = _write_json(
        out_dir,
        "verify_report.json",
        {"schema_version": SCHEMA_VERSION, "all_satisfied": all_ok, "results": results},
    )
    print(f"wrote {path}")
    return 0 if all_ok else 2


def cmd_fmo(config_path: Path, out_dir: Path) -> int:
    cfg = _load_json(config_path)
    gap_bound = _fields(cfg, "", (), ("gap_bound",)).get("gap_bound", 1e-2)
    with _at("/"):
        try:
            problem = fmo_mod.problem_from_json_dict(cfg, config_path.parent)
        except FileNotFoundError as exc:
            raise ConfigError("/matrix_path", str(exc)) from None
    try:
        report = fmo_mod.fmo_solve(problem)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "schema_version": SCHEMA_VERSION,
        "report": report.to_json_dict(),
        "dose_statistics": fmo_mod.dose_statistics(report.dose, problem.labels),
        "gap_bound": gap_bound,
        "warnings": list(problem.warnings),
    }
    path = _write_json(out_dir, "fmo_report.json", payload)
    print(f"wrote {path}")
    ok = report.converged and report.reference_gap <= gap_bound
    return 0 if ok else 2


def cmd_phantom(config_path: Path, out_dir: Path, seed: int | None) -> int:
    cfg = _load_json(config_path)
    tau = _fields(cfg, "", (), ("tau",))
    with _at("/"):
        problem = generate_phantom(PhantomSpec.from_json_dict(cfg), seed=seed)
    with _at("/tau"):
        problem = dataclasses.replace(problem, **tau)
    out_dir.mkdir(parents=True, exist_ok=True)
    fmo_mod.write_matrix_csv(problem.ddc, out_dir / "phantom_matrix.csv")
    payload = fmo_mod.problem_to_json_dict(problem, "phantom_matrix.csv")
    path = _write_json(out_dir, "phantom_problem.json", payload)
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fixfunc",
        description="Fixed-function iteration and threshold-split fluence map optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help: str, run) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("--config", required=True, type=Path, help="JSON config file")
        p.add_argument("--out", required=True, type=Path, help="output directory")
        p.set_defaults(run=run)
        return p

    iterate_p = add("iterate", "run an iteration engine", lambda a: cmd_iterate(a.config, a.out, a.format))
    iterate_p.add_argument("--format", choices=("json", "csv"), default="json")
    add("verify", "evaluate hypothesis checkers", lambda a: cmd_verify(a.config, a.out))
    add("fmo", "solve a planning instance", lambda a: cmd_fmo(a.config, a.out))
    phantom_p = add("phantom", "materialize a synthetic instance", lambda a: cmd_phantom(a.config, a.out, a.seed))
    phantom_p.add_argument("--seed", type=int, default=None, help="override the spec seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
