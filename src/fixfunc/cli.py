"""Command line front end.

Four subcommands: ``iterate`` runs one of the iteration engines from a JSON
config, ``verify`` evaluates hypothesis checkers, ``fmo`` solves a planning
instance, ``phantom`` materializes a synthetic one.  Exit codes: 0 on
success, 1 for input or validation problems, 2 when the algorithm ran but
did not succeed (non-convergence, failed check, excessive gap).

Config fields are read through one table from field name to reader.  An
input error becomes one :class:`ConfigError` at the pointer of the deepest
field it can be traced to; :func:`_read` is the one place that maps it.
A config object built by one callee has that callee's parameter names as
its keys (:func:`_build`), and optional fields reach it only when present,
so both the names and the defaults live with the callee.  Every JSON file
is written by :func:`_write_json`, which writes a report or any other
dataclass as its fields, and a report number past the float range as
``null``.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import inspect
import json
import math
import sys
from contextlib import suppress
from enum import Enum
from pathlib import Path

import numpy as np

from . import fmo as fmo_mod
from .function_space import (
    DiscreteFunction,
    Domain,
    DomainPoint,
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
    AffineMap,
    CompositeMap,
    LinearPsi,
    NamedMap,
    PolynomialMap,
    TableAlpha,
    TablePsi,
    WindowAlpha,
    check_alpha_admissible,
    check_alpha_psi_contractive,
    check_psi_family,
    check_reich_condition,
    estimate_contraction_constant,
)
from .phantom import PhantomSpec, generate_phantom

# configs (and the problem files fmo reads) are gated on this version
CONFIG_SCHEMA_VERSION = 1
# reports: version 2 writes a function on a uniform grid as its grid recipe
# and a values list, and every file as one line; version 3 drops the fmo
# report's lipschitz field; version 4 drops the iteration report's
# reich_bound_ok field and gives the fmo report one per-round entry per round
REPORT_SCHEMA_VERSION = 4


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
    except ValueError as exc:  # JSONDecodeError, or UnicodeDecodeError on a file that is not UTF-8
        raise ConfigError("/", f"not valid JSON ({exc})")
    if not isinstance(obj, dict):
        raise ConfigError("/", "top level must be a JSON object")
    version = _fields(obj, "", (), ("schema_version",)).get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError("/schema_version", f"unsupported schema version {version!r}")
    return obj


# errors a reader raises on bad input; a deeper field's ConfigError is one too
_INPUT_ERRORS = (ValueError, TypeError, OverflowError, MemoryError, OSError)


def _read(reader, value, pointer: str):
    """``reader(value, pointer)``, with an input error it raises as one ConfigError at ``pointer``.

    Input errors are ValueError, TypeError, OverflowError, MemoryError (a
    size too large to allocate) and the OSError of a file the field names.
    A ConfigError of a deeper field passes through, so every error names one pointer.
    """
    try:
        return reader(value, pointer)
    except ConfigError:
        raise
    except _INPUT_ERRORS as exc:
        raise ConfigError(pointer, str(exc)) from None


def _fields(obj, pointer: str, required=(), optional=(), table=None) -> dict:
    """The ``required`` and the present ``optional`` fields of ``obj``, read by their readers in ``table`` (``_FIELDS``)."""
    if not isinstance(obj, dict):
        raise ConfigError(pointer or "/", "must be an object")
    table = _FIELDS if table is None else table
    out = {}
    for key in (*required, *optional):
        if key in obj:
            out[key] = _read(table[key], obj[key], f"{pointer}/{key}")
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


def _nonnegative(value):
    if value < 0:
        raise ValueError(f"must not be negative, got {value!r}")
    return value


def _boolean(value, pointer: str) -> bool:
    if not isinstance(value, bool):
        raise ValueError(f"expected true or false, got {value!r}")
    return value


def _string(value, pointer: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, got {value!r}")
    return value


def _choice(name, choices, what: str) -> str:
    if not isinstance(name, str) or name not in choices:
        raise ValueError(f"unknown {what} {name!r}, expected one of {sorted(choices)}")
    return name


def _list(read_item, empty=False):
    """Reader of a list, non-empty unless ``empty``, whose items ``read_item`` reads, each at its own pointer."""

    def read(value, pointer: str) -> list:
        if not isinstance(value, list) or not (value or empty):
            raise ValueError("must be a list" if empty else "must be a non-empty list")
        return [_read(read_item, item, f"{pointer}/{k}") for k, item in enumerate(value)]

    return read


def _finite_array(value, pointer: str) -> np.ndarray:
    """Reader of a non-empty list of finite numbers, as a float array.

    A list of plain ints and floats converts in one numpy pass; any other
    list goes through ``_list(_number)``, which names the first bad entry
    at its own pointer.
    """
    if isinstance(value, list) and value and set(map(type, value)) <= {int, float}:
        with suppress(OverflowError):  # an int beyond the float range
            arr = np.array(value, dtype=float)
            if np.isfinite(arr).all():
                return arr
    return np.array(_list(_number)(value, pointer))


def _labels(value, pointer: str) -> list:
    """Reader of voxel tags, checked as one set; a bad entry is named at its own pointer."""
    if not (isinstance(value, list) and set(map(type, value)) == {str} and set(value).issubset(fmo_mod.VOXEL_TAGS)):
        value = _list(lambda v, p: _choice(v, fmo_mod.VOXEL_TAGS, "voxel tag"))(value, pointer)
    return value


def _numbers(n: int):
    """Reader of a list of exactly ``n`` finite numbers, as a tuple."""

    def read(value, pointer: str) -> tuple:
        if not isinstance(value, list) or len(value) != n:
            raise ValueError(f"expected a list of {n} numbers, got {value!r}")
        return tuple(_list(_number)(value, pointer))

    return read


@functools.cache
def _keys(callee) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The required and the optional parameter names of ``callee``, read once per callee."""
    params = inspect.signature(callee).parameters.values()
    required = tuple(p.name for p in params if p.default is p.empty)
    return required, tuple(p.name for p in params if p.name not in required)


def _build(callee, obj, pointer: str):
    """``callee`` called with the fields of ``obj`` that its parameters name; an absent optional one keeps its default."""
    return callee(**_fields(obj, pointer, *_keys(callee)))


def _kinds(kinds: dict, what: str):
    """Reader of an object whose ``kind`` field picks the callee in ``kinds`` that builds it."""
    table = {"kind": lambda v, p: _choice(v, kinds, what)}

    def read(obj, pointer: str):
        return _build(kinds[_fields(obj, pointer, ("kind",), table=table)["kind"]], obj, pointer)

    return read


def _pointwise(poly=None, name=None):
    """A polynomial map when ``poly`` is given, else the named map ``name``."""
    if poly is not None:
        return PolynomialMap(poly)
    if name is not None:
        return NamedMap(name)
    raise ValueError("a pointwise operator needs 'poly' or 'name'")


_operator = _kinds({"pointwise": _pointwise, "affine": AffineMap, "composite": CompositeMap}, "operator kind")
_alpha = _kinds({"window": WindowAlpha, "table": TableAlpha}, "alpha kind")
_psi = _kinds({"linear": LinearPsi, "table": TablePsi}, "psi kind")


def _function(obj, pointer: str) -> DiscreteFunction:
    """A grid with ``values`` or an ``init`` rule, or a function on explicit domain entries."""
    if not isinstance(obj, dict) or "grid" not in obj:
        fields = _fields(obj, pointer, ("domain", "values"))
        entries = fields["domain"]
        weights = [e["weight"] for e in entries if "weight" in e]
        if weights and len(weights) != len(entries):
            raise ValueError("either every domain entry carries a weight or none does")
        points = [DomainPoint(e["label"], e["coordinate"]) for e in entries]
        return DiscreteFunction(Domain(points, weights or None), fields["values"])
    fields = _fields(obj, pointer, ("grid",), ("values",))
    domain = fields["grid"]
    if "values" in fields:
        if "init" in obj:
            raise ConfigError(f"{pointer}/init", "a function with 'values' takes no 'init'")
        return DiscreteFunction(domain, fields["values"])
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
    head = _fields(entry, pointer, ("check",), ("name",))
    return {**_json_default(_build(_CHECKS[head.pop("check")], entry, pointer)), **head}


_FIELDS = {
    "operator": _operator,
    "ops": _list(_operator),
    "poly": _list(_number),
    "alpha": _alpha,
    "entries": lambda v, p: tuple(_list(_numbers(3), empty=True)(v, p)),
    "psi": _psi,
    "knots": _list(_numbers(2)),
    "metric": lambda v, p: MetricKind(_choice(v, [m.value for m in MetricKind], "metric")),
    "reich": functools.partial(_build, ReichMode),
    "lambda_hint": lambda v, p: None if v is None else _number(v, p),
    "f0": _function,
    "grid": lambda v, p: _build(Domain.uniform_grid, v, p),  # looked up per call, as tracing rebinds it
    "weights": lambda v, p: _choice(v, ["trapezoid"], "weight rule"),
    "domain": _list(lambda v, p: _fields(v, p, ("label", "coordinate"), ("weight",))),
    "pairs": _list(_pair),
    "functions": _list(_function),
    "candidates": _list(_function),
    "pool": _list(_function),
    "t_samples": _list(_number),
    "checks": _list(_check),
    "check": lambda v, p: _choice(v, _CHECKS, "check kind"),
    "T": _finite_array,
    "values": _finite_array,
    "labels": _labels,
    "inner": functools.partial(_build, fmo_mod.InnerParams),
    "outer": functools.partial(_build, fmo_mod.OuterParams),
    "ptv_region": _list(_integer),
    "tau": lambda v, p: _nonnegative(_number(v, p)),
    "seed": lambda v, p: _nonnegative(_integer(v, p)),
    **dict.fromkeys(
        ("tol", "tail_tol", "a", "b", "c", "start", "stop", "gap_bound", "kernel_width",
         "prescription_ptv", "cap_oar", "scale", "shift", "lower", "upper", "inside", "outside",
         "default", "coordinate", "weight"),
        _number,
    ),
    **dict.fromkeys(("schema_version", "max_iters", "n_max", "n", "n_beamlets"), _integer),
    **dict.fromkeys(("open_lower", "open_upper"), _boolean),
    **dict.fromkeys(("matrix_path", "name", "arg", "label"), _string),
}

# a phantom's grid is its list of axis sizes
_PHANTOM_FIELDS = {**_FIELDS, "grid": _list(_integer)}

# each mode's constructor, given the top-level config that holds its fields
_MODES = {
    "banach": lambda cfg: BanachMode(),
    "reich": lambda cfg: _fields(cfg, "", ("reich",))["reich"],
    "alpha_psi": lambda cfg: _build(AlphaPsiMode, cfg, ""),
}

# A flat dict, so that tracing can rebind the checkers it wraps; a check's keys are its checker's parameters.
_CHECKS = {
    "contraction": estimate_contraction_constant,
    "reich": check_reich_condition,
    "alpha_admissible": check_alpha_admissible,
    "psi_family": check_psi_family,
    "alpha_psi": check_alpha_psi_contractive,
    "metric_axioms": check_metric_axioms,
    "hypothesis_h": check_hypothesis_H,
}


def _finite_or_null(value):
    """``value`` with each float that is not finite, at any depth of tuples, lists and dicts, as None.

    JSON has no ``NaN`` or ``Infinity``, so this is the one place where a
    report number past the float range becomes ``null``.  Arrays are not
    walked: their values are finite by construction.
    """
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, (tuple, list)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    return value


def _json_default(obj):
    """The JSON value of an object ``json.dumps`` cannot encode by itself.

    A function keeps the layout of its own writer, a grid recipe and one
    values list; any other dataclass is written as ``{field name: value}``,
    each value through :func:`_finite_or_null`.
    """
    if isinstance(obj, DiscreteFunction):
        return obj.to_json_dict()
    if dataclasses.is_dataclass(obj):
        return {f.name: _finite_or_null(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, Enum):
        return obj.value
    raise TypeError(f"cannot write a {type(obj).__name__} as JSON")


def _write_json(out_dir: Path, name: str, payload) -> Path:
    """Write ``payload`` as one line with sorted keys.

    Without an indent ``json.dumps`` runs the C encoder, about ten times as
    fast as the pure-Python one ``indent`` selects; it calls
    :func:`_json_default` only for the objects it cannot encode itself.
    With ``allow_nan=False`` a non-finite value that :func:`_finite_or_null`
    does not see (an array entry) raises ValueError instead of writing a
    file that is not JSON.
    """
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / name
    path.write_text(json.dumps(payload, sort_keys=True, allow_nan=False, default=_json_default) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# subcommands


def cmd_iterate(config_path: Path, out_dir: Path, fmt: str) -> int:
    cfg = _load_json(config_path)
    fields = _fields(cfg, "", ("operator", "f0"), ("metric", "tol", "max_iters", "lambda_hint"))
    op, f0 = fields.pop("operator"), fields.pop("f0")
    if "mode" in cfg:
        fields["mode"] = _read(lambda v, p: _MODES[_choice(v, _MODES, "mode")](cfg), cfg["mode"], "/mode")
    config = _read(lambda f, p: IterationConfig(**f), fields, "/")
    # the alpha start gate rejects f0; that is an input problem, not a failed run
    report = _read(lambda f, p: iterate(op, f, config), f0, "/f0")

    path = _write_json(out_dir, "iteration_report.json", {"schema_version": REPORT_SCHEMA_VERSION, "report": report})
    if fmt == "csv":
        bounds = report.apriori_bounds
        rows = "".join(f"{i},{d!r},{repr(bounds[i]) if i < len(bounds) else ''}\n" for i, d in enumerate(report.trace))
        (out_dir / "trace.csv").write_text("iter,distance,bound\n" + rows, encoding="utf-8")
    print(f"wrote {path}")
    return 0 if report.converged else 2


def cmd_verify(config_path: Path, out_dir: Path) -> int:
    results = _fields(_load_json(config_path), "", ("checks",))["checks"]
    all_ok = all(r["satisfied"] for r in results)
    path = _write_json(
        out_dir,
        "verify_report.json",
        {"schema_version": REPORT_SCHEMA_VERSION, "all_satisfied": all_ok, "results": results},
    )
    print(f"wrote {path}")
    return 0 if all_ok else 2


def cmd_fmo(config_path: Path, out_dir: Path) -> int:
    fields = _fields(
        _load_json(config_path), "", ("matrix_path", "T", "labels", "tau"), ("inner", "outer", "gap_bound")
    )
    gap_bound = fields.pop("gap_bound", 1e-2)
    matrix_path = config_path.parent / fields.pop("matrix_path")
    read = fmo_mod.read_matrix_npz if matrix_path.suffix == ".npz" else fmo_mod.read_matrix_csv
    ddc = _read(lambda path, p: read(path), matrix_path, "/matrix_path")
    problem = _read(lambda f, p: fmo_mod.FmoProblem(ddc, f.pop("T"), **f), fields, "/")
    try:
        report = fmo_mod.fmo_solve(problem)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    payload = {
        "schema_version": REPORT_SCHEMA_VERSION,
        "report": report,
        "dose_statistics": fmo_mod.dose_statistics(report.dose, problem.labels),
        "gap_bound": gap_bound,
        "warnings": problem.warnings,
    }
    path = _write_json(out_dir, "fmo_report.json", payload)
    print(f"wrote {path}")
    return 0 if report.converged and report.reference_gap <= gap_bound else 2


def _problem_file(problem: fmo_mod.FmoProblem, matrix_path: str) -> dict:
    """The problem file of ``problem``'s instance, its matrix at ``matrix_path``; the solver settings keep their defaults."""
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "matrix_path": matrix_path,
        "T": problem.prescription,
        "labels": problem.labels,
        "tau": problem.tau,
    }


def cmd_phantom(config_path: Path, out_dir: Path, seed: int | None) -> int:
    cfg = _load_json(config_path)
    spec = _fields(
        cfg, "", ("grid", "n_beamlets", "kernel_width", "ptv_region", "prescription_ptv", "cap_oar"), ("seed",),
        _PHANTOM_FIELDS,
    )
    tau = _fields(cfg, "", (), ("tau",))
    if seed is not None:
        spec["seed"] = _read(_FIELDS["seed"], seed, "--seed")
    problem = _read(lambda s, p: dataclasses.replace(generate_phantom(PhantomSpec(**s)), **tau), spec, "/")
    out_dir.mkdir(parents=True, exist_ok=True)
    # fmo reads the archive; the CSV is the interchange copy
    fmo_mod.write_matrix_csv(problem.ddc, out_dir / "phantom_matrix.csv")
    fmo_mod.write_matrix_npz(problem.ddc, out_dir / "phantom_matrix.npz")
    path = _write_json(out_dir, "phantom_problem.json", _problem_file(problem, "phantom_matrix.npz"))
    print(f"wrote {path}")
    return 0


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``fixfunc`` parser, built on the first call and shared by every later one.

    Sharing is safe because ``parse_args`` keeps no state between calls:
    each call fills a fresh namespace from the defaults.  Each subcommand's
    ``run`` looks its ``cmd_*`` function up by name when called, so a name
    rebound after the parser exists (a test's monkeypatch) still takes
    effect.
    """
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
    """Run one command; returns its exit code.

    The parser is built by the first call in a process, not at import, so a
    process that imports this module without running a command pays nothing
    for it.  argparse errors exit through ``SystemExit(2)``.  A config nested
    past the recursion limit is an input error at ``/``: no reader can build
    a deeper pointer there.
    """
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except RecursionError as exc:
        error = ConfigError("/", f"nested too deeply ({exc})")
    except (ConfigError, OSError) as exc:
        error = exc
    print(f"error: {error}", file=sys.stderr)
    return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
