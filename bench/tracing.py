"""In-memory span recorder that wraps the public callables of ``fixfunc``.

Each wrapped call records one span: name, start and end (``perf_counter_ns``),
the id of the enclosing span and the id of the request (one CLI command) it
belongs to.  Spans live in flat integer arrays, so a run with a million
matrix-vector products costs tens of megabytes, and are written out once at
the end.  Modules bind each other's functions by name (``from .fmo import
...``) and keep functions in dispatch tables, so :func:`instrument` rebinds
every module-level name and dict entry that refers to a wrapped function,
not only the defining one.

A layer is a ``fixfunc`` module.  Its self time is the summed duration of its
spans minus the part covered by their direct child spans.  Counters that are
derived from sizes rather than measured carry ``computed`` in their name.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("cli", "phantom", "fmo", "iteration", "function_space", "operators")

_PAGE_BYTES = resource.getpagesize()
_MB = 1024.0 * 1024.0


def _rss_bytes() -> int:
    with open("/proc/self/statm", "r", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * _PAGE_BYTES


def _peak_rss_bytes() -> int:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Tracer:
    """Span and counter store for one process."""

    def __init__(self, phase: str):
        self.phase = phase
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack: list[int] = []
        self.current_request = -1
        self.counters: dict[str, float] = {}
        # time spent in the wrappers themselves, outside the wrapped calls
        self.wrapper_ns = 0
        self.matvec_calls: dict[object, int] = {}

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def parent_name(self, sid: int) -> str | None:
        p = self.parent[sid]
        return None if p < 0 else self.names[self.name_id[p]]

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, on_enter=None, on_exit=None):
        nid = self._intern(name)
        stack = self.stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            entered = clock()
            sid = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            self.start.append(0)
            self.end.append(0)
            state = on_enter(self, sid, args, kwargs) if on_enter else None
            stack.append(sid)
            self.start[sid] = began = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = ended = clock()
                stack.pop()
            if on_exit:
                on_exit(self, sid, args, kwargs, result, state)
            self.wrapper_ns += began - entered + clock() - ended
            return result

        return functools.wraps(fn)(traced)

    def dump(self, path: Path) -> None:
        """Write spans as ``.npz`` and names, counters and phase as a JSON sidecar."""
        _fold_matvec_calls(self)
        np.savez(
            path.with_suffix(".npz"),
            name_id=np.frombuffer(self.name_id, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.int64),
            end=np.frombuffer(self.end, dtype=np.int64),
        )
        counters = dict(self.counters, **{"trace.wrapper_s": self.wrapper_ns / 1e9})
        meta = {"phase": self.phase, "names": self.names, "counters": counters}
        path.with_suffix(".json").write_text(json.dumps(meta, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# hooks that turn return values into counters


def _inner_params(args, kwargs):
    from fixfunc.fmo import InnerParams

    params = args[4] if len(args) > 4 else kwargs.get("params")
    return params or InnerParams()


def _inner_exit(tr, sid, args, kwargs, result, state):
    params = _inner_params(args, kwargs)
    capped = result.iterations >= params.max_iters and not result.pg_norm < params.tol
    if tr.parent_name(sid) == "fmo.reference_solve":
        tr.count("fmo.reference_iters", result.iterations)
        tr.count("fmo.reference_cap_hit", int(capped))
    else:
        tr.count("fmo.inner_calls")
        tr.count("fmo.inner_iters", result.iterations)
        tr.count("fmo.inner_cap_hits", int(capped))


def _matvec_exit(tr, sid, args, kwargs, result, state):
    # per-call sizes are fixed per matrix; _fold_matvec_calls turns the
    # tallies into counters once, at the end
    tr.matvec_calls[args[0]] = tr.matvec_calls.get(args[0], 0) + 1


def _fold_matvec_calls(tr) -> None:
    for mat, calls in tr.matvec_calls.items():
        csr = mat._csr
        # CSR value and index arrays, the row pointer, one input and one output vector
        moved = (
            csr.nnz * (csr.data.itemsize + csr.indices.itemsize)
            + csr.indptr.nbytes
            + 8 * (mat.n_voxels + mat.n_beamlets)
        )
        tr.count("fmo.matvecs", calls)
        tr.count("fmo.matvec_flops_computed", 2 * csr.nnz * calls)
        tr.count("fmo.matvec_bytes_computed", moved * calls)
    tr.matvec_calls.clear()


def _fmo_exit(tr, sid, args, kwargs, result, state):
    tr.count("fmo.outer_rounds", result.outer_iterations)


def _phantom_exit(tr, sid, args, kwargs, result, state):
    tr.count("phantom.nnz", result.ddc.nnz)


def _pair_matrix_exit(tr, sid, args, kwargs, result, state):
    cells = int(np.size(args[1])) * int(np.size(args[2]))
    tr.count("operators.pair_matrix_cells", cells)
    tr.count("operators.pair_matrix_bytes_computed", cells * 8)


def _outermost(prefixes):
    def check(tr, sid):
        p = tr.parent[sid]
        while p >= 0:
            if tr.names[tr.name_id[p]].startswith(prefixes):
                return False
            p = tr.parent[p]
        return True

    return check


_DOMAIN_BUILDERS = ("function_space.Domain.uniform_grid", "function_space.Domain.from_coordinates")
_ENGINES = (
    "iteration.iterate",
    "iteration.picard_iterate",
    "iteration.reich_iterate",
    "iteration.alpha_psi_iterate",
)
_outside_domain_build = _outermost(_DOMAIN_BUILDERS)
_outside_engine = _outermost(_ENGINES)


def _domain_exit(tr, sid, args, kwargs, result, state):
    if _outside_domain_build(tr, sid):
        tr.count("function_space.domain_points", len(result))


def _engine_enter(tr, sid, args, kwargs):
    if _outside_engine(tr, sid):
        return _rss_bytes(), _peak_rss_bytes()
    return None


def _engine_exit(tr, sid, args, kwargs, result, entry):
    """Peak RSS growth over the outermost engine call.

    The process peak is monotone, so when it did not rise during the call the
    resident size at exit stands in for the call's peak (a lower bound).
    """
    if entry is None:
        return
    rss_in, peak_in = entry
    peak_out = _peak_rss_bytes()
    top = peak_out if peak_out > peak_in else _rss_bytes()
    growth = max(0, top - rss_in) / _MB
    tr.counters["iteration.peak_mb"] = max(tr.counters.get("iteration.peak_mb", 0.0), growth)
    tr.count("iteration.steps", result.iterations)


_EXIT_HOOKS = {
    "fmo.inner_solve": _inner_exit,
    "fmo.SparseDoseMatrix.matvec": _matvec_exit,
    "fmo.SparseDoseMatrix.rmatvec": _matvec_exit,
    "fmo.fmo_solve": _fmo_exit,
    "phantom.generate_phantom": _phantom_exit,
    "operators.WindowAlpha.pair_matrix": _pair_matrix_exit,
    "operators.TableAlpha.pair_matrix": _pair_matrix_exit,
    **{name: _domain_exit for name in _DOMAIN_BUILDERS},
}


def _hooks(name: str):
    if name in _ENGINES:
        return _engine_enter, _engine_exit
    return None, _EXIT_HOOKS.get(name)


def instrument(tracer: Tracer) -> int:
    """Wrap every public function and method of the ``fixfunc`` layers.

    Returns the number of callables wrapped.  Properties and dunder methods
    are left alone; private helpers run inside the span of their caller.
    """
    import fixfunc
    import fixfunc.cli  # noqa: F401  (imports every layer)

    modules = {layer: sys.modules[f"fixfunc.{layer}"] for layer in LAYERS}
    wrapped: dict[int, object] = {}

    def wrap_function(layer, qualname, fn):
        if id(fn) not in wrapped:
            name = f"{layer}.{qualname}"
            on_enter, on_exit = _hooks(name)
            wrapped[id(fn)] = tracer.wrap(name, fn, on_enter, on_exit)
        return wrapped[id(fn)]

    for layer, mod in modules.items():
        for attr, value in list(vars(mod).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                continue
            if isinstance(value, type):
                for mname, member in list(vars(value).items()):
                    if mname.startswith("_"):
                        continue
                    qual = f"{value.__name__}.{mname}"
                    if isinstance(member, staticmethod):
                        setattr(value, mname, staticmethod(wrap_function(layer, qual, member.__func__)))
                    elif isinstance(member, classmethod):
                        setattr(value, mname, classmethod(wrap_function(layer, qual, member.__func__)))
                    elif callable(member) and not isinstance(member, type):
                        setattr(value, mname, wrap_function(layer, qual, member))
            elif callable(value):
                wrap_function(layer, attr, value)

    # rebind every name and dispatch-table entry that refers to a wrapped function
    for mod in (fixfunc, *modules.values()):
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and callable(value):
                setattr(mod, attr, wrapped[id(value)])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrapped and callable(item):
                        value[key] = wrapped[id(item)]
    return len(wrapped)


# ---------------------------------------------------------------------------
# analysis


def load_spans(paths) -> tuple[dict, list[str], dict]:
    """Concatenate dumped span files; returns (arrays, names, counters).

    Name, span and request ids are remapped so the files can be combined.
    """
    index: dict[str, int] = {}
    parts = {k: [] for k in ("name_id", "parent", "request", "start", "end")}
    counters: dict[str, float] = {}
    offset = req_offset = 0
    for path in paths:
        meta = json.loads(Path(path).with_suffix(".json").read_text())
        with np.load(Path(path).with_suffix(".npz")) as data:
            arrays = {k: data[k] for k in data.files}
        remap = np.array([index.setdefault(n, len(index)) for n in meta["names"]], dtype=np.int64)
        parts["name_id"].append(remap[arrays["name_id"]])
        parts["parent"].append(np.where(arrays["parent"] >= 0, arrays["parent"] + offset, -1))
        parts["request"].append(np.where(arrays["request"] >= 0, arrays["request"] + req_offset, -1))
        parts["start"].append(arrays["start"])
        parts["end"].append(arrays["end"])
        offset += arrays["start"].size
        if arrays["request"].size:
            req_offset += int(arrays["request"].max()) + 1
        for key, value in meta["counters"].items():
            if key == "iteration.peak_mb":
                counters[key] = max(counters.get(key, 0.0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    spans = {k: np.concatenate(v) for k, v in parts.items()}
    return spans, list(index), counters


def _self_ns(spans) -> np.ndarray:
    dur = spans["end"] - spans["start"]
    has_parent = spans["parent"] >= 0
    child = np.bincount(
        spans["parent"][has_parent], weights=dur[has_parent], minlength=dur.size
    )
    return dur - child


def _has_ancestor_in(spans, member: np.ndarray) -> np.ndarray:
    """Per span: does any enclosing span satisfy ``member``?"""
    parent = spans["parent"]
    out = np.zeros(parent.size, dtype=bool)
    p = parent.copy()
    while np.any(p >= 0):
        live = p >= 0
        out[live] |= member[p[live]]
        p[live] = parent[p[live]]
    return out


def layer_metrics(spans, names: list[str], counters: dict) -> dict[str, float]:
    """Per-layer numbers from the combined spans and counters of one traced run."""
    dur = (spans["end"] - spans["start"]) / 1e9
    self_s = _self_ns(spans) / 1e9

    def match(pred) -> np.ndarray:
        return np.array([pred(n) for n in names], dtype=bool)[spans["name_id"]]

    def total(pred) -> tuple[float, int]:
        """Duration and count of matching spans not nested in another match."""
        sel = match(pred)
        sel &= ~_has_ancestor_in(spans, sel)
        return float(dur[sel].sum()), int(sel.sum())

    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = float(self_s[match(lambda n, p=layer + ".": n.startswith(p))].sum())

    inner = match(lambda n: n == "fmo.inner_solve")
    out["fmo.inner_self_s"] = float(self_s[inner].sum())
    for key in ("inner_calls", "inner_iters", "inner_cap_hits", "outer_rounds", "matvecs",
                "matvec_flops_computed", "matvec_bytes_computed", "reference_iters",
                "reference_cap_hit"):
        out[f"fmo.{key}"] = counters.get(f"fmo.{key}", 0)
    out["fmo.reference_s"] = total(lambda n: n == "fmo.reference_solve")[0]
    out["fmo.split_s"] = total(lambda n: n == "fmo.split_matrix")[0]
    out["fmo.csv_read_s"] = total(lambda n: n == "fmo.read_matrix_csv")[0]
    out["fmo.csv_write_s"] = total(lambda n: n == "fmo.write_matrix_csv")[0]

    out["phantom.generate_s"] = total(lambda n: n == "phantom.generate_phantom")[0]
    out["phantom.nnz"] = counters.get("phantom.nnz", 0)

    out["function_space.domain_build_s"] = total(lambda n: n in _DOMAIN_BUILDERS)[0]
    out["function_space.domain_points"] = counters.get("function_space.domain_points", 0)
    dist_s, dist_calls = total(lambda n: n.endswith("_distance") or n == "function_space.distance")
    out["function_space.distance_s"] = dist_s
    out["function_space.distance_calls"] = dist_calls
    out["function_space.json_s"] = total(
        lambda n: n.startswith("function_space.DiscreteFunction.") and "json_dict" in n
    )[0]

    out["iteration.steps"] = counters.get("iteration.steps", 0)
    out["iteration.peak_mb"] = counters.get("iteration.peak_mb", 0.0)

    pm_s, pm_calls = total(lambda n: n.endswith(".pair_matrix"))
    out["operators.pair_matrix_s"] = pm_s
    out["operators.pair_matrix_calls"] = pm_calls
    out["operators.pair_matrix_cells"] = counters.get("operators.pair_matrix_cells", 0)
    out["operators.pair_matrix_bytes_computed"] = counters.get("operators.pair_matrix_bytes_computed", 0)
    checks = match(lambda n: n.startswith("operators.") and n.split(".")[1].startswith(("check_", "estimate_")))
    out["operators.check_self_s"] = float(self_s[checks].sum())
    out["operators.map_values_s"] = total(lambda n: n.endswith(".map_values"))[0]

    out["trace.spans"] = int(spans["name_id"].size)
    out["trace.wrapper_s"] = counters.get("trace.wrapper_s", 0.0)
    return out
