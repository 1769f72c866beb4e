"""Successive approximation toward fixed functions of pointwise self-maps.

One loop, :func:`fixed_point`, runs every iteration in the package: the
three modes here and the outer scatter rounds of :func:`fixfunc.fmo.fmo_solve`.
It works on plain arrays and holds only the current iterate.  Convergence is
always declared on the max-norm (uniform) step; when a different metric is
configured its distances are what the trace records, so runs can reproduce
cross-sup or weighted-L1 numbers while the stop rule stays a metric.

The modes differ only in the hypothesis bookkeeping attached to a run: the
Reich and psi bounds are checked on the trace afterwards, and the alpha chain
condition on consecutive iterates as the loop goes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations_with_replacement
from typing import Callable, Sequence

import numpy as np

from .function_space import (
    DiscreteFunction,
    MetricKind,
    _rounding_slack,
    array_distance,
    uniform_distance,
)
from .operators import (
    AlphaFunction,
    ConditionReport,
    OperatorSpec,
    PsiSpec,
    _validate_reich_coefficients,
    apply,
)

__all__ = [
    "DIVERGENCE_LIMIT",
    "BanachMode",
    "ReichMode",
    "AlphaPsiMode",
    "IterationConfig",
    "IterationReport",
    "FixedPointRun",
    "FixedFunctionCheck",
    "apriori_bound",
    "fixed_point",
    "picard_iterate",
    "alpha_psi_iterate",
    "iterate",
    "verify_fixed_function",
    "check_hypothesis_H",
]

# Iterates whose values or steps pass this magnitude are declared divergent.
DIVERGENCE_LIMIT = 1e12


@dataclass(frozen=True)
class BanachMode:
    """Plain contraction iteration, no extra hypothesis bookkeeping."""


@dataclass(frozen=True)
class ReichMode:
    """Iteration under the three-coefficient condition with weights (a, b, c)."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        _validate_reich_coefficients(self.a, self.b, self.c)

    @property
    def effective_ratio(self) -> float:
        """Per-step decay factor (a + c) / (1 - b) implied by the condition."""
        return (self.a + self.c) / (1.0 - self.b)


@dataclass(frozen=True)
class AlphaPsiMode:
    """Iteration under the weighted comparison-map condition."""

    alpha: AlphaFunction
    psi: PsiSpec


@dataclass(frozen=True)
class IterationConfig:
    mode: BanachMode | ReichMode | AlphaPsiMode = field(default_factory=BanachMode)
    metric: MetricKind = MetricKind.UNIFORM
    tol: float = 1e-8
    max_iters: int = 1000
    lambda_hint: float | None = None

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"tol must be a positive real, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if self.lambda_hint is not None and not (0.0 <= self.lambda_hint < 1.0):
            raise ValueError(f"lambda_hint must lie in [0, 1), got {self.lambda_hint!r}")


@dataclass(frozen=True)
class IterationReport:
    """Everything a run leaves behind.

    ``trace`` holds successive distances d(f_n, f_{n+1}) in the configured
    metric; ``rate_estimates`` their consecutive ratios (zero denominators
    skipped); ``apriori_bounds`` the geometric tail bounds
    lambda^q * d(f0, f1) / (1 - lambda) when a hint was given.  ``residual``
    is the uniform distance between the final iterate and its image, None
    when that is not finite (an image that overflows).  Fields
    specific to one mode stay at their defaults elsewhere.
    """

    converged: bool
    iterations: int
    final: DiscreteFunction
    trace: tuple[float, ...]
    rate_estimates: tuple[float, ...]
    apriori_bounds: tuple[float, ...]
    residual: float | None
    diverged: bool = False
    effective_ratio: float | None = None
    reich_condition_held: bool | None = None
    psi_bounds: tuple[float, ...] = ()
    alpha_chain_held: bool | None = None
    psi_bound_ok: bool | None = None
    notes: tuple[str, ...] = ()



def apriori_bound(lam: float, d01: float, q: int) -> float:
    """Geometric tail bound lambda^q * d01 / (1 - lambda) on d(f_q, f*)."""
    if not (0.0 <= lam < 1.0):
        raise ValueError(f"contraction constant must lie in [0, 1), got {lam!r}")
    if not (math.isfinite(d01) and d01 >= 0):
        raise ValueError(f"first-step distance must be finite and nonnegative, got {d01!r}")
    if q < 0:
        raise ValueError(f"step index must be nonnegative, got {q}")
    return lam**q * d01 / (1.0 - lam)


@dataclass(frozen=True, eq=False)
class FixedPointRun:
    """Outcome of :func:`fixed_point`: the last accepted iterate ``x``, the
    number of ``step`` calls and the recorded distance of each accepted step.
    """

    x: np.ndarray
    iterations: int
    trace: tuple[float, ...]
    converged: bool
    diverged: bool

    @property
    def ratios(self) -> tuple[float, ...]:
        """Consecutive step ratios d_{n+1} / d_n, zero denominators skipped."""
        t = self.trace
        return tuple(t[i + 1] / t[i] for i in range(len(t) - 1) if t[i] != 0.0)


def fixed_point(
    step: Callable[[np.ndarray], np.ndarray],
    v0: np.ndarray,
    tol: float,
    max_iters: int,
    metric: Callable[[np.ndarray, np.ndarray], float] | None = None,
    watch: Callable[[int, np.ndarray, np.ndarray], None] | None = None,
    limit: float = math.inf,
) -> FixedPointRun:
    """Iterate v_{n+1} = step(v_n) from ``v0`` until max |v_n - v_{n+1}| < ``tol``.

    ``step`` must not modify its argument; it is called at most ``max_iters``
    times.  The trace records ``metric(v_n, v_{n+1})`` for each accepted step,
    the max-norm step when ``metric`` is None, and ``watch(n, v_{n-1}, v_n)``
    is called after each.  Only the current iterate and its image are held.
    An image with a non-finite value or a value past ``limit`` is not
    accepted, and an accepted step longer than ``limit`` is the last: either
    way the run stops as diverged.
    """
    x = v0
    trace: list[float] = []
    for n in range(1, max_iters + 1):
        nxt = step(x)
        if not np.all(np.isfinite(nxt)) or float(np.max(np.abs(nxt))) > limit:
            return FixedPointRun(x, n, tuple(trace), False, True)
        d = float(np.max(np.abs(x - nxt)))
        trace.append(d if metric is None else metric(x, nxt))
        if watch is not None:
            watch(n, x, nxt)
        x = nxt
        if d > limit:
            return FixedPointRun(x, n, tuple(trace), False, True)
        if d < tol:
            return FixedPointRun(x, n, tuple(trace), True, False)
    return FixedPointRun(x, max_iters, tuple(trace), False, False)


def _trace_slack(metric: MetricKind, f0: DiscreteFunction, trace: Sequence[float]) -> float:
    # every iterate lies within sum(trace) of f0; an empty trace compares nothing,
    # and its metric may be one the run never evaluated (grid_l1 without weights)
    return _rounding_slack(metric, (1.0, f0), spread=math.fsum(trace)) if trace else 0.0


def _check_start_gate(op: OperatorSpec, f0: DiscreteFunction, alpha: AlphaFunction) -> None:
    """Reject f0 unless alpha(f0(u), (Tf0)(v)) >= 1 at every ordered point pair."""
    w, i, j = alpha.pair_min(f0.values, apply(op, f0).values)
    if w < 1.0:
        raise ValueError(
            "starting condition fails: alpha(f0(u), (Tf0)(v)) ="
            f" {w:g} < 1 at point pair"
            f" ({f0.domain.label(i)!r}, {f0.domain.label(j)!r})"
        )


def iterate(op: OperatorSpec, f0: DiscreteFunction, config: IterationConfig) -> IterationReport:
    """Iterate f_{n+1} = T f_n until the uniform step falls below ``config.tol``.

    The mode selects the bookkeeping attached to the run.

    * :class:`BanachMode` -- none.
    * :class:`ReichMode` -- on trace pairs the sampled condition
      d(Tf, Tg) <= a d(f, Tf) + b d(g, Tg) + c d(f, g) reads
      d_n (1 - b) <= (a + c) d_{n-1}, because d(f, Tf) and d(g, Tg) are
      themselves consecutive steps; it is the decay by the effective ratio
      (a + c) / (1 - b).
    * :class:`AlphaPsiMode` -- the starting function must put weight at
      least 1 on every ordered point pair against its own image; a violation
      is rejected up front with the offending point pair.  Along the run the
      chain condition alpha(f_n(u), f_{n+1}(v)) >= 1 is tracked, and while it
      holds the trace is compared against the comparison-map orbit
      psi^n(d(f0, f1)); the outcome is recorded, never fatal, because the
      weight is only sampled.

    Both trace inequalities allow for rounding by the rule of the sampled
    checkers in :mod:`fixfunc.function_space`, sized by d(f0, 0) + sum(trace)
    in the configured metric, which bounds every iterate's distance from 0.

    ``iterations`` counts operator applications, so a starting function that
    is already fixed converges after exactly one application with step
    distance zero.  A run whose values or steps pass ``DIVERGENCE_LIMIT``
    stops with ``diverged=True`` instead of raising.
    """
    mode = config.mode
    watch = None
    if isinstance(mode, AlphaPsiMode):
        _check_start_gate(op, f0, mode.alpha)
        chain_held = True

        def watch(n, prev, cur):
            nonlocal chain_held
            # the starting gate has already checked the pair (f0, T f0)
            if chain_held and n > 1:
                chain_held = mode.alpha.pair_min(prev, cur)[0] >= 1.0

    metric = None
    if config.metric is not MetricKind.UNIFORM:
        def metric(a, b):
            return array_distance(a, b, config.metric, f0.domain)

    v0 = np.asarray(f0.values, dtype=float)
    run = fixed_point(op.map_values, v0, config.tol, config.max_iters, metric, watch, DIVERGENCE_LIMIT)
    trace = run.trace
    extra: dict = {}
    notes: list[str] = []
    if isinstance(mode, ReichMode):
        slack = _trace_slack(config.metric, f0, trace)
        held = all(
            cur * (1.0 - mode.b) <= (mode.a + mode.c) * prev + slack
            for prev, cur in zip(trace, trace[1:])
        )
        extra = dict(
            effective_ratio=mode.effective_ratio,
            reich_condition_held=held,
        )
    elif isinstance(mode, AlphaPsiMode):
        psi_bounds = tuple(mode.psi.orbit(trace[0], len(trace) - 1)) if trace else ()
        psi_bound_ok = None
        if trace and chain_held:
            slack = _trace_slack(config.metric, f0, trace)
            psi_bound_ok = all(d <= b + slack for d, b in zip(trace, psi_bounds))
        if not chain_held:
            notes.append("alpha chain condition broke along the trace; comparison bound not assessed")
        extra = dict(
            psi_bounds=psi_bounds,
            alpha_chain_held=chain_held,
            psi_bound_ok=psi_bound_ok,
        )
    if run.diverged:
        notes.append(f"iterate magnitude or step passed {DIVERGENCE_LIMIT:g}, run aborted")

    apriori: tuple[float, ...] = ()
    if trace and config.lambda_hint is not None:
        apriori = tuple(
            apriori_bound(config.lambda_hint, trace[0], q) for q in range(len(trace) + 1)
        )
    image = op.map_values(run.x)
    residual = float(np.max(np.abs(image - run.x))) if np.all(np.isfinite(image)) else math.inf
    return IterationReport(
        converged=run.converged,
        iterations=run.iterations,
        final=DiscreteFunction(f0.domain, run.x),
        trace=trace,
        rate_estimates=run.ratios,
        apriori_bounds=apriori,
        residual=residual if math.isfinite(residual) else None,
        diverged=run.diverged,
        notes=tuple(notes),
        **extra,
    )


def _require_mode(config: IterationConfig, kind: type, caller: str) -> None:
    if not isinstance(config.mode, kind):
        raise ValueError(f"{caller} expects {kind.__name__}, got {type(config.mode).__name__}")


def picard_iterate(op: OperatorSpec, f0: DiscreteFunction, config: IterationConfig) -> IterationReport:
    """:func:`iterate` for a config in :class:`BanachMode`; other modes raise ``ValueError``."""
    _require_mode(config, BanachMode, "picard_iterate")
    return iterate(op, f0, config)


def alpha_psi_iterate(op: OperatorSpec, f0: DiscreteFunction, config: IterationConfig) -> IterationReport:
    """:func:`iterate` for a config in :class:`AlphaPsiMode`; other modes raise ``ValueError``."""
    _require_mode(config, AlphaPsiMode, "alpha_psi_iterate")
    return iterate(op, f0, config)


@dataclass(frozen=True)
class FixedFunctionCheck:
    """Boolean verdict plus the uniform residual max |(Tf)(u) - f(u)| it was
    decided on.  Truthiness follows the verdict.
    """

    is_fixed: bool
    residual: float
    tol: float

    def __bool__(self) -> bool:
        return self.is_fixed


def verify_fixed_function(op: OperatorSpec, f: DiscreteFunction, tol: float = 1e-10) -> FixedFunctionCheck:
    """Decide whether f is fixed under the map, up to ``tol``.

    The decision is made on the uniform residual: a cross-sup residual is
    nonzero for every non-constant function and would misreport genuine
    fixed functions.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")
    image = apply(op, f)
    residual = uniform_distance(image, f)
    return FixedFunctionCheck(residual <= tol, residual, tol)


def check_hypothesis_H(
    alpha: AlphaFunction,
    candidates: Sequence[DiscreteFunction],
    pool: Sequence[DiscreteFunction],
) -> ConditionReport:
    """For every candidate pair, look for a pool member weighted >= 1 against both.

    The uniqueness argument needs, for all f and g, some h with
    alpha(f(u), h(v)) >= 1 and alpha(g(u), h(v)) >= 1 at every ordered point
    pair.  The search is exhaustive over the finite pool.
    """
    if not candidates:
        raise ValueError("hypothesis check needs at least one candidate function")
    if not pool:
        raise ValueError("hypothesis check needs a non-empty pool of mediating functions")

    def dominated(f: DiscreteFunction, h: DiscreteFunction) -> bool:
        return alpha.pair_min(f.values, h.values)[0] >= 1.0

    checked = 0
    witness = None
    for i, j in combinations_with_replacement(range(len(candidates)), 2):
        checked += 1
        f, g = candidates[i], candidates[j]
        if not any(dominated(f, h) and dominated(g, h) for h in pool):
            witness = {"pair": (i, j)}
            break
    return ConditionReport(
        check="hypothesis_H",
        satisfied=witness is None,
        witness=witness,
        details={"pairs_checked": checked, "pool_size": len(pool)},
    )
