"""Pointwise self-maps on function families and the contraction-style checkers.

Operators act value-by-value: ``(Tf)(u) = m(f(u))`` for a scalar map ``m``
given as a polynomial, a named map, an affine map, or a left-to-right
composition.  The checkers sample pairs of functions and report whether a
contraction hypothesis holds on the sample; they never prove it on the whole
family, and the reports say so where that matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .function_space import DiscreteFunction, MetricKind, distance

__all__ = [
    "OperatorSpec",
    "PolynomialMap",
    "NamedMap",
    "AffineMap",
    "CompositeMap",
    "apply",
    "AlphaFunction",
    "WindowAlpha",
    "TableAlpha",
    "PsiSpec",
    "LinearPsi",
    "TablePsi",
    "ConditionReport",
    "estimate_contraction_constant",
    "check_reich_condition",
    "check_alpha_admissible",
    "check_psi_family",
    "check_alpha_psi_contractive",
]


class OperatorSpec:
    """Base class for pointwise self-maps."""

    def map_values(self, values: np.ndarray) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class PolynomialMap(OperatorSpec):
    """Scalar polynomial map, coefficients in ascending order: c0 + c1*y + c2*y^2 + ..."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial map needs at least one coefficient")
        if any(not math.isfinite(c) for c in coeffs):
            raise ValueError("polynomial coefficients must be finite")
        object.__setattr__(self, "coeffs", coeffs)

    def map_values(self, values: np.ndarray) -> np.ndarray:
        return npoly.polyval(values, self.coeffs)


_NAMED_MAPS = {
    "identity": lambda v: np.array(v, dtype=float, copy=True),
    "square": lambda v: v * v,
    "abs": np.abs,
}


@dataclass(frozen=True)
class NamedMap(OperatorSpec):
    """Scalar map selected from a small registry by name."""

    name: str

    def __post_init__(self):
        if self.name not in _NAMED_MAPS:
            known = ", ".join(sorted(_NAMED_MAPS))
            raise ValueError(f"unknown named map {self.name!r}, known: {known}")

    def map_values(self, values: np.ndarray) -> np.ndarray:
        return _NAMED_MAPS[self.name](values)


@dataclass(frozen=True)
class AffineMap(OperatorSpec):
    """y -> scale*y + shift."""

    scale: float
    shift: float

    def __post_init__(self):
        if not (math.isfinite(self.scale) and math.isfinite(self.shift)):
            raise ValueError("affine map parameters must be finite")
        object.__setattr__(self, "scale", float(self.scale))
        object.__setattr__(self, "shift", float(self.shift))

    def map_values(self, values: np.ndarray) -> np.ndarray:
        return self.scale * values + self.shift


@dataclass(frozen=True)
class CompositeMap(OperatorSpec):
    """Left-to-right composition: parts[0] is applied first."""

    parts: tuple[OperatorSpec, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("composite map needs at least one part")
        object.__setattr__(self, "parts", tuple(self.parts))

    def map_values(self, values: np.ndarray) -> np.ndarray:
        out = values
        for part in self.parts:
            out = part.map_values(out)
        return out


def apply(op: OperatorSpec, f: DiscreteFunction) -> DiscreteFunction:
    """Apply a pointwise operator, rejecting non-finite results.

    Returns a fresh function on the same domain.  If the scalar map overflows
    at some point, the error names that point.
    """
    out = op.map_values(np.asarray(f.values, dtype=float))
    finite = np.isfinite(out)
    if not np.all(finite):
        bad = int(np.flatnonzero(~finite)[0])
        raise ValueError(
            f"operator produced a non-finite value at point {f.domain.label(bad)!r}"
            f" (coordinate {f.domain.coordinates[bad]:g}, input {f.values[bad]:g})"
        )
    return DiscreteFunction(f.domain, out)


# ---------------------------------------------------------------------------
# alpha weights and psi comparison maps


def _check_weight(name: str, v: float) -> None:
    if not (math.isfinite(v) and v >= 0):
        raise ValueError(f"{name} must be finite and nonnegative, got {v!r}")


class AlphaFunction:
    """Nonnegative weight on ordered pairs of function values.

    The checks ask for the smallest or largest weight over every ordered pair
    ``(xs[i], ys[j])`` and where it is attained.  :meth:`pair_min` and
    :meth:`pair_max` answer in O(len(xs) + len(ys)) memory, without building
    the len(xs) x len(ys) weight matrix.
    """

    def pair_min(self, xs: np.ndarray, ys: np.ndarray) -> tuple[float, int, int]:
        """``(w, i, j)``: the smallest weight over every ordered value pair, and
        the first pair in row-major order that attains it.

        These are the value and the index pair of ``np.argmin`` on the
        matrix of every pair's weight.
        """
        return self._pair_extreme(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), False)

    def pair_max(self, xs: np.ndarray, ys: np.ndarray) -> tuple[float, int, int]:
        """Like :meth:`pair_min` for the largest weight (``np.argmax``)."""
        return self._pair_extreme(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float), True)

    def _pair_extreme(self, xs: np.ndarray, ys: np.ndarray, largest: bool) -> tuple[float, int, int]:
        raise NotImplementedError


@dataclass(frozen=True)
class WindowAlpha(AlphaFunction):
    """Constant on an interval window of one slot of the value pair.

    The weight is ``inside`` when the selected argument lies in the window
    ``[lower, upper]`` (bounds opened by the flags) and ``outside`` elsewhere.
    """

    arg: str = "first"
    lower: float = -math.inf
    upper: float = math.inf
    open_lower: bool = False
    open_upper: bool = False
    inside: float = 1.0
    outside: float = 0.0

    def __post_init__(self):
        if self.arg not in ("first", "second"):
            raise ValueError(f"window argument must be 'first' or 'second', got {self.arg!r}")
        _check_weight("window alpha 'inside'", self.inside)
        _check_weight("window alpha 'outside'", self.outside)
        for name in ("lower", "upper"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"window alpha bound {name!r} must not be NaN")
        if self.lower > self.upper:
            raise ValueError("window needs lower <= upper")

    @classmethod
    def constant(cls, value: float) -> "WindowAlpha":
        return cls(inside=float(value), outside=float(value))

    def _mask(self, v: np.ndarray) -> np.ndarray:
        lo = v > self.lower if self.open_lower else v >= self.lower
        hi = v < self.upper if self.open_upper else v <= self.upper
        return lo & hi

    def _pair_extreme(self, xs, ys, largest):
        # the weights vary along one axis only, so their first extreme is in row or column 0
        w = np.where(self._mask(xs if self.arg == "first" else ys), self.inside, self.outside)
        k = int(np.argmax(w) if largest else np.argmin(w))
        i, j = (k, 0) if self.arg == "first" else (0, k)
        return float(w[k]), i, j


@dataclass(frozen=True)
class TableAlpha(AlphaFunction):
    """Explicit pair-to-weight table; pairs are matched by exact value.

    When an ``(x, y)`` pair repeats, its last entry wins.
    """

    entries: tuple[tuple[float, float, float], ...]
    default: float = 0.0
    _table: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        for k, (_, _, v) in enumerate(self.entries):
            _check_weight(f"table alpha entry {k} weight", v)
        _check_weight("table alpha 'default'", self.default)
        object.__setattr__(self, "_table", {(x, y): v for x, y, v in self.entries})

    def _pair_extreme(self, xs, ys, largest):
        # Each distinct table pair matches the block {xs == x} x {ys == y}; the
        # blocks are disjoint and every other cell carries the default.  The
        # candidates are the first cell of each block and the first cell
        # outside all blocks, as (weight, row-major index).
        m = ys.size
        hits = np.zeros(xs.size, dtype=np.intp)  # matched cells per row
        candidates = []
        for (x, y), v in self._table.items():
            rows, cols = xs == x, ys == y
            if rows.any() and cols.any():
                hits[rows] += np.count_nonzero(cols)
                candidates.append((v, int(rows.argmax()) * m + int(cols.argmax())))
        open_rows = hits < m
        if open_rows.any():
            i = int(open_rows.argmax())
            taken = np.zeros(m, dtype=bool)
            for (x, y) in self._table:
                if x == xs[i]:
                    taken |= ys == y
            candidates.append((self.default, i * m + int(taken.argmin())))
        sign = -1.0 if largest else 1.0
        w, first = min(candidates, key=lambda c: (sign * c[0], c[1]))
        i, j = divmod(first, m)
        return float(w), i, j


class PsiSpec:
    """Nondecreasing comparison map on [0, inf)."""

    def evaluate(self, t: float) -> float:
        raise NotImplementedError

    def orbit(self, t: float, n: int) -> list[float]:
        """[t, psi(t), psi^2(t), ..., psi^n(t)], length n + 1."""
        out = [float(t)]
        for _ in range(n):
            out.append(self.evaluate(out[-1]))
        return out


@dataclass(frozen=True)
class LinearPsi(PsiSpec):
    """psi(t) = c*t with 0 <= c < 1; the summability requirement pins c below 1."""

    c: float

    def __post_init__(self):
        if not (0.0 <= self.c < 1.0):
            raise ValueError(f"linear psi needs 0 <= c < 1, got {self.c!r}")

    def evaluate(self, t: float) -> float:
        return self.c * float(t)


@dataclass(frozen=True)
class TablePsi(PsiSpec):
    """Piecewise-linear map through sample knots.

    Knots must start at t=0, be strictly increasing in t and nondecreasing in
    value; evaluation clamps to the last knot value beyond the table.  The
    identity map restricted to a range is expressible this way, which the
    family checker must be able to examine (and reject).
    """

    knots: tuple[tuple[float, float], ...]

    def __post_init__(self):
        knots = tuple((float(t), float(v)) for t, v in self.knots)
        if len(knots) < 2:
            raise ValueError("table psi needs at least two knots")
        ts = [t for t, _ in knots]
        vs = [v for _, v in knots]
        if ts[0] != 0.0:
            raise ValueError("table psi must start at t=0")
        if any(not math.isfinite(t) or not math.isfinite(v) for t, v in knots):
            raise ValueError("table psi knots must be finite")
        if any(b <= a for a, b in zip(ts, ts[1:])):
            raise ValueError("table psi knot locations must be strictly increasing")
        if any(v < 0 for v in vs):
            raise ValueError("table psi values must be nonnegative")
        if any(b < a for a, b in zip(vs, vs[1:])):
            raise ValueError("table psi values must be nondecreasing")
        object.__setattr__(self, "knots", knots)

    def evaluate(self, t: float) -> float:
        ts = [k for k, _ in self.knots]
        vs = [v for _, v in self.knots]
        return float(np.interp(float(t), ts, vs))


# ---------------------------------------------------------------------------
# checkers


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one sampled hypothesis check.

    ``witness`` carries the violating sample when ``satisfied`` is false.
    ``details`` holds per-pair numbers so callers can inspect the evidence.
    """

    check: str
    satisfied: bool
    witness: dict | None = None
    estimated_constant: float | None = None
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.satisfied and self.witness is None:
            raise ValueError("an unsatisfied report must carry a witness")



Pairs = Sequence[tuple[DiscreteFunction, DiscreteFunction]]


def estimate_contraction_constant(
    op: OperatorSpec, metric: MetricKind, pairs: Pairs
) -> ConditionReport:
    """Largest observed ratio d(Tf, Tg) / d(f, g) over the sampled pairs.

    Pairs with d(f, g) = 0 cannot contribute a ratio and are skipped; if every
    pair is degenerate the sample carries no information and is rejected.
    ``satisfied`` means the estimate is below 1 on this sample, nothing more.
    """
    if not pairs:
        raise ValueError("contraction estimate needs at least one function pair")
    ratios = []
    skipped = 0
    worst = None
    for idx, (f, g) in enumerate(pairs):
        dfg = distance(f, g, metric)
        if dfg == 0.0:
            skipped += 1
            continue
        dop = distance(apply(op, f), apply(op, g), metric)
        r = dop / dfg
        ratios.append(r)
        if worst is None or r > worst[1]:
            worst = (idx, r)
    if not ratios:
        raise ValueError("every sampled pair is degenerate (zero distance), no ratio to estimate")
    estimate = max(ratios)
    satisfied = estimate < 1.0
    witness = None
    if not satisfied:
        witness = {"pair_index": worst[0], "ratio": worst[1]}
    return ConditionReport(
        check="contraction_estimate",
        satisfied=satisfied,
        witness=witness,
        estimated_constant=float(estimate),
        details={
            "pair_count": len(pairs),
            "skipped_degenerate": skipped,
            "ratios": [float(r) for r in ratios],
        },
    )


def _validate_reich_coefficients(a: float, b: float, c: float) -> None:
    """Reject coefficients that are negative, non-finite or sum to 1 or more."""
    for name, v in (("a", a), ("b", b), ("c", c)):
        if not math.isfinite(v) or v < 0:
            raise ValueError(f"coefficient {name} must be finite and nonnegative, got {v!r}")
    if a + b + c >= 1.0:
        raise ValueError(f"coefficients must satisfy a + b + c < 1, got {a + b + c!r}")


def check_reich_condition(
    op: OperatorSpec,
    metric: MetricKind,
    a: float,
    b: float,
    c: float,
    pairs: Pairs,
    tol: float = 1e-12,
) -> ConditionReport:
    """Check d(Tf, Tg) <= a*d(f, Tf) + b*d(g, Tg) + c*d(f, g) on every pair.

    Coefficients must be nonnegative with a + b + c < 1; that is a property of
    the hypothesis, so violations are rejected before any evaluation.  ``tol``
    absorbs float rounding in the comparison (the sampled inequality can hold
    with exact equality).
    """
    _validate_reich_coefficients(a, b, c)
    if not pairs:
        raise ValueError("condition check needs at least one function pair")

    rows = []
    witness = None
    for idx, (f, g) in enumerate(pairs):
        tf = apply(op, f)
        tg = apply(op, g)
        lhs = distance(tf, tg, metric)
        d_f = distance(f, tf, metric)
        d_g = distance(g, tg, metric)
        d_fg = distance(f, g, metric)
        rhs = a * d_f + b * d_g + c * d_fg
        ok = lhs <= rhs + tol
        rows.append(
            {"lhs": lhs, "rhs": rhs, "d_f_image": d_f, "d_g_image": d_g, "d_fg": d_fg, "ok": ok}
        )
        if not ok and witness is None:
            witness = {"pair_index": idx, "lhs": lhs, "rhs": rhs}
    return ConditionReport(
        check="reich_condition",
        satisfied=witness is None,
        witness=witness,
        details={"coefficients": {"a": a, "b": b, "c": c}, "pairs": rows},
    )


def check_alpha_admissible(op: OperatorSpec, alpha: AlphaFunction, pairs: Pairs) -> ConditionReport:
    """Sampled admissibility: pairs with alpha >= 1 everywhere keep it after the map.

    A pair activates the implication only when alpha(f(u), g(v)) >= 1 at every
    ordered point pair; activated pairs must then satisfy
    alpha((Tf)(u), (Tg)(v)) >= 1 at every ordered point pair as well.
    """
    if not pairs:
        raise ValueError("admissibility check needs at least one function pair")
    activated = 0
    witness = None
    for idx, (f, g) in enumerate(pairs):
        if alpha.pair_min(f.values, g.values)[0] < 1.0:
            continue
        activated += 1
        post, i, j = alpha.pair_min(apply(op, f).values, apply(op, g).values)
        if post < 1.0 and witness is None:
            witness = {
                "pair_index": idx,
                "point_pair": (f.domain.label(i), g.domain.label(j)),
                "alpha_after": post,
            }
    return ConditionReport(
        check="alpha_admissible",
        satisfied=witness is None,
        witness=witness,
        details={"pair_count": len(pairs), "activated_pairs": activated},
    )


def check_psi_family(
    psi: PsiSpec,
    t_samples: Sequence[float],
    n_max: int = 60,
    tail_tol: float = 1e-12,
) -> ConditionReport:
    """Heuristic membership test for the comparison-map family.

    Four gates, all sampled: the map is nondecreasing across the sorted
    samples, the iterate series flattens (the n_max-th iterate falls below
    ``tail_tol``), psi(t) < t at every sample, and psi vanishes along a probe
    sequence shrinking to 0.  Flatness of a finite partial sum never proves
    the series converges; the report records that this is a heuristic.
    """
    if n_max < 10:
        raise ValueError(f"n_max must be at least 10, got {n_max}")
    samples = [float(t) for t in t_samples]
    if not samples or any(not math.isfinite(t) or t <= 0 for t in samples):
        raise ValueError("t_samples must be a non-empty collection of positive reals")

    ordered = sorted(samples)
    psi_vals = [psi.evaluate(t) for t in ordered]
    monotone_ok = all(b >= a for a, b in zip(psi_vals, psi_vals[1:]))

    rows = []
    tail_ok = True
    strict_ok = True
    for t in samples:
        orb = psi.orbit(t, n_max)
        partial = math.fsum(orb[1:])
        final_inc = orb[-1]
        rows.append(
            {
                "t": t,
                "psi_t": orb[1],
                "partial_sum": partial,
                "final_increment": final_inc,
            }
        )
        if not final_inc < tail_tol:
            tail_ok = False
        if not orb[1] < t:
            strict_ok = False

    probe_t = min(samples) * 2.0 ** -40
    probe_val = psi.evaluate(probe_t)
    zero_ok = probe_val <= tail_tol

    satisfied = monotone_ok and tail_ok and strict_ok and zero_ok
    witness = None
    if not satisfied:
        witness = {
            "monotone_ok": monotone_ok,
            "tail_ok": tail_ok,
            "strict_decrease_ok": strict_ok,
            "zero_limit_ok": zero_ok,
        }
    return ConditionReport(
        check="psi_family",
        satisfied=satisfied,
        witness=witness,
        details={
            "samples": rows,
            "monotone_ok": monotone_ok,
            "tail_ok": tail_ok,
            "strict_decrease_ok": strict_ok,
            "zero_limit_ok": zero_ok,
            "zero_probe": {"t": probe_t, "psi_t": probe_val},
            "n_max": n_max,
            "tail_tol": tail_tol,
            "note": "partial-sum flatness up to n_max is a heuristic, not a proof of summability",
        },
    )


def check_alpha_psi_contractive(
    op: OperatorSpec,
    alpha: AlphaFunction,
    psi: PsiSpec,
    metric: MetricKind,
    pairs: Pairs,
    tol: float = 0.0,
) -> ConditionReport:
    """Check alpha(f(u), g(v)) * d(Tf, Tg) <= psi(d(f, g)) on every sampled pair.

    The left side varies over ordered point pairs only through alpha, so the
    check compares the worst (largest) alpha against the single distance
    value per function pair.
    """
    if not pairs:
        raise ValueError("contractivity check needs at least one function pair")
    rows = []
    witness = None
    for idx, (f, g) in enumerate(pairs):
        d_fg = distance(f, g, metric)
        d_images = distance(apply(op, f), apply(op, g), metric)
        amax, i, j = alpha.pair_max(f.values, g.values)
        lhs = amax * d_images
        rhs = psi.evaluate(d_fg)
        ok = lhs <= rhs + tol
        rows.append(
            {"alpha_max": amax, "image_distance": d_images, "lhs": lhs, "rhs": rhs, "ok": ok}
        )
        if not ok and witness is None:
            witness = {
                "pair_index": idx,
                "point_pair": (f.domain.label(i), g.domain.label(j)),
                "lhs": lhs,
                "rhs": rhs,
            }
    return ConditionReport(
        check="alpha_psi_contractive",
        satisfied=witness is None,
        witness=witness,
        details={"pairs": rows},
    )
