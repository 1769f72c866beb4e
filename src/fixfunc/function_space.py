"""Bounded functions sampled on finite labeled domains, and distances between them.

The central objects are :class:`Domain` (an ordered collection of labeled
sample points, optionally carrying quadrature weights) and
:class:`DiscreteFunction` (finite real values attached to a domain).  Three
distances are provided:

* :func:`cross_sup_distance` -- largest absolute difference over all ordered
  point pairs ``(u, v)``.  It is nonzero on the diagonal for non-constant
  functions (``d(f, f)`` equals the range diameter of ``f``), so it is a
  dissimilarity rather than a metric.  :func:`check_metric_axioms` surveys
  exactly this behavior.
* :func:`uniform_distance` -- the usual sup distance over matching points.
* :func:`grid_l1_distance` -- quadrature-weighted L1 distance; the domain
  must carry weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import permutations
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "DomainPoint",
    "Domain",
    "DiscreteFunction",
    "MetricKind",
    "AxiomReport",
    "cross_sup_distance",
    "uniform_distance",
    "grid_l1_distance",
    "array_distance",
    "distance",
    "check_metric_axioms",
]


@dataclass(frozen=True)
class DomainPoint:
    """One labeled sample point; ``coordinate`` is the real location of the sample."""

    label: str
    coordinate: float

    def __post_init__(self):
        if not isinstance(self.label, str) or not self.label:
            raise ValueError("domain point label must be a non-empty string")
        coord = float(self.coordinate)
        if not math.isfinite(coord):
            raise ValueError(f"coordinate of point {self.label!r} must be finite, got {self.coordinate!r}")
        object.__setattr__(self, "coordinate", coord)


class Domain:
    """Ordered sample points a function is sampled on.

    Coordinates and the optional per-point quadrature weights are stored as
    read-only float64 arrays; the weights are required by the weighted L1
    distance and ignored by the sup-type distances.  ``Domain(points,
    weights)`` takes explicit :class:`DomainPoint` objects.  Domains built by
    :meth:`from_coordinates` and :meth:`uniform_grid` carry implicit labels
    ``prefix + f"{i:04d}"``, made only when asked for; such a domain creates
    no :class:`DomainPoint` until :attr:`points` is read.  A domain built by
    :meth:`uniform_grid` also keeps its arguments as :attr:`grid`, from which
    it can be rebuilt exactly.
    """

    def __init__(self, points: Iterable[DomainPoint], weights=None):
        points = tuple(points)
        labels = tuple(p.label for p in points)
        if len(set(labels)) != len(labels):
            seen = set()
            dup = next(l for l in labels if l in seen or seen.add(l))
            raise ValueError(f"domain labels must be unique, {dup!r} repeats")
        self._init(np.array([p.coordinate for p in points], dtype=float), weights, labels, "")
        self._points = points

    @classmethod
    def _implicit(cls, coords: np.ndarray, weights, prefix: str) -> "Domain":
        domain = cls.__new__(cls)
        domain._init(coords, weights, None, prefix)
        return domain

    def _init(self, coords: np.ndarray, weights, labels: tuple[str, ...] | None, prefix: str) -> None:
        if coords.ndim != 1:
            raise ValueError(f"domain coordinates must be one-dimensional, got shape {coords.shape}")
        if coords.size == 0:
            raise ValueError("domain must contain at least one point")
        self._coords = coords
        self._labels = labels
        self._prefix = prefix
        self._points = None
        self._weights = None
        self._grid = None
        bad = np.flatnonzero(~np.isfinite(coords))
        if bad.size:
            i = int(bad[0])
            raise ValueError(f"coordinate of point {self.label(i)!r} must be finite, got {float(coords[i])!r}")
        coords.setflags(write=False)
        if weights is not None:
            w = np.array(weights, dtype=float)
            if w.shape != coords.shape:
                raise ValueError(f"domain has {coords.size} points but {w.size} weights")
            if not np.all(np.isfinite(w) & (w > 0)):
                raise ValueError("quadrature weights must be finite and positive")
            w.setflags(write=False)
            self._weights = w

    def __len__(self) -> int:
        return self._coords.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Domain):
            return NotImplemented
        if len(self) != len(other):
            return False
        if self._labels is None and other._labels is None:
            same_labels = self._prefix == other._prefix
        else:
            same_labels = self.labels == other.labels
        return (
            same_labels
            and np.array_equal(self._coords, other._coords)
            and (self._weights is None) == (other._weights is None)
            and (self._weights is None or np.array_equal(self._weights, other._weights))
        )

    def __hash__(self) -> int:
        return hash((len(self), self.label(0)))

    def __repr__(self) -> str:
        return f"Domain{self.describe()}"

    def label(self, i: int) -> str:
        """Label of point ``i`` (negative indices count from the end)."""
        i = range(len(self))[i]
        return self._labels[i] if self._labels is not None else f"{self._prefix}{i:04d}"

    @property
    def labels(self) -> tuple[str, ...]:
        if self._labels is not None:
            return self._labels
        return tuple(f"{self._prefix}{i:04d}" for i in range(len(self)))

    @property
    def points(self) -> tuple[DomainPoint, ...]:
        if self._points is None:
            self._points = tuple(map(DomainPoint, self.labels, self._coords.tolist()))
        return self._points

    @property
    def weights(self) -> tuple[float, ...] | None:
        return None if self._weights is None else tuple(self._weights.tolist())

    @property
    def grid(self) -> dict | None:
        """The :meth:`uniform_grid` arguments this domain was built from, or None."""
        return None if self._grid is None else dict(self._grid)

    @property
    def coordinates(self) -> np.ndarray:
        """Read-only array of the point coordinates."""
        return self._coords

    def weight_array(self) -> np.ndarray:
        """Read-only array of the quadrature weights; raises if there are none."""
        if self._weights is None:
            raise ValueError(f"domain {self.describe()} carries no quadrature weights")
        return self._weights

    def describe(self) -> str:
        first, last = float(self._coords[0]), float(self._coords[-1])
        return (
            f"<{len(self)} points, {self.label(0)}@{first:g}"
            f" .. {self.label(-1)}@{last:g}>"
        )

    @classmethod
    def from_coordinates(cls, coords: Iterable[float], weights=None, prefix: str = "u") -> "Domain":
        if not isinstance(coords, np.ndarray):
            coords = list(coords)
        return cls._implicit(np.array(coords, dtype=float), weights, prefix)

    @classmethod
    def uniform_grid(cls, start: float, stop: float, n: int, weights: str | None = None) -> "Domain":
        """Evenly spaced ``n``-point grid on ``[start, stop]``.

        ``weights="trapezoid"`` attaches trapezoid quadrature weights (half
        weight on both edge points), which makes the weighted L1 distance a
        trapezoid approximation of the integral of ``|f - g|``.
        """
        if n < 2:
            raise ValueError("uniform grid needs at least 2 points")
        if stop <= start:
            raise ValueError("grid needs stop > start")
        if weights is None:
            w = None
        elif weights == "trapezoid":
            h = (stop - start) / (n - 1)
            w = np.full(n, h)
            w[0] = w[-1] = h / 2.0
        else:
            raise ValueError(f"unknown weight rule {weights!r}, expected None or 'trapezoid'")
        domain = cls._implicit(np.linspace(start, stop, n), w, "u")
        domain._grid = {"start": float(start), "stop": float(stop), "n": int(n)}
        if weights is not None:
            domain._grid["weights"] = weights
        return domain


@dataclass(frozen=True, eq=False)
class DiscreteFunction:
    """Real values attached point-by-point to a :class:`Domain`.

    Values are stored as a read-only float64 array.  Instances are immutable;
    operators return fresh functions on the same domain.
    """

    domain: Domain
    values: np.ndarray

    def __post_init__(self):
        arr = np.array(self.values, dtype=float, copy=True)
        if arr.ndim != 1:
            raise ValueError(f"function values must be one-dimensional, got shape {arr.shape}")
        if arr.size != len(self.domain):
            raise ValueError(
                f"domain {self.domain.describe()} has {len(self.domain)} points"
                f" but {arr.size} values were given"
            )
        if not np.all(np.isfinite(arr)):
            bad = int(np.flatnonzero(~np.isfinite(arr))[0])
            raise ValueError(f"function value at point {self.domain.label(bad)!r} is not finite")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    @classmethod
    def from_callable(cls, domain: Domain, fn: Callable[[float], float]) -> "DiscreteFunction":
        return cls(domain, [fn(c) for c in domain.coordinates.tolist()])

    @classmethod
    def constant(cls, domain: Domain, value: float) -> "DiscreteFunction":
        return cls(domain, np.full(len(domain), float(value)))

    def to_json_dict(self) -> dict:
        """``{"grid": recipe, "values": [...]}`` on a uniform grid, else ``{"domain": entries, "values": [...]}``."""
        grid = self.domain.grid
        if grid is not None:
            return {"grid": grid, "values": self.values.tolist()}
        labels, coords, weights = self.domain.labels, self.domain.coordinates.tolist(), self.domain.weights
        if weights is None:
            entries = [{"label": l, "coordinate": c} for l, c in zip(labels, coords)]
        else:
            entries = [{"label": l, "coordinate": c, "weight": w} for l, c, w in zip(labels, coords, weights)]
        return {"domain": entries, "values": self.values.tolist()}


class MetricKind(Enum):
    """Which distance the iteration and the checkers use."""

    CROSS_SUP = "cross_sup"
    UNIFORM = "uniform"
    GRID_L1 = "grid_l1"


def _require_same_domain(f: DiscreteFunction, g: DiscreteFunction) -> None:
    if f.domain is not g.domain and f.domain != g.domain:
        raise ValueError(
            f"functions live on different domains: {f.domain.describe()}"
            f" vs {g.domain.describe()}"
        )


def _cross_sup(a: np.ndarray, b: np.ndarray, domain: Domain) -> float:
    return float(max(a.max() - b.min(), b.max() - a.min()))


def _uniform(a: np.ndarray, b: np.ndarray, domain: Domain) -> float:
    return float(np.max(np.abs(a - b)))


def _grid_l1(a: np.ndarray, b: np.ndarray, domain: Domain) -> float:
    # exact summation; a memoryview hands fsum one float at a time, no list
    return math.fsum(memoryview(domain.weight_array() * np.abs(a - b)))


_KERNELS = {
    MetricKind.CROSS_SUP: _cross_sup,
    MetricKind.UNIFORM: _uniform,
    MetricKind.GRID_L1: _grid_l1,
}


def cross_sup_distance(f: DiscreteFunction, g: DiscreteFunction) -> float:
    """Largest absolute difference over all ordered point pairs.

    Parameters
    ----------
    f, g : DiscreteFunction
        Functions on the same domain.

    Returns
    -------
    float
        ``max |f(u) - g(v)|`` over every ordered pair ``(u, v)``.  The
        maximum is attained at range extremes, so this equals
        ``max(max(f) - min(g), max(g) - min(f))``; both candidates cannot
        be negative at once.

    Notes
    -----
    On the diagonal ``d(f, f) = max(f) - min(f)``, the range diameter, which
    vanishes only for constant functions.
    """
    _require_same_domain(f, g)
    return _cross_sup(f.values, g.values, f.domain)


def uniform_distance(f: DiscreteFunction, g: DiscreteFunction) -> float:
    """Sup distance over matching points: ``max |f(u) - g(u)|``."""
    _require_same_domain(f, g)
    return _uniform(f.values, g.values, f.domain)


def grid_l1_distance(f: DiscreteFunction, g: DiscreteFunction) -> float:
    """Quadrature-weighted L1 distance ``sum w(u) |f(u) - g(u)|``.

    The shared domain must carry weights.  Accumulation uses exact float
    summation so the result does not depend on point order.
    """
    _require_same_domain(f, g)
    return _grid_l1(f.values, g.values, f.domain)


def array_distance(a: np.ndarray, b: np.ndarray, kind: MetricKind, domain: Domain) -> float:
    """The distance selected by ``kind`` between two value arrays sampled on ``domain``.

    The arrays are taken as they are: no copy, no finiteness or length check.
    """
    try:
        fn = _KERNELS[kind]
    except KeyError:
        raise ValueError(f"unknown metric kind {kind!r}") from None
    return fn(a, b, domain)


_DISPATCH = {
    MetricKind.CROSS_SUP: cross_sup_distance,
    MetricKind.UNIFORM: uniform_distance,
    MetricKind.GRID_L1: grid_l1_distance,
}


def distance(f: DiscreteFunction, g: DiscreteFunction, kind: MetricKind) -> float:
    """Evaluate the distance selected by ``kind``."""
    try:
        fn = _DISPATCH[kind]
    except KeyError:
        raise ValueError(f"unknown metric kind {kind!r}") from None
    return fn(f, g)


@dataclass(frozen=True)
class AxiomReport:
    """Outcome of a metric-axiom survey over a sample of functions.

    ``diagonal`` holds ``d(f, f)`` per sampled function; ``diagonal_all_zero``
    is the identity-of-indiscernibles flag that the cross-sup dissimilarity
    fails on non-constant samples.  ``satisfied`` holds when every axiom does.
    """

    metric: MetricKind
    nonnegative_ok: bool
    symmetric_ok: bool
    triangle_ok: bool
    diagonal: tuple[float, ...]
    diagonal_all_zero: bool
    witness: dict | None = None
    check: str = field(init=False, default="metric_axioms")
    satisfied: bool = field(init=False)

    def __post_init__(self):
        satisfied = self.nonnegative_ok and self.symmetric_ok and self.triangle_ok and self.diagonal_all_zero
        object.__setattr__(self, "satisfied", satisfied)

    @property
    def all_metric_axioms_ok(self) -> bool:
        return self.satisfied


def check_metric_axioms(
    metric: MetricKind,
    sample: Sequence[DiscreteFunction],
    slack: float = 0.0,
) -> AxiomReport:
    """Survey nonnegativity, symmetry, triangle inequality and the diagonal.

    Parameters
    ----------
    metric : MetricKind
        Distance to survey.
    sample : sequence of DiscreteFunction
        At least three functions on a shared domain.  The triangle
        inequality is checked over every ordered triple drawn from the
        sample.
    slack : float
        Absolute tolerance added to the right side of the triangle check.

    Returns
    -------
    AxiomReport
    """
    if len(sample) < 3:
        raise ValueError(f"axiom survey needs at least 3 functions, got {len(sample)}")
    for f in sample[1:]:
        _require_same_domain(sample[0], f)

    n = len(sample)
    d = np.empty((n, n))
    for i in range(n):
        for j in range(n):
            d[i, j] = distance(sample[i], sample[j], metric)

    witness = None
    nonnegative_ok = bool(np.all(d >= 0.0))
    if not nonnegative_ok:
        i, j = map(int, np.argwhere(d < 0.0)[0])
        witness = {"axiom": "nonnegativity", "pair": (i, j), "value": float(d[i, j])}

    symmetric_ok = bool(np.array_equal(d, d.T))
    if not symmetric_ok and witness is None:
        i, j = map(int, np.argwhere(d != d.T)[0])
        witness = {
            "axiom": "symmetry",
            "pair": (i, j),
            "values": (float(d[i, j]), float(d[j, i])),
        }

    triangle_ok = True
    for i, k, j in permutations(range(n), 3):
        if d[i, j] > d[i, k] + d[k, j] + slack:
            triangle_ok = False
            if witness is None:
                witness = {
                    "axiom": "triangle",
                    "triple": (i, k, j),
                    "lhs": float(d[i, j]),
                    "rhs": float(d[i, k] + d[k, j]),
                }
            break

    diagonal = tuple(float(d[i, i]) for i in range(n))
    diagonal_all_zero = all(v == 0.0 for v in diagonal)
    if not diagonal_all_zero and witness is None:
        i = next(i for i, v in enumerate(diagonal) if v != 0.0)
        witness = {"axiom": "identity", "index": i, "value": diagonal[i]}

    return AxiomReport(
        metric=metric,
        nonnegative_ok=nonnegative_ok,
        symmetric_ok=symmetric_ok,
        triangle_ok=triangle_ok,
        diagonal=diagonal,
        diagonal_all_zero=diagonal_all_zero,
        witness=witness,
    )
