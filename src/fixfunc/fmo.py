"""Fluence map optimization by threshold splitting of the dose matrix.

The dose deposition matrix D is split by a threshold tau into a major part
D1 (coefficients strictly above tau) and a minor part D2 (the rest, ties
included).  The solver alternates

    x  <-  argmin_{x >= 0} || D1 x + delta - T ||^2      (nonnegative least squares)
    delta  <-  D2 x

starting from x = 0, delta = 0, and stops when successive delta vectors
agree to the outer tolerance in the max norm.  A full-matrix solve of the
unsplit problem provides the reference the report's objective gap is
measured against.  It starts from the split solve's fluence, which is
feasible, and stops only on its own projected-gradient test on the full
matrix; the problem is convex, so where it starts changes how long it runs,
not what it certifies.

Both kinds of solve use Lawson and Hanson's active-set nonnegative least
squares on the Gram matrix G = D1^T D1 and b = D1^T y (Bro and de Jong's
FNNLS): a pivot lets the off-support column with the most negative gradient
enter, solves the normal equations G[S, S] z = b[S] on the enlarged support
by a symmetric eigendecomposition, and steps back where that solution turns
negative, all in beamlet space.  The solves stop on an absolute
projected-gradient tolerance.  At the stop one refinement step on the
voxel-space residual wins back the accuracy that G's squared condition
number costs, and the stop is confirmed, like the reported objective and
gradient, on the residual at the refined point.  G is computed on the first
solve against a matrix and kept.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .iteration import fixed_point

__all__ = [
    "SparseDoseMatrix",
    "InnerParams",
    "OuterParams",
    "FmoProblem",
    "InnerResult",
    "FmoReport",
    "split_matrix",
    "inner_solve",
    "reference_solve",
    "fmo_solve",
    "dose_statistics",
    "write_matrix_csv",
    "read_matrix_csv",
    "write_matrix_npz",
    "read_matrix_npz",
]


def _integers(name: str, values) -> np.ndarray:
    """``values`` as int64, refused unless they are integers; an empty list counts."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got {arr.dtype}")
    # unsigned entries past int64's range come out negative, which every caller rejects
    return arr.astype(np.int64)


@dataclass(frozen=True, eq=False)
class SparseDoseMatrix:
    """Nonnegative dose deposition coefficients in row-compressed form.

    Rows index voxels, columns index beamlets.  ``indptr``, ``indices`` and
    ``data`` are the read-only row pointer, column indices and values, in
    row-major order.  The constructor is the one check every matrix passes,
    whether built, split or read: the arrays must describe a matrix of the
    stated shape, every coefficient must be finite and nonnegative
    (explicit zeros are allowed), and the beamlet indices of each row must
    rise strictly, so a duplicate (voxel, beamlet) entry is refused rather
    than summed.  :meth:`from_triplets` puts entries in any order into
    row-major order first.  The products run on scipy's sparse kernels
    over the stored arrays, ``rmatvec`` and the Gram matrix on their
    transposed view, so no transposed copy is kept; scipy is imported when
    the first product is taken.  :func:`inner_solve`
    keeps with the matrix the dense Gram matrix D^T D that its pivots run
    on, n_beamlets^2 doubles (8 MB at 1,000 beamlets), built on the first
    solve.
    """

    n_voxels: int
    n_beamlets: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_voxels < 1 or self.n_beamlets < 1:
            raise ValueError("matrix needs at least one voxel and one beamlet")
        indptr, indices = _integers("indptr", self.indptr), _integers("indices", self.indices)
        data = np.asarray(self.data, dtype=float)
        if indptr.shape != (self.n_voxels + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError(f"indptr must be {self.n_voxels + 1} nondecreasing offsets from 0")
        if not indices.shape == data.shape == (indptr[-1],):
            raise ValueError(f"indptr counts {indptr[-1]} entries, indices and data must hold as many")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_beamlets):
            raise ValueError(f"indices hold a beamlet index out of range [0, {self.n_beamlets})")
        if not (np.isfinite(data).all() and (data >= 0).all()):
            raise ValueError("dose coefficients must be finite and nonnegative")
        # within a row the beamlet indices rise strictly; from a row's last
        # entry to the next row's first they may fall
        rises = indices[1:] > indices[:-1]
        starts = indptr[1:-1]
        rises[starts[(starts > 0) & (starts < indices.size)] - 1] = True
        if not rises.all():
            i = int(np.argmin(rises))
            r, prev, c = int(np.searchsorted(indptr, i, side="right")) - 1, int(indices[i]), int(indices[i + 1])
            if c == prev:
                raise ValueError(f"duplicate entry for voxel {r}, beamlet {c}")
            raise ValueError(f"beamlet indices of voxel {r} must rise, got {c} after {prev}")
        # scipy's index type for a matrix of this size, which the checks keep every index within
        big = max(self.n_voxels, self.n_beamlets, data.size) > np.iinfo(np.int32).max
        index = np.int64 if big else np.int32
        for name, dtype, arr in (("indptr", index, indptr), ("indices", index, indices), ("data", float, data)):
            arr = np.array(arr, dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @classmethod
    def from_triplets(cls, n_voxels, n_beamlets, rows, cols, values) -> "SparseDoseMatrix":
        """The matrix of (row, col, value) entries in any order; the constructor checks the values."""
        n_voxels, n_beamlets = int(n_voxels), int(n_beamlets)
        rows, cols = _integers("rows", rows), _integers("cols", cols)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("triplet arrays must be one-dimensional and equally long")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_voxels:
                raise ValueError(f"rows hold a voxel index out of range [0, {n_voxels})")
            if cols.min() < 0 or cols.max() >= n_beamlets:
                raise ValueError(f"cols hold a beamlet index out of range [0, {n_beamlets})")
        # the stable sort gives the row-major order and puts duplicates side by side
        order = np.argsort(rows * np.int64(n_beamlets) + cols, kind="stable")
        indptr = np.zeros(n_voxels + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_voxels), out=indptr[1:])
        return cls(n_voxels, n_beamlets, indptr, cols[order], values[order])

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @cached_property
    def _csr(self) -> "scipy.sparse.csr_matrix":
        """scipy's CSR matrix over the stored arrays, without a copy; built on the first product."""
        import scipy.sparse

        shape = (self.n_voxels, self.n_beamlets)
        return scipy.sparse.csr_matrix((self.data, self.indices, self.indptr), shape=shape, copy=False)

    @cached_property
    def _gram(self) -> np.ndarray:
        """G = D^T D as a dense n_beamlets x n_beamlets array, built on the first solve and kept."""
        return (self._csr.T @ self._csr).toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_beamlets,):
            raise ValueError(f"expected a vector of {self.n_beamlets} beamlet weights, got shape {x.shape}")
        return self._csr @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_voxels,):
            raise ValueError(f"expected a vector of {self.n_voxels} voxel values, got shape {y.shape}")
        return self._csr.T @ y

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries in row-major order as (rows, cols, values)."""
        rows = np.repeat(np.arange(self.n_voxels, dtype=np.int64), np.diff(self.indptr))
        return rows, self.indices.astype(np.int64), self.data.copy()

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()


VOXEL_TAGS = frozenset(("PTV", "OAR"))


@dataclass(frozen=True)
class InnerParams:
    """Tolerance and pivot cap of the nonnegative least-squares solves."""

    tol: float = 1e-8
    max_iters: int = 20000

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"inner tol must be positive, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"inner max_iters must be at least 1, got {self.max_iters}")


_REFERENCE_PARAMS = InnerParams(tol=1e-10, max_iters=100000)


@dataclass(frozen=True)
class OuterParams:
    tol: float = 1e-8
    max_iters: int = 200

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"outer tol must be positive, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"outer max_iters must be at least 1, got {self.max_iters}")


@dataclass(frozen=True, eq=False)
class FmoProblem:
    """One planning instance: matrix, prescription, voxel tags and solver settings.

    ``prescription`` becomes a read-only float array of one finite,
    nonnegative dose per voxel, and ``labels`` a read-only string array of
    one tag per voxel, "PTV" (target) or "OAR" (healthy tissue); the first
    unknown tag is named with its voxel.
    """

    ddc: SparseDoseMatrix
    prescription: np.ndarray
    labels: np.ndarray
    tau: float
    inner: InnerParams = field(default_factory=InnerParams)
    outer: OuterParams = field(default_factory=OuterParams)
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        t = np.array(self.prescription, dtype=float, copy=True)
        if t.shape != (self.ddc.n_voxels,):
            raise ValueError(
                f"prescription must cover {self.ddc.n_voxels} voxels, got shape {t.shape}"
            )
        if not np.all(np.isfinite(t)) or t.min() < 0:
            raise ValueError("prescription doses must be finite and nonnegative")
        labels = np.array(self.labels, dtype=str)
        if labels.shape != (self.ddc.n_voxels,):
            raise ValueError(f"labels must tag {self.ddc.n_voxels} voxels, got shape {labels.shape}")
        bad = np.flatnonzero((labels != "PTV") & (labels != "OAR"))
        if bad.size:
            raise ValueError(f"unknown voxel tag {str(labels[bad[0]])!r} at voxel {bad[0]}, expected 'PTV' or 'OAR'")
        for name, arr in (("prescription", t), ("labels", labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"split threshold must be finite and nonnegative, got {self.tau!r}")


@dataclass(frozen=True, eq=False)
class InnerResult:
    """Inner solve outcome; objective_trace holds ||D1 x + delta - T||^2 per pivot.

    Between stops the trace follows each pivot's gain; its last entry, the
    ``objective``, is computed from the residual.  ``iterations`` counts
    pivots.  ``converged`` is false when the pivot cap was reached with the
    projected-gradient norm ``pg_norm`` still at or above the tolerance.
    """

    x: np.ndarray
    objective_trace: tuple[float, ...]
    iterations: int
    pg_norm: float
    converged: bool

    @property
    def objective(self) -> float:
        return self.objective_trace[-1]


@dataclass(frozen=True, eq=False)
class FmoReport:
    """Solver outcome.

    ``delta_trace`` holds max-norm distances between successive scatter
    estimates; ``objective_trace`` the inner objective reached per outer
    round; ``reference_gap`` the relative objective excess over the
    full-matrix solve (small negative values only witness the reference's
    own tolerance; None where the reference objective is so near zero that
    the ratio overflows).  ``inner_iterations`` holds the pivots of each outer
    round, ``inner_cap_hits`` counts inner solves that stopped at their
    pivot cap, ``reference_converged`` is false when the reference solve
    did, and ``pg_norm`` is the projected-gradient max-norm of the last
    inner solve; the tuples hold one entry per outer round.  An empty major
    part (``degenerate_inner``) runs one round of no pivots.  ``converged``
    requires outer convergence, a nonempty major part and no cap hit.
    """

    fluence: np.ndarray
    dose: np.ndarray
    outer_iterations: int
    delta_trace: tuple[float, ...]
    objective_trace: tuple[float, ...]
    converged: bool
    reference_gap: float | None
    inner_cap_hits: int
    reference_converged: bool
    pg_norm: float
    degenerate_inner: bool
    delta_ratios: tuple[float, ...]
    inner_iterations: tuple[int, ...]


def split_matrix(ddc: SparseDoseMatrix, tau: float) -> tuple[SparseDoseMatrix, SparseDoseMatrix]:
    """Route every stored entry to the major or minor part by threshold.

    Entries strictly above ``tau`` go to the major part, ties and smaller
    entries to the minor part.  Entries are routed, never recombined, so the
    two parts sum to the original matrix exactly and their supports are
    disjoint by construction.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"split threshold must be finite and nonnegative, got {tau!r}")
    major = ddc.data > tau
    # major entries stored before each row's start: the major part's row pointer
    indptr = np.concatenate(([0], np.cumsum(major)))[ddc.indptr]
    d1 = SparseDoseMatrix(ddc.n_voxels, ddc.n_beamlets, indptr, ddc.indices[major], ddc.data[major])
    d2 = SparseDoseMatrix(ddc.n_voxels, ddc.n_beamlets, ddc.indptr - indptr, ddc.indices[~major], ddc.data[~major])
    return d1, d2


def _finite(value):
    """``value``, a float or an array, unless some entry is not finite: then RuntimeError."""
    # math.isfinite takes a float in 1 % of np.isfinite's time, and the objective is checked every pivot
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise RuntimeError("solver produced non-finite values; instance is ill-posed")
    return value


def _pg_norm(x: np.ndarray, g: np.ndarray) -> float:
    """Max-norm of the projected gradient: g on the support, min(g, 0) at the bound."""
    pg = np.where(x > 0.0, g, np.minimum(g, 0.0))
    return float(np.max(np.abs(pg))) if pg.size else 0.0


def _gram_solve(gram: np.ndarray, support: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G[S, S]^+ rhs on the columns ``support``, by one symmetric eigendecomposition.

    Only eigenvalues above lstsq's default cutoff eps |S| max|lambda| are
    inverted: the minimum-norm solution, so a singular block (a zero or
    repeated column) needs no second code path.
    """
    lam, vec = np.linalg.eigh(gram[np.ix_(support, support)])
    mag = np.abs(lam)
    keep = mag > np.finfo(float).eps * support.size * mag.max()
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return vec @ (inv * (vec.T @ rhs))


def _support_lstsq(gram: np.ndarray, x: np.ndarray, support: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares min ||D1 z - y|| on the columns ``support``, kept nonnegative.

    ``gram`` is G = D1^T D1 and ``b`` is D1^T y; the step holds |S| x |S|
    blocks and beamlet-length vectors and takes no voxel-space product.
    ``support`` holds the column indices to solve on: every column where
    x > 0, and any column at zero that is to enter.  On a support S it
    solves G[S, S] z_S = b_S by :func:`_gram_solve`, good to about c^2 eps
    relative for c the condition number of D1; :func:`inner_solve` refines
    once, at its stop.

    Where the solution has negative entries, z moves from x toward it until
    the first entry reaches zero, that column leaves the support and the
    solve repeats (the inner loop of Lawson and Hanson's NNLS); an entering
    column whose entry comes out negative leaves with no move.  Each move
    stays on a segment from a point of the subspace to its minimizer, so the
    objective never rises above its value at x.  A non-finite solution
    raises RuntimeError.
    """
    z = x.copy()
    while support.size:
        sol = _finite(_gram_solve(gram, support, b[support]))
        if sol.min() >= 0.0:
            z[support] = sol
            break
        cur = z[support]
        neg = np.flatnonzero(sol < 0.0)
        ratios = cur[neg] / (cur[neg] - sol[neg])
        cur += ratios.min() * (sol - cur)
        cur[neg[np.argmin(ratios)]] = 0.0
        z[support] = np.maximum(cur, 0.0)
        support = np.flatnonzero(z > 0.0)
    return z


def inner_solve(
    d1: SparseDoseMatrix,
    delta: np.ndarray,
    prescription: np.ndarray,
    x_init: np.ndarray,
    params: InnerParams | None = None,
) -> InnerResult:
    """Minimize ||D1 x + delta - T||^2 over x >= 0 by Lawson and Hanson's NNLS.

    Parameters
    ----------
    d1 : SparseDoseMatrix
        Major part of the split matrix.
    delta : ndarray
        Current scatter estimate, one value per voxel.
    prescription : ndarray
        Target dose T, one value per voxel.
    x_init : ndarray
        Nonnegative warm start, one value per beamlet.
    params : InnerParams, optional

    Returns
    -------
    InnerResult
        The solve starts from the support of x_init, so successive outer
        rounds and the reference solve start warm.  Each pivot lets the
        off-support column with the most negative half gradient
        g = D1^T (D1 x - y) enter, if that entry is at or below
        ``-params.tol``, and replaces x by least squares on the support
        (``_support_lstsq``, on D1's cached Gram matrix G, with no voxel-space
        product); a pivot with no column to enter re-solves the support, as
        a warm start may need.
        The pivots run in beamlet space on G and b = D1^T y: the new half
        gradient is G x - b and the objective falls by the exact gain
        f(x) - f(z) = (x - z).(g_x + g_z), which is nonnegative up to
        rounding.  Besides D1, a solve holds G (n_beamlets^2 doubles) and a
        few voxel-length vectors.
        The loop stops when the max-norm of the projected gradient falls
        below ``params.tol``, or at the pivot cap ``params.max_iters`` with
        ``converged`` false.  The support solves are good to about
        cond(D1)^2 eps relative and the G-space values carry rounding of
        order |G||x| + |b|, so when they pass the tolerance, and at the cap,
        the solve takes one refinement step on the support S of x,
        x_S -= G[S, S]^+ (D1^T (D1 x - y))_S (Bjorck's corrected semi-normal
        equations, good to about (cond(D1)^2 eps)^2; an entry taken below
        zero is set to zero), and recomputes the residual D1 x - y, the
        objective and the gradient in voxel space.  The loop stops only if
        that gradient passes too, and the reported objective, ``pg_norm``
        and ``converged`` come from it; else the pivots go on.
        An empty D1 has zero gradient everywhere, so the start vector is
        returned unchanged after no pivot.

    Raises
    ------
    ValueError
        On a shape mismatch, a negative entry of ``x_init``, or a non-finite
        entry of ``x_init``, ``delta`` or ``prescription``, named with its
        index.
    RuntimeError
        When a support solve or the objective comes out non-finite.
    """
    params = params or InnerParams()
    delta = np.asarray(delta, dtype=float)
    target = np.asarray(prescription, dtype=float)
    x = np.array(x_init, dtype=float, copy=True)
    if x.shape != (d1.n_beamlets,):
        raise ValueError(f"x_init must have {d1.n_beamlets} entries, got shape {x.shape}")
    if delta.shape != target.shape or delta.shape != (d1.n_voxels,):
        raise ValueError("delta and prescription must both have one entry per voxel")
    for name, v in (("x_init", x), ("delta", delta), ("prescription", target)):
        bad = np.flatnonzero(~np.isfinite(v))
        if bad.size:
            raise ValueError(f"{name} must be finite, entry {int(bad[0])} is {float(v[bad[0]])!r}")
    if x.size and x.min() < 0:
        raise ValueError("x_init must be nonnegative")

    y = target - delta
    r = d1.matvec(x) - y
    obj = _finite(float(r @ r))
    trace = [obj]
    # the pivots run on G and b in beamlet space: g = G x - b is the gradient
    # of the half objective
    gram, b = d1._gram, d1.rmatvec(y)
    g = d1.rmatvec(r)
    pg_norm = _pg_norm(x, g)
    exact = True  # obj, g and pg_norm come from the residual at x
    pivots = 0
    while True:
        if pg_norm < params.tol or pivots >= params.max_iters:
            if exact:
                break
            # refine once on the support, then confirm the stop on the
            # voxel-space residual that the reported objective and gradient come from
            s = np.flatnonzero(x > 0.0)
            if s.size:
                x[s] = np.maximum(x[s] - _gram_solve(gram, s, d1.rmatvec(d1.matvec(x) - y)[s]), 0.0)
            r = d1.matvec(x) - y
            obj = trace[-1] = _finite(float(r @ r))
            g = d1.rmatvec(r)
            pg_norm, exact = _pg_norm(x, g), True
            continue
        pivots += 1
        support = x > 0.0
        k = int(np.argmin(np.where(support, 0.0, g)))
        support[k] |= g[k] <= -params.tol
        z = _support_lstsq(gram, x, np.flatnonzero(support), b)
        g_z = gram @ z - b
        # f(x) - f(z), exact for a quadratic
        obj = _finite(obj - float((x - z) @ (g + g_z)))
        x, g, exact = z, g_z, False
        pg_norm = _pg_norm(x, g)
        trace.append(obj)

    return InnerResult(
        x=x,
        objective_trace=tuple(trace),
        iterations=pivots,
        pg_norm=pg_norm,
        converged=pg_norm < params.tol,
    )


def reference_solve(ddc: SparseDoseMatrix, prescription: np.ndarray, x_init: np.ndarray) -> InnerResult:
    """Solve the unsplit problem min ||D x - T||^2, x >= 0, to high accuracy.

    Same Lawson-Hanson solver as the inner solves, from the nonnegative
    ``x_init``, with the tighter ``_REFERENCE_PARAMS``.  :func:`fmo_solve`
    starts it from the split solve's fluence, which holds most of the
    optimum's support.  The solve stops only when its own projected
    gradient on D, recomputed from the residual, is below the reference
    tolerance; the objective is convex, so that test certifies the same
    optimum from any start, and the start changes only the number of
    pivots.  The result's ``objective`` is ||D x - T||^2 at its ``x``, and
    ``converged`` says whether the solve met the reference tolerance before
    its pivot cap.
    """
    zeros = np.zeros(ddc.n_voxels)
    return inner_solve(ddc, zeros, prescription, x_init, _REFERENCE_PARAMS)


def fmo_solve(problem: FmoProblem) -> FmoReport:
    """Run the two-loop split solver and compare against the full-matrix solve.

    The outer rounds are the fixed-point iteration delta <- D2 x*(delta) of
    :func:`fixfunc.iteration.fixed_point`, where x*(delta) is the inner
    solution warm-started from the previous round's fluence.  Outer
    convergence is declared when successive scatter estimates agree to
    ``problem.outer.tol`` in the max norm; the fluence is the last round's
    inner solution.  Non-finite values abort with ``RuntimeError``, and
    numpy's floating-point warnings are silenced; large finite steps do
    not abort.  Every inner solve pivots on D1's Gram matrix, built on the
    first, and starts from the support the last one ended on, so a round
    whose support holds takes one pivot.  :class:`FmoReport` says when the
    report is converged.
    """
    # a non-finite value below ends in _finite's RuntimeError or a gap of None,
    # so numpy's floating-point warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d1, d2 = split_matrix(problem.ddc, problem.tau)
        target = problem.prescription
        rounds: list[InnerResult] = []

        def scatter(delta: np.ndarray) -> np.ndarray:
            start = rounds[-1].x if rounds else np.zeros(problem.ddc.n_beamlets)
            inner = inner_solve(d1, delta, target, start, problem.inner)
            rounds.append(inner)
            return _finite(d2.matvec(_finite(inner.x)))

        run = fixed_point(scatter, np.zeros(problem.ddc.n_voxels), problem.outer.tol, problem.outer.max_iters)
        x = rounds[-1].x
        cap_hits = sum(not inner.converged for inner in rounds)
        degenerate = d1.nnz == 0
        dose = problem.ddc.matvec(x)
        # from the split fluence, x = 0 after a degenerate split
        ref = reference_solve(problem.ddc, target, x)
        r = dose - target
        gap = (_finite(float(r @ r)) - ref.objective) / max(ref.objective, np.finfo(float).tiny)

    return FmoReport(
        fluence=x,
        dose=dose,
        outer_iterations=run.iterations,
        delta_trace=run.trace,
        objective_trace=tuple(inner.objective for inner in rounds),
        converged=run.converged and not degenerate and cap_hits == 0 and ref.converged,
        reference_gap=float(gap) if math.isfinite(gap) else None,
        inner_cap_hits=cap_hits,
        reference_converged=ref.converged,
        pg_norm=rounds[-1].pg_norm,
        degenerate_inner=degenerate,
        delta_ratios=run.ratios,
        inner_iterations=tuple(inner.iterations for inner in rounds),
    )


def dose_statistics(dose: np.ndarray, labels: np.ndarray) -> dict:
    """Min, mean and max dose per tissue tag, ``labels`` holding one tag per voxel; absent tags report nulls."""
    dose, labels = np.asarray(dose, dtype=float), np.asarray(labels)
    out = {}
    for tag in ("PTV", "OAR"):
        mask = labels == tag
        if mask.any():
            vals = dose[mask]
            out[tag] = {
                "min": float(vals.min()),
                "mean": float(vals.mean()),
                "max": float(vals.max()),
                "voxels": int(mask.sum()),
            }
        else:
            out[tag] = {"min": None, "mean": None, "max": None, "voxels": 0}
    return out


# ---------------------------------------------------------------------------
# file formats

_HEADER_RE = re.compile(r"^#\s*voxels=(\d+)\s+beamlets=(\d+)\s*$")
_TRIPLET = np.dtype([("row", np.int64), ("col", np.int64), ("value", np.float64)])


def write_matrix_csv(mat: SparseDoseMatrix, path) -> None:
    """Triplet CSV with a size header; values keep full precision."""
    rows, cols, vals = mat.triplets()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# voxels={mat.n_voxels} beamlets={mat.n_beamlets}\n")
        fh.write("row,col,value\n")
        fh.write("".join(f"{r},{c},{v!r}\n" for r, c, v in zip(rows.tolist(), cols.tolist(), vals.tolist())))


def read_matrix_csv(path) -> SparseDoseMatrix:
    """Matrix of a triplet CSV, the interchange format for matrices made elsewhere.

    The triplets go through :meth:`SparseDoseMatrix.from_triplets`, like
    those of :func:`read_matrix_npz`, so both formats are held to the
    constructor's index, value and duplicate checks.  A malformed data line
    raises ValueError naming ``path:line``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline()
        m = _HEADER_RE.match(header.strip())
        if not m:
            raise ValueError(
                f"{path}: first line must look like '# voxels=N beamlets=M', got {header.strip()!r}"
            )
        n_voxels, n_beamlets = int(m.group(1)), int(m.group(2))
        column_line = fh.readline().strip()
        if column_line != "row,col,value":
            raise ValueError(f"{path}: second line must be 'row,col,value', got {column_line!r}")
    try:
        with warnings.catch_warnings():
            # a file with no data lines holds an empty matrix
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            # numpy reads a file it opens itself faster than a Python handle
            data = np.loadtxt(
                path, dtype=_TRIPLET, delimiter=",", comments=None, skiprows=2, ndmin=1, encoding="utf-8"
            )
        triplets = data["row"], data["col"], data["value"]
    except ValueError:
        # numpy's row numbers do not count blank lines, and it rejects
        # lines of spaces and indices beyond int64; read again line by
        # line, skipping blank lines, to name the file line at fault
        triplets = _read_triplet_lines(path, n_voxels, n_beamlets)
    return SparseDoseMatrix.from_triplets(n_voxels, n_beamlets, *triplets)


def _read_triplet_lines(path, n_voxels: int, n_beamlets: int) -> tuple[list, list, list]:
    """The data lines of a matrix CSV, parsed and index-checked one at a time; blank lines are skipped."""
    rows, cols, vals = [], [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if lineno <= 2 or not line:
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: expected 'row,col,value', got {line!r}")
            try:
                row, col, val = int(parts[0]), int(parts[1]), float(parts[2])
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            for what, index, n in (("voxel", row, n_voxels), ("beamlet", col, n_beamlets)):
                if not 0 <= index < n:
                    raise ValueError(f"{path}:{lineno}: {what} index {index} out of range [0, {n})")
            rows.append(row)
            cols.append(col)
            vals.append(val)
    return rows, cols, vals


# the arrays of a matrix archive
_NPZ_ARRAYS = ("shape", "rows", "cols", "values")


def write_matrix_npz(mat: SparseDoseMatrix, path) -> None:
    """The CSV's size and row-major triplets as the uncompressed arrays ``shape``, ``rows``, ``cols`` and ``values``."""
    rows, cols, vals = mat.triplets()
    shape = np.array([mat.n_voxels, mat.n_beamlets], dtype=np.int64)
    # through a handle, so that np.savez adds no suffix to the path
    with open(path, "wb") as fh:
        np.savez(fh, shape=shape, rows=rows, cols=cols, values=vals)


def read_matrix_npz(path) -> SparseDoseMatrix:
    """Matrix of a :func:`write_matrix_npz` archive, checked as :func:`read_matrix_csv` checks a CSV.

    Pickled data is refused.  An archive that is not a readable zip of
    exactly the four arrays, a ``shape`` that is not two integers,
    non-numeric ``values`` and an entry that :meth:`SparseDoseMatrix.from_triplets`
    or the constructor rejects (non-integer indices among them) raise
    ValueError naming ``path``.
    """
    # here, not at the top, so that commands that read no archive do not load them
    import lzma
    import zipfile
    import zlib

    with open(path, "rb") as fh:
        try:
            # np.load would read any other file as .npy, or refuse it as pickled data
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("not an .npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                if sorted(archive.files) != sorted(_NPZ_ARRAYS):
                    raise ValueError(f"archive must hold exactly the arrays {sorted(_NPZ_ARRAYS)}, got {sorted(archive.files)}")
                # a member that is not an .npy array reads as bytes
                shape, rows, cols, values = (np.asarray(archive[name]) for name in _NPZ_ARRAYS)
            # from_triplets would truncate a fractional size and parse numeric strings
            if shape.dtype.kind not in "iu":
                raise ValueError(f"shape must hold integers, got {shape.dtype}")
            if shape.shape != (2,):
                raise ValueError(f"shape must hold two integers [n_voxels, n_beamlets], got {shape.tolist()}")
            if values.dtype.kind not in "iuf":
                raise ValueError(f"values must hold numbers, got {values.dtype}")
            return SparseDoseMatrix.from_triplets(*shape.tolist(), rows, cols, values)
        # a damaged member fails in its decompressor: zlib, lzma, or bz2's OSError;
        # an encrypted one raises RuntimeError, an unknown compression NotImplementedError
        except (
            ValueError, EOFError, OSError, RuntimeError, NotImplementedError,
            zipfile.BadZipFile, zlib.error, lzma.LZMAError,
        ) as exc:
            raise ValueError(f"{path}: {exc}") from None
