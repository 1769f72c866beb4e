"""Fluence map optimization by threshold splitting of the dose matrix.

The dose deposition matrix D is split by a threshold tau into a major part
D1 (coefficients strictly above tau) and a minor part D2 (the rest, ties
included).  The solver alternates

    x  <-  argmin_{x >= 0} || D1 x + delta - T ||^2      (nonnegative least squares)
    delta  <-  D2 x

starting from x = 0, delta = 0, and stops when successive delta vectors
agree to the outer tolerance in the max norm.  A full-matrix solve of the
unsplit problem provides the reference the report's objective gap is
measured against.

Both kinds of solve use one method: monotone FISTA with 1/L steps and
adaptive restart, plus a least-squares step on the current support every
few dozen iterations, stopped on an absolute projected-gradient tolerance.
L is a certified upper bound on the squared spectral norm, computed once
per matrix.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .iteration import FixedPointRun, fixed_point

__all__ = [
    "SparseDoseMatrix",
    "VoxelLabels",
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
]

# Power iteration for the Lipschitz bound: step cap and the relative gap
# between its upper and lower bounds at which it stops early.
_POWER_ITERS = 50
_POWER_RTOL = 1e-12
# Every this many inner iterations, try least squares on the current support.
_SUPPORT_EVERY = 20
# A rise in the objective below this fraction of it is rounding noise.  The
# support step minimizes over a subspace that contains x, so it can rise
# only by rounding, yet that rounding decides its fate near the optimum.
_ROUNDING = 1e-14


@dataclass(frozen=True, eq=False)
class SparseDoseMatrix:
    """Nonnegative dose deposition coefficients in row-compressed form.

    Rows index voxels, columns index beamlets.  ``indptr``, ``indices`` and
    ``data`` are the read-only row pointer, column indices and values, in
    row-major order.  :meth:`from_triplets` validates the entries and rejects
    duplicate (voxel, beamlet) entries rather than summing them; explicit
    zeros are allowed.  The constructor checks only that the arrays describe
    a matrix of the stated shape.  The products run on scipy's CSR kernels;
    scipy is imported when the first one is taken.  The support
    least-squares steps of :func:`inner_solve` also keep the Gram matrix
    D^T D, dense: n_beamlets^2 doubles (8 MB at 1,000 beamlets), built on
    the first such step.
    """

    n_voxels: int
    n_beamlets: int
    indptr: np.ndarray = field(repr=False)
    indices: np.ndarray = field(repr=False)
    data: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.n_voxels < 1 or self.n_beamlets < 1:
            raise ValueError("matrix needs at least one voxel and one beamlet")
        # scipy's index type for a matrix of this size
        big = max(self.n_voxels, self.n_beamlets, np.size(self.data)) > np.iinfo(np.int32).max
        index = np.int64 if big else np.int32
        for name, dtype in (("indptr", index), ("indices", index), ("data", float)):
            arr = np.array(getattr(self, name), dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        indptr, indices = self.indptr, self.indices
        if indptr.shape != (self.n_voxels + 1,) or indptr[0] != 0 or np.any(np.diff(indptr) < 0):
            raise ValueError(f"row pointer must be {self.n_voxels + 1} nondecreasing offsets from 0")
        if not indices.shape == self.data.shape == (indptr[-1],):
            raise ValueError(f"column indices and values must each hold the {indptr[-1]} entries the row pointer counts")
        if indices.size and (indices.min() < 0 or indices.max() >= self.n_beamlets):
            raise ValueError(f"beamlet index out of range [0, {self.n_beamlets})")

    @classmethod
    def from_triplets(cls, n_voxels, n_beamlets, rows, cols, values) -> "SparseDoseMatrix":
        n_voxels, n_beamlets = int(n_voxels), int(n_beamlets)
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        values = np.asarray(values, dtype=float)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("triplet arrays must be one-dimensional and equally long")
        if rows.size:
            if rows.min() < 0 or rows.max() >= n_voxels:
                raise ValueError(f"voxel index out of range [0, {n_voxels})")
            if cols.min() < 0 or cols.max() >= n_beamlets:
                raise ValueError(f"beamlet index out of range [0, {n_beamlets})")
            if not np.all(np.isfinite(values)) or values.min() < 0:
                raise ValueError("dose coefficients must be finite and nonnegative")
        # sorting the keys gives the row-major order and puts duplicates side by side
        keys = rows * np.int64(n_beamlets) + cols
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        dup = np.flatnonzero(keys[1:] == keys[:-1])
        if dup.size:
            r, c = divmod(int(keys[dup[0]]), n_beamlets)
            raise ValueError(f"duplicate entry for voxel {r}, beamlet {c}")
        return cls._row_major(n_voxels, n_beamlets, rows[order], cols[order], values[order])

    @classmethod
    def _row_major(cls, n_voxels, n_beamlets, rows, cols, values) -> "SparseDoseMatrix":
        """Matrix of valid triplets that are already in row-major order."""
        indptr = np.zeros(max(n_voxels, 0) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=indptr.size - 1), out=indptr[1:])
        return cls(n_voxels, n_beamlets, indptr, cols, values)

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
    def _csr_t(self) -> "scipy.sparse.csr_matrix":
        """D^T in row-compressed form, built on the first ``rmatvec`` and kept."""
        return self._csr.T.tocsr()

    @cached_property
    def _gram(self) -> np.ndarray:
        """G = D^T D as a dense n_beamlets x n_beamlets array, built on the first support step and kept."""
        return (self._csr_t @ self._csr).toarray()

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_beamlets,):
            raise ValueError(f"expected a vector of {self.n_beamlets} beamlet weights, got shape {x.shape}")
        return self._csr @ x

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_voxels,):
            raise ValueError(f"expected a vector of {self.n_voxels} voxel values, got shape {y.shape}")
        return self._csr_t @ y

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries in row-major order as (rows, cols, values)."""
        rows = np.repeat(np.arange(self.n_voxels, dtype=np.int64), np.diff(self.indptr))
        return rows, self.indices.astype(np.int64), self.data.copy()

    def to_dense(self) -> np.ndarray:
        rows, cols, vals = self.triplets()
        dense = np.zeros((self.n_voxels, self.n_beamlets))
        dense[rows, cols] = vals
        return dense


@dataclass(frozen=True)
class VoxelLabels:
    """Per-voxel tissue tags, either target ("PTV") or healthy ("OAR")."""

    tags: tuple[str, ...]

    def __post_init__(self):
        tags = tuple(str(t) for t in self.tags)
        if not tags:
            raise ValueError("labels must cover at least one voxel")
        bad = next((t for t in tags if t not in ("PTV", "OAR")), None)
        if bad is not None:
            raise ValueError(f"unknown voxel tag {bad!r}, expected 'PTV' or 'OAR'")
        object.__setattr__(self, "tags", tags)

    def __len__(self) -> int:
        return len(self.tags)

    def mask(self, tag: str) -> np.ndarray:
        return np.array([t == tag for t in self.tags])


@dataclass(frozen=True)
class InnerParams:
    """Tolerance and iteration cap of the nonnegative least-squares solves."""

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
    """One planning instance: matrix, prescription, labels and solver settings."""

    ddc: SparseDoseMatrix
    prescription: np.ndarray
    labels: VoxelLabels
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
        t.setflags(write=False)
        object.__setattr__(self, "prescription", t)
        if len(self.labels) != self.ddc.n_voxels:
            raise ValueError(
                f"labels cover {len(self.labels)} voxels, matrix has {self.ddc.n_voxels}"
            )
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"split threshold must be finite and nonnegative, got {self.tau!r}")


@dataclass(frozen=True, eq=False)
class InnerResult:
    """Inner solve outcome; objective_trace holds ||D1 x + delta - T||^2 per step.

    ``converged`` is false when the iteration cap was reached with the
    projected-gradient norm ``pg_norm`` still at or above the tolerance.
    """

    x: np.ndarray
    objective_trace: tuple[float, ...]
    iterations: int
    pg_norm: float
    lipschitz: float
    converged: bool
    degenerate: bool = False

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
    own tolerance).  ``inner_cap_hits`` counts inner solves that stopped at
    their iteration cap, ``reference_converged`` is false when the reference
    solve did, ``lipschitz`` is the bound used for every inner step and
    ``pg_norm`` the projected-gradient max-norm of the last inner solve.
    ``converged`` requires the outer loop to converge with no cap hit.
    """

    fluence: np.ndarray
    dose: np.ndarray
    outer_iterations: int
    delta_trace: tuple[float, ...]
    objective_trace: tuple[float, ...]
    converged: bool
    reference_gap: float
    inner_cap_hits: int
    reference_converged: bool
    lipschitz: float
    pg_norm: float
    degenerate_inner: bool = False
    delta_ratios: tuple[float, ...] = ()
    inner_iterations: tuple[int, ...] = ()



def split_matrix(ddc: SparseDoseMatrix, tau: float) -> tuple[SparseDoseMatrix, SparseDoseMatrix]:
    """Route every stored entry to the major or minor part by threshold.

    Entries strictly above ``tau`` go to the major part, ties and smaller
    entries to the minor part.  Entries are routed, never recombined, so the
    two parts sum to the original matrix exactly and their supports are
    disjoint by construction.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"split threshold must be finite and nonnegative, got {tau!r}")
    rows, cols, vals = ddc.triplets()
    major = vals > tau
    d1 = SparseDoseMatrix._row_major(ddc.n_voxels, ddc.n_beamlets, rows[major], cols[major], vals[major])
    d2 = SparseDoseMatrix._row_major(ddc.n_voxels, ddc.n_beamlets, rows[~major], cols[~major], vals[~major])
    return d1, d2


def _spectral_norm_sq(mat: SparseDoseMatrix) -> float:
    """Certified upper bound on the largest squared singular value.

    Power iteration on D^T D from the ones vector keeps every iterate v
    positive on the nonzero columns, and D^T D is entrywise nonnegative, so
    each iterate gives the Collatz-Wielandt bound max_j (D^T D v)_j / v_j on
    the largest eigenvalue.  The smallest bound seen is returned.  The loop
    stops once that bound meets the Rayleigh quotient (a lower bound) to
    ``_POWER_RTOL`` relative, or after ``_POWER_ITERS`` steps; the start
    vector is fixed so repeated runs are bit-identical.
    """
    if mat.nnz == 0:
        return 0.0
    v = np.ones(mat.n_beamlets)
    upper = math.inf
    live = None
    for _ in range(_POWER_ITERS):
        u = mat.matvec(v)
        w = mat.rmatvec(u)
        if live is None:
            # (D^T D 1)_j > 0 exactly on the nonzero columns
            live = w > 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            # an entry of v that underflowed gives inf or nan; min() skips nan
            upper = min(upper, float(np.max(w[live] / v[live])))
        lower = float(u @ u) / float(v @ v)
        if upper - lower <= _POWER_RTOL * upper:
            break
        v = w / np.max(w)
    return upper


def _pg_norm(x: np.ndarray, g: np.ndarray) -> float:
    """Max-norm of the projected gradient: g on the support, min(g, 0) at the bound."""
    pg = np.where(x > 0.0, g, np.minimum(g, 0.0))
    return float(np.max(np.abs(pg))) if pg.size else 0.0


def _support_lstsq(d1: SparseDoseMatrix, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least squares min ||D1 z - y|| on the columns where x > 0, kept nonnegative.

    The solution on a support S comes from the normal equations
    G[S, S] z_S = (D1^T y)_S on the cached Gram matrix G = D1^T D1, plus one
    refinement step that solves the same system for D1^T (y - D1 z) on S
    (Bjorck's corrected semi-normal equations).  G squares the condition
    number c of D1: the first solve is good to about c^2 eps relative, the
    refinement step to about (c^2 eps)^2, and the residual to rounding.
    ``np.linalg.lstsq`` takes a singular G[S, S] (a zero or repeated column)
    as it comes.  So a call holds |S| x |S| blocks and voxel-length
    vectors, never the voxel x |S| columns themselves.

    Where the solution has negative entries, z moves from x toward it until
    the first entry reaches zero, that column leaves the support and the
    solve repeats (the inner loop of Lawson and Hanson's NNLS).  Each move
    stays on a segment from a point of the subspace to its minimizer, so the
    objective never rises above its value at x.
    """
    z = x.copy()
    gram, rhs = d1._gram, d1.rmatvec(y)
    support = np.flatnonzero(z > 0.0)
    while support.size:
        block = gram[np.ix_(support, support)]
        full = np.zeros_like(z)
        full[support] = np.linalg.lstsq(block, rhs[support], rcond=None)[0]
        resid = d1.rmatvec(y - d1.matvec(full))[support]
        sol = full[support] + np.linalg.lstsq(block, resid, rcond=None)[0]
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
    lipschitz: float | None = None,
) -> InnerResult:
    """Minimize ||D1 x + delta - T||^2 over x >= 0 by restarted monotone FISTA.

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
    lipschitz : float, optional
        Upper bound on the squared spectral norm of D1, for callers that
        solve against the same matrix repeatedly; computed when omitted.

    Returns
    -------
    InnerResult
        Each iteration takes a 1/L projected-gradient step from the
        extrapolated point (Beck and Teboulle's FISTA) and keeps it only if
        the objective does not rise beyond rounding; otherwise the momentum
        restarts and the next step is a plain 1/L step from the current
        point (O'Donoghue and Candes), so the objective trace is
        nonincreasing.  The gradient at the extrapolated point is the same
        combination of the two stored gradients, so a step costs one matvec
        and at most one rmatvec.  Every ``_SUPPORT_EVERY``-th iteration,
        starting with the first when x_init is nonzero, is instead a least
        squares solve on the support of x (``_support_lstsq``: the normal
        equations on D1's cached Gram matrix plus one refinement step),
        kept under the same rule; once the support is right it lands on the
        optimum, which gradient steps approach slowly when D1 is
        ill-conditioned.  Besides D1 and its transpose, a solve holds the
        Gram matrix (n_beamlets^2 doubles) and a few voxel-length vectors.
        The loop stops when the max-norm of the projected gradient falls
        below ``params.tol``, or at the iteration cap with ``converged``
        false.  A converged solve whose last step was not a support step
        ends with one, not counted in ``iterations``, kept when it lowers
        the objective and still passes the tolerance: the absolute test
        alone can stop a consistent system with its residual near
        tol / sigma_min(D1).  An empty major part leaves the objective
        constant in x; the start vector is returned unchanged with the
        degenerate flag set.

    Raises
    ------
    ValueError
        On a shape mismatch, a negative entry of ``x_init``, or a non-finite
        entry of ``x_init``, ``delta`` or ``prescription``, named with its
        index.
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

    if lipschitz is None:
        lipschitz = _spectral_norm_sq(d1)
    elif not (math.isfinite(lipschitz) and lipschitz >= 0):
        raise ValueError(f"lipschitz must be finite and nonnegative, got {lipschitz!r}")
    y = target - delta
    r = d1.matvec(x) - y
    obj = float(r @ r)
    trace = [obj]
    if lipschitz == 0.0:
        return InnerResult(
            x=np.array(x_init, dtype=float),
            objective_trace=tuple(trace),
            iterations=0,
            pg_norm=0.0,
            lipschitz=0.0,
            converged=True,
            degenerate=True,
        )

    step = 1.0 / lipschitz
    # gradient of the half objective; the 1/L step is tuned to it
    g = d1.rmatvec(r)
    pg_norm = _pg_norm(x, g)
    x_prev, g_prev = x, g
    t = 1.0
    iters = 0
    on_support = False  # x came from a support step
    while pg_norm >= params.tol and iters < params.max_iters:
        iters += 1
        support_step = iters % _SUPPORT_EVERY == 1 and x.any()
        if support_step:
            cand = _support_lstsq(d1, x, y)
            t_next = 1.0
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            beta = (t - 1.0) / t_next
            cand = np.maximum(x + beta * (x - x_prev) - step * (g + beta * (g - g_prev)), 0.0)
        r_cand = d1.matvec(cand) - y
        gain = float((r - r_cand) @ (r + r_cand))  # f(x) - f(cand)
        if gain < -_ROUNDING * obj:
            t, x_prev, g_prev = 1.0, x, g
            trace.append(obj)
            continue
        t, x_prev, g_prev = t_next, x, g
        x, r, on_support = cand, r_cand, support_step
        obj = float(r @ r)
        g = d1.rmatvec(r)
        pg_norm = _pg_norm(x, g)
        trace.append(obj)
    if pg_norm < params.tol and x.any() and not on_support:
        cand = _support_lstsq(d1, x, y)
        r_cand = d1.matvec(cand) - y
        obj_cand = float(r_cand @ r_cand)
        if obj_cand < obj:
            pg_cand = _pg_norm(cand, d1.rmatvec(r_cand))
            if pg_cand < params.tol:
                x, obj, pg_norm = cand, obj_cand, pg_cand
                trace.append(obj)

    return InnerResult(
        x=x,
        objective_trace=tuple(trace),
        iterations=iters,
        pg_norm=pg_norm,
        lipschitz=lipschitz,
        converged=pg_norm < params.tol,
    )


def reference_solve(ddc: SparseDoseMatrix, prescription: np.ndarray) -> InnerResult:
    """Solve the unsplit problem min ||D x - T||^2, x >= 0, to high accuracy.

    Same accelerated solver as the inner solves, from zero, with the
    tighter ``_REFERENCE_PARAMS``.  The result's ``objective`` is
    ||D x - T||^2 at its ``x``, and ``converged`` says whether the solve
    met the reference tolerance before its iteration cap.
    """
    zeros = np.zeros(ddc.n_voxels)
    start = np.zeros(ddc.n_beamlets)
    return inner_solve(ddc, zeros, prescription, start, _REFERENCE_PARAMS)


def fmo_solve(problem: FmoProblem) -> FmoReport:
    """Run the two-loop split solver and compare against the full-matrix solve.

    The outer rounds are the fixed-point iteration delta <- D2 x*(delta) of
    :func:`fixfunc.iteration.fixed_point`, where x*(delta) is the inner
    solution warm-started from the previous round's fluence.  Outer
    convergence is declared when successive scatter estimates agree to
    ``problem.outer.tol`` in the max norm; the fluence is then re-solved once
    against the final scatter so the returned pair is mutually consistent at
    the stated tolerances.  Non-finite values abort with ``RuntimeError``;
    large finite steps do not.  The Lipschitz bound of D1 is computed once and
    shared by every inner solve.  The report is converged only if the outer
    loop converged and neither an inner solve nor the reference solve
    stopped at its iteration cap.  An empty major part aborts with the
    degenerate flag (the inner problem no longer constrains the fluence).
    """
    d1, d2 = split_matrix(problem.ddc, problem.tau)
    target = problem.prescription

    x = np.zeros(problem.ddc.n_beamlets)
    objective_trace: list[float] = []
    inner_iters: list[int] = []
    degenerate = d1.nnz == 0
    lipschitz = _spectral_norm_sq(d1)
    cap_hits = 0
    pg_norm = 0.0

    def scatter(delta: np.ndarray) -> np.ndarray:
        nonlocal x, pg_norm, cap_hits
        inner = inner_solve(d1, delta, target, x, problem.inner, lipschitz)
        x, pg_norm = inner.x, inner.pg_norm
        cap_hits += not inner.converged
        objective_trace.append(inner.objective)
        inner_iters.append(inner.iterations)
        new_delta = d2.matvec(x)
        if not np.all(np.isfinite(new_delta)) or not np.all(np.isfinite(x)):
            raise RuntimeError("solver produced non-finite values; instance is ill-posed")
        return new_delta

    run = FixedPointRun(np.zeros(problem.ddc.n_voxels), 0, (), False, False)
    if not degenerate:
        run = fixed_point(scatter, run.x, problem.outer.tol, problem.outer.max_iters)
        if run.converged:
            # polish against the final scatter so x satisfies the inner
            # optimality test for the delta the report carries
            inner = inner_solve(d1, run.x, target, x, problem.inner, lipschitz)
            x, pg_norm = inner.x, inner.pg_norm
            cap_hits += not inner.converged
            objective_trace[-1] = inner.objective
            inner_iters[-1] += inner.iterations

    dose = problem.ddc.matvec(x)
    ref = reference_solve(problem.ddc, target)
    r = dose - target
    obj = float(r @ r)
    gap = (obj - ref.objective) / max(ref.objective, np.finfo(float).tiny)

    return FmoReport(
        fluence=x,
        dose=dose,
        outer_iterations=run.iterations,
        delta_trace=run.trace,
        objective_trace=tuple(objective_trace),
        converged=run.converged and cap_hits == 0 and ref.converged,
        reference_gap=float(gap),
        inner_cap_hits=cap_hits,
        reference_converged=ref.converged,
        lipschitz=lipschitz,
        pg_norm=pg_norm,
        degenerate_inner=degenerate,
        delta_ratios=run.ratios,
        inner_iterations=tuple(inner_iters),
    )


def dose_statistics(dose: np.ndarray, labels: VoxelLabels) -> dict:
    """Min, mean and max dose per tissue tag; absent tags report nulls."""
    dose = np.asarray(dose, dtype=float)
    out = {}
    for tag in ("PTV", "OAR"):
        mask = labels.mask(tag)
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
    """Matrix of a triplet CSV; a malformed data line raises ValueError naming ``path:line``."""
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
                data = np.loadtxt(fh, dtype=_TRIPLET, delimiter=",", comments=None, ndmin=1)
            triplets = data["row"], data["col"], data["value"]
        except ValueError:
            # numpy's row numbers do not count blank lines, and it rejects
            # lines of spaces; read again line by line, skipping those, to
            # name the file line at fault
            triplets = _read_triplet_lines(path)
    return SparseDoseMatrix.from_triplets(n_voxels, n_beamlets, *triplets)


def _read_triplet_lines(path) -> tuple[list, list, list]:
    """The data lines of a matrix CSV, parsed one at a time; blank lines are skipped."""
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
                rows.append(int(parts[0]))
                cols.append(int(parts[1]))
                vals.append(float(parts[2]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
    return rows, cols, vals
