"""Fluence map optimization by threshold splitting of the dose matrix.

The dose deposition matrix D is split by a threshold tau into a major part
D1 (coefficients strictly above tau) and a minor part D2 (the rest, ties
included).  The solver alternates

    x  <-  argmin_{x >= 0} || D1 x + delta - T ||^2      (nonnegative least squares)
    delta  <-  D2 x

starting from x = 0, delta = 0, and stops when successive delta vectors
agree to the outer tolerance in the max norm.  A full-matrix solve of the
unsplit problem, started from the split solve's fluence, is the reference
the report's objective gap is measured against; the problem is convex, so
where it starts changes how long it runs, not what it certifies.

Both kinds of solve use Lawson and Hanson's active-set nonnegative least
squares on G = D1^T D1 and b = D1^T y (Bro and de Jong's FNNLS), in beamlet
space, and stop on an absolute projected-gradient tolerance; see
:func:`inner_solve`.  One pass over dense row blocks of D
(:func:`_operators`) builds what :func:`fmo_solve` runs on: D^T D, D1^T D1,
D1 held once, as the dense row slices the pass keeps and CSR arrays of the
rows they leave out, and D2.  A matrix solved on its own gets its G on its
first solve.  The products and the Gram builds run in numpy alone.
"""

from __future__ import annotations

import lzma
import math
import re
import warnings
import weakref
import zipfile
import zlib
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


# bytes a product or a Gram build holds per block of rows, whatever the nnz
_BLOCK_BYTES = 1 << 20


def _integers(name: str, values) -> np.ndarray:
    """``values`` as an array in its own integer dtype, refused unless they are integers; an empty list counts."""
    arr = np.asarray(values)
    if arr.size and arr.dtype.kind not in "iu":
        raise ValueError(f"{name} must hold integers, got {arr.dtype}")
    return arr


def _csr_block(rows: np.ndarray, ptr: np.ndarray, indices: np.ndarray, values: np.ndarray) -> tuple:
    """The CSR block (rows, starts, counts, indices, values) of ``rows``, row i's at ``ptr[i]:ptr[i + 1]``, empty rows left out."""
    held = np.flatnonzero(ptr[1:] > ptr[:-1])
    return rows[held], ptr[held], ptr[held + 1] - ptr[held], indices, values


@dataclass(frozen=True, eq=False)
class SparseDoseMatrix:
    """Nonnegative dose deposition coefficients in row-compressed form.

    Rows index voxels, columns index beamlets.  ``indptr``, ``indices`` and
    ``data`` are the read-only row pointer, column indices and values, in
    row-major order.  The constructor is the one check every matrix passes,
    built, split or read: the arrays must describe a matrix of the stated
    shape, every coefficient must be finite and nonnegative (explicit zeros
    are allowed), and each row's beamlet indices must rise strictly, so a
    duplicate entry is refused rather than summed.  Each array is checked
    in the dtype given and copied once.  :meth:`from_triplets` sorts
    (row, col, value) triplets given in any order, as the CSV reader holds
    them.  The products run a block of rows at a time (:attr:`_blocks`).
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
        data = np.asarray(self.data)
        if data.dtype.kind not in "iuf":
            raise ValueError(f"data must hold numbers, got {data.dtype}")
        # not np.diff, which wraps on unsigned offsets
        if indptr.shape != (self.n_voxels + 1,) or indptr[0] != 0 or np.any(indptr[1:] < indptr[:-1]):
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
        # int32 indices where every index fits, half the bytes of int64
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
        rows, cols, values = _integers("rows", rows), _integers("cols", cols), np.asarray(values)
        if not (rows.shape == cols.shape == values.shape) or rows.ndim != 1:
            raise ValueError("triplet arrays must be one-dimensional and equally long")
        if rows.size and (rows.min() < 0 or rows.max() >= n_voxels):
            raise ValueError(f"rows hold a voxel index out of range [0, {n_voxels})")
        # cols out of range, past int64's wrapped negative, are the constructor's to refuse
        rows, cols = rows.astype(np.int64), cols.astype(np.int64)
        # the stable sort gives the row-major order and puts duplicates side by side
        order = np.argsort(rows * np.int64(n_beamlets) + cols, kind="stable")
        indptr = np.zeros(n_voxels + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n_voxels), out=indptr[1:])
        return cls(n_voxels, n_beamlets, indptr, cols[order], values[order])

    @property
    def nnz(self) -> int:
        return int(self.data.size)

    @property
    def _csr(self) -> "SparseDoseMatrix":
        """The matrix itself, the name ``bench/tracing.py`` reads its arrays by."""
        return self

    @cached_property
    def _blocks(self) -> tuple:
        """CSR row blocks (rows, starts, counts, indices, values) of about ``_BLOCK_BYTES / 8`` entries, or one row.

        ``rows`` are a block's rows that hold an entry, ``starts`` and
        ``counts`` their offsets and sizes in its entries, viewed in ``indices`` and ``values``.
        """
        cuts = np.searchsorted(self.indptr, np.arange(0, self.nnz, max(1, _BLOCK_BYTES // 8)), side="right") - 1
        blocks = []
        for r0, r1 in zip(cuts, np.append(cuts[1:], self.n_voxels)):
            ptr = self.indptr[r0 : r1 + 1]
            lo, hi = ptr[0], ptr[-1]
            if hi > lo:
                blocks.append(_csr_block(np.arange(r0, r1), ptr - lo, self.indices[lo:hi], self.data[lo:hi]))
        return tuple(blocks)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n_beamlets,):
            raise ValueError(f"expected a vector of {self.n_beamlets} beamlet weights, got shape {x.shape}")
        return _Operator(self.n_voxels, self.n_beamlets, self._blocks).matvec(x)

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n_voxels,):
            raise ValueError(f"expected a vector of {self.n_voxels} voxel values, got shape {y.shape}")
        return _Operator(self.n_voxels, self.n_beamlets, self._blocks).rmatvec(y)

    def triplets(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Entries in row-major order as (rows, cols, values)."""
        rows = np.repeat(np.arange(self.n_voxels, dtype=np.int64), np.diff(self.indptr))
        return rows, self.indices.astype(np.int64), self.data.copy()

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_voxels, self.n_beamlets))
        out[self.triplets()[:2]] = self.data
        return out


@dataclass(eq=False)
class _Operator:
    """A matrix A as the solves run on it: its products, G = A^T A, and the last product, kept.

    The products run on dense row slices (rows, cols, dense), then on CSR
    blocks (rows, starts, counts, indices, values): a matrix's own blocks,
    or D1's slices and the blocks of the rows they leave out.
    """

    n_voxels: int
    n_beamlets: int
    blocks: tuple
    slices: tuple = ()
    gram: np.ndarray | None = None
    kept: tuple | None = None

    def matvec(self, x: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_voxels)
        for rows, cols, dense in self.slices:
            out[rows] = dense @ x[cols]
        for rows, starts, _, indices, values in self.blocks:
            # take casts int32 indices many times slower than astype
            t = x.take(indices.astype(np.intp))
            t *= values
            out[rows] = np.add.reduceat(t, starts)
        return out

    def rmatvec(self, y: np.ndarray) -> np.ndarray:
        out = np.zeros(self.n_beamlets)
        for rows, cols, dense in self.slices:
            out[cols] += y[rows] @ dense
        for rows, _, counts, indices, values in self.blocks:
            t = np.repeat(y[rows], counts)
            t *= values
            out += np.bincount(indices, weights=t, minlength=self.n_beamlets)
        return out

    def dose(self, x: np.ndarray) -> np.ndarray:
        """A x, read-only and kept: an x of the same bits (-0.0 is not 0.0) gets it back; at first A 0 = 0 is kept."""
        key = x.tobytes()
        kept, dose = self.kept or (bytes(8 * self.n_beamlets), np.zeros(self.n_voxels))
        if key != kept:
            dose = self.matvec(x)
        dose.setflags(write=False)
        self.kept = key, dose
        return dose


# the operator of each matrix solved on its own, held only as long as the matrix is
_ALONE: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


# the voxel tags, target first
VOXEL_TAGS = ("PTV", "OAR")


@dataclass(frozen=True)
class InnerParams:
    """Tolerance and pivot cap of the nonnegative least-squares solves."""

    tol: float = 1e-8
    max_iters: int = 20000
    _loop = "inner"

    def __post_init__(self):
        if not (math.isfinite(self.tol) and self.tol > 0):
            raise ValueError(f"{self._loop} tol must be positive, got {self.tol!r}")
        if self.max_iters < 1:
            raise ValueError(f"{self._loop} max_iters must be at least 1, got {self.max_iters}")


_REFERENCE_PARAMS = InnerParams(tol=1e-10, max_iters=100000)


@dataclass(frozen=True)
class OuterParams(InnerParams):
    """Tolerance and round cap of the outer scatter iteration."""

    max_iters: int = 200
    _loop = "outer"


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
        bad = np.flatnonzero(~np.isin(labels, VOXEL_TAGS))
        if bad.size:
            expected = " or ".join(map(repr, VOXEL_TAGS))
            raise ValueError(f"unknown voxel tag {str(labels[bad[0]])!r} at voxel {bad[0]}, expected {expected}")
        for name, arr in (("prescription", t), ("labels", labels)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        if not (math.isfinite(self.tau) and self.tau >= 0):
            raise ValueError(f"split threshold must be finite and nonnegative, got {self.tau!r}")

    @property
    def warnings(self) -> tuple[str, ...]:
        """What the matrix shows: the count of voxels whose row holds no entry above zero, if any."""
        indptr, data = self.ddc.indptr, self.ddc.data
        starts = indptr[:-1][indptr[1:] > indptr[:-1]]
        n = self.ddc.n_voxels - int(np.count_nonzero(np.maximum.reduceat(data, starts)))
        return (f"{n} voxels receive zero dose from every beamlet",) if n else ()


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
    own tolerance; inf where the reference objective is so near zero that
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
    reference_gap: float
    inner_cap_hits: int
    reference_converged: bool
    pg_norm: float
    degenerate_inner: bool
    delta_ratios: tuple[float, ...]
    inner_iterations: tuple[int, ...]


def _major(values: np.ndarray, tau: float) -> np.ndarray:
    """Which ``values`` go to the major part: those strictly above ``tau``."""
    return values > tau


def _part(ddc: SparseDoseMatrix, keep: np.ndarray) -> SparseDoseMatrix:
    """The matrix of ``ddc``'s stored entries where ``keep`` holds."""
    # kept entries stored before each entry, summed in place in one buffer of
    # the index dtype; read at the row starts, they are the part's row pointer
    before = np.zeros(keep.size + 1, dtype=ddc.indptr.dtype)
    before[1:] = keep
    indptr = np.cumsum(before, out=before)[ddc.indptr]
    del before  # freed before the part is built
    return SparseDoseMatrix(ddc.n_voxels, ddc.n_beamlets, indptr, ddc.indices[keep], ddc.data[keep])


def split_matrix(ddc: SparseDoseMatrix, tau: float) -> tuple[SparseDoseMatrix, SparseDoseMatrix]:
    """Route every stored entry to the major or minor part by threshold.

    Entries strictly above ``tau`` go to the major part, ties and smaller
    entries to the minor part.  Entries are routed, never recombined, so the
    two parts sum to the original matrix exactly and their supports are
    disjoint by construction.
    """
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"split threshold must be finite and nonnegative, got {tau!r}")
    major = _major(ddc.data, tau)
    return _part(ddc, major), _part(ddc, ~major)


def _finite(value):
    """``value``, a float or an array, unless some entry is not finite: then RuntimeError."""
    # math.isfinite takes a float in 1 % of np.isfinite's time, and the objective is checked every pivot
    if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
        raise RuntimeError("solver produced non-finite values; instance is ill-posed")
    return value


def _operators(mat: SparseDoseMatrix, tau: float | None = None) -> tuple:
    """From one pass over D = ``mat``'s row blocks, D's operator, and with ``tau`` D1's and the matrix D2.

    Each row block is made dense on the columns it touches, in slices of at
    most ``_BLOCK_BYTES``; numpy takes slice^T slice as one syrk, so D^T D
    is symmetric to the bit.  D's G must come out finite, which bounds
    D1's (else RuntimeError).  D1, the entries above ``tau``, keeps a
    block's major slices where they cost at most twice the block's CSR
    bytes, else CSR arrays of its major entries.  D2 is built first.
    """
    n, split = mat.n_beamlets, tau is not None
    d2 = _part(mat, ~_major(mat.data, tau)) if split else None
    grams = [np.zeros((n, n)) for _ in range(1 + split)]
    at = np.zeros(n, dtype=np.intp)
    slices, blocks = [], []
    for rows, starts, counts, indices, values in mat._blocks:
        idx = indices.astype(np.intp)
        at[idx] = 1
        cols = np.flatnonzero(at)
        at[cols] = np.arange(cols.size)
        # each entry's place in the block's rows made dense on the columns cols
        place = np.repeat(np.arange(counts.size) * cols.size, counts)
        place += at.take(idx)
        at[cols] = 0
        del idx  # freed before the slices are made
        ends, step = np.append(starts, values.size), max(1, _BLOCK_BYTES // (8 * cols.size))
        keep = split and 8 * counts.size * cols.size <= 2 * values.size * (8 + indices.itemsize)
        if split and not keep:
            major = _major(values, tau)
            if major.any():
                ptr = np.append(0, np.cumsum(np.add.reduceat(major, starts, dtype=np.intp)))
                blocks.append(_csr_block(rows, ptr, indices[major], values[major]))
        sums = [np.zeros((cols.size, cols.size)) for _ in grams]
        for k in range(0, counts.size, step):
            e0, e1 = ends[k], ends[min(k + step, counts.size)]
            dense = np.zeros((min(step, counts.size - k), cols.size))
            dense.reshape(-1)[place[e0:e1] - k * cols.size] = values[e0:e1]
            sums[0] += dense.T @ dense
            if split:
                dense *= _major(dense, tau)
                sums[1] += dense.T @ dense
                if keep:
                    slices.append((rows[k : k + step], cols, dense))
        for g, part in zip(grams, sums):
            g[np.ix_(cols, cols)] += part
    d = _Operator(mat.n_voxels, n, mat._blocks, gram=_finite(grams[0]))
    return (d, _Operator(mat.n_voxels, n, tuple(blocks), tuple(slices), grams[1]), d2) if split else (d,)


def _pg_norm(x: np.ndarray, g: np.ndarray) -> float:
    """Max-norm of the projected gradient: g on the support, min(g, 0) at the bound."""
    pg = np.where(x > 0.0, g, np.minimum(g, 0.0))
    return float(np.max(np.abs(pg))) if pg.size else 0.0


def _gram_solve(gram: np.ndarray, support: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """G[S, S]^+ rhs on the columns ``support``.

    A block whose Cholesky factor L exists with (min L_ii)^2 above
    eps |S| max G_ii, the form of lstsq's default cutoff eps |S| max|lambda|,
    is solved as it stands.  Any other block (a zero or repeated column, or
    one too near singular) takes one symmetric eigendecomposition that
    inverts only the eigenvalues above that cutoff: the minimum-norm
    solution.  The pivots of an unpivoted factor bound the eigenvalues from
    above only, so a rare block that is singular to working precision
    passes the test; it gets a least-squares solution that need not be the
    minimum-norm one.
    """
    block = gram[support[:, None], support]
    rcond = np.finfo(float).eps * support.size
    try:
        if np.linalg.cholesky(block).diagonal().min() ** 2 > rcond * block.diagonal().max():
            # numpy has no triangular solve, and one LU solve of the block
            # costs half of two on the triangular factor; a block singular to
            # working precision can pass the test and still meet a zero pivot
            return np.linalg.solve(block, rhs)
    except np.linalg.LinAlgError:
        pass
    lam, vec = np.linalg.eigh(block)
    mag = np.abs(lam)
    keep = mag > rcond * mag.max()
    inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)
    return vec @ (inv * (vec.T @ rhs))


def _support_lstsq(gram: np.ndarray, x: np.ndarray, support: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Least squares min ||D1 z - y|| on the columns ``support``, kept nonnegative.

    ``gram`` is G = D1^T D1 and ``b`` is D1^T y, so the step takes no
    voxel-space product.  ``support`` holds every column where x > 0 and
    any column at zero that is to enter.  On a support S it solves
    G[S, S] z_S = b_S by :func:`_gram_solve`, good to about cond(D1)^2 eps
    relative; :func:`inner_solve` refines once, at its stop.

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
    d1: SparseDoseMatrix | _Operator,
    delta: np.ndarray,
    prescription: np.ndarray,
    x_init: np.ndarray,
    params: InnerParams | None = None,
) -> InnerResult:
    """Minimize ||D1 x + delta - T||^2 over x >= 0 by Lawson and Hanson's NNLS.

    Parameters
    ----------
    d1 : SparseDoseMatrix or _Operator
        Major part of the split matrix, or its operator in :func:`fmo_solve`.
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
        The solve starts from the support of x_init, so outer rounds and the
        reference start warm.  Each pivot lets the off-support column with
        the most negative half gradient g = D1^T (D1 x - y) enter, if that
        entry is at or below ``-params.tol``, and replaces x by least
        squares on the support (``_support_lstsq``); a pivot with no column
        to enter re-solves the support, as a warm start may need.  The
        pivots run in beamlet space on D1's Gram matrix G and b = D1^T y:
        g = G x - b, and the objective falls by the exact gain
        (x - z).(g_x + g_z).  A matrix given alone gets its G on its first
        solve, kept in ``_ALONE`` while the matrix lives.  Besides D1, a
        solve holds G (n_beamlets^2 doubles) and a few voxel-length vectors.
        The pivots stop when the projected gradient's max-norm falls below
        ``params.tol``, or at the cap ``params.max_iters``.  Support solves
        are good to about cond(D1)^2 eps relative, so every stop takes one
        refinement step on the support S of x, x_S -= G[S, S]^+ (D1^T (D1 x
        - y))_S (Bjorck's corrected semi-normal equations; an entry taken
        below zero is set to zero), then recomputes the residual, the
        objective and the gradient in voxel space.  The solve ends if that
        gradient passes too, or at the cap, and the reported objective,
        ``pg_norm`` and ``converged`` come from it; else the pivots go on.
        A solve whose first stop holds takes at most six voxel-space
        products: D1 x at the x of D1's last product is not taken again
        (:meth:`_Operator.dose`).  A warm start that already passes takes no
        pivot but still refines, so its x moves by rounding.  An empty D1 returns the
        start vector after no pivot.

    Raises
    ------
    ValueError
        On a shape mismatch, a negative entry of ``x_init``, or a non-finite
        entry of ``x_init``, ``delta`` or ``prescription``, named with its
        index.
    RuntimeError
        When the Gram matrix built on a first solve, a support solve, the
        objective or the stop's gradient comes out non-finite.
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
    if not isinstance(d1, _Operator):
        d1 = _ALONE.get(d1) or _ALONE.setdefault(d1, _operators(d1)[0])

    y = target - delta
    r = d1.dose(x) - y
    trace = [_finite(float(r @ r))]
    # the pivots run on G and b in beamlet space: g = G x - b is the gradient
    # of the half objective
    gram, b = d1.gram, d1.rmatvec(y)
    g = gram @ x - b
    pivots = 0
    while True:
        while _pg_norm(x, g) >= params.tol and pivots < params.max_iters:
            pivots += 1
            support = x > 0.0
            k = int(np.argmin(np.where(support, 0.0, g)))
            support[k] |= g[k] <= -params.tol
            z = _support_lstsq(gram, x, np.flatnonzero(support), b)
            g_z = gram @ z - b
            # f(x) - f(z), exact for a quadratic
            trace.append(_finite(trace[-1] - float((x - z) @ (g + g_z))))
            x, g = z, g_z
        # refine once on the support, then confirm the stop on the
        # voxel-space residual that the reported objective and gradient come from
        s = np.flatnonzero(x > 0.0)
        if s.size:
            x[s] = np.maximum(x[s] - _gram_solve(gram, s, d1.rmatvec(d1.dose(x) - y)[s]), 0.0)
        r = d1.dose(x) - y
        trace[-1] = _finite(float(r @ r))
        g = d1.rmatvec(r)
        # a NaN gradient fails both tests below and the pivot test, so it
        # would repeat this block forever
        pg_norm = _finite(_pg_norm(x, g))
        if pg_norm < params.tol or pivots >= params.max_iters:
            break

    return InnerResult(
        x=x,
        objective_trace=tuple(trace),
        iterations=pivots,
        pg_norm=pg_norm,
        converged=pg_norm < params.tol,
    )


def reference_solve(ddc: SparseDoseMatrix | _Operator, prescription: np.ndarray, x_init: np.ndarray) -> InnerResult:
    """Solve the unsplit problem min ||D x - T||^2, x >= 0, to high accuracy.

    :func:`inner_solve` on D from the nonnegative ``x_init`` (in
    :func:`fmo_solve` the split solve's fluence, on D's operator), with the tighter
    ``_REFERENCE_PARAMS``.  It stops only on its own projected gradient on
    D; the objective is convex, so the start changes only the number of
    pivots.  ``converged`` says whether it met the reference tolerance
    before its pivot cap.
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
    not abort.  One :func:`_operators` pass before the first round builds
    what the solve runs on, and keeps it no longer; a non-finite Gram matrix
    raises.  A round whose support holds takes one pivot.
    :class:`FmoReport` says when the report is converged.
    """
    # a non-finite value below ends in _finite's RuntimeError or an infinite gap,
    # so numpy's floating-point warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        d, d1, d2 = _operators(problem.ddc, problem.tau)
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
        degenerate = d2.nnz == problem.ddc.nnz
        # D1 and D2 are freed before the reference solve, so that its peak does not add to theirs
        del d1, d2, scatter
        dose = d.dose(x)
        # from the split fluence, x = 0 after a degenerate split
        ref = reference_solve(d, target, x)
        r = dose - target
        gap = (_finite(float(r @ r)) - ref.objective) / max(ref.objective, np.finfo(float).tiny)

    return FmoReport(
        fluence=x,
        dose=dose,
        outer_iterations=run.iterations,
        delta_trace=run.trace,
        objective_trace=tuple(inner.objective for inner in rounds),
        converged=run.converged and not degenerate and cap_hits == 0 and ref.converged,
        reference_gap=float(gap),
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
    for tag in VOXEL_TAGS:
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

    The triplets go through :meth:`SparseDoseMatrix.from_triplets`, so
    the CSV is held to the constructor's index, value and duplicate checks,
    as :func:`read_matrix_npz`'s arrays are.  A malformed data line or
    an index out of range raises ValueError naming ``path:line``, any
    other fault one naming ``path``.
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
        for index, n in ((triplets[0], n_voxels), (triplets[1], n_beamlets)):
            if index.size and (index.min() < 0 or index.max() >= n):
                raise ValueError
    except ValueError:
        # numpy's row numbers do not count blank lines, it rejects lines
        # of spaces and indices beyond int64, and an index out of range
        # has no line; read again line by line, skipping blank lines, to
        # name the file line at fault
        triplets = _read_triplet_lines(path, n_voxels, n_beamlets)
    try:
        return SparseDoseMatrix.from_triplets(n_voxels, n_beamlets, *triplets)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


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


# the arrays of a matrix archive: its size, then the constructor's arrays
_NPZ_ARRAYS = ("shape", "indptr", "indices", "data")


def write_matrix_npz(mat: SparseDoseMatrix, path) -> None:
    """The matrix as the uncompressed arrays ``shape`` = [n_voxels, n_beamlets], ``indptr``, ``indices`` and ``data``, as stored."""
    shape = np.array([mat.n_voxels, mat.n_beamlets], dtype=np.int64)
    # through a handle, so that np.savez adds no suffix to the path
    with open(path, "wb") as fh:
        np.savez(fh, shape=shape, indptr=mat.indptr, indices=mat.indices, data=mat.data)


def read_matrix_npz(path) -> SparseDoseMatrix:
    """Matrix of a :func:`write_matrix_npz` archive, its arrays checked by the constructor and not sorted.

    Pickled data is refused.  An archive that is not a readable zip of
    exactly the four arrays (a triplet archive from an earlier ``fixfunc
    phantom`` among them), a ``shape`` that is not two integers,
    non-numeric ``data`` and arrays that the :class:`SparseDoseMatrix`
    constructor rejects (non-integer or falling offsets, indices out of
    range or not rising within a row) raise ValueError naming ``path``.
    """
    with open(path, "rb") as fh:
        try:
            # np.load would read any other file as .npy, or refuse it as pickled data
            if fh.read(4) != b"PK\x03\x04":
                raise ValueError("not an .npz archive")
            fh.seek(0)
            with np.load(fh, allow_pickle=False) as archive:
                if sorted(archive.files) != sorted(_NPZ_ARRAYS):
                    raise ValueError(
                        f"archive must hold exactly the arrays {sorted(_NPZ_ARRAYS)}, got {sorted(archive.files)}"
                        "; run `fixfunc phantom` again to rewrite a triplet archive from an earlier version"
                    )
                # a member that is not an .npy array reads as bytes
                shape, indptr, indices, data = (np.asarray(archive[name]) for name in _NPZ_ARRAYS)
            # the constructor would keep a float size as it stands
            if shape.dtype.kind not in "iu":
                raise ValueError(f"shape must hold integers, got {shape.dtype}")
            if shape.shape != (2,):
                raise ValueError(f"shape must hold two integers [n_voxels, n_beamlets], got {shape.tolist()}")
            return SparseDoseMatrix(*shape.tolist(), indptr, indices, data)
        # a damaged member fails in its decompressor: zlib, lzma, or bz2's OSError;
        # an encrypted one raises RuntimeError, an unknown compression NotImplementedError
        except (
            ValueError, EOFError, OSError, RuntimeError, NotImplementedError,
            zipfile.BadZipFile, zlib.error, lzma.LZMAError,
        ) as exc:
            raise ValueError(f"{path}: {exc}") from None
