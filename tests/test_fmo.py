"""Dose-matrix splitting and solver tests.

Two independent oracles pin the solver down. Small instances are solved
exactly by enumerating every support subset and taking the best feasible
restricted least-squares solution; this is the textbook characterization of
the nonnegative least-squares optimum. Larger instances are checked against
scipy's active-set nnls. The Gram-matrix Lawson-Hanson solver must land on
the same objective to tight relative tolerance.
"""

import dataclasses
import gc
import itertools
import re
import tempfile
import tracemalloc
import warnings
import weakref
import zipfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import scipy.optimize
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from conftest import strict_json
from fixfunc import (
    FmoProblem,
    InnerParams,
    OuterParams,
    PhantomSpec,
    SparseDoseMatrix,
    dose_statistics,
    fmo_solve,
    generate_phantom,
    inner_solve,
    read_matrix_csv,
    read_matrix_npz,
    reference_solve,
    split_matrix,
    write_matrix_csv,
    write_matrix_npz,
)
from fixfunc import cli, fmo
from fixfunc.fmo import _gram_solve, _pg_norm, _support_lstsq


def nnls_by_enumeration(dense, target):
    """Exact nonnegative least squares for tiny instances.

    The optimum restricted to its own support solves the unconstrained
    least-squares problem on those columns, so scanning all supports and
    keeping feasible candidates finds the global minimum objective.
    """
    m = dense.shape[1]
    best = float(target @ target)  # empty support
    for r in range(1, m + 1):
        for cols in itertools.combinations(range(m), r):
            sub = dense[:, list(cols)]
            sol, *_ = np.linalg.lstsq(sub, target, rcond=None)
            if np.all(sol >= -1e-12):
                x = np.zeros(m)
                x[list(cols)] = np.clip(sol, 0.0, None)
                resid = dense @ x - target
                best = min(best, float(resid @ resid))
    return best


def random_instance(rng, n_vox, n_blt, density=0.6):
    dense = rng.uniform(0.0, 1.0, (n_vox, n_blt))
    dense[rng.uniform(size=dense.shape) > density] = 0.0
    # keep every beamlet visible so the instance is not degenerate
    for j in range(n_blt):
        if not dense[:, j].any():
            dense[rng.integers(0, n_vox), j] = rng.uniform(0.1, 1.0)
    rows, cols = np.nonzero(dense)
    mat = SparseDoseMatrix.from_triplets(
        n_vox, n_blt, rows, cols, dense[rows, cols]
    )
    target = rng.uniform(0.0, 10.0, n_vox)
    return mat, dense, target


def entries_of(mat):
    """The matrix's (row, col, value) entries in stored order."""
    return list(zip(*(a.tolist() for a in mat.triplets())))


@st.composite
def csr_matrices(draw, max_voxels=8, max_beamlets=6, value=None, min_beamlets=1, max_per_row=None):
    """Matrices whose rows are rising sets of beamlets, empty rows among them, with values from 0 to 1e308 by default."""
    n_vox, n_blt = draw(st.integers(1, max_voxels)), draw(st.integers(min_beamlets, max_beamlets))
    rows = [draw(st.sets(st.integers(0, n_blt - 1), max_size=max_per_row).map(sorted)) for _ in range(n_vox)]
    indices = [c for row in rows for c in row]
    if value is None:
        value = st.sampled_from([0.0, 5e-324]) | st.floats(0.0, 1e308)
    values = draw(st.lists(value, min_size=len(indices), max_size=len(indices)))
    return SparseDoseMatrix(n_vox, n_blt, np.cumsum([0, *map(len, rows)]), indices, values)


def ill_conditioned_instance(rng, n_vox, n_blt, log_cond):
    """Random nonnegative D1 whose columns a and b are nearly collinear.

    Column b is column a plus eps times a nonnegative vector, with eps
    rescaled once so that cond(D1) lands near 10**log_cond (cond grows as
    1/eps once eps is small).
    """
    dense = rng.uniform(0.0, 1.0, (n_vox, n_blt)) * (rng.uniform(size=(n_vox, n_blt)) < 0.7)
    dense[rng.integers(0, n_vox, n_blt), np.arange(n_blt)] = 1.0
    a, b = rng.choice(n_blt, 2, replace=False)
    lift = rng.uniform(0.0, 1.0, n_vox)

    def with_eps(eps):
        d = dense.copy()
        d[:, b] = d[:, a] + eps * lift
        return d

    eps = 10.0**-log_cond
    dense = with_eps(eps * np.linalg.cond(with_eps(eps)) / 10.0**log_cond)
    rows, cols = np.nonzero(dense)
    return SparseDoseMatrix.from_triplets(n_vox, n_blt, rows, cols, dense[rows, cols]), dense


def assert_held_once(d1, major):
    """D1's slices and CSR blocks share no row and rebuild ``major``; the blocks hold exactly its entries outside the slices' rows."""
    rebuilt, sliced = np.zeros_like(major), np.zeros(major.shape[0], dtype=bool)
    for rows, cols, dense in d1.slices:
        assert not sliced[rows].any()
        sliced[rows] = True
        rebuilt[np.ix_(rows, cols)] = dense
    for rows, _, counts, indices, values in d1.blocks:
        assert not sliced[rows].any()
        rebuilt[np.repeat(rows, counts), indices] = values
    assert np.array_equal(rebuilt, major)
    assert sum(int(b[2].sum()) for b in d1.blocks) == np.count_nonzero(major[~sliced])


def gram_of(mat):
    """G = D^T D of ``mat`` as the solver builds it, by the pass over its row blocks."""
    return fmo._operators(mat)[0].gram


def objective(dense, target, x):
    r = dense @ x - target
    return float(r @ r)


def support_lstsq_by_lstsq(d1, x, support, y):
    """The support step solved twice by SVD-based ``np.linalg.lstsq``.

    The same Lawson-Hanson loop as ``fmo._support_lstsq``, with one
    ``lstsq`` call for the normal equations on G[S, S] and a second for a
    refinement step on every solve; the product refines once, at the stop of
    ``inner_solve``, with one factorization of G[S, S] per solve.
    """
    z = x.copy()
    gram, rhs = gram_of(d1), d1.rmatvec(y)
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


def refined_support_step(dense, x, y):
    """The support step on the columns where x > 0, refined as ``inner_solve`` returns it.

    One pivot of ``inner_solve`` on those columns alone has no column to
    enter, so it runs ``fmo._support_lstsq`` on them and then, at its pivot
    cap, the refinement step and the voxel-space confirmation.
    """
    z = x.copy()
    support = np.flatnonzero(x > 0.0)
    if support.size:
        cols = dense[:, support]
        rows, idx = np.nonzero(cols)
        sub = SparseDoseMatrix.from_triplets(*cols.shape, rows, idx, cols[rows, idx])
        params = InnerParams(tol=np.finfo(float).tiny, max_iters=1)
        z[support] = inner_solve(sub, np.zeros(y.size), y, x[support], params).x
    return z


@pytest.fixture(scope="module")
def stress_problem():
    """The 2D stress phantom at the 25th-percentile threshold.

    D1 has condition number about 7,400, so the Gram matrix that the support
    solves factor has one of about 5e7.
    """
    problem = generate_phantom(
        PhantomSpec(grid=(60, 40), n_beamlets=30, ptv_region=(20, 40, 10, 30))
    )
    tau = float(np.percentile(problem.ddc.triplets()[2], 25.0))
    return dataclasses.replace(problem, tau=tau)


@pytest.fixture(scope="module")
def cold_reference(stress_problem):
    """The full-matrix solve of the stress phantom from zero; it does not depend on tau."""
    ddc = stress_problem.ddc
    zeros = np.zeros(ddc.n_voxels)
    return inner_solve(ddc, zeros, stress_problem.prescription, np.zeros(ddc.n_beamlets), fmo._REFERENCE_PARAMS)


# ---------------------------------------------------------------------------
# sparse matrix container
# ---------------------------------------------------------------------------


class TestSparseDoseMatrix:
    def test_matvec_against_dense(self):
        rng = np.random.default_rng(1)
        mat, dense, _ = random_instance(rng, 9, 5)
        x = rng.uniform(0.0, 2.0, 5)
        y = rng.uniform(0.0, 2.0, 9)
        assert np.allclose(mat.matvec(x), dense @ x, atol=1e-14)
        assert np.allclose(mat.rmatvec(y), dense.T @ y, atol=1e-14)
        assert np.array_equal(mat.to_dense(), dense)

    @pytest.mark.parametrize(
        "product, length, message",
        [
            pytest.param("matvec", 3, "expected a vector of 2 beamlet weights, got shape (3,)", id="matvec"),
            pytest.param("rmatvec", 2, "expected a vector of 3 voxel values, got shape (2,)", id="rmatvec"),
        ],
    )
    def test_products_refuse_a_vector_of_the_wrong_length(self, product, length, message):
        mat = SparseDoseMatrix.from_triplets(3, 2, [0, 2], [1, 0], [1.0, 2.0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            getattr(mat, product)(np.ones(length))

    def test_validation(self):
        with pytest.raises(ValueError, match="equally long"):
            SparseDoseMatrix.from_triplets(2, 2, [0], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="voxel index"):
            SparseDoseMatrix.from_triplets(2, 2, [2], [0], [1.0])
        with pytest.raises(ValueError, match="beamlet index"):
            SparseDoseMatrix.from_triplets(2, 2, [0], [5], [1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            SparseDoseMatrix.from_triplets(2, 2, [0], [0], [-1.0])
        with pytest.raises(ValueError, match="finite"):
            SparseDoseMatrix.from_triplets(2, 2, [0], [0], [float("nan")])
        with pytest.raises(ValueError, match="duplicate"):
            SparseDoseMatrix.from_triplets(2, 2, [0, 0], [1, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match="^matrix needs at least one voxel and one beamlet$"):
            SparseDoseMatrix(0, 1, [0], [], [])

    def test_triplets_row_major(self):
        mat = SparseDoseMatrix.from_triplets(
            3, 3, [2, 0, 1], [0, 2, 1], [3.0, 1.0, 2.0]
        )
        rows, cols, vals = mat.triplets()
        assert list(rows) == [0, 1, 2]
        assert list(cols) == [2, 1, 0]
        assert list(vals) == [1.0, 2.0, 3.0]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_vox=st.integers(1, 6), n_blt=st.integers(1, 5))
    def test_storage_matches_shuffled_triplets(self, data, n_vox, n_blt):
        cells = [(r, c) for r in range(n_vox) for c in range(n_blt)]
        # a subset of the cells, possibly empty, leaves some rows empty
        chosen = data.draw(st.lists(st.sampled_from(cells), unique=True, max_size=len(cells)), label="cells")
        value = st.sampled_from([0.0]) | st.floats(0.0, 10.0)
        entries = [(r, c, data.draw(value, label="value")) for r, c in chosen]
        shuffled = data.draw(st.permutations(entries), label="order")
        rows, cols, vals = (list(t) for t in zip(*shuffled)) if shuffled else ([], [], [])
        mat = SparseDoseMatrix.from_triplets(n_vox, n_blt, rows, cols, vals)
        dense = np.zeros((n_vox, n_blt))
        dense[rows, cols] = vals

        assert mat.nnz == len(entries)
        assert entries_of(mat) == sorted(entries)
        assert np.array_equal(mat.to_dense(), dense)
        x = data.draw(st.lists(st.floats(0.0, 5.0), min_size=n_blt, max_size=n_blt), label="x")
        y = data.draw(st.lists(st.floats(0.0, 5.0), min_size=n_vox, max_size=n_vox), label="y")
        np.testing.assert_allclose(mat.matvec(x), dense @ np.array(x), rtol=1e-12, atol=1e-300)
        np.testing.assert_allclose(mat.rmatvec(y), dense.T @ np.array(y), rtol=1e-12, atol=1e-300)

        tau = data.draw(st.sampled_from(sorted({0.0, *vals, 11.0})), label="tau")
        d1, d2 = split_matrix(mat, tau)
        assert np.array_equal(d1.to_dense() + d2.to_dense(), dense)
        assert d1.nnz + d2.nnz == mat.nnz
        assert np.all(d1.triplets()[2] > tau) and np.all(d2.triplets()[2] <= tau)
        # the split masks the stored arrays; rebuilding each part from its
        # triplets must give the same arrays, in the same order and dtypes
        triplets = mat.triplets()
        for part, keep in ((d1, triplets[2] > tau), (d2, triplets[2] <= tau)):
            rebuilt = SparseDoseMatrix.from_triplets(n_vox, n_blt, *(a[keep] for a in triplets))
            for name in ("indptr", "indices", "data"):
                mine, ref = getattr(part, name), getattr(rebuilt, name)
                assert mine.dtype == ref.dtype and np.array_equal(mine, ref)

        if entries:
            twice = data.draw(st.lists(st.sampled_from(entries), min_size=1, unique=True), label="duplicated")
            again = data.draw(st.permutations(shuffled + twice), label="order with duplicates")
            # the first duplicated pair in row-major order is named
            r, c, _ = min(twice)
            with pytest.raises(ValueError, match=f"^duplicate entry for voxel {r}, beamlet {c}$"):
                SparseDoseMatrix.from_triplets(n_vox, n_blt, *zip(*again))

    def test_constructor_checks_that_the_arrays_fit(self):
        good = {"indptr": [0, 1, 1, 3], "indices": [1, 0, 1], "data": [1.0, 2.0, 0.0]}
        mat = SparseDoseMatrix(3, 2, **good)
        assert mat.to_dense().tolist() == [[0.0, 1.0], [0.0, 0.0], [2.0, 0.0]]
        assert not any(a.flags.writeable for a in (mat.indptr, mat.indices, mat.data))
        for bad in (
            {"indptr": [0, 1, 3]},
            {"indptr": [0, 1, 1, 3, 3]},
            {"indptr": [1, 1, 1, 3]},
            {"indptr": [0, 2, 1, 3]},
            {"indices": [1, 0]},
            {"indices": [1, 0, 1, 1]},
            {"data": [1.0, 2.0]},
            {"data": [1.0, 2.0, 0.0, 4.0]},
            {"indices": [1, 0, 2]},
        ):
            with pytest.raises(ValueError):
                SparseDoseMatrix(3, 2, **{**good, **bad})

    @pytest.mark.parametrize(
        "indices, data, message",
        [
            # NaN, a negative entry and a duplicate at once: the values are checked first
            pytest.param([2, 2, 0], [1.0, -5.0, np.nan], "dose coefficients must be finite and nonnegative", id="all-three"),
            pytest.param([0, 2, 1], [1.0, np.nan, 2.0], "dose coefficients must be finite and nonnegative", id="nan"),
            pytest.param([0, 2, 1], [1.0, np.inf, 2.0], "dose coefficients must be finite and nonnegative", id="inf"),
            pytest.param([0, 2, 1], [1.0, -5.0, 2.0], "dose coefficients must be finite and nonnegative", id="negative"),
            pytest.param([2, 2, 0], [1.0, 5.0, 2.0], "duplicate entry for voxel 0, beamlet 2", id="duplicate"),
            pytest.param([2, 1, 0], [1.0, 5.0, 2.0], "beamlet indices of voxel 0 must rise, got 1 after 2", id="falling"),
        ],
    )
    def test_constructor_refuses_the_entries_from_triplets_refuses(self, indices, data, message):
        # a matrix that is built, split or read passes the same check
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SparseDoseMatrix(2, 3, [0, 2, 3], indices, data)

    def test_rows_are_checked_apart(self):
        # row 0 ends and row 2 starts on beamlet 2, past the empty row 1; the fall is in row 2
        with pytest.raises(ValueError, match="^beamlet indices of voxel 2 must rise, got 0 after 2$"):
            SparseDoseMatrix(3, 3, [0, 2, 2, 4], [1, 2, 2, 0], [1.0, 2.0, 3.0, 4.0])

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n_vox=st.integers(1, 5), n_blt=st.integers(1, 4))
    def test_every_accepted_matrix_round_trips_through_both_formats(self, data, n_vox, n_blt):
        # rows of beamlet indices, each sorted and unique or left as drawn
        row = st.lists(st.integers(0, n_blt - 1), max_size=n_blt) | st.sets(st.integers(0, n_blt - 1)).map(sorted)
        rows = [data.draw(row, label=f"row {r}") for r in range(n_vox)]
        indices = [c for row in rows for c in row]
        values = data.draw(st.lists(st.floats(0.0, 1e308), min_size=len(indices), max_size=len(indices)), label="values")
        bad = data.draw(st.sampled_from([None, None, None, -1.0, -np.inf, np.inf, np.nan]), label="bad value")
        if values and bad is not None:
            values[data.draw(st.integers(0, len(values) - 1), label="its position")] = bad
        indptr = np.cumsum([0, *map(len, rows)])
        valid = all(np.isfinite(values)) and min(values, default=0.0) >= 0 and all(
            list(row) == sorted(set(row)) for row in rows
        )
        event("accepted" if valid else "refused")
        if not valid:
            with pytest.raises(ValueError):
                SparseDoseMatrix(n_vox, n_blt, indptr, indices, values)
            return
        mat = SparseDoseMatrix(n_vox, n_blt, indptr, indices, values)
        with tempfile.TemporaryDirectory() as tmp:
            for write, read, name in ((write_matrix_npz, read_matrix_npz, "m.npz"), (write_matrix_csv, read_matrix_csv, "m.csv")):
                path = Path(tmp) / name
                write(mat, path)
                back = read(path)
                assert (back.n_voxels, back.n_beamlets) == (n_vox, n_blt)
                for array in ("indptr", "indices", "data"):
                    mine, its = getattr(mat, array), getattr(back, array)
                    assert mine.dtype == its.dtype and np.array_equal(mine, its)

    @pytest.mark.parametrize(
        "build, name",
        [
            pytest.param(
                lambda: SparseDoseMatrix(1, 2, [0, 1], np.array([2**32 + 1]), [1.0]), "indices", id="wide-index"
            ),
            pytest.param(lambda: SparseDoseMatrix(1, 2, [0, 2**32 + 1], [1], [1.0]), "indptr", id="wide-offset"),
            pytest.param(lambda: SparseDoseMatrix(1, 2, [0.0, 1.0], [1], [1.0]), "indptr", id="float-offsets"),
            pytest.param(lambda: SparseDoseMatrix(1, 2, [0, 1], [1.0], [1.0]), "indices", id="float-index"),
            pytest.param(
                lambda: SparseDoseMatrix(3, 2, np.array([0, 2, 1, 3], dtype=np.uint64), [1, 0, 1], [1.0, 2.0, 0.0]),
                "indptr",
                id="unsigned-decreasing-offsets",
            ),
            pytest.param(
                lambda: SparseDoseMatrix.from_triplets(2, 2, [0.5, 1.9], [1.2, 0], [1.0, 2.0]), "rows", id="float-rows"
            ),
            pytest.param(
                lambda: SparseDoseMatrix.from_triplets(2, 2, [0, 1], [1.2, 0], [1.0, 2.0]), "cols", id="float-cols"
            ),
            pytest.param(
                lambda: SparseDoseMatrix.from_triplets(2, 2, np.array([0, 2**64 - 1], np.uint64), [1, 0], [1.0, 2.0]),
                "rows",
                id="wide-unsigned-row",
            ),
            pytest.param(
                lambda: SparseDoseMatrix.from_triplets(2, 2, [0, 1], [2**70, 0], [1.0, 2.0]), "cols", id="huge-int-col"
            ),
            pytest.param(lambda: SparseDoseMatrix(1, 1, [0, 1], [0], ["1.5"]), "data", id="string-data"),
            pytest.param(lambda: SparseDoseMatrix.from_triplets(2, 2, [0], [1], ["2.5"]), "data", id="string-values"),
        ],
    )
    def test_indices_are_checked_before_any_cast(self, build, name):
        # a cast to the stored index type would wrap a wide index into range,
        # one from floats would truncate it, and one of strings to float data
        # would parse them; each is named instead
        with pytest.raises(ValueError, match=f"^{name} "):
            build()

    @settings(max_examples=200, deadline=None)
    @given(
        mat=csr_matrices(max_voxels=12, value=st.just(0.0) | st.floats(1e-3, 1e3)),
        block_bytes=st.sampled_from([8, 24, 64, fmo._BLOCK_BYTES]),
        quantile=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(mat=SparseDoseMatrix(3, 2, [0, 0, 0, 0], [], []), block_bytes=8, quantile=0.5, seed=0)
    @example(mat=SparseDoseMatrix(5, 3, [0, 0, 2, 2, 3, 3], [0, 2, 1], [1.0, 2.0, 3.0]), block_bytes=8, quantile=0.5, seed=0)
    def test_kernels_match_dense_numpy(self, mat, block_bytes, quantile, seed):
        # empty leading, trailing and inner rows, nnz = 0, and budgets of one
        # to eight entries, which cut the matrix into many blocks
        rng = np.random.default_rng(seed)
        n_vox, n_blt = mat.n_voxels, mat.n_beamlets
        dense = np.zeros((n_vox, n_blt))
        for r in range(n_vox):
            for k in range(mat.indptr[r], mat.indptr[r + 1]):
                dense[r, mat.indices[k]] = mat.data[k]
        tau = float(np.quantile(mat.data, quantile)) if mat.nnz else 0.5
        major = np.where(dense > tau, dense, 0.0)
        x, y = rng.uniform(0.0, 2.0, n_blt), rng.uniform(0.0, 2.0, n_vox)
        with mock.patch.object(fmo, "_BLOCK_BYTES", block_bytes):
            # a fresh matrix, whose row blocks are cut under this budget
            mat = SparseDoseMatrix(n_vox, n_blt, mat.indptr, mat.indices, mat.data)
            products = mat.matvec(x), mat.rmatvec(y)
            (alone,), (whole, major_part, _) = fmo._operators(mat), fmo._operators(mat, tau)
            alone, gram, gram1 = alone.gram, whole.gram, major_part.gram
        assert np.array_equal(mat.to_dense(), dense)
        # sums of nonnegative products: one rounding per term, relative to the sum
        np.testing.assert_allclose(products[0], dense @ x, rtol=4 * n_blt * np.finfo(float).eps, atol=0.0)
        np.testing.assert_allclose(products[1], dense.T @ y, rtol=4 * n_vox * np.finfo(float).eps, atol=0.0)
        np.testing.assert_allclose(gram, dense.T @ dense, rtol=4 * n_vox * np.finfo(float).eps, atol=0.0)
        np.testing.assert_allclose(gram1, major.T @ major, rtol=4 * n_vox * np.finfo(float).eps, atol=0.0)
        assert np.array_equal(gram, gram.T) and np.array_equal(gram1, gram1.T)
        assert np.array_equal(alone, gram)

    def test_products_and_gram_build_peak_within_the_block_budget(self, monkeypatch):
        # beyond what they return, a product holds a few nnz-length
        # temporaries of one block, and the Gram build of a matrix solved
        # alone also a few n_beamlets^2 sums; neither grows with nnz
        budget, n_vox, n_blt = 1 << 13, 10_000, 32
        monkeypatch.setattr(fmo, "_BLOCK_BYTES", budget)
        rng = np.random.default_rng(3)
        for per_row in (4, 16):
            rows = np.repeat(np.arange(n_vox), per_row)
            cols = (rows * 7 + np.tile(np.arange(per_row) * 2, n_vox)) % n_blt
            mat = SparseDoseMatrix.from_triplets(n_vox, n_blt, rows, cols, rng.uniform(0.1, 1.0, rows.size))
            assert len(mat._blocks) >= 40  # the row blocks are cut here, before the trace
            x, y = np.ones(n_blt), np.ones(n_vox)
            calls = [
                (lambda: mat.matvec(x), 8 * n_vox + 4 * budget),
                (lambda: mat.rmatvec(y), 8 * n_blt + 4 * budget),
                (lambda: fmo._operators(mat), 5 * 8 * n_blt**2 + 8 * budget),
            ]
            for call, bound in calls:
                tracemalloc.start()
                try:
                    call()
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= bound, (per_row, peak, bound)

    @settings(max_examples=200, deadline=None)
    @given(
        # rows of at most one entry among 8 to 16 beamlets make blocks too sparse to keep
        mat=st.one_of(
            csr_matrices(max_voxels=12, value=st.just(0.0) | st.floats(1e-3, 1e3)),
            csr_matrices(max_voxels=24, max_beamlets=16, value=st.floats(1e-3, 1e3), min_beamlets=8, max_per_row=1),
        ),
        block_bytes=st.sampled_from([8, 24, 64, fmo._BLOCK_BYTES]),
        quantile=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # one block, kept: empty rows 0, 2 and 4, and beamlet 3 touched by no entry
    @example(mat=SparseDoseMatrix(5, 4, [0, 0, 2, 2, 3, 3], [0, 2, 1], [1.0, 2.0, 3.0]),
             block_bytes=fmo._BLOCK_BYTES, quantile=0.3, seed=0)
    # blocks of eight entries: a diagonal of rows 0-7, 512 dense bytes against 192, left in CSR,
    # then rows 8 and 9 on all eight beamlets, kept
    @example(mat=SparseDoseMatrix(10, 8, [*range(9), 16, 24], [*range(8), *range(8), *range(8)],
                                  np.linspace(1.0, 2.0, 24)),
             block_bytes=64, quantile=0.5, seed=0)
    def test_products_on_kept_slices_match_dense_numpy(self, mat, block_bytes, quantile, seed):
        rng = np.random.default_rng(seed)
        n_vox, n_blt = mat.n_voxels, mat.n_beamlets
        tau = float(np.quantile(mat.data, quantile)) if mat.nnz else 0.5
        major = np.where(mat.to_dense() > tau, mat.to_dense(), 0.0)
        x, y = rng.uniform(0.0, 2.0, n_blt), rng.uniform(0.0, 2.0, n_vox)
        with mock.patch.object(fmo, "_BLOCK_BYTES", block_bytes):
            mat = SparseDoseMatrix(n_vox, n_blt, mat.indptr, mat.indices, mat.data)
            _, d1, _ = fmo._operators(mat, tau)
        event(f"D1 holds {'no' if not d1.slices else 'some'} slices and {'no' if not d1.blocks else 'some'} CSR blocks")
        assert_held_once(d1, major)
        np.testing.assert_allclose(d1.matvec(x), major @ x, rtol=4 * n_blt * np.finfo(float).eps, atol=0.0)
        np.testing.assert_allclose(d1.rmatvec(y), major.T @ y, rtol=4 * n_vox * np.finfo(float).eps, atol=0.0)
        np.testing.assert_allclose(d1.gram, major.T @ major, rtol=4 * n_vox * np.finfo(float).eps, atol=0.0)

    def test_a_slice_is_kept_where_it_costs_at_most_twice_the_csr_block(self, stress_problem):
        # the stress phantom is one block of 2,400 rows on 30 beamlets: 576 KB
        # dense against about 393 KB of CSR, so D1's products run on the slice
        # and D1 holds no CSR array
        ddc, tau = stress_problem.ddc, stress_problem.tau
        _, d1, _ = fmo._operators(ddc, tau)
        major = split_matrix(ddc, tau)[0].to_dense()
        ((rows, cols, dense),) = d1.slices
        assert d1.blocks == () and dense.shape == (2400, 30) and 8 * dense.size <= 2 * 12 * ddc.nnz
        # the slice's rows and beamlets, as index arrays
        assert np.array_equal(rows, np.arange(2400)) and np.array_equal(cols, np.arange(30))
        assert np.array_equal(dense, major)
        assert_held_once(d1, major)
        # about 5 % dense: no slice is kept, and D1's CSR products are those of a matrix never solved
        sparse = generate_phantom(PhantomSpec(grid=(200,), n_beamlets=40, kernel_width=1.0, ptv_region=(80, 120))).ddc
        assert 0.05 < sparse.nnz / (200 * 40) < 0.06
        _, d1, _ = fmo._operators(sparse, 0.0)
        alone = split_matrix(sparse, 0.0)[0]
        x, y = np.linspace(0.0, 1.0, 40), np.linspace(0.0, 1.0, 200)
        assert d1.slices == () and len(d1.blocks) == 1
        assert_held_once(d1, alone.to_dense())
        assert np.array_equal(d1.matvec(x), alone.matvec(x)) and np.array_equal(d1.rmatvec(y), alone.rmatvec(y))
        # 179,806 entries in two row blocks: the first is left in CSR, the second kept as one slice
        mixed = generate_phantom(PhantomSpec(grid=(120, 80), n_beamlets=120, kernel_width=2.0, ptv_region=(50, 70, 30, 50))).ddc
        _, d1, _ = fmo._operators(mixed, 0.0002)
        assert mixed.nnz == 179_806 and len(d1.slices) == 1 and len(d1.blocks) == 1
        assert_held_once(d1, split_matrix(mixed, 0.0002)[0].to_dense())

    def test_fmo_solve_peak_grows_by_at_most_the_kept_slice(self, stress_problem):
        # the peak of this solve before D1's products ran on its slice, measured
        # with numpy 2.4.6 (1.837 to 1.839 MB over three runs); the slice adds
        # 2,400 x 30 doubles at most
        before, ddc = 1_840_000, stress_problem.ddc
        fresh = SparseDoseMatrix(ddc.n_voxels, ddc.n_beamlets, ddc.indptr, ddc.indices, ddc.data)
        problem = dataclasses.replace(stress_problem, ddc=fresh)
        tracemalloc.start()
        try:
            fmo_solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= before + 8 * 2400 * 30, peak

    def test_a_product_is_taken_once_per_bit_pattern(self, monkeypatch):
        mat = SparseDoseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [2.0, 3.0])
        (op,) = fmo._operators(mat)
        calls = []
        matvec = fmo._Operator.matvec
        monkeypatch.setattr(fmo._Operator, "matvec", lambda m, v: calls.append(1) or matvec(m, v))
        # D 0 is known before any product; -0.0 is another bit pattern, whose product is -0.0
        assert np.array_equal(op.dose(np.zeros(2)), np.zeros(2)) and not calls
        assert np.all(np.signbit(op.dose(-np.zeros(2)))) and len(calls) == 1
        x = np.array([1.0, 2.0])
        dose = op.dose(x)
        assert op.dose(x.copy()) is dose and len(calls) == 2
        assert np.array_equal(dose, [2.0, 6.0]) and not dose.flags.writeable
        # only the last product is kept
        op.dose(np.ones(2))
        op.dose(x)
        assert len(calls) == 4

    def test_csv_writer_golden_bytes(self, tmp_path):
        mat = SparseDoseMatrix.from_triplets(
            3, 2, [2, 0, 1, 0, 2], [1, 1, 0, 0, 0], [0.0, 1.0 / 3.0, 5e-324, 0.1, 1e22]
        )
        write_matrix_csv(mat, tmp_path / "m.csv")
        assert (tmp_path / "m.csv").read_bytes() == (
            b"# voxels=3 beamlets=2\nrow,col,value\n"
            b"0,0,0.1\n0,1,0.3333333333333333\n1,0,5e-324\n2,0,1e+22\n2,1,0.0\n"
        )

    def test_csv_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        mat, dense, _ = random_instance(rng, 7, 4)
        path = tmp_path / "m.csv"
        write_matrix_csv(mat, path)
        back = read_matrix_csv(path)
        assert back.n_voxels == 7 and back.n_beamlets == 4
        assert np.array_equal(back.to_dense(), dense)

    def test_csv_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("row,col,value\n0,0,1.0\n")
        with pytest.raises(ValueError, match="first line"):
            read_matrix_csv(path)

    @pytest.mark.parametrize(
        "bad",
        ["1,x,2.0", "1,1", "1,1,2.0,3.0", "1.0,1,2.0", "99999999999999999999,1,2.0", "1,-99999999999999999999,2.0"],
    )
    def test_csv_bad_line_after_blank_line_names_its_file_line(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        path.write_text(f"# voxels=3 beamlets=2\nrow,col,value\n0,0,1.0\n\n{bad}\n2,1,0.5\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}:5: "):
            read_matrix_csv(path)

    def test_csv_blank_and_spaced_lines_are_skipped(self, tmp_path):
        path = tmp_path / "m.csv"
        path.write_text("# voxels=3 beamlets=2\nrow,col,value\n0,0,1.0\n   \n\n 2 , 1 , 0.5 \n")
        rows, cols, vals = read_matrix_csv(path).triplets()
        assert list(rows) == [0, 2] and list(cols) == [0, 1] and list(vals) == [1.0, 0.5]

    def test_csv_header_only_is_an_empty_matrix(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("# voxels=3 beamlets=2\nrow,col,value\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            mat = read_matrix_csv(path)
        assert (mat.n_voxels, mat.n_beamlets, mat.nnz) == (3, 2, 0)

    @pytest.mark.parametrize(
        "spec", [PhantomSpec(), PhantomSpec(grid=(60, 40), n_beamlets=30, ptv_region=(20, 40, 10, 30))]
    )
    def test_phantom_csv_rewrites_byte_for_byte(self, tmp_path, spec):
        cfg = cli._write_json(tmp_path, "spec.json", spec)
        assert cli.main(["phantom", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        written = tmp_path / "phantom_matrix.csv"
        write_matrix_csv(read_matrix_csv(written), tmp_path / "again.csv")
        assert (tmp_path / "again.csv").read_bytes() == written.read_bytes()

    @pytest.mark.parametrize("seed", [1, 6, 10])
    @pytest.mark.parametrize(
        "spec", [PhantomSpec(), PhantomSpec(grid=(60, 40), n_beamlets=30, ptv_region=(20, 40, 10, 30))], ids=["1d", "2d"]
    )
    def test_phantom_npz_reads_as_the_csv_bit_for_bit(self, tmp_path, spec, seed):
        cfg = cli._write_json(tmp_path, "spec.json", spec)
        assert cli.main(["phantom", "--config", str(cfg), "--out", str(tmp_path), "--seed", str(seed)]) == 0
        csv, npz = read_matrix_csv(tmp_path / "phantom_matrix.csv"), read_matrix_npz(tmp_path / "phantom_matrix.npz")
        assert (npz.n_voxels, npz.n_beamlets) == (csv.n_voxels, csv.n_beamlets)
        for a, b in zip((*csv.triplets(), csv.indptr, csv.indices, csv.data), (*npz.triplets(), npz.indptr, npz.indices, npz.data)):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("kind", ["random", "empty", "wide-index"])
    def test_npz_round_trip_holds_four_stored_arrays(self, tmp_path, kind):
        mat = {
            "random": lambda: random_instance(np.random.default_rng(3), 7, 4)[0],
            "empty": lambda: SparseDoseMatrix(7, 4, np.zeros(8, dtype=int), [], []),
            # past int32's range the stored indices are int64, and the archive keeps them so
            "wide-index": lambda: SparseDoseMatrix(2, 2**31 + 1, [0, 1, 2], [2**31, 0], [1.0, 0.5]),
        }[kind]()
        path = tmp_path / "m.npz"
        write_matrix_npz(mat, path)
        with zipfile.ZipFile(path) as zf:
            assert sorted(zf.namelist()) == ["data.npy", "indices.npy", "indptr.npy", "shape.npy"]
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
        with np.load(path, allow_pickle=False) as arrays:
            assert arrays["shape"].dtype == np.int64 and arrays["shape"].tolist() == [mat.n_voxels, mat.n_beamlets]
            for name in ("indptr", "indices", "data"):
                stored = getattr(mat, name)
                assert arrays[name].dtype == stored.dtype and arrays[name].tobytes() == stored.tobytes()
        back = read_matrix_npz(path)
        assert (back.n_voxels, back.n_beamlets) == (mat.n_voxels, mat.n_beamlets)
        for name in ("indptr", "indices", "data"):
            mine, its = getattr(mat, name), getattr(back, name)
            assert mine.dtype == its.dtype and mine.tobytes() == its.tobytes()

    def test_npz_is_read_without_from_triplets(self, tmp_path, monkeypatch):
        mat, dense, _ = random_instance(np.random.default_rng(4), 9, 5)
        write_matrix_npz(mat, tmp_path / "m.npz")

        def refuse(*args, **kwargs):
            raise AssertionError("read_matrix_npz sorted triplets")

        monkeypatch.setattr(SparseDoseMatrix, "from_triplets", refuse)
        assert np.array_equal(read_matrix_npz(tmp_path / "m.npz").to_dense(), dense)

    @settings(max_examples=200, deadline=None)
    @given(mat=csr_matrices())
    @example(mat=SparseDoseMatrix(3, 2, [0, 0, 0, 0], [], []))
    def test_npz_round_trip_is_bit_for_bit(self, mat):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "m.npz"
            write_matrix_npz(mat, path)
            back = read_matrix_npz(path)
        assert (back.n_voxels, back.n_beamlets) == (mat.n_voxels, mat.n_beamlets)
        for name in ("indptr", "indices", "data"):
            mine, its = getattr(mat, name), getattr(back, name)
            assert mine.dtype == its.dtype and mine.tobytes() == its.tobytes()


# ---------------------------------------------------------------------------
# threshold splitting
# ---------------------------------------------------------------------------


class TestSplit:
    def test_strict_threshold_and_ties(self):
        mat = SparseDoseMatrix.from_triplets(
            1, 3, [0, 0, 0], [0, 1, 2], [0.5, 1.0, 2.0]
        )
        d1, d2 = split_matrix(mat, 1.0)
        # only the strictly larger entry crosses; the tie stays minor
        assert d1.to_dense().tolist() == [[0.0, 0.0, 2.0]]
        assert d2.to_dense().tolist() == [[0.5, 1.0, 0.0]]

    def test_exact_reassembly_random(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            mat, dense, _ = random_instance(rng, 8, 6)
            tau = float(rng.uniform(0.0, 1.0))
            d1, d2 = split_matrix(mat, tau)
            assert np.array_equal(d1.to_dense() + d2.to_dense(), dense)
            # supports are disjoint
            assert not np.any((d1.to_dense() != 0) & (d2.to_dense() != 0))

    def test_zero_threshold_routes_everything_major(self):
        rng = np.random.default_rng(4)
        mat, dense, _ = random_instance(rng, 6, 4)
        d1, d2 = split_matrix(mat, 0.0)
        assert d2.nnz == 0
        assert np.array_equal(d1.to_dense(), dense)

    def test_huge_threshold_routes_everything_minor(self):
        rng = np.random.default_rng(5)
        mat, dense, _ = random_instance(rng, 6, 4)
        d1, d2 = split_matrix(mat, 1e6)
        assert d1.nnz == 0
        assert np.array_equal(d2.to_dense(), dense)

    def test_negative_threshold_rejected(self):
        mat = SparseDoseMatrix.from_triplets(1, 1, [0], [0], [1.0])
        with pytest.raises(ValueError):
            split_matrix(mat, -0.5)


# ---------------------------------------------------------------------------
# inner solver
# ---------------------------------------------------------------------------


class TestInnerSolve:
    def test_single_entry_exact(self):
        mat = SparseDoseMatrix.from_triplets(1, 1, [0], [0], [2.0])
        res = inner_solve(mat, np.zeros(1), np.array([4.0]), np.zeros(1))
        # the one column enters and its least-squares solve is exact
        assert res.x[0] == 2.0
        assert res.iterations == 1
        assert res.objective_trace == (16.0, 0.0)
        assert res.pg_norm == 0.0

    def test_clamp_at_zero(self):
        # the unconstrained optimum is negative, so the projected solution
        # sits at the bound with nonnegative gradient
        mat = SparseDoseMatrix.from_triplets(1, 1, [0], [0], [2.0])
        res = inner_solve(mat, np.zeros(1), np.array([-4.0]), np.zeros(1))
        assert res.x[0] == 0.0
        assert res.pg_norm == 0.0

    def test_single_column_closed_form(self):
        mat = SparseDoseMatrix.from_triplets(2, 1, [0, 1], [0, 0], [1.0, 2.0])
        res = inner_solve(mat, np.zeros(2), np.array([1.0, 1.0]), np.zeros(1))
        # minimize (x-1)^2 + (2x-1)^2 over x >= 0: x = 3/5
        assert res.x[0] == pytest.approx(0.6, abs=1e-12)

    def test_offset_enters_residual(self):
        mat = SparseDoseMatrix.from_triplets(1, 1, [0], [0], [1.0])
        res = inner_solve(mat, np.array([1.5]), np.array([4.0]), np.zeros(1))
        # minimize (x + 1.5 - 4)^2 over x >= 0
        assert res.x[0] == pytest.approx(2.5, abs=1e-10)

    def test_negative_start_rejected(self):
        mat = SparseDoseMatrix.from_triplets(1, 1, [0], [0], [1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            inner_solve(mat, np.zeros(1), np.array([1.0]), np.array([-0.1]))

    @pytest.mark.parametrize(
        "name, delta, prescription, x_init",
        [
            ("x_init", [0.0, 0.0], [1.0, 1.0], [np.nan, 1.0]),
            ("delta", [0.0, np.nan], [1.0, 1.0], [0.0, 0.0]),
            ("prescription", [0.0, 0.0], [1.0, np.inf], [0.0, 0.0]),
        ],
    )
    def test_non_finite_input_rejected_by_name(self, name, delta, prescription, x_init):
        mat = SparseDoseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match=f"^{name} must be finite, entry"):
            inner_solve(mat, np.array(delta), np.array(prescription), np.array(x_init))

    @pytest.mark.parametrize(
        "delta, prescription, x_init, message",
        [
            pytest.param(2, 2, 3, "x_init must have 2 entries, got shape (3,)", id="x_init"),
            pytest.param(3, 2, 2, "delta and prescription must both have one entry per voxel", id="delta"),
            pytest.param(3, 3, 2, "delta and prescription must both have one entry per voxel", id="both"),
        ],
    )
    def test_shape_mismatch_rejected(self, delta, prescription, x_init, message):
        mat = SparseDoseMatrix.from_triplets(2, 2, [0, 1], [0, 1], [1.0, 2.0])
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            inner_solve(mat, np.zeros(delta), np.ones(prescription), np.zeros(x_init))

    def test_degenerate_zero_matrix(self):
        mat = SparseDoseMatrix.from_triplets(2, 2, [], [], [])
        x0 = np.array([0.25, 0.75])
        res = inner_solve(mat, np.zeros(2), np.ones(2), x0)
        # the gradient D1^T r is zero, so no column enters
        assert res.converged
        assert np.array_equal(res.x, x0)
        assert res.iterations == 0

    def test_objective_monotone_with_float_slack(self):
        rng = np.random.default_rng(6)
        mat, _, target = random_instance(rng, 25, 10)
        res = inner_solve(mat, np.zeros(25), target, np.zeros(10))
        tr = res.objective_trace
        slack = 1e-12 * max(1.0, tr[0])
        assert all(tr[i + 1] <= tr[i] + slack for i in range(len(tr) - 1))

    def test_kkt_at_solution(self):
        rng = np.random.default_rng(7)
        mat, dense, target = random_instance(rng, 25, 10)
        res = inner_solve(
            mat, np.zeros(25), target, np.zeros(10), InnerParams(tol=1e-10)
        )
        g = dense.T @ (dense @ res.x - target)
        assert np.all(g[res.x == 0.0] >= -1e-10)
        assert np.max(np.abs(g[res.x > 0.0]), initial=0.0) <= 1e-9

    def test_voxel_space_products_per_fmo_solve(self, stress_problem, monkeypatch):
        # the pivots run on the Gram matrices, so voxel-space products are
        # left to the scatter and the dose and to six per solve: two at its
        # start (the residual and b), two for the refinement step at its stop
        # and two for the stop's confirmation; four inner solves and the
        # reference, which starts from the split fluence and takes one pivot,
        # make 35.  Five of them are not taken again: D1 x at the first
        # round's x = 0, at each later round's start, the x the previous
        # round's confirmation used, and D x at the reference's start, the
        # fluence whose dose was just taken; 30 are left
        calls = []
        for name in ("matvec", "rmatvec"):
            product = getattr(fmo._Operator, name)

            def counted(mat, v, product=product):
                calls.append(mat)
                return product(mat, v)

            monkeypatch.setattr(fmo._Operator, name, counted)
        ddc = stress_problem.ddc
        # a fresh matrix, with no Gram matrix kept from another test
        fresh = SparseDoseMatrix(ddc.n_voxels, ddc.n_beamlets, ddc.indptr, ddc.indices, ddc.data)
        report = fmo_solve(dataclasses.replace(stress_problem, ddc=fresh))
        assert report.converged and report.inner_iterations == (22, 1, 1, 1)
        assert len(calls) <= 30

    @settings(max_examples=100, deadline=None)
    @given(
        n_vox=st.integers(1, 40),
        n_blt=st.integers(2, 12),
        density=st.floats(0.05, 1.0),
        log_cond=st.none() | st.floats(3.0, 7.0),
        tol=st.sampled_from([1e-4, 1e-8, 1e-12]),
        max_iters=st.sampled_from([1, 2, 5, 21, 500]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_reported_numbers_come_from_the_residual(self, n_vox, n_blt, density, log_cond, tol, max_iters, seed):
        # the steps track the objective and gradient on the Gram matrix; what
        # the result reports is recomputed from the residual D1 x + delta - T
        rng = np.random.default_rng(seed)
        if log_cond is None:
            mat, dense, target = random_instance(rng, n_vox, n_blt, density)
        else:
            n_vox += n_blt
            mat, dense = ill_conditioned_instance(rng, n_vox, n_blt, log_cond)
            target = dense @ rng.uniform(0.5, 1.5, n_blt) + rng.uniform(-0.1, 0.1, n_vox)
        delta = rng.uniform(0.0, 2.0, n_vox)
        x0 = rng.uniform(0.0, 1.0, n_blt) * (rng.uniform(size=n_blt) < 0.5)
        params = InnerParams(tol=tol, max_iters=max_iters)
        res = inner_solve(mat, delta, target, x0, params)
        # the solver's own expression for the residual, so the check is exact
        r = mat.matvec(res.x) - (target - delta)
        assert res.objective == float(r @ r)
        assert res.pg_norm == _pg_norm(res.x, mat.rmatvec(r))
        assert res.converged is (res.pg_norm < tol)
        assert res.iterations <= max_iters

    def test_pivots_resume_after_a_failed_confirmation(self, monkeypatch):
        # the first pivot test passes falsely at the zero start, so the stop's
        # voxel-space confirmation fails and the pivots go on from there
        rng = np.random.default_rng(13)
        mat, _, target = random_instance(rng, 25, 10)
        plain = inner_solve(mat, np.zeros(25), target, np.zeros(10))
        norms = []

        def first_passes(x, g):
            norms.append(_pg_norm(x, g))
            return 0.0 if len(norms) == 1 else norms[-1]

        monkeypatch.setattr(fmo, "_pg_norm", first_passes)
        res = inner_solve(mat, np.zeros(25), target, np.zeros(10))
        assert norms[1] >= 1e-8
        assert res.iterations > 0 and res.converged
        assert res.objective == pytest.approx(plain.objective, rel=1e-12, abs=1e-12)

    def test_cap_hit_reported(self):
        rng = np.random.default_rng(13)
        mat, _, target = random_instance(rng, 25, 10)
        res = inner_solve(
            mat, np.zeros(25), target, np.zeros(10), InnerParams(max_iters=1)
        )
        assert res.iterations == 1
        assert res.pg_norm >= 1e-8
        assert not res.converged

    def test_first_pivot_enters_the_most_negative_gradient_column(self):
        # from zero the half gradient is -D1^T y, so the first pivot takes the
        # column with the largest b_k and solves it alone: x_k = b_k / G_kk
        rng = np.random.default_rng(13)
        mat, dense, target = random_instance(rng, 25, 10)
        res = inner_solve(mat, np.zeros(25), target, np.zeros(10), InnerParams(max_iters=1))
        b = dense.T @ target
        k = int(np.argmax(b))
        assert np.flatnonzero(res.x).tolist() == [k]
        assert res.x[k] == pytest.approx(b[k] / float(dense[:, k] @ dense[:, k]), rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_start_on_the_optimal_support_takes_one_pivot(self, seed):
        # what fmo_solve relies on between outer rounds: a start that holds
        # the optimum's support, whatever its values, is one pivot from it
        rng = np.random.default_rng(seed)
        mat, dense, target = random_instance(rng, 30, 10)
        cold = inner_solve(mat, np.zeros(30), target, np.zeros(10))
        assert cold.converged and cold.iterations > 1
        x0 = np.where(cold.x > 0.0, rng.uniform(0.1, 2.0, 10), 0.0)
        warm = inner_solve(mat, np.zeros(30), target, x0)
        assert warm.converged and warm.iterations == 1
        assert np.array_equal(warm.x > 0.0, cold.x > 0.0)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-12)

    @pytest.mark.parametrize("seed", range(3))
    def test_warm_start_at_the_optimum_refines_once(self, seed, monkeypatch):
        # a start that already passes takes no pivot, but its first stop still
        # refines on the support: six voxel-space products, less the two D1 x
        # at the start, the x of the cold solve's last product, and x moves
        # by rounding only
        rng = np.random.default_rng(seed)
        mat, _, target = random_instance(rng, 30, 10)
        cold = inner_solve(mat, np.zeros(30), target, np.zeros(10))
        assert cold.converged
        calls = []
        for name in ("matvec", "rmatvec"):
            product = getattr(fmo._Operator, name)
            monkeypatch.setattr(fmo._Operator, name, lambda m, v, product=product: calls.append(1) or product(m, v))
        warm = inner_solve(mat, np.zeros(30), target, cold.x)
        assert warm.converged and warm.iterations == 0
        assert len(calls) == 4
        assert np.array_equal(warm.x > 0.0, cold.x > 0.0)
        assert np.max(np.abs(warm.x - cold.x)) <= 1e-14 * np.max(cold.x)
        assert warm.objective == pytest.approx(cold.objective, rel=1e-14)

    def test_nan_stop_gradient_ends_the_solve(self, monkeypatch):
        # a NaN stop gradient fails the stop test and the pivot test alike, so
        # the solve must raise, not repeat its stop block; G is checked where it
        # is built, so overflowing coefficients end the solve before this, and a
        # NaN from the voxel-space product stands in for one
        mat = SparseDoseMatrix.from_triplets(2, 1, [0, 1], [0, 0], [1.0, 1.0])
        calls = []
        rmatvec = fmo._Operator.rmatvec

        def nan_after_b(m, v):
            calls.append(1)
            assert len(calls) < 100, "the solve repeats its stop block"
            return rmatvec(m, v) if len(calls) == 1 else np.full(m.n_beamlets, np.nan)

        monkeypatch.setattr(fmo._Operator, "rmatvec", nan_after_b)
        # b = D1^T y = 0, so x = 0 passes the start's test and takes no refinement
        with pytest.raises(RuntimeError, match="^solver produced non-finite values; instance is ill-posed$"):
            inner_solve(mat, np.zeros(2), np.array([1.0, -1.0]), np.zeros(1))
        # b at the start and the first stop's gradient
        assert len(calls) == 2

    def test_overflowing_gram_matrix_ends_the_solve_before_any_pivot(self, monkeypatch):
        # coefficients past about 1e154 overflow G = D^T D, which is checked
        # where it is built, on a matrix's first solve
        mat = SparseDoseMatrix.from_triplets(2, 1, [0, 1], [0, 0], [1e200, 1e200])
        calls = []
        support_lstsq = fmo._support_lstsq
        monkeypatch.setattr(fmo, "_support_lstsq", lambda *a: calls.append(1) or support_lstsq(*a))
        with np.errstate(over="ignore"), pytest.raises(
            RuntimeError, match="^solver produced non-finite values; instance is ill-posed$"
        ):
            inner_solve(mat, np.zeros(2), np.array([1.0, 2.0]), np.zeros(1))
        assert not calls

    def test_gram_matrix_is_built_once_per_matrix(self, stress_problem, monkeypatch):
        builds = []
        operators = fmo._operators
        monkeypatch.setattr(fmo, "_operators", lambda mat, tau=None: builds.append((mat, tau)) or operators(mat, tau))
        ddc = stress_problem.ddc
        fresh = SparseDoseMatrix(ddc.n_voxels, ddc.n_beamlets, ddc.indptr, ddc.indices, ddc.data)
        problem = dataclasses.replace(stress_problem, ddc=fresh)
        report = fmo_solve(problem)
        # one pass over D gives D^T D and D1^T D1, which serve every inner solve and the reference
        assert len(report.inner_iterations) > 1
        assert builds == [(fresh, stress_problem.tau)]
        # they lived with that solve: the matrix keeps none, so a second solve runs its own pass
        assert fresh not in fmo._ALONE and set(vars(fresh)) == {"n_voxels", "n_beamlets", "indptr", "indices", "data", "_blocks"}
        fmo_solve(problem)
        assert builds[1:] == [(fresh, stress_problem.tau)]
        # a matrix solved outside fmo_solve builds its Gram matrix on its first solve, into its
        # operator in fmo._ALONE, which holds it only as long as the matrix lives
        d1 = split_matrix(fresh, stress_problem.tau)[0]
        args = np.zeros(d1.n_voxels), stress_problem.prescription, np.zeros(d1.n_beamlets), InnerParams(max_iters=1)
        inner_solve(d1, *args)
        inner_solve(d1, *args)
        assert builds[2:] == [(d1, None)] and fmo._ALONE[d1].gram.shape == (d1.n_beamlets,) * 2
        gone, held = weakref.ref(d1), len(fmo._ALONE)
        del d1, builds[2:]
        gc.collect()
        assert gone() is None and len(fmo._ALONE) == held - 1

    def test_consistent_system_reaches_zero_objective(self):
        # an example test_matches_active_set_oracle found: the projected
        # gradient can pass the absolute tolerance with the objective at
        # 6e-17 against an optimum of 0; ending on a support solve removes it
        rng = np.random.default_rng(147)
        mat, _, target = random_instance(rng, 2, 2, 0.25)
        delta = rng.uniform(0.0, 2.0, 2)
        x0 = rng.uniform(0.0, 1.0, 2) * (rng.uniform(size=2) < 0.5)
        res = inner_solve(mat, delta, target, x0)
        y = target - delta
        assert res.converged
        assert res.objective <= 1e-18 * float(y @ y)

    @settings(max_examples=100, deadline=None)
    @given(
        n_vox=st.integers(1, 60),
        n_blt=st.integers(1, 25),
        density=st.floats(0.05, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    # a support block singular to working precision that passed the Cholesky
    # test, where the LU solve met an exactly zero pivot when this was found
    @example(n_vox=10, n_blt=10, density=0.0625, seed=8388609)
    def test_matches_active_set_oracle(self, n_vox, n_blt, density, seed):
        rng = np.random.default_rng(seed)
        mat, dense, target = random_instance(rng, n_vox, n_blt, density)
        delta = rng.uniform(0.0, 2.0, n_vox)
        x0 = rng.uniform(0.0, 1.0, n_blt) * (rng.uniform(size=n_blt) < 0.5)
        res = inner_solve(mat, delta, target, x0)
        assert res.converged
        _, rnorm = scipy.optimize.nnls(dense, target - delta)
        # a consistent system has optimum 0, so the scale floor keeps the
        # comparison relative to the data there
        scale = max(float(rnorm**2), 1e-12 * float((target - delta) @ (target - delta)))
        assert abs(res.objective - float(rnorm**2)) <= 1e-6 * scale
        tr = res.objective_trace
        slack = 1e-12 * max(1.0, tr[0])
        assert all(tr[i + 1] <= tr[i] + slack for i in range(len(tr) - 1))


class TestGramSupportStep:
    """The support step solves the normal equations on G = D1^T D1, and the
    inner solve refines its result once, at the stop, so both must survive
    the squared condition number."""

    @settings(max_examples=60, deadline=None)
    @given(
        n_blt=st.integers(2, 10),
        extra_vox=st.integers(3, 40),
        log_cond=st.floats(3.0, 7.0),
        log_noise=st.floats(-6.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ill_conditioned_d1(self, n_blt, extra_vox, log_cond, log_noise, seed):
        rng = np.random.default_rng(seed)
        n_vox = n_blt + extra_vox
        mat, dense = ill_conditioned_instance(rng, n_vox, n_blt, log_cond)
        cond = float(np.linalg.cond(dense))
        assert 5e2 <= cond <= 2e7
        # a reachable dose plus noise, so the system is inconsistent
        y = dense @ rng.uniform(0.5, 1.5, n_blt) + rng.uniform(-1.0, 1.0, n_vox) * 10.0**log_noise

        res = inner_solve(mat, np.zeros(n_vox), y, rng.uniform(0.0, 1.0, n_blt))
        assert res.converged
        _, rnorm = scipy.optimize.nnls(dense, y)
        scale = max(float(rnorm**2), 1e-12 * float(y @ y))
        assert abs(res.objective - float(rnorm**2)) <= 1e-6 * scale

        eps = np.finfo(float).eps
        starts = [np.ones(n_blt)]
        starts += [rng.uniform(0.0, 1.0, n_blt) * (rng.uniform(size=n_blt) < 0.7) for _ in range(4)]
        for x in starts:
            support = np.flatnonzero(x > 0.0)
            z = refined_support_step(dense, x, y)
            before = objective(dense, y, x)
            # the step minimizes over a subspace that contains x, so it can
            # rise only by rounding
            assert objective(dense, y, z) <= before + 1e-14 * before
            if not support.size:
                continue
            cols = dense[:, support]
            ref = np.linalg.lstsq(cols, y, rcond=None)[0]
            # the normal equations are good to about cond^2 eps relative,
            # one refinement step to about (cond^2 eps)^2; any backward
            # stable solve, the dense SVD one included, only to about
            # eps (cond sec(theta) + cond^2 tan(theta)), theta the angle
            # between y and its fit (Golub and Van Loan, 5.3.8)
            c = float(np.linalg.cond(cols))
            fit = float(np.linalg.norm(cols @ ref))
            sec_theta, tan_theta = float(np.linalg.norm(y)) / fit, float(np.linalg.norm(y - cols @ ref)) / fit
            lstsq_err = 100.0 * eps * (c * sec_theta + c * c * tan_theta)
            tol = (4.0 * (c * c * eps) ** 2 + lstsq_err) * float(np.max(np.abs(ref)))
            if ref.min() > tol:
                assert np.max(np.abs(z[support] - ref)) <= tol
                assert np.count_nonzero(z) == support.size
                assert objective(dense, y, z) <= objective(cols, y, ref) + 1e-14 * float(y @ y)

    @pytest.mark.parametrize("seed", range(5))
    def test_singular_gram_block(self, seed, monkeypatch):
        # a zero column and a repeated column make G[S, S] singular on the
        # full support that the positive warm start puts them in, so that
        # block fails the Cholesky test and takes the pseudo-inverse
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a: sizes.append(len(a)) or eigh(a))
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.0, 1.0, (12, 5))
        dense = np.column_stack([base, np.zeros(12), base[:, 1]])
        rows, cols = np.nonzero(dense)
        mat = SparseDoseMatrix.from_triplets(12, 7, rows, cols, dense[rows, cols])
        y = rng.uniform(0.0, 10.0, 12)
        delta = rng.uniform(0.0, 1.0, 12)
        res = inner_solve(mat, delta, y, rng.uniform(0.5, 1.5, 7))
        assert res.converged
        assert sizes[0] == 7
        tr = res.objective_trace
        slack = 1e-12 * max(1.0, tr[0])
        assert all(tr[i + 1] <= tr[i] + slack for i in range(len(tr) - 1))
        _, rnorm = scipy.optimize.nnls(dense, y - delta)
        assert abs(res.objective - float(rnorm**2)) <= 1e-6 * max(float(rnorm**2), 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(
        n_vox=st.integers(1, 30),
        n_base=st.integers(1, 8),
        copies=st.lists(st.tuples(st.integers(0, 7), st.sampled_from([0.0, 0.5, 1.0, 3.0])), max_size=6),
        reachable=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    # full rank, 5 columns, 6 pivots: columns 0 and 4 each leave the
    # support and enter it again, so no bound of one pivot per column holds
    @example(n_vox=5, n_base=5, copies=[], reachable=False, seed=433090485)
    def test_rank_deficient_d1_converges_without_repeating_a_support(self, n_vox, n_base, copies, reachable, seed):
        # repeated, scaled and zero columns leave G singular; Lawson-Hanson
        # from a random warm start still reaches the optimum, and each pivot
        # ends on a support no earlier pivot ended on (its least-squares
        # optimum, at a lower objective), which is why the pivots stop
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.0, 1.0, (n_vox, n_base)) * (rng.uniform(size=(n_vox, n_base)) < 0.7)
        dense = np.column_stack([base] + [scale * base[:, j % n_base] for j, scale in copies])
        n_blt = dense.shape[1]
        dense = dense[:, rng.permutation(n_blt)]
        rows, cols = np.nonzero(dense)
        mat = SparseDoseMatrix.from_triplets(n_vox, n_blt, rows, cols, dense[rows, cols])
        delta = rng.uniform(0.0, 2.0, n_vox)
        if reachable:
            target = delta + dense @ rng.uniform(0.0, 1.0, n_blt)
        else:
            target = rng.uniform(0.0, 10.0, n_vox)
        x0 = rng.uniform(0.0, 1.0, n_blt) * (rng.uniform(size=n_blt) < 0.5)
        ends = []
        support_step = fmo._support_lstsq

        def recorded(*args):
            z = support_step(*args)
            ends.append(tuple(np.flatnonzero(z > 0.0)))
            return z

        with mock.patch.object(fmo, "_support_lstsq", recorded):
            res = inner_solve(mat, delta, target, x0)
        assert res.converged
        assert res.iterations == len(ends)
        assert len(set(ends)) == len(ends)
        y = target - delta
        _, rnorm = scipy.optimize.nnls(dense, y)
        scale = max(float(rnorm**2), 1e-12 * float(y @ y))
        assert abs(res.objective - float(rnorm**2)) <= 1e-6 * scale

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize(
        "case, columns",
        [("zero column", [0, 1, 2, 3, 4, 5]), ("repeated column", [0, 1, 2, 3, 4, 6]), ("all-zero block", [5, 7])],
    )
    def test_singular_block_matches_the_lstsq_oracle(self, seed, case, columns):
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.0, 1.0, (12, 5))
        dense = np.column_stack([base, np.zeros(12), base[:, 1], np.zeros(12)])
        rows, cols = np.nonzero(dense)
        mat = SparseDoseMatrix.from_triplets(12, 8, rows, cols, dense[rows, cols])
        y = dense @ rng.uniform(0.0, 1.0, 8) + rng.uniform(-0.1, 0.1, 12)
        x = np.zeros(8)
        x[columns] = rng.uniform(0.5, 1.5, len(columns))
        support = np.flatnonzero(x > 0.0)
        z = _support_lstsq(gram_of(mat), x, support, mat.rmatvec(y))
        oracle = support_lstsq_by_lstsq(mat, x, support, y)
        np.testing.assert_allclose(z, oracle, rtol=1e-10, atol=1e-12 * float(np.max(np.abs(oracle), initial=1.0)))
        if case == "all-zero block":
            assert not z.any() and not oracle.any()

    @settings(max_examples=200, deadline=None)
    @given(
        n_blt=st.integers(1, 40),
        extra_vox=st.integers(0, 20),
        log_cond=st.floats(0.0, 5.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_full_rank_block_is_solved_without_the_pseudo_inverse(self, n_blt, extra_vox, log_cond, seed):
        # D1 = U diag(s) V^T with singular values from 1 down to 10**-log_cond,
        # so a support block of G = D1^T D1 has condition number at most
        # 10**(2 log_cond), far inside the Cholesky test's eps |S| bound
        rng = np.random.default_rng(seed)
        n_vox = n_blt + extra_vox
        u = np.linalg.qr(rng.normal(size=(n_vox, n_blt)))[0]
        v = np.linalg.qr(rng.normal(size=(n_blt, n_blt)))[0]
        d1 = (u * np.logspace(0.0, -log_cond, n_blt)) @ v.T
        gram = d1.T @ d1
        support = np.flatnonzero(rng.uniform(size=n_blt) < 0.7)
        if not support.size:
            support = np.array([int(rng.integers(n_blt))])
        rhs = rng.normal(size=support.size)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(np.linalg, "eigh", None)  # the pseudo-inverse path would fail
            z = _gram_solve(gram, support, rhs)
        block = gram[np.ix_(support, support)]
        oracle = np.linalg.lstsq(block, rhs, rcond=None)[0]
        # two backward-stable solves of one system: each is good to about
        # cond(G[S, S]) |S| eps relative
        c = float(np.linalg.cond(block))
        assert np.max(np.abs(z - oracle)) <= 10.0 * c * support.size * np.finfo(float).eps * np.linalg.norm(oracle)

    @settings(max_examples=60, deadline=None)
    @given(
        n_blt=st.integers(2, 10),
        extra_vox=st.integers(3, 40),
        log_cond=st.floats(3.0, 7.0),
        log_noise=st.floats(-6.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_ill_conditioned_d1_matches_the_lstsq_oracle(self, n_blt, extra_vox, log_cond, log_noise, seed):
        # a solve of G[S, S] gives lstsq's solution, so both land within the
        # rounding bound of the method
        rng = np.random.default_rng(seed)
        n_vox = n_blt + extra_vox
        mat, dense = ill_conditioned_instance(rng, n_vox, n_blt, log_cond)
        y = dense @ rng.uniform(0.5, 1.5, n_blt) + rng.uniform(-1.0, 1.0, n_vox) * 10.0**log_noise
        eps = np.finfo(float).eps
        starts = [np.ones(n_blt)]
        starts += [rng.uniform(0.0, 1.0, n_blt) * (rng.uniform(size=n_blt) < 0.7) for _ in range(4)]
        for x in starts:
            support = np.flatnonzero(x > 0.0)
            z = refined_support_step(dense, x, y)
            oracle = support_lstsq_by_lstsq(mat, x, support, y)
            c = float(np.linalg.cond(dense[:, x > 0.0])) if x.any() else 1.0
            tol = 2.0 * (4.0 * (c * c * eps) ** 2 + 100.0 * c * eps) * float(np.max(np.abs(oracle), initial=0.0))
            assert np.max(np.abs(z - oracle)) <= tol

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning", "ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("support", [[0], [0, 1]], ids=["inf", "nan"])
    def test_non_finite_solution_is_named(self, support):
        # Gram entries of 1e-20 against b of 2e298: the solution overflows to
        # inf on one column, and to inf and nan on two
        mat = SparseDoseMatrix.from_triplets(3, 2, [0, 1, 1, 2], [0, 0, 1, 1], [1e-10] * 4)
        with pytest.raises(RuntimeError, match="^solver produced non-finite values; instance is ill-posed$"):
            _support_lstsq(gram_of(mat), np.zeros(2), np.array(support), np.array([2e298, 0.0]))

    def test_support_step_memory_stays_below_the_dense_block(self):
        # O(nnz + n_beamlets^2) held, never the voxel x |S| columns
        n_vox, n_blt = 10**5, 40
        rng = np.random.default_rng(3)
        rows = np.repeat(np.arange(n_vox), 4)
        cols = (rows * 7 + np.tile([0, 11, 22, 33], n_vox)) % n_blt
        mat = SparseDoseMatrix.from_triplets(n_vox, n_blt, rows, cols, rng.uniform(0.1, 1.0, rows.size))
        y = mat.matvec(np.ones(n_blt)) + rng.uniform(-0.01, 0.01, n_vox)
        x = np.ones(n_blt)
        support = np.arange(n_blt)
        gram, b = gram_of(mat), mat.rmatvec(y)  # the Gram matrix is built here, before the trace
        tracemalloc.start()
        try:
            z = _support_lstsq(gram, x, support, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.all(z > 0.0)  # the full support stayed, so |S| = 40
        assert peak < 8 * n_vox * n_blt / 4


# ---------------------------------------------------------------------------
# oracle agreement
# ---------------------------------------------------------------------------


class TestNnlsAgreement:
    def test_enumeration_oracle_tiny(self):
        rng = np.random.default_rng(9)
        for _ in range(10):
            mat, dense, target = random_instance(rng, 6, 4)
            x = reference_solve(mat, target, np.zeros(mat.n_beamlets)).x
            oracle = nnls_by_enumeration(dense, target)
            assert objective(dense, target, x) == pytest.approx(
                oracle, rel=1e-9, abs=1e-12
            )

    def test_scipy_oracle_medium(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            mat, dense, target = random_instance(rng, 15, 7)
            x = reference_solve(mat, target, np.zeros(mat.n_beamlets)).x
            _, rnorm = scipy.optimize.nnls(dense, target)
            assert objective(dense, target, x) == pytest.approx(
                rnorm**2, rel=1e-8, abs=1e-12
            )

    def test_two_oracles_agree(self):
        rng = np.random.default_rng(11)
        mat, dense, target = random_instance(rng, 8, 5)
        _, rnorm = scipy.optimize.nnls(dense, target)
        assert nnls_by_enumeration(dense, target) == pytest.approx(
            rnorm**2, rel=1e-9, abs=1e-12
        )


# ---------------------------------------------------------------------------
# outer loop
# ---------------------------------------------------------------------------


def _with_tau(problem, tau):
    return dataclasses.replace(problem, tau=float(tau))


def _permuted(problem, voxels, beamlets):
    """``problem`` with voxel ``voxels[i]`` as voxel i and beamlet ``beamlets[j]`` as beamlet j."""
    rows, cols, values = problem.ddc.triplets()
    ddc = SparseDoseMatrix.from_triplets(
        problem.ddc.n_voxels, problem.ddc.n_beamlets, np.argsort(voxels)[rows], np.argsort(beamlets)[cols], values
    )
    return dataclasses.replace(problem, ddc=ddc, prescription=problem.prescription[voxels], labels=problem.labels[voxels])


class TestFmoSolve:
    @settings(max_examples=40, deadline=None)
    @given(sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_results_do_not_depend_on_voxel_or_beamlet_order(self, stress_problem, sparse, seed):
        # the stress phantom keeps D1 as one slice; the 1D phantom, cut into
        # blocks of 1 KB, keeps 2 slices and 3 CSR blocks, and a permutation
        # of its voxels moves rows between them.  Which rows a slice holds
        # changes only the rounding: over 300 draws of each, rounds, pivots and
        # convergence were equal and the fluence moved by at most 8.9e-13
        # relative, against the bound of 1e-10 here
        if sparse:
            problem = generate_phantom(PhantomSpec(grid=(200,), n_beamlets=40, kernel_width=1.0, ptv_region=(80, 120)))
            problem, budget = _with_tau(problem, np.percentile(problem.ddc.data, 25.0)), 1024
        else:
            problem, budget = stress_problem, fmo._BLOCK_BYTES
        rng = np.random.default_rng(seed)
        voxels, beamlets = rng.permutation(problem.ddc.n_voxels), rng.permutation(problem.ddc.n_beamlets)
        with mock.patch.object(fmo, "_BLOCK_BYTES", budget):
            # fresh matrices, whose row blocks are cut under this budget
            identity = _permuted(problem, np.arange(problem.ddc.n_voxels), np.arange(problem.ddc.n_beamlets))
            (_, d1, _), base = fmo._operators(identity.ddc, identity.tau), fmo_solve(identity)
            report = fmo_solve(_permuted(problem, voxels, beamlets))
        assert d1.slices and bool(d1.blocks) == sparse
        assert report.inner_iterations == base.inner_iterations and report.outer_iterations == base.outer_iterations
        assert report.converged == base.converged
        assert np.max(np.abs(report.fluence - base.fluence[beamlets])) <= 1e-10 * np.max(base.fluence)

    def test_one_thousand_beamlets_solve_within_120_mib(self):
        # 5.56 M entries, in 43 row blocks that all keep their slices.  The
        # solve holds D2's CSR arrays (16.3 MiB), D1's slices (74.4 MiB) and
        # D^T D and D1^T D1 (7.6 MiB each); measured 115.2 MiB with numpy
        # 2.4.6.  With D1's CSR arrays built beside its slices it was 166.45 MiB
        spec = PhantomSpec(grid=(400, 250), n_beamlets=1000, kernel_width=3.0, ptv_region=(150, 250, 80, 170), seed=6)
        problem = generate_phantom(spec)
        problem = _with_tau(problem, np.percentile(problem.ddc.data, 25.0))
        tracemalloc.start()
        try:
            report = fmo_solve(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 120 * 2**20, peak
        assert report.inner_iterations == (238, 1, 1, 1) and report.outer_iterations == 4

    def test_zero_threshold_collapses_to_reference(self, tiny_phantom):
        report = fmo_solve(_with_tau(tiny_phantom, 0.0))
        assert report.converged
        assert report.outer_iterations == 1
        assert report.reference_gap <= 1e-10

    def test_quartile_threshold_converges(self, default_phantom):
        vals = default_phantom.ddc.triplets()[2]
        report = fmo_solve(_with_tau(default_phantom, np.percentile(vals, 25.0)))
        assert report.converged
        assert report.reference_gap <= 1e-2
        assert len(report.delta_trace) == report.outer_iterations
        assert len(report.delta_ratios) <= max(0, report.outer_iterations - 1)
        assert all(r < 1.0 for r in report.delta_ratios)

    def test_outer_fixed_point_consistency(self, default_phantom):
        vals = default_phantom.ddc.triplets()[2]
        problem = _with_tau(default_phantom, np.percentile(vals, 25.0))
        report = fmo_solve(problem)
        d1, d2 = split_matrix(problem.ddc, problem.tau)
        x = report.fluence
        delta = d2.matvec(x)
        # the returned fluence satisfies the stationarity conditions of the
        # split problem at its own carry-over term
        g = d1.rmatvec(d1.matvec(x) + delta - problem.prescription)
        pg = np.where(x > 0.0, g, np.minimum(g, 0.0))
        assert float(np.max(np.abs(pg))) <= 1e-6

    def test_stress_instance_converges_without_cap_hits(self, stress_problem):
        report = fmo_solve(stress_problem)
        assert report.converged
        assert report.inner_cap_hits == 0
        assert report.reference_converged
        dense = stress_problem.ddc.to_dense()
        target = stress_problem.prescription
        _, rnorm = scipy.optimize.nnls(dense, target)
        r = report.dose - target
        assert abs(float(r @ r) - rnorm**2) <= 1e-6 * rnorm**2

    @pytest.mark.parametrize(
        "percentile, outer, inner, converged, reference_iters",
        [
            (10, 3, (22, 1, 1), True, 1),
            (25, 4, (22, 1, 1, 1), True, 1),
            (60, 17, (20,) + (1,) * 16, True, 10),
            (75, 200, (25,) + (1,) * 6 + (2,) + (1,) * 192, False, 7),
            (95, 197, (26, 1, 3) + (1,) * 194, True, 8),
        ],
        ids=["tau-p10", "tau-p25", "tau-p60", "tau-p75", "tau-p95"],
    )
    def test_stress_counts_across_thresholds(
        self, stress_problem, cold_reference, monkeypatch, percentile, outer, inner, converged, reference_iters
    ):
        # pivot counts do not depend on the machine; the 75th percentile
        # runs the outer loop to its cap of 200 rounds
        references = []

        def recorded(*args):
            references.append(reference_solve(*args))
            return references[-1]

        monkeypatch.setattr(fmo, "reference_solve", recorded)
        tau = np.percentile(stress_problem.ddc.triplets()[2], percentile)
        report = fmo_solve(_with_tau(stress_problem, tau))
        assert report.outer_iterations == outer
        assert report.inner_iterations == inner
        assert report.inner_cap_hits == 0
        assert report.reference_converged
        assert report.converged is converged
        # the reference starts from the split fluence and certifies the same
        # optimum as a solve from zero, in no more pivots than that solve
        (ref,) = references
        assert ref.converged
        assert ref.objective == pytest.approx(cold_reference.objective, rel=1e-12, abs=0.0)
        assert ref.iterations == reference_iters
        assert cold_reference.iterations == 22 and ref.iterations <= cold_reference.iterations

    @pytest.mark.parametrize(
        "percentile",
        [10, 25, 60, 75, 95, None],
        ids=["tau-p10", "tau-p25", "tau-p60", "tau-p75", "tau-p95", "degenerate"],
    )
    def test_one_inner_solve_per_outer_round(self, stress_problem, monkeypatch, percentile):
        # the report's per-round entries are the rounds' own inner solves and
        # the fluence is the last one's; the reference solve, on the unsplit
        # matrix with the reference's settings, is left out
        rounds = []

        def recorded(mat, *args):
            result = inner_solve(mat, *args)
            if args[3] is not fmo._REFERENCE_PARAMS:
                rounds.append(result)
            return result

        monkeypatch.setattr(fmo, "inner_solve", recorded)
        vals = stress_problem.ddc.data
        tau = vals.max() + 1.0 if percentile is None else np.percentile(vals, percentile)
        report = fmo_solve(_with_tau(stress_problem, tau))
        assert len(rounds) == report.outer_iterations
        assert report.inner_iterations == tuple(inner.iterations for inner in rounds)
        assert report.objective_trace == tuple(inner.objective for inner in rounds)
        assert report.pg_norm == rounds[-1].pg_norm
        assert np.array_equal(report.fluence, rounds[-1].x)
        if percentile is None:
            # an empty major part takes no pivot, so the scatter is zero twice
            assert report.degenerate_inner and not report.converged
            assert report.inner_iterations == (0,) and report.delta_trace == (0.0,)

    def test_large_finite_steps_are_not_divergence(self):
        # the first scatter step, 5e12, passes the iteration modes'
        # DIVERGENCE_LIMIT; the outer rounds abort on non-finite values only
        ddc = SparseDoseMatrix.from_triplets(2, 1, [0, 1], [0, 0], [1.0, 0.5])
        problem = FmoProblem(ddc, np.array([1e13, 1e13]), ("PTV", "OAR"), tau=0.7)
        report = fmo_solve(problem)
        assert report.outer_iterations == 2
        assert report.delta_trace == (5e12, 0.0)
        assert report.converged

    @pytest.mark.parametrize(
        "entries, target, tau, pivots",
        [
            # G = D^T D overflows, which the check where it is built names
            pytest.param([(0, 0, 1e200), (0, 1, 1e200), (1, 0, 1e200), (1, 1, 1e200)], [1.0, 2.0], 0.0, 0, id="gram-overflow"),
            # ||D1 x + delta - T||^2 overflows at the start
            pytest.param(
                [(0, 0, 1.0), (1, 0, 0.5), (1, 1, 0.5), (2, 1, 1.0)], [1e200, 2e200, 1e200], 0.6, 0, id="objective-overflow"
            ),
        ],
    )
    def test_non_finite_objective_ends_the_solve(self, monkeypatch, entries, target, tau, pivots):
        ddc = SparseDoseMatrix.from_triplets(len(target), 2, *zip(*entries))
        calls = []
        support_lstsq = fmo._support_lstsq
        monkeypatch.setattr(fmo, "_support_lstsq", lambda *a: calls.append(1) or support_lstsq(*a))
        with pytest.raises(RuntimeError, match="^solver produced non-finite values; instance is ill-posed$"):
            fmo_solve(FmoProblem(ddc, target, ("PTV",) * len(target), tau=tau))
        # the solve stops where the objective leaves the floats, not at the pivot cap
        assert len(calls) == pivots

    def test_dose_is_full_matrix_times_fluence(self, tiny_phantom):
        report = fmo_solve(_with_tau(tiny_phantom, 0.0))
        assert np.allclose(
            report.dose, tiny_phantom.ddc.matvec(report.fluence), atol=1e-12
        )

    def test_degenerate_split_flagged(self, tiny_phantom):
        vals = tiny_phantom.ddc.triplets()[2]
        report = fmo_solve(_with_tau(tiny_phantom, float(vals.max()) + 1.0))
        assert report.degenerate_inner
        assert not report.converged
        assert np.array_equal(report.fluence, np.zeros_like(report.fluence))

    def test_determinism(self, tiny_phantom):
        problem = _with_tau(tiny_phantom, 0.001)
        a = fmo_solve(problem)
        b = fmo_solve(problem)
        assert np.array_equal(a.fluence, b.fluence)
        assert a.objective_trace == b.objective_trace
        assert a.delta_trace == b.delta_trace

    def test_report_json(self, tmp_path, tiny_phantom):
        report = fmo_solve(_with_tau(tiny_phantom, 0.0))
        obj = strict_json(cli._write_json(tmp_path, "report.json", report).read_text())
        assert obj["converged"] is True
        assert len(obj["fluence"]) == tiny_phantom.ddc.n_beamlets


# ---------------------------------------------------------------------------
# problem container and statistics
# ---------------------------------------------------------------------------


class TestProblemContainer:
    def test_validation(self, tiny_phantom):
        with pytest.raises(ValueError, match="prescription"):
            dataclasses.replace(
                tiny_phantom, prescription=tiny_phantom.prescription[:-1]
            )
        for dose in (-1.0, np.nan):
            prescription = tiny_phantom.prescription.copy()
            prescription[3] = dose
            with pytest.raises(ValueError, match="^prescription doses must be finite and nonnegative$"):
                dataclasses.replace(tiny_phantom, prescription=prescription)
        with pytest.raises(ValueError, match="threshold"):
            dataclasses.replace(tiny_phantom, tau=-1.0)
        with pytest.raises(ValueError, match="labels"):
            dataclasses.replace(tiny_phantom, labels=("PTV",))

    def test_labels_become_one_read_only_tag_array(self, tiny_phantom):
        tags = ["OAR"] * 10 + ["PTV"] * 20
        problem = dataclasses.replace(tiny_phantom, labels=tags)
        tags[0] = "PTV"  # the problem holds a copy
        assert problem.labels.tolist() == ["OAR"] * 10 + ["PTV"] * 20
        assert problem.labels.dtype == np.dtype("<U3") and not problem.labels.flags.writeable
        assert np.array_equal(tiny_phantom.labels, np.where(np.arange(30) // 10 == 1, "PTV", "OAR"))

    @pytest.mark.parametrize(
        "labels, message",
        [
            pytest.param(("PTV",), "labels must tag 30 voxels, got shape (1,)", id="too-few"),
            pytest.param(("PTV",) * 31, "labels must tag 30 voxels, got shape (31,)", id="too-many"),
            pytest.param((), "labels must tag 30 voxels, got shape (0,)", id="none"),
            pytest.param([("PTV",) * 30], "labels must tag 30 voxels, got shape (1, 30)", id="nested"),
            pytest.param(
                ("PTV",) * 4 + ("CTV", "ptv") + ("OAR",) * 24,
                "unknown voxel tag 'CTV' at voxel 4, expected 'PTV' or 'OAR'",
                id="unknown-tag",
            ),
            pytest.param(
                ("OAR",) * 29 + (1,), "unknown voxel tag '1' at voxel 29, expected 'PTV' or 'OAR'", id="not-a-string"
            ),
        ],
    )
    def test_labels_are_checked_by_the_problem(self, tiny_phantom, labels, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            FmoProblem(tiny_phantom.ddc, tiny_phantom.prescription, labels, tau=0.0)

    @pytest.mark.parametrize(
        "params, field, message",
        [
            pytest.param(InnerParams, {"tol": 0.0}, "inner tol must be positive, got 0.0", id="inner-tol-zero"),
            pytest.param(InnerParams, {"tol": np.nan}, "inner tol must be positive, got nan", id="inner-tol-nan"),
            pytest.param(InnerParams, {"max_iters": 0}, "inner max_iters must be at least 1, got 0", id="inner-cap"),
            pytest.param(OuterParams, {"tol": -1.0}, "outer tol must be positive, got -1.0", id="outer-tol-negative"),
            pytest.param(OuterParams, {"tol": np.inf}, "outer tol must be positive, got inf", id="outer-tol-inf"),
            pytest.param(OuterParams, {"max_iters": 0}, "outer max_iters must be at least 1, got 0", id="outer-cap"),
        ],
    )
    def test_solver_params_are_checked(self, params, field, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            params(**field)

    @pytest.mark.parametrize("key, value", [("inner", 5), ("outer", []), ("labels", 5)])
    def test_json_field_of_the_wrong_kind_is_named(self, tmp_path, capsys, tiny_phantom, key, value):
        # no matrix file: every field is read before the matrix is opened
        problem = dict(cli._problem_file(tiny_phantom, "matrix.csv"), **{key: value})
        path = cli._write_json(tmp_path, "problem.json", problem)
        assert cli.main(["fmo", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: /{key}: ")

    @pytest.mark.parametrize("rows, empty", [([0, 1, 2], 0), ([0, 2], 1), ([], 3)])
    def test_warnings_count_the_rows_with_no_entry(self, rows, empty):
        ddc = SparseDoseMatrix.from_triplets(3, 1, rows, [0] * len(rows), [1.0] * len(rows))
        expect = (f"{empty} voxels receive zero dose from every beamlet",) if empty else ()
        assert FmoProblem(ddc, np.ones(3), ["PTV"] * 3, tau=0.0).warnings == expect

    def test_warnings_count_the_rows_of_explicit_zeros(self):
        # voxel 1 holds an entry, but it is zero: it receives no dose either
        ddc = SparseDoseMatrix.from_triplets(3, 2, [0, 1, 2], [0, 0, 1], [1.0, 0.0, 1.0])
        problem = FmoProblem(ddc, np.ones(3), ["PTV"] * 3, tau=0.0)
        assert problem.warnings == ("1 voxels receive zero dose from every beamlet",)

    def test_save_load_round_trip(self, tmp_path, monkeypatch, tiny_phantom):
        problem = dataclasses.replace(
            tiny_phantom,
            tau=0.25,
            inner=InnerParams(tol=1e-9, max_iters=5000),
            outer=OuterParams(tol=1e-7, max_iters=50),
        )
        write_matrix_csv(problem.ddc, tmp_path / "matrix.csv")
        # the problem file holds the instance; the settings are added as a hand-written file would
        instance = cli._write_json(tmp_path, "instance.json", cli._problem_file(problem, "matrix.csv"))
        settings = {"inner": problem.inner, "outer": problem.outer}
        path = cli._write_json(tmp_path, "problem.json", {**cli._problem_file(problem, "matrix.csv"), **settings})
        loaded = []

        def solve(read):
            loaded.append(read)
            return fmo_solve(read)

        monkeypatch.setattr(cli.fmo_mod, "fmo_solve", solve)
        assert cli.main(["fmo", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        [back] = loaded
        again = cli._write_json(tmp_path / "back", "instance.json", cli._problem_file(back, "matrix.csv"))
        assert again.read_bytes() == instance.read_bytes()
        assert back.tau == 0.25
        assert back.inner.tol == 1e-9 and back.inner.max_iters == 5000
        assert back.outer.tol == 1e-7 and back.outer.max_iters == 50
        assert np.array_equal(back.prescription, problem.prescription)
        assert np.array_equal(back.labels, problem.labels)
        assert np.array_equal(back.ddc.to_dense(), problem.ddc.to_dense())

    def test_dose_statistics(self):
        labels = ("PTV", "PTV", "OAR")
        dose = np.array([58.0, 62.0, 10.0])
        stats = dose_statistics(dose, labels)
        assert stats["PTV"]["min"] == 58.0
        assert stats["PTV"]["max"] == 62.0
        assert stats["PTV"]["mean"] == 60.0
        assert stats["PTV"]["voxels"] == 2
        assert stats["OAR"]["mean"] == 10.0

    def test_dose_statistics_absent_tag(self):
        labels = ("PTV", "PTV")
        stats = dose_statistics(np.array([1.0, 2.0]), labels)
        assert stats["OAR"]["mean"] is None
        assert stats["OAR"]["voxels"] == 0

    @given(
        st.lists(st.sampled_from(("PTV", "OAR")), min_size=1, max_size=40),
        st.integers(0, 2**32 - 1),
    )
    @example(["PTV"] * 7, 0)
    @example(["OAR"] * 7, 0)
    def test_dose_statistics_matches_a_per_tag_loop(self, tags, seed):
        dose = np.random.default_rng(seed).uniform(0.0, 80.0, len(tags))
        expected = {}
        for tag in ("PTV", "OAR"):
            vals = np.array([d for d, t in zip(dose, tags) if t == tag])
            expected[tag] = (
                {"min": float(vals.min()), "mean": float(vals.mean()), "max": float(vals.max()), "voxels": len(vals)}
                if len(vals)
                else {"min": None, "mean": None, "max": None, "voxels": 0}
            )
        assert dose_statistics(dose, tuple(tags)) == expected
