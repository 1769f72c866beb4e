"""Dose-matrix splitting and solver tests.

Two independent oracles pin the solver down. Small instances are solved
exactly by enumerating every support subset and taking the best feasible
restricted least-squares solution; this is the textbook characterization of
the nonnegative least-squares optimum. Larger instances are checked against
scipy's active-set nnls. The accelerated solver must land on the same
objective to tight relative tolerance.
"""

import dataclasses
import itertools
import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from fixfunc import (
    FmoProblem,
    InnerParams,
    OuterParams,
    PhantomSpec,
    SparseDoseMatrix,
    VoxelLabels,
    dose_statistics,
    fmo_solve,
    generate_phantom,
    inner_solve,
    read_matrix_csv,
    reference_solve,
    split_matrix,
    write_matrix_csv,
)
from fixfunc import cli
from fixfunc.fmo import _ROUNDING, _support_lstsq


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


def objective(dense, target, x):
    r = dense @ x - target
    return float(r @ r)


@pytest.fixture(scope="module")
def stress_problem():
    """The 2D stress phantom at the 25th-percentile threshold.

    D1 has condition number about 7,400, so gradient steps alone stall far
    above the absolute tolerances.
    """
    problem = generate_phantom(
        PhantomSpec(grid=(60, 40), n_beamlets=30, ptv_region=(20, 40, 10, 30))
    )
    tau = float(np.percentile(problem.ddc.triplets()[2], 25.0))
    return dataclasses.replace(problem, tau=tau)


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
        for part in (d1, d2):
            assert entries_of(part) == sorted(entries_of(part))

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

    def test_scipy_operator_wraps_the_stored_arrays(self):
        rng = np.random.default_rng(6)
        mat, dense, _ = random_instance(rng, 9, 5)
        mat.matvec(np.ones(5))
        csr = mat._csr
        assert csr.indices.dtype == csr.indptr.dtype == np.int32
        for mine, its in ((mat.data, csr.data), (mat.indices, csr.indices), (mat.indptr, csr.indptr)):
            assert np.shares_memory(mine, its)
        assert np.array_equal(csr.toarray(), dense)

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

    @pytest.mark.parametrize("bad", ["1,x,2.0", "1,1", "1,1,2.0,3.0", "1.0,1,2.0"])
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
        assert res.x[0] == 2.0
        assert res.lipschitz == pytest.approx(4.0, rel=1e-12)
        assert res.pg_norm < 1e-8

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

    def test_degenerate_zero_matrix(self):
        mat = SparseDoseMatrix.from_triplets(2, 2, [], [], [])
        x0 = np.array([0.25, 0.75])
        res = inner_solve(mat, np.zeros(2), np.ones(2), x0)
        assert res.degenerate
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

    def test_lipschitz_bounds_true_norm(self):
        rng = np.random.default_rng(8)
        mat, dense, target = random_instance(rng, 20, 8)
        res = inner_solve(mat, np.zeros(20), target, np.zeros(8))
        true_sq = float(np.linalg.norm(dense, 2) ** 2)
        assert res.lipschitz <= true_sq * (1.0 + 1e-9)
        assert res.lipschitz >= 0.5 * true_sq

    def test_lipschitz_is_an_upper_bound(self, stress_problem):
        # a step of 1/L is safe only if L is not below the true constant
        rng = np.random.default_rng(12)
        mats = [split_matrix(stress_problem.ddc, stress_problem.tau)[0]]
        mats += [random_instance(rng, 30, 12, density=0.3)[0] for _ in range(20)]
        for mat in mats:
            res = inner_solve(
                mat, np.zeros(mat.n_voxels), np.ones(mat.n_voxels),
                np.zeros(mat.n_beamlets), InnerParams(max_iters=1),
            )
            true_sq = float(np.linalg.norm(mat.to_dense(), 2) ** 2)
            assert res.lipschitz >= true_sq * (1.0 - 1e-12)

    def test_cap_hit_reported(self):
        rng = np.random.default_rng(13)
        mat, _, target = random_instance(rng, 25, 10)
        res = inner_solve(
            mat, np.zeros(25), target, np.zeros(10), InnerParams(max_iters=1)
        )
        assert res.iterations == 1
        assert res.pg_norm >= 1e-8
        assert not res.converged

    def test_consistent_system_reaches_zero_objective(self):
        # an example test_matches_active_set_oracle found: the projected
        # gradient passes the absolute tolerance with the objective at 6e-17
        # against an optimum of 0, until a closing support step removes it
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
    """The support step solves the normal equations on G = D1^T D1 plus one
    refinement step, so it must survive the squared condition number."""

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
            z = _support_lstsq(mat, x, y)
            before = objective(dense, y, x)
            assert objective(dense, y, z) <= before + _ROUNDING * before
            support = np.flatnonzero(x > 0.0)
            if not support.size:
                continue
            cols = dense[:, support]
            ref = np.linalg.lstsq(cols, y, rcond=None)[0]
            # the normal equations are good to about cond^2 eps relative,
            # one refinement step to about (cond^2 eps)^2; the dense SVD
            # solve itself to about cond eps
            c = float(np.linalg.cond(cols))
            tol = (4.0 * (c * c * eps) ** 2 + 100.0 * c * eps) * float(np.max(np.abs(ref)))
            if ref.min() > tol:
                assert np.max(np.abs(z[support] - ref)) <= tol
                assert np.count_nonzero(z) == support.size
                assert objective(dense, y, z) <= objective(cols, y, ref) + 1e-14 * float(y @ y)

    @pytest.mark.parametrize("seed", range(5))
    def test_singular_gram_block(self, seed):
        # a zero column and a repeated column make G[S, S] singular on the
        # full support that the positive warm start puts them in
        rng = np.random.default_rng(seed)
        base = rng.uniform(0.0, 1.0, (12, 5))
        dense = np.column_stack([base, np.zeros(12), base[:, 1]])
        rows, cols = np.nonzero(dense)
        mat = SparseDoseMatrix.from_triplets(12, 7, rows, cols, dense[rows, cols])
        y = rng.uniform(0.0, 10.0, 12)
        delta = rng.uniform(0.0, 1.0, 12)
        res = inner_solve(mat, delta, y, rng.uniform(0.5, 1.5, 7))
        assert res.converged
        tr = res.objective_trace
        slack = 1e-12 * max(1.0, tr[0])
        assert all(tr[i + 1] <= tr[i] + slack for i in range(len(tr) - 1))
        _, rnorm = scipy.optimize.nnls(dense, y - delta)
        assert abs(res.objective - float(rnorm**2)) <= 1e-6 * max(float(rnorm**2), 1e-12)

    def test_support_step_memory_stays_below_the_dense_block(self):
        # O(nnz + n_beamlets^2) held, never the voxel x |S| columns
        n_vox, n_blt = 10**5, 40
        rng = np.random.default_rng(3)
        rows = np.repeat(np.arange(n_vox), 4)
        cols = (rows * 7 + np.tile([0, 11, 22, 33], n_vox)) % n_blt
        mat = SparseDoseMatrix.from_triplets(n_vox, n_blt, rows, cols, rng.uniform(0.1, 1.0, rows.size))
        y = mat.matvec(np.ones(n_blt)) + rng.uniform(-0.01, 0.01, n_vox)
        x = np.ones(n_blt)
        _support_lstsq(mat, x, y)  # builds the matrix's cached transpose and Gram matrix
        tracemalloc.start()
        try:
            z = _support_lstsq(mat, x, y)
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
            x = reference_solve(mat, target).x
            oracle = nnls_by_enumeration(dense, target)
            assert objective(dense, target, x) == pytest.approx(
                oracle, rel=1e-9, abs=1e-12
            )

    def test_scipy_oracle_medium(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            mat, dense, target = random_instance(rng, 15, 7)
            x = reference_solve(mat, target).x
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


class TestFmoSolve:
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
        "percentile, outer, inner, converged",
        [
            (10, 3, (61, 1, 1), True),
            (25, 4, (61, 1, 1, 1), True),
            (60, 17, (21,) + (1,) * 15 + (2,), True),
            (75, 200, (21,) + (1,) * 6 + (21,) + (1,) * 192, False),
            (95, 197, (21, 1, 21) + (1,) * 193 + (2,), True),
        ],
        ids=["tau-p10", "tau-p25", "tau-p60", "tau-p75", "tau-p95"],
    )
    def test_stress_counts_across_thresholds(self, stress_problem, percentile, outer, inner, converged):
        # iteration counts do not depend on the machine; the 75th percentile
        # runs the outer loop to its cap of 200 rounds
        tau = np.percentile(stress_problem.ddc.triplets()[2], percentile)
        report = fmo_solve(_with_tau(stress_problem, tau))
        assert report.outer_iterations == outer
        assert report.inner_iterations == inner
        assert report.inner_cap_hits == 0
        assert report.reference_converged
        assert report.converged is converged

    def test_large_finite_steps_are_not_divergence(self):
        # the first scatter step, 5e12, passes the iteration modes'
        # DIVERGENCE_LIMIT; the outer rounds abort on non-finite values only
        ddc = SparseDoseMatrix.from_triplets(2, 1, [0, 1], [0, 0], [1.0, 0.5])
        problem = FmoProblem(ddc, np.array([1e13, 1e13]), VoxelLabels(("PTV", "OAR")), tau=0.7)
        report = fmo_solve(problem)
        assert report.outer_iterations == 2
        assert report.delta_trace == (5e12, 0.0)
        assert report.converged

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
        obj = json.loads(cli._write_json(tmp_path, "report.json", report).read_text())
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
        with pytest.raises(ValueError, match="threshold"):
            dataclasses.replace(tiny_phantom, tau=-1.0)
        with pytest.raises(ValueError, match="labels"):
            dataclasses.replace(tiny_phantom, labels=VoxelLabels(("PTV",)))

    @pytest.mark.parametrize("key, value", [("inner", 5), ("outer", []), ("labels", 5), ("warnings", "x")])
    def test_json_field_of_the_wrong_kind_is_named(self, tmp_path, capsys, tiny_phantom, key, value):
        # no matrix file: every field is read before the matrix is opened
        problem = dict(cli._problem_file(tiny_phantom, "matrix.csv"), **{key: value})
        path = cli._write_json(tmp_path, "problem.json", problem)
        assert cli.main(["fmo", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith(f"error: /{key}: ")

    def test_save_load_round_trip(self, tmp_path, monkeypatch, tiny_phantom):
        problem = dataclasses.replace(
            tiny_phantom,
            tau=0.25,
            inner=InnerParams(tol=1e-9, max_iters=5000),
            outer=OuterParams(tol=1e-7, max_iters=50),
        )
        write_matrix_csv(problem.ddc, tmp_path / "matrix.csv")
        path = cli._write_json(tmp_path, "problem.json", cli._problem_file(problem, "matrix.csv"))
        loaded = []

        def solve(read):
            loaded.append(read)
            return fmo_solve(read)

        monkeypatch.setattr(cli.fmo_mod, "fmo_solve", solve)
        assert cli.main(["fmo", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        [back] = loaded
        again = cli._write_json(tmp_path / "back", "problem.json", cli._problem_file(back, "matrix.csv"))
        assert again.read_bytes() == path.read_bytes()
        assert back.tau == 0.25
        assert back.inner.tol == 1e-9 and back.inner.max_iters == 5000
        assert back.outer.tol == 1e-7 and back.outer.max_iters == 50
        assert np.array_equal(back.prescription, problem.prescription)
        assert back.labels.tags == problem.labels.tags
        assert np.array_equal(back.ddc.to_dense(), problem.ddc.to_dense())

    def test_dose_statistics(self):
        labels = VoxelLabels(("PTV", "PTV", "OAR"))
        dose = np.array([58.0, 62.0, 10.0])
        stats = dose_statistics(dose, labels)
        assert stats["PTV"]["min"] == 58.0
        assert stats["PTV"]["max"] == 62.0
        assert stats["PTV"]["mean"] == 60.0
        assert stats["PTV"]["voxels"] == 2
        assert stats["OAR"]["mean"] == 10.0

    def test_dose_statistics_absent_tag(self):
        labels = VoxelLabels(("PTV", "PTV"))
        stats = dose_statistics(np.array([1.0, 2.0]), labels)
        assert stats["OAR"]["mean"] is None
        assert stats["OAR"]["voxels"] == 0
