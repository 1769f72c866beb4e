"""Synthetic phantom generator tests."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strict_json
from fixfunc import (
    TRUNCATION_THRESHOLD,
    PhantomSpec,
    fmo_solve,
    generate_phantom,
)
from fixfunc import cli


class TestSpecValidation:
    def test_defaults(self):
        spec = PhantomSpec()
        assert spec.grid == (100,)
        assert spec.n_voxels == 100

    def test_grid_dimensions(self):
        with pytest.raises(ValueError, match="grid"):
            PhantomSpec(grid=(4, 4, 4))
        with pytest.raises(ValueError, match="grid"):
            PhantomSpec(grid=(0,))

    def test_region_bounds(self):
        with pytest.raises(ValueError, match="ptv_region"):
            PhantomSpec(grid=(50,), ptv_region=(40, 60))
        with pytest.raises(ValueError, match="ptv_region"):
            PhantomSpec(grid=(50,), ptv_region=(20, 20))
        with pytest.raises(ValueError, match="ptv_region"):
            PhantomSpec(grid=(8, 8), ptv_region=(2, 4))  # needs 4 indices in 2D

    def test_prescription_must_exceed_cap(self):
        with pytest.raises(ValueError, match="exceed"):
            PhantomSpec(prescription_ptv=10.0, cap_oar=20.0)

    def test_beamlets_and_width(self):
        with pytest.raises(ValueError, match="beamlet"):
            PhantomSpec(n_beamlets=0)
        with pytest.raises(ValueError, match="width"):
            PhantomSpec(kernel_width=0.0)

    def test_json_round_trip(self, tmp_path, monkeypatch):
        spec = PhantomSpec(grid=(12, 8), ptv_region=(3, 9, 2, 6), seed=11)
        assert read_through_cli(tmp_path, monkeypatch, written(tmp_path, spec)) == [spec]

    def test_json_without_seed_takes_the_spec_default(self, tmp_path, monkeypatch):
        obj = written(tmp_path, PhantomSpec(grid=(12, 8), ptv_region=(3, 9, 2, 6), seed=11))
        del obj["seed"]
        assert read_through_cli(tmp_path, monkeypatch, obj)[0].seed == PhantomSpec().seed == 7

    def test_seed_option_reaches_the_spec(self, tmp_path, monkeypatch):
        obj = written(tmp_path, PhantomSpec(seed=11))
        assert read_through_cli(tmp_path, monkeypatch, obj, "--seed", "9") == [PhantomSpec(seed=9)]

    def test_json_missing_field(self, tmp_path, capsys):
        obj = written(tmp_path, PhantomSpec())
        del obj["kernel_width"]
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(obj))
        assert cli.main(["phantom", "--config", str(path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.startswith("error: /kernel_width: ")


def written(tmp_path, spec):
    """``spec`` as the CLI writes it, read back."""
    return strict_json(cli._write_json(tmp_path, "written.json", spec).read_text())


def read_through_cli(tmp_path, monkeypatch, obj, *options):
    """The specs ``fixfunc phantom`` reads from ``obj`` and generates, given ``options``."""
    specs = []

    def generate(spec):
        specs.append(spec)
        return generate_phantom(spec)

    monkeypatch.setattr(cli, "generate_phantom", generate)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(obj))
    assert cli.main(["phantom", "--config", str(path), "--out", str(tmp_path / "out"), *options]) == 0
    return specs


class TestGenerate:
    def test_deterministic_for_seed(self):
        spec = PhantomSpec()
        a = generate_phantom(spec)
        b = generate_phantom(spec)
        ra, ca, va = a.ddc.triplets()
        rb, cb, vb = b.ddc.triplets()
        assert np.array_equal(ra, rb)
        assert np.array_equal(ca, cb)
        assert np.array_equal(va, vb)

    def test_seed_override_changes_amplitudes(self):
        spec = PhantomSpec()
        a = generate_phantom(spec)
        b = generate_phantom(dataclasses.replace(spec, seed=8))
        assert not np.array_equal(a.ddc.triplets()[2], b.ddc.triplets()[2])

    def test_truncation(self, default_phantom):
        vals = default_phantom.ddc.triplets()[2]
        assert vals.min() >= TRUNCATION_THRESHOLD

    def test_default_coverage(self, default_phantom):
        # width 3 kernels on 10-voxel spacing blanket the whole line
        assert default_phantom.warnings == ()
        dense = default_phantom.ddc.to_dense()
        assert np.all(dense.sum(axis=1) > 0)
        assert np.all(dense.sum(axis=0) > 0)

    def test_prescription_and_labels(self, default_phantom):
        t = default_phantom.prescription
        tags = default_phantom.labels
        for i in range(100):
            if 40 <= i < 60:
                assert t[i] == 60.0 and tags[i] == "PTV"
            else:
                assert t[i] == 20.0 and tags[i] == "OAR"

    def test_amplitude_jitter_range(self, default_phantom):
        # centers sit half a voxel off the lattice, so each column peaks at
        # its jittered amplitude in [0.9, 1.1] times a fixed attenuation
        dense = default_phantom.ddc.to_dense()
        peaks = dense.max(axis=0)
        f = math.exp(-0.25 / 18.0)
        assert np.all(peaks >= 0.9 * f - 1e-12)
        assert np.all(peaks <= 1.1 * f + 1e-12)

    def test_narrow_kernel_warns(self):
        problem = generate_phantom(PhantomSpec(kernel_width=0.4))
        assert problem.ddc.nnz > 0
        assert len(problem.warnings) == 1
        assert "zero dose" in problem.warnings[0]

    def test_vanishing_kernel_covers_nothing(self):
        problem = generate_phantom(PhantomSpec(kernel_width=0.05))
        assert problem.ddc.nnz == 0
        assert "100 voxels" in problem.warnings[0]

    def test_2d_depth_falloff(self):
        spec = PhantomSpec(grid=(12, 8), n_beamlets=4, kernel_width=2.0,
                           ptv_region=(3, 9, 2, 6), seed=3)
        problem = generate_phantom(spec)
        assert problem.ddc.n_voxels == 96
        dense = problem.ddc.to_dense()
        # beamlet 0 is centered on lateral row 1; dose decays exponentially
        # along the depth axis
        surface = dense[1 * 8 + 0, 0]
        deep = dense[1 * 8 + 7, 0]
        assert surface > 0 and deep > 0
        assert surface / deep == pytest.approx(math.exp(0.05 * 7), rel=1e-12)

    @pytest.mark.parametrize("spec", [PhantomSpec(), PhantomSpec(grid=(12, 8), n_beamlets=4, kernel_width=2.0,
                                                                 ptv_region=(3, 9, 2, 6), seed=3)])
    def test_matrix_matches_a_per_entry_loop(self, spec):
        amps = np.random.default_rng(spec.seed).uniform(0.9, 1.1, spec.n_beamlets)
        nx, ny = (*spec.grid, 1)[:2]
        expect = np.zeros((spec.n_voxels, spec.n_beamlets))
        for j in range(spec.n_beamlets):
            center = (j + 0.5) * nx / spec.n_beamlets - 0.5
            for a in range(nx):
                for b in range(ny):
                    depth = math.exp(-0.05 * b) if len(spec.grid) == 2 else 1.0
                    v = amps[j] * math.exp(-((a - center) ** 2) / (2.0 * spec.kernel_width**2)) * depth
                    expect[a * ny + b, j] = v if v >= TRUNCATION_THRESHOLD else 0.0
        np.testing.assert_allclose(generate_phantom(spec).ddc.to_dense(), expect, rtol=1e-13, atol=0.0)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), n=st.integers(1, 60), n_beamlets=st.integers(1, 12),
           kernel_width=st.floats(0.05, 8.0), seed=st.integers(0, 2**32 - 1))
    def test_line_is_the_depth_one_slab(self, data, n, n_beamlets, kernel_width, seed):
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        line = generate_phantom(PhantomSpec(grid=(n,), n_beamlets=n_beamlets, kernel_width=kernel_width,
                                            ptv_region=(lo, hi), seed=seed))
        slab = generate_phantom(PhantomSpec(grid=(n, 1), n_beamlets=n_beamlets, kernel_width=kernel_width,
                                            ptv_region=(lo, hi, 0, 1), seed=seed))
        for a, b in zip(line.ddc.triplets(), slab.ddc.triplets()):
            assert np.array_equal(a, b)
        assert np.array_equal(line.prescription, slab.prescription)
        assert np.array_equal(line.labels, slab.labels) and line.warnings == slab.warnings

    def test_2d_labels_match_region(self):
        spec = PhantomSpec(grid=(6, 5), n_beamlets=3, kernel_width=1.5,
                           ptv_region=(1, 4, 2, 4))
        problem = generate_phantom(spec)
        tags = problem.labels
        for ix in range(6):
            for iy in range(5):
                expect = "PTV" if (1 <= ix < 4 and 2 <= iy < 4) else "OAR"
                assert tags[ix * 5 + iy] == expect

    def test_default_instance_is_solvable(self, default_phantom):
        report = fmo_solve(default_phantom)
        assert report.converged
        assert report.reference_gap <= 1e-10
