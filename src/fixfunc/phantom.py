"""Synthetic planning phantoms with Gaussian pencil-beam kernels.

Beamlets are spread evenly across the first grid axis.  Each deposits a
Gaussian lateral profile (seeded amplitude jitter makes instances distinct
but reproducible) times an exponential falloff along the second, depth axis.
A 1D grid (n,) is the slab (n, 1): its one depth row has gain exp(0) = 1, so
it gets the bare profile.  Kernel values below the truncation threshold are
dropped, which is what makes the dose matrix sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fmo import FmoProblem, SparseDoseMatrix

__all__ = ["TRUNCATION_THRESHOLD", "PhantomSpec", "generate_phantom"]

TRUNCATION_THRESHOLD = 1e-6

# attenuation per depth voxel
_DEPTH_MU = 0.05


@dataclass(frozen=True)
class PhantomSpec:
    """Geometry and prescription of a synthetic instance.

    ``grid`` is (n,) for a 1D voxel line or (nx, ny) for a 2D slab; the line
    is generated as the slab (n, 1).  ``ptv_region`` uses half-open index
    ranges: (lo, hi) in 1D, (x0, x1, y0, y1) in 2D.  Defaults describe the
    standard small case used across the test suite.
    """

    grid: tuple[int, ...] = (100,)
    n_beamlets: int = 10
    kernel_width: float = 3.0
    ptv_region: tuple[int, ...] = (40, 60)
    prescription_ptv: float = 60.0
    cap_oar: float = 20.0
    seed: int = 7

    def __post_init__(self):
        grid = tuple(int(g) for g in self.grid)
        if len(grid) not in (1, 2) or any(g < 1 for g in grid):
            raise ValueError(f"grid must be (n,) or (nx, ny) with positive sizes, got {self.grid!r}")
        object.__setattr__(self, "grid", grid)
        if self.n_beamlets < 1:
            raise ValueError(f"need at least one beamlet, got {self.n_beamlets}")
        if not (math.isfinite(self.kernel_width) and self.kernel_width > 0):
            raise ValueError(f"kernel width must be positive, got {self.kernel_width!r}")
        region = tuple(int(r) for r in self.ptv_region)
        if len(region) != 2 * len(grid):
            raise ValueError(
                f"ptv_region must have {2 * len(grid)} indices for a {len(grid)}D grid, got {self.ptv_region!r}"
            )
        for axis in range(len(grid)):
            lo, hi = region[2 * axis], region[2 * axis + 1]
            if not (0 <= lo < hi <= grid[axis]):
                raise ValueError(
                    f"ptv_region axis {axis} must satisfy 0 <= lo < hi <= {grid[axis]}, got ({lo}, {hi})"
                )
        object.__setattr__(self, "ptv_region", region)
        if not (math.isfinite(self.cap_oar) and self.cap_oar >= 0):
            raise ValueError(f"healthy-tissue cap must be nonnegative, got {self.cap_oar!r}")
        if not (math.isfinite(self.prescription_ptv) and self.prescription_ptv > self.cap_oar):
            raise ValueError(
                f"target prescription must exceed the healthy cap, got {self.prescription_ptv!r} <= {self.cap_oar!r}"
            )

    @property
    def n_voxels(self) -> int:
        return math.prod(self.grid)


def generate_phantom(spec: PhantomSpec) -> FmoProblem:
    """Build the dose matrix, prescription and labels for a spec.

    The spec's ``seed`` is the only seed: the same spec always produces
    bit-identical output, and the only random draw is a per-beamlet
    amplitude jitter in [0.9, 1.1].  Another seed is another spec
    (``dataclasses.replace(spec, seed=...)``).
    """
    rng = np.random.default_rng(spec.seed)
    amps = rng.uniform(0.9, 1.1, spec.n_beamlets)

    # inf past a width of about 9.5e153; kernel_width**2 would raise OverflowError past 1.3e154
    width_sq = 2.0 * spec.kernel_width * spec.kernel_width
    # a 1D grid (n,) is the slab (n, 1) and its region (lo, hi) is (lo, hi, 0, 1)
    nx, ny = (*spec.grid, 1)[:2]
    x0, x1, y0, y1 = (*spec.ptv_region, 0, 1)[:4]
    depth_gain = np.exp(-_DEPTH_MU * np.arange(ny, dtype=float))
    centers = (np.arange(spec.n_beamlets) + 0.5) * nx / spec.n_beamlets - 0.5
    # lat[ix, j]: beamlet j's lateral profile at ix.  A quotient past the float
    # range is inf and its profile 0; at a beamlet's own centre the quotient
    # is 0 whatever the width, so 0 / 0 is never computed
    offset_sq = (np.arange(nx, dtype=float)[:, None] - centers) ** 2
    with np.errstate(divide="ignore", over="ignore"):
        lat = amps * np.exp(-np.divide(offset_sq, width_sq, out=np.zeros_like(offset_sq), where=offset_sq > 0))
    # the kernel is separable, so the block of voxels ix * ny ... ix * ny + ny - 1
    # lists its entries row by row, each row's beamlets rising: CSR order, no sort.
    # Every depth gain is at most 1 and the first is 1, so the beamlets whose
    # profile reaches the threshold at ix are the only ones that can be kept.
    counts, indices, values = [], [], []
    for ix in range(nx):
        reach = np.flatnonzero(lat[ix] >= TRUNCATION_THRESHOLD)
        block = depth_gain[:, None] * lat[ix, reach]
        kept = block >= TRUNCATION_THRESHOLD
        counts.append(np.count_nonzero(kept, axis=1))
        indices.append(reach[np.nonzero(kept)[1]].astype(np.int32))
        values.append(block[kept])
    indptr = np.concatenate(([0], np.cumsum(np.concatenate(counts))))
    # one at a time, so that each list is freed before the next is joined
    indices = np.concatenate(indices)
    values = np.concatenate(values)
    ddc = SparseDoseMatrix(spec.n_voxels, spec.n_beamlets, indptr, indices, values)

    mask = np.zeros((nx, ny), dtype=bool)
    mask[x0:x1, y0:y1] = True
    mask = mask.reshape(-1)
    target = np.where(mask, spec.prescription_ptv, spec.cap_oar)
    return FmoProblem(ddc=ddc, prescription=target, labels=np.where(mask, "PTV", "OAR"), tau=0.0)
