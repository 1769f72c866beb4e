"""Package-wide rules: the public names are exactly what the modules declare, and integer fields hold integers."""

import re
import types

import numpy as np
import pytest

import fixfunc
from fixfunc import (
    InnerParams,
    IterationConfig,
    OuterParams,
    PhantomSpec,
    SparseDoseMatrix,
    fmo,
    function_space,
    iteration,
    operators,
    phantom,
)


def test_package_exports_every_declared_name():
    declared = {name for mod in (function_space, operators, iteration, fmo, phantom) for name in mod.__all__}
    public = {
        name for name, value in vars(fixfunc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == declared


@pytest.mark.parametrize(
    "build, message",
    [
        pytest.param(lambda: SparseDoseMatrix(3.0, 2, [0, 0, 0, 0], [], []), "n_voxels must be an integer, got 3.0", id="n_voxels"),
        pytest.param(
            lambda: SparseDoseMatrix(np.float64(3.0), 2, [0, 0, 0, 0], [], []),
            "n_voxels must be an integer, got np.float64(3.0)",
            id="n_voxels-numpy-float",
        ),
        pytest.param(lambda: SparseDoseMatrix(3, 2.5, [0, 0, 0, 0], [], []), "n_beamlets must be an integer, got 2.5", id="n_beamlets"),
        pytest.param(
            lambda: SparseDoseMatrix.from_triplets(2.5, 2, [0], [0], [1.0]),
            "n_voxels must be an integer, got 2.5",
            id="from_triplets-n_voxels",
        ),
        pytest.param(lambda: IterationConfig(max_iters=3.0), "max_iters must be an integer, got 3.0", id="max_iters"),
        pytest.param(lambda: InnerParams(max_iters=2.5), "inner max_iters must be an integer, got 2.5", id="inner-max_iters"),
        pytest.param(lambda: OuterParams(max_iters=3.0), "outer max_iters must be an integer, got 3.0", id="outer-max_iters"),
        pytest.param(lambda: PhantomSpec(n_beamlets=2.5), "n_beamlets must be an integer, got 2.5", id="phantom-n_beamlets"),
        pytest.param(lambda: PhantomSpec(grid=(10.7,), ptv_region=(2.9, 5.2)), "grid[0] must be an integer, got 10.7", id="grid"),
        pytest.param(lambda: PhantomSpec(grid=(10,), ptv_region=(2, 5.0)), "ptv_region[1] must be an integer, got 5.0", id="ptv_region"),
    ],
)
def test_integer_fields_refuse_a_float_when_built(build, message):
    # each was accepted and failed later, in a slice, a range or a silent int()
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_integer_fields_take_numpy_integers_as_given():
    n = np.int64(3)
    assert SparseDoseMatrix(n, np.int32(2), [0, 0, 0, 0], [], []).n_voxels is n
    assert IterationConfig(max_iters=n).max_iters is n and OuterParams(max_iters=n).max_iters is n
    spec = PhantomSpec(grid=(np.int64(10),), n_beamlets=n, ptv_region=(np.int32(2), 5))
    assert spec.n_beamlets is n and spec.grid == (10,) and spec.ptv_region == (2, 5)
