"""Shared fixtures: two small treatment-style function pairs, a quadratic
pointwise operator, the indicator-function example, and one phantom problem
that several modules reuse.
"""

import os
from pathlib import Path

import numpy as np
import pytest

from fixfunc import (
    DiscreteFunction,
    Domain,
    DomainPoint,
    LinearPsi,
    PhantomSpec,
    PolynomialMap,
    WindowAlpha,
    generate_phantom,
)

# pytest's ``pythonpath`` setting puts src/ on this process's path only; the
# tests that run ``python -m fixfunc.cli`` in a child process need it too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture
def patient1():
    """Two dose profiles on the two-point domain {1, 1/2}.

    f1(u) = 2u, f2(u) = u/3.
    """
    dom = Domain(
        (
            DomainPoint("s1", 1.0),
            DomainPoint("s2", 0.5),
        )
    )
    f1 = DiscreteFunction.from_callable(dom, lambda u: 2.0 * u)
    f2 = DiscreteFunction.from_callable(dom, lambda u: u / 3.0)
    return dom, f1, f2


@pytest.fixture
def patient2():
    """Two dose profiles on the two-point domain {1, 2}.

    f1(u) = u, f2(u) = 2u/3.
    """
    dom = Domain(
        (
            DomainPoint("s1", 1.0),
            DomainPoint("s2", 2.0),
        )
    )
    f1 = DiscreteFunction.from_callable(dom, lambda u: u)
    f2 = DiscreteFunction.from_callable(dom, lambda u: 2.0 * u / 3.0)
    return dom, f1, f2


@pytest.fixture
def quad_op():
    """Pointwise y^2 - 2y + 2; fixed points of y |-> y^2 - 2y + 2 are 1 and 2."""
    return PolynomialMap((2.0, -2.0, 1.0))


@pytest.fixture
def halving_op():
    """Pointwise y/2 + 1 with unique fixed point 2."""
    return PolynomialMap((1.0, 0.5))


@pytest.fixture
def indicator_pair():
    """Grid on [0, 2] with indicator-of-{0} style start and zero target.

    The window alpha activates only when both arguments are in [0, 1],
    and psi is t/2.
    """
    dom = Domain.uniform_grid(0.0, 2.0, 201, weights="trapezoid")
    coords = dom.coordinates
    f_vals = np.where(coords <= 1.0, 1.0 - coords, 0.0)
    f = DiscreteFunction(dom, f_vals)
    g = DiscreteFunction.constant(dom, 0.0)
    alpha = WindowAlpha(arg="first", lower=0.0, upper=1.0)
    psi = LinearPsi(0.5)
    return dom, f, g, alpha, psi


@pytest.fixture(scope="session")
def default_phantom():
    """Default 100-voxel, 10-beamlet phantom used across fmo tests."""
    return generate_phantom(PhantomSpec())


@pytest.fixture
def tiny_phantom():
    """Small phantom for quick solves."""
    return generate_phantom(PhantomSpec(grid=(30,), n_beamlets=5, ptv_region=(10, 20)))
