"""Iteration engine tests.

Constant starting functions make pointwise iterations equivalent to scalar
orbits, so a plain Python loop over floats serves as the oracle for traces
and final values. Both should agree bit for bit because the vectorized path
performs the same arithmetic per point.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import strict_json
from fixfunc import (
    DIVERGENCE_LIMIT,
    AffineMap,
    AlphaPsiMode,
    BanachMode,
    DiscreteFunction,
    Domain,
    IterationConfig,
    LinearPsi,
    MetricKind,
    NamedMap,
    ReichMode,
    TableAlpha,
    WindowAlpha,
    alpha_psi_iterate,
    apriori_bound,
    apply,
    check_hypothesis_H,
    iterate,
    picard_iterate,
    verify_fixed_function,
)
from fixfunc import cli


def scalar_orbit(update, y0, n):
    ys = [float(y0)]
    for _ in range(n):
        ys.append(float(update(ys[-1])))
    return ys


@pytest.fixture
def unit_grid():
    return Domain.uniform_grid(0.0, 1.0, 11)


# ---------------------------------------------------------------------------
# a-priori bound helper
# ---------------------------------------------------------------------------


class TestAprioriBound:
    def test_values(self):
        assert apriori_bound(0.5, 1.0, 0) == 2.0
        assert apriori_bound(0.5, 1.0, 3) == 0.25
        assert apriori_bound(2.0 / 3.0, 3.0, 1) == pytest.approx(6.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError, match=r"^contraction constant must lie in \[0, 1\), got 1\.0$"):
            apriori_bound(1.0, 1.0, 0)
        with pytest.raises(ValueError, match=r"^contraction constant must lie in \[0, 1\), got -0\.1$"):
            apriori_bound(-0.1, 1.0, 0)
        with pytest.raises(ValueError, match=r"^first-step distance must be finite and nonnegative, got -1\.0$"):
            apriori_bound(0.5, -1.0, 0)
        with pytest.raises(ValueError, match="^step index must be nonnegative, got -1$"):
            apriori_bound(0.5, 1.0, -1)


# ---------------------------------------------------------------------------
# plain iteration
# ---------------------------------------------------------------------------


class TestPicard:
    def test_quadratic_matches_scalar_orbit(self, unit_grid, quad_op):
        f0 = DiscreteFunction.constant(unit_grid, 1.5)
        cfg = IterationConfig(tol=1e-10, max_iters=100)
        rep = picard_iterate(quad_op, f0, cfg)
        assert rep.converged and not rep.diverged

        orbit = scalar_orbit(lambda y: y * y - 2.0 * y + 2.0, 1.5, rep.iterations)
        diffs = [abs(orbit[i + 1] - orbit[i]) for i in range(len(orbit) - 1)]
        assert list(rep.trace) == diffs
        assert float(rep.final.values[0]) == orbit[-1]
        # the orbit lands on the fixed point exactly once the squared error
        # underflows past double precision
        assert rep.final.values[0] == 1.0

    def test_residual_zero_at_fixed_function(self, unit_grid, quad_op):
        ones = DiscreteFunction.constant(unit_grid, 1.0)
        check = verify_fixed_function(quad_op, ones)
        assert check.is_fixed
        assert check.residual == 0.0
        assert bool(check)

    def test_residual_nonzero_off_fixed_function(self, unit_grid, quad_op):
        f = DiscreteFunction.constant(unit_grid, 1.5)
        check = verify_fixed_function(quad_op, f)
        assert not check.is_fixed
        assert check.residual == 0.25  # |T(1.5) - 1.5| = |1.25 - 1.5|

    def test_negative_tol_rejected(self, unit_grid, quad_op):
        ones = DiscreteFunction.constant(unit_grid, 1.0)
        with pytest.raises(ValueError, match=r"^tol must be finite and nonnegative, got -1\.0$"):
            verify_fixed_function(quad_op, ones, tol=-1.0)

    def test_identity_converges_immediately(self, unit_grid):
        f0 = DiscreteFunction.from_callable(unit_grid, lambda u: u)
        rep = picard_iterate(NamedMap("identity"), f0, IterationConfig())
        assert rep.converged
        assert rep.iterations == 1
        assert rep.trace == (0.0,)

    def test_affine_rate_estimates(self, unit_grid):
        # Pure scaling toward the zero function: successive steps are exact
        # scalar multiples, so the measured ratios stay on the contraction
        # factor to machine precision.  An offset map would lose digits to
        # cancellation near its nonzero fixed point.
        op = AffineMap(scale=2.0 / 3.0, shift=0.0)
        f0 = DiscreteFunction.from_callable(unit_grid, lambda u: u)
        cfg = IterationConfig(tol=1e-9, max_iters=200, lambda_hint=2.0 / 3.0)
        rep = picard_iterate(op, f0, cfg)
        assert rep.converged
        for r in rep.rate_estimates:
            assert r == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_apriori_bounds_recorded(self, unit_grid):
        op = AffineMap(scale=0.5, shift=1.0)
        f0 = DiscreteFunction.constant(unit_grid, 0.0)
        cfg = IterationConfig(tol=1e-8, lambda_hint=0.5)
        rep = picard_iterate(op, f0, cfg)
        d01 = rep.trace[0]
        assert rep.apriori_bounds[0] == apriori_bound(0.5, d01, 0)
        assert rep.apriori_bounds[3] == apriori_bound(0.5, d01, 3)
        assert len(rep.apriori_bounds) == rep.iterations + 1

    def test_divergence_guard(self, unit_grid, quad_op):
        f0 = DiscreteFunction.constant(unit_grid, 3.0)
        rep = picard_iterate(quad_op, f0, IterationConfig(max_iters=1000))
        assert rep.diverged
        assert not rep.converged
        assert rep.iterations < 1000
        assert any("aborted" in n for n in rep.notes)

    def test_step_past_the_limit_is_the_last(self, unit_grid):
        # y -> -y from 9e11 keeps every value within DIVERGENCE_LIMIT, but
        # its first step is 1.8e12 long; that step is accepted and ends the run
        f0 = DiscreteFunction.constant(unit_grid, 9e11)
        rep = picard_iterate(AffineMap(scale=-1.0, shift=0.0), f0, IterationConfig(max_iters=1000))
        assert 9e11 < DIVERGENCE_LIMIT < 1.8e12
        assert rep.diverged and not rep.converged
        assert rep.iterations == 1 and rep.trace == (1.8e12,)
        assert np.all(rep.final.values == -9e11)
        assert any("aborted" in n for n in rep.notes)

    def test_max_iters_exhaustion(self, unit_grid):
        op = AffineMap(scale=0.999, shift=1.0)
        f0 = DiscreteFunction.constant(unit_grid, 0.0)
        rep = picard_iterate(op, f0, IterationConfig(tol=1e-14, max_iters=5))
        assert not rep.converged and not rep.diverged
        assert rep.iterations == 5

    def test_mode_mismatch_rejected(self, unit_grid, quad_op):
        f0 = DiscreteFunction.constant(unit_grid, 1.5)
        cfg = IterationConfig(mode=ReichMode(0.2, 0.2, 0.2))
        with pytest.raises(ValueError):
            picard_iterate(quad_op, f0, cfg)

    def test_dispatcher_routes(self, unit_grid, quad_op):
        f0 = DiscreteFunction.constant(unit_grid, 1.5)
        rep = iterate(quad_op, f0, IterationConfig(mode=BanachMode()))
        assert rep.converged

    def test_determinism(self, unit_grid, quad_op):
        f0 = DiscreteFunction.constant(unit_grid, 1.25)
        a = picard_iterate(quad_op, f0, IterationConfig())
        b = picard_iterate(quad_op, f0, IterationConfig())
        assert a.trace == b.trace
        assert np.array_equal(a.final.values, b.final.values)

    def test_trace_metric_configurable(self, patient1, quad_op):
        # convergence is always declared on the uniform step even when the
        # recorded trace uses the cross-sup dissimilarity
        _, f1, _ = patient1
        cfg = IterationConfig(metric=MetricKind.CROSS_SUP, tol=1e-12, max_iters=50)
        rep = picard_iterate(quad_op, f1, cfg)
        assert rep.converged
        # cross-sup of the last step is at least the uniform step, and the
        # final function is the two-valued fixed profile
        assert set(np.round(rep.final.values, 12)) <= {1.0, 2.0}

    def test_report_json(self, tmp_path, unit_grid, quad_op):
        f0 = DiscreteFunction.constant(unit_grid, 1.5)
        rep = picard_iterate(quad_op, f0, IterationConfig(lambda_hint=0.5))
        obj = strict_json(cli._write_json(tmp_path, "report.json", rep).read_text())
        assert obj["converged"] is True
        assert len(obj["trace"]) == obj["iterations"]


# ---------------------------------------------------------------------------
# three-term mode
# ---------------------------------------------------------------------------


class TestReich:
    def test_mode_validation(self):
        with pytest.raises(ValueError):
            ReichMode(0.5, 0.4, 0.2)
        with pytest.raises(ValueError):
            ReichMode(-0.1, 0.0, 0.0)
        assert ReichMode(0.2, 0.2, 0.5).effective_ratio == pytest.approx(0.875)

    def test_halving_run(self, unit_grid, halving_op):
        f0 = DiscreteFunction.constant(unit_grid, 0.0)
        cfg = IterationConfig(mode=ReichMode(0.2, 0.2, 0.5), tol=1e-10, max_iters=200)
        rep = iterate(halving_op, f0, cfg)
        assert rep.converged
        assert rep.final.values[0] == pytest.approx(2.0, abs=1e-9)
        assert rep.effective_ratio == pytest.approx(0.875)
        # step ratio is exactly 1/2, well under every tested combination
        assert rep.reich_condition_held is True

    def test_condition_fails_for_slow_map(self, unit_grid):
        # contraction factor 0.9 exceeds what a = b = c = 0.05 permits
        op = AffineMap(scale=0.9, shift=1.0)
        f0 = DiscreteFunction.constant(unit_grid, 0.0)
        cfg = IterationConfig(
            mode=ReichMode(0.05, 0.05, 0.05), tol=1e-6, max_iters=500
        )
        rep = iterate(op, f0, cfg)
        assert rep.converged  # the map still contracts
        assert rep.reich_condition_held is False


# ---------------------------------------------------------------------------
# gated mode
# ---------------------------------------------------------------------------


class TestAlphaPsi:
    def test_gate_violation_raises_with_point_labels(self, unit_grid):
        f0 = DiscreteFunction.constant(unit_grid, 5.0)
        mode = AlphaPsiMode(
            alpha=WindowAlpha(arg="first", lower=0.0, upper=1.0),
            psi=LinearPsi(0.5),
        )
        with pytest.raises(ValueError, match="u0000"):
            alpha_psi_iterate(NamedMap("identity"), f0, IterationConfig(mode=mode))

    def test_geometric_decay_tracks_psi_orbit(self, unit_grid):
        op = AffineMap(scale=0.5, shift=0.0)
        f0 = DiscreteFunction.constant(unit_grid, 1.0)
        mode = AlphaPsiMode(alpha=WindowAlpha(inside=1.0, outside=1.0), psi=LinearPsi(0.5))
        cfg = IterationConfig(mode=mode, tol=1e-12, max_iters=100)
        rep = alpha_psi_iterate(op, f0, cfg)
        assert rep.converged
        assert rep.alpha_chain_held is True
        assert rep.psi_bound_ok is True
        # the step sizes are exactly the psi orbit of the first step
        assert len(rep.psi_bounds) >= rep.iterations
        for step, bound in zip(rep.trace, rep.psi_bounds):
            assert step <= bound + 1e-9

    def test_chain_break_noted(self, unit_grid):
        # iterates leave the window after one step, breaking the chain
        op = AffineMap(scale=1.0, shift=0.6)
        f0 = DiscreteFunction.constant(unit_grid, 0.2)
        mode = AlphaPsiMode(
            alpha=WindowAlpha(arg="first", lower=0.0, upper=1.0),
            psi=LinearPsi(0.9),
        )
        cfg = IterationConfig(mode=mode, tol=1e-10, max_iters=5)
        rep = alpha_psi_iterate(op, f0, cfg)
        assert rep.alpha_chain_held is False
        assert rep.psi_bound_ok is None
        assert any("chain" in n for n in rep.notes)


class TestTraceRounding:
    """The Reich and psi trace verdicts allow for rounding by the checkers' rule.

    The allowance is a few ulps of the iterates' size, so equalities hold and
    violations show at every scale, and a power-of-two rescaling of a run
    changes no verdict.
    """

    @pytest.mark.parametrize(
        "s, c, tol, held",
        [(1e9, 0.3, 1e-6, True), (1e-12, 0.29, 1e-25, False), (1.0, 0.3, 1e-12, True), (1.0, 0.29, 1e-12, False)],
        ids=["equality-at-1e9", "violation-at-1e-12", "equality-at-1", "violation-at-1"],
    )
    def test_reich_verdict_does_not_depend_on_the_units(self, s, c, tol, held):
        # y -> 0.3y + 0.7s shrinks every step by exactly 0.3, so c = 0.3 holds
        # with equality and c = 0.29 fails on every step pair
        dom = Domain.uniform_grid(0.0, 1.0, 50)
        f0 = DiscreteFunction(dom, s * dom.coordinates)
        rep = iterate(AffineMap(0.3, 0.7 * s), f0, IterationConfig(mode=ReichMode(0.0, 0.0, c), tol=tol))
        assert rep.converged
        assert rep.reich_condition_held is held

    @settings(max_examples=80, deadline=None)
    @given(
        values=st.lists(st.integers(-10**9, 10**9).map(lambda i: i / 1e9), min_size=50, max_size=50),
        slope=st.floats(0.05, 0.9),
        shift=st.floats(-1.0, 1.0),
        metric=st.sampled_from(list(MetricKind)),
        reich=st.booleans(),
        ratio=st.sampled_from([1.0, 0.97]),
        # DIVERGENCE_LIMIT is absolute, so the scale stays well below it
        k=st.integers(-40, 20),
    )
    def test_verdicts_do_not_change_under_power_of_two_scaling(self, values, slope, shift, metric, reich, ratio, k):
        dom = Domain.uniform_grid(0.0, 1.0, 50, weights="trapezoid")
        c = slope * ratio
        mode = ReichMode(0.0, 0.0, c) if reich else AlphaPsiMode(WindowAlpha(inside=1.0, outside=1.0), LinearPsi(c))

        def outcome(s):
            f0 = DiscreteFunction(dom, s * np.array(values))
            rep = iterate(AffineMap(slope, s * shift), f0, IterationConfig(mode=mode, metric=metric, tol=s * 1e-9))
            return rep.iterations, rep.reich_condition_held, rep.psi_bound_ok

        assert outcome(2.0**k) == outcome(1.0)

    @pytest.mark.parametrize(
        "mode, held, psi_ok",
        [
            (ReichMode(0.0, 0.0, 0.5), True, None),
            (AlphaPsiMode(WindowAlpha(inside=1.0, outside=1.0), LinearPsi(0.5)), None, None),
        ],
        ids=["reich", "alpha-psi"],
    )
    def test_first_step_divergence_without_weights_is_reported(self, mode, held, psi_ok):
        # the first image passes DIVERGENCE_LIMIT before any grid_l1 distance
        # is taken, so the missing weights never matter
        dom = Domain.uniform_grid(0.0, 1.0, 11)
        f0 = DiscreteFunction.constant(dom, 0.0)
        cfg = IterationConfig(mode=mode, metric=MetricKind.GRID_L1)
        rep = iterate(AffineMap(0.5, 10.0 * DIVERGENCE_LIMIT), f0, cfg)
        assert rep.diverged and rep.iterations == 1 and rep.trace == ()
        assert (rep.reich_condition_held, rep.psi_bound_ok) == (held, psi_ok)


class TestHypothesisH:
    def test_constant_pool_satisfies(self, unit_grid):
        alpha = WindowAlpha(arg="second", lower=0.0, upper=float("inf"), open_lower=True)
        ones = DiscreteFunction.constant(unit_grid, 1.0)
        twos = DiscreteFunction.constant(unit_grid, 2.0)
        rep = check_hypothesis_H(alpha, [ones, twos], [ones])
        assert rep.satisfied

    def test_unsatisfiable_alpha(self, unit_grid):
        alpha = WindowAlpha(inside=0.0, outside=0.0)
        ones = DiscreteFunction.constant(unit_grid, 1.0)
        rep = check_hypothesis_H(alpha, [ones], [ones])
        assert not rep.satisfied
        assert rep.witness is not None

    def test_empty_inputs_rejected(self, unit_grid):
        ones = DiscreteFunction.constant(unit_grid, 1.0)
        with pytest.raises(ValueError):
            check_hypothesis_H(WindowAlpha(inside=1.0, outside=1.0), [], [ones])
        with pytest.raises(ValueError):
            check_hypothesis_H(WindowAlpha(inside=1.0, outside=1.0), [ones], [])


class TestConfigValidation:
    def test_tol_positive(self):
        with pytest.raises(ValueError):
            IterationConfig(tol=0.0)

    def test_max_iters(self):
        with pytest.raises(ValueError):
            IterationConfig(max_iters=0)

    def test_lambda_hint_range(self):
        with pytest.raises(ValueError):
            IterationConfig(lambda_hint=1.0)
        IterationConfig(lambda_hint=0.0)  # zero is a legal degenerate hint


# ---------------------------------------------------------------------------
# the shared loop
# ---------------------------------------------------------------------------


class TestSharedLoop:
    @settings(max_examples=60, deadline=None)
    @given(
        scale=st.floats(-0.9, 0.9),
        shift=st.floats(-10.0, 10.0),
        start=st.floats(-10.0, 10.0),
        mode=st.sampled_from(
            [
                BanachMode(),
                ReichMode(0.2, 0.2, 0.5),
                AlphaPsiMode(alpha=WindowAlpha(inside=1.0, outside=1.0), psi=LinearPsi(0.5)),
            ]
        ),
    )
    def test_every_mode_traces_the_scalar_orbit(self, scale, shift, start, mode):
        dom = Domain.uniform_grid(0.0, 1.0, 5)
        f0 = DiscreteFunction.constant(dom, start)
        cfg = IterationConfig(mode=mode, tol=1e-12, max_iters=1000)
        rep = iterate(AffineMap(scale, shift), f0, cfg)
        orbit = scalar_orbit(lambda y: scale * y + shift, start, rep.iterations)
        assert list(rep.trace) == [abs(b - a) for a, b in zip(orbit, orbit[1:])]
        assert np.all(rep.final.values == orbit[-1])

    @pytest.mark.parametrize(
        "mode, metric",
        [
            (BanachMode(), MetricKind.UNIFORM),
            (BanachMode(), MetricKind.GRID_L1),
            (ReichMode(0.3, 0.3, 0.3), MetricKind.UNIFORM),
        ],
    )
    def test_memory_does_not_grow_with_steps(self, mode, metric):
        n = 20_000
        dom = Domain.uniform_grid(0.0, 1.0, n, weights="trapezoid")
        f0 = DiscreteFunction.from_callable(dom, lambda u: u)
        cfg = IterationConfig(mode=mode, metric=metric, tol=1e-15, max_iters=50)
        tracemalloc.start()
        try:
            rep = iterate(AffineMap(0.9, 0.1), f0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.iterations == 50 and not rep.converged
        # a few n-point arrays at a time, where keeping every iterate takes 50
        assert peak < 10 * 8 * n

    @pytest.mark.parametrize(
        "alpha",
        [WindowAlpha(arg="first", lower=0.0, upper=4.0), TableAlpha(((1.0, 0.5, 2.0),), default=1.0)],
        ids=["window", "table"],
    )
    def test_alpha_psi_memory_is_linear(self, alpha):
        # the start gate and the chain check reduce over all n^2 point pairs
        # without holding them: at n = 5,000 a weight matrix alone is 5,000 x 8n
        n = 5_000
        dom = Domain.uniform_grid(0.0, 1.0, n)
        f0 = DiscreteFunction(dom, dom.coordinates)
        cfg = IterationConfig(mode=AlphaPsiMode(alpha, LinearPsi(0.5)), tol=1e-9, max_iters=100)
        tracemalloc.start()
        try:
            rep = iterate(AffineMap(0.5, 0.0), f0, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged and rep.alpha_chain_held and rep.psi_bound_ok
        assert peak < 10 * 8 * n
