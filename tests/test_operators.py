"""Operator, alpha, psi, and condition-checker tests."""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fixfunc import (
    AffineMap,
    CompositeMap,
    DiscreteFunction,
    Domain,
    LinearPsi,
    MetricKind,
    NamedMap,
    PolynomialMap,
    TableAlpha,
    TablePsi,
    WindowAlpha,
    apply,
    check_alpha_admissible,
    check_alpha_psi_contractive,
    check_psi_family,
    check_reich_condition,
    cross_sup_distance,
    estimate_contraction_constant,
)
from fixfunc import cli


def read_config(field, obj):
    """``obj`` read as the config field ``field`` by the command line's reader."""
    return cli._read(cli._FIELDS[field], obj, f"/{field}")


@pytest.fixture
def grid():
    return Domain.from_coordinates(np.linspace(-2.0, 2.0, 21))


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------


class TestApply:
    def test_polynomial_pointwise(self, grid, quad_op):
        f = DiscreteFunction.from_callable(grid, lambda u: u)
        out = apply(quad_op, f)
        # Horner form, same association order the evaluator uses.
        expect = (grid.coordinates - 2.0) * grid.coordinates + 2.0
        assert np.array_equal(out.values, expect)

    def test_polynomial_matches_worked_pair(self, patient1, quad_op):
        # Tf1 takes values {2, 1} and Tf2 takes {13/9, 109/36} on {1, 1/2}.
        _, f1, f2 = patient1
        tf1 = apply(quad_op, f1)
        tf2 = apply(quad_op, f2)
        assert tf1.values[0] == 2.0 and tf1.values[1] == 1.0
        assert tf2.values[0] == pytest.approx(13.0 / 9.0, abs=1e-15)
        assert tf2.values[1] == pytest.approx(61.0 / 36.0, abs=1e-15)

    def test_affine(self, grid):
        op = AffineMap(scale=0.5, shift=1.0)
        f = DiscreteFunction.from_callable(grid, lambda u: u)
        out = apply(op, f)
        assert np.array_equal(out.values, 0.5 * grid.coordinates + 1.0)

    def test_named_maps(self, grid):
        f = DiscreteFunction.from_callable(grid, lambda u: u)
        assert np.array_equal(apply(NamedMap("identity"), f).values, f.values)
        assert np.array_equal(apply(NamedMap("square"), f).values, f.values**2)
        assert np.array_equal(apply(NamedMap("abs"), f).values, np.abs(f.values))

    def test_named_map_unknown(self):
        with pytest.raises(ValueError, match="unknown"):
            NamedMap("cosh")

    def test_composite_order(self, grid):
        # square then scale: (u^2) * 0.5, not (0.5 u)^2
        op = CompositeMap((NamedMap("square"), AffineMap(scale=0.5, shift=0.0)))
        f = DiscreteFunction.from_callable(grid, lambda u: u)
        assert np.array_equal(apply(op, f).values, 0.5 * grid.coordinates**2)

    def test_nonfinite_output_rejected(self, grid):
        op = PolynomialMap((0.0, 1e200, 0.0, 1e200))
        f = DiscreteFunction.constant(grid, 1e200)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
            apply(op, f)

    def test_pointwise_commutes_with_value_shuffle(self, grid, quad_op):
        # pointwise operators act on values independently of position
        rng = np.random.default_rng(3)
        vals = rng.uniform(-2.0, 2.0, len(grid.points))
        f = DiscreteFunction(grid, vals)
        perm = rng.permutation(len(vals))
        fp = DiscreteFunction(grid, vals[perm])
        assert np.array_equal(apply(quad_op, fp).values, apply(quad_op, f).values[perm])

    def test_json_round_trip(self, quad_op):
        square = {"kind": "pointwise", "name": "square"}
        for obj, op in (
            ({"kind": "pointwise", "poly": [2, -2.0, 1.0]}, quad_op),
            ({"kind": "affine", "scale": 2.0, "shift": -1}, AffineMap(scale=2.0, shift=-1.0)),
            ({"kind": "pointwise", "name": "abs"}, NamedMap("abs")),
            ({"kind": "composite", "ops": [square, {"kind": "affine", "scale": 0.25, "shift": 0.0}]},
             CompositeMap((NamedMap("square"), AffineMap(scale=0.25, shift=0.0)))),
        ):
            assert read_config("operator", obj) == op


# ---------------------------------------------------------------------------
# contraction estimation and the three-term condition
# ---------------------------------------------------------------------------


class TestContractionEstimate:
    def test_affine_exact_ratio(self, grid):
        op = AffineMap(scale=0.5, shift=3.0)
        rng = np.random.default_rng(8)
        pairs = []
        for _ in range(20):
            f = DiscreteFunction(grid, rng.uniform(-4.0, 4.0, len(grid.points)))
            g = DiscreteFunction(grid, rng.uniform(-4.0, 4.0, len(grid.points)))
            pairs.append((f, g))
        rep = estimate_contraction_constant(op, MetricKind.UNIFORM, pairs)
        assert rep.satisfied
        assert rep.estimated_constant == pytest.approx(0.5, abs=1e-12)

    def test_worked_pair_ratio(self, patient1, quad_op):
        # d(Tf1, Tf2) = 25/36 and d(f1, f2) = 11/6, so the ratio is 25/66.
        _, f1, f2 = patient1
        rep = estimate_contraction_constant(quad_op, MetricKind.CROSS_SUP, [(f1, f2)])
        assert rep.estimated_constant == pytest.approx(25.0 / 66.0, abs=1e-15)
        assert rep.satisfied

    def test_expanding_map_flagged(self, grid):
        op = AffineMap(scale=3.0, shift=0.0)
        f = DiscreteFunction.constant(grid, 0.0)
        g = DiscreteFunction.constant(grid, 1.0)
        rep = estimate_contraction_constant(op, MetricKind.UNIFORM, [(f, g)])
        assert not rep.satisfied
        assert rep.witness is not None

    def test_degenerate_pairs_rejected(self, grid, quad_op):
        f = DiscreteFunction.constant(grid, 1.0)
        with pytest.raises(ValueError, match="degenerate"):
            estimate_contraction_constant(quad_op, MetricKind.UNIFORM, [(f, f)])

    def test_skips_degenerate_keeps_rest(self, grid):
        op = AffineMap(scale=0.25, shift=0.0)
        f = DiscreteFunction.constant(grid, 1.0)
        g = DiscreteFunction.constant(grid, 3.0)
        rep = estimate_contraction_constant(op, MetricKind.UNIFORM, [(f, f), (f, g)])
        assert rep.details["skipped_degenerate"] == 1
        assert rep.details["pair_count"] == 2
        assert rep.estimated_constant == pytest.approx(0.25)


class TestReichCondition:
    def test_worked_pair_one(self, patient1, quad_op):
        # With a = b = c = 2/9: rhs = (2/9) * (11/6 + 1 + 25/18) = 76/81,
        # comfortably above lhs = 25/36.
        _, f1, f2 = patient1
        rep = check_reich_condition(
            quad_op, MetricKind.CROSS_SUP, 2.0 / 9.0, 2.0 / 9.0, 2.0 / 9.0, [(f1, f2)]
        )
        assert rep.satisfied
        row = rep.details["pairs"][0]
        assert row["lhs"] == pytest.approx(25.0 / 36.0, abs=1e-12)

    def test_coefficients_validated(self, patient1, quad_op):
        _, f1, f2 = patient1
        with pytest.raises(ValueError, match="a \\+ b \\+ c < 1"):
            check_reich_condition(
                quad_op, MetricKind.CROSS_SUP, 0.5, 0.4, 0.2, [(f1, f2)]
            )
        with pytest.raises(ValueError, match="nonnegative"):
            check_reich_condition(
                quad_op, MetricKind.CROSS_SUP, -0.1, 0.2, 0.2, [(f1, f2)]
            )

    def test_violation_reports_witness(self, patient1):
        # A steep affine map breaks the condition for small coefficients.
        _, f1, f2 = patient1
        op = AffineMap(scale=5.0, shift=0.0)
        rep = check_reich_condition(
            op, MetricKind.UNIFORM, 0.1, 0.1, 0.1, [(f1, f2)]
        )
        assert not rep.satisfied
        assert rep.witness is not None


# ---------------------------------------------------------------------------
# alpha functions
# ---------------------------------------------------------------------------


class TestAlpha:
    def test_window_first_argument(self):
        a = WindowAlpha(arg="first", lower=0.0, upper=1.0)
        assert a.evaluate(0.5, 99.0) == 1.0
        assert a.evaluate(1.5, 0.5) == 0.0
        assert a.evaluate(0.0, 0.0) == 1.0 and a.evaluate(1.0, 0.0) == 1.0

    def test_window_open_bounds(self):
        a = WindowAlpha(arg="second", lower=0.0, upper=1.0, open_lower=True)
        assert a.evaluate(0.0, 0.0) == 0.0
        assert a.evaluate(0.0, 1e-9) == 1.0

    def test_window_constant(self):
        a = WindowAlpha.constant(1.0)
        assert a.evaluate(-1e6, 1e6) == 1.0

    def test_table_alpha(self):
        a = TableAlpha(((1.0, 2.0, 1.5),), default=0.25)
        assert a.evaluate(1.0, 2.0) == 1.5
        assert a.evaluate(2.0, 1.0) == 0.25

    def test_pair_matrix_shape(self):
        a = WindowAlpha(arg="first", lower=0.0, upper=1.0)
        m = a.pair_matrix(np.array([0.5, 2.0]), np.array([0.0, 0.5, 1.0]))
        assert m.shape == (2, 3)
        assert np.array_equal(m[0], [1.0, 1.0, 1.0])
        assert np.array_equal(m[1], [0.0, 0.0, 0.0])

    def test_json_round_trip(self):
        window = {"kind": "window", "arg": "second", "lower": -1, "upper": 1.0, "open_upper": True, "outside": 0.5}
        for obj, a in (
            (window, WindowAlpha(arg="second", lower=-1.0, upper=1.0, open_upper=True, outside=0.5)),
            ({"kind": "table", "entries": [[0, 0.0, 2.0]]}, TableAlpha(((0.0, 0.0, 2.0),), default=0.0)),
            ({"kind": "table", "entries": [], "default": 1}, TableAlpha((), default=1.0)),
        ):
            assert read_config("alpha", obj) == a

    def test_json_window_flags_are_booleans_and_defaults_are_the_class_defaults(self):
        for flag in ("open_lower", "open_upper"):
            with pytest.raises(cli.ConfigError, match=f"^/alpha/{flag}: "):
                read_config("alpha", {"kind": "window", flag: "false"})
        assert read_config("alpha", {"kind": "window"}) == WindowAlpha()


# values chosen so that window bounds, table keys and both signs of zero coincide
_VALUES = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
_WEIGHTS = st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0])
_ARRAYS = st.lists(_VALUES, min_size=1, max_size=6).map(np.array)


def assert_reductions_match_matrix(alpha, xs, ys):
    """pair_min/pair_max give the value and first row-major index of argmin/argmax."""
    m = alpha.pair_matrix(xs, ys)
    for reduce, arg in ((alpha.pair_min, np.argmin), (alpha.pair_max, np.argmax)):
        i, j = np.unravel_index(int(arg(m)), m.shape)
        w, ri, rj = reduce(xs, ys)
        assert (ri, rj) == (i, j)
        assert w == m[i, j] and math.copysign(1.0, w) == math.copysign(1.0, m[i, j])


class TestPairReductions:
    @settings(max_examples=200, deadline=None)
    @given(
        arg=st.sampled_from(["first", "second"]),
        bounds=st.lists(st.sampled_from([-math.inf, -1.0, 0.0, 0.5, 1.0, math.inf]), min_size=2, max_size=2),
        open_lower=st.booleans(),
        open_upper=st.booleans(),
        inside=_WEIGHTS,
        outside=_WEIGHTS,
        xs=_ARRAYS,
        ys=_ARRAYS,
    )
    def test_window_matches_matrix(self, arg, bounds, open_lower, open_upper, inside, outside, xs, ys):
        lower, upper = sorted(bounds)
        alpha = WindowAlpha(arg, lower, upper, open_lower, open_upper, inside, outside)
        assert_reductions_match_matrix(alpha, xs, ys)

    @settings(max_examples=300, deadline=None)
    @given(
        entries=st.lists(st.tuples(_VALUES, _VALUES, _WEIGHTS), max_size=8),
        default=_WEIGHTS,
        xs=_ARRAYS,
        ys=_ARRAYS,
    )
    # a fully covered first row: its default cell is in the next row
    @example([(0.5, 1.0, 2.0), (0.5, 2.0, 0.0)], 1.0, np.array([0.5, 1.0]), np.array([1.0, 2.0, 1.0]))
    # every cell matched, length-1 inputs: no default cell at all
    @example([(0.5, 1.0, 3.0)], 0.0, np.array([0.5]), np.array([1.0]))
    # -0.0 and 0.0 match each other, and the tied weights keep the first cell
    @example([(-0.0, 0.0, 0.5), (1.0, 1.0, 0.5)], 0.5, np.array([1.0, 0.0]), np.array([1.0, -0.0]))
    # a repeated pair: the last entry wins
    @example([(0.5, 0.5, 3.0), (0.5, 0.5, 0.0)], 1.0, np.array([0.5]), np.array([0.5, 1.0]))
    def test_table_matches_matrix(self, entries, default, xs, ys):
        assert_reductions_match_matrix(TableAlpha(tuple(entries), default), xs, ys)

    def test_table_lookup(self):
        a = TableAlpha(((0.5, 0.5, 3.0), (0.5, 0.5, 0.25)), default=1.0)
        assert a.evaluate(0.5, 0.5) == 0.25
        assert a == TableAlpha(((0.5, 0.5, 3.0), (0.5, 0.5, 0.25)), default=1.0)
        assert hash(a) == hash(TableAlpha(((0.5, 0.5, 3.0), (0.5, 0.5, 0.25)), default=1.0))
        assert a != TableAlpha(((0.5, 0.5, 0.25),), default=1.0)

    @pytest.mark.parametrize(
        "make, field",
        [
            (lambda: WindowAlpha(inside=math.nan), "inside"),
            (lambda: WindowAlpha(inside=math.nan, outside=math.nan), "inside"),
            (lambda: WindowAlpha(outside=math.inf), "outside"),
            (lambda: WindowAlpha(lower=math.nan), "lower"),
            (lambda: WindowAlpha(upper=math.nan), "upper"),
            (lambda: TableAlpha(((0.0, 0.0, 1.0), (1.0, 1.0, math.nan))), "entry 1"),
            (lambda: TableAlpha((), default=math.nan), "default"),
            (lambda: TableAlpha((), default=math.inf), "default"),
        ],
    )
    def test_nonfinite_weights_rejected(self, make, field):
        with pytest.raises(ValueError, match=field):
            make()

    def test_infinite_window_bounds_allowed(self):
        a = WindowAlpha(lower=-math.inf, upper=math.inf, open_lower=True, open_upper=True)
        assert a.pair_min(np.array([-1e300, 1e300]), np.array([0.0])) == (1.0, 0, 0)


class TestAlphaAdmissible:
    def test_window_on_indicator(self, indicator_pair):
        _, f, g, alpha, _ = indicator_pair
        rep = check_alpha_admissible(NamedMap("identity"), alpha, [(f, g)])
        assert rep.satisfied

    def test_inadmissible_witness(self):
        dom = Domain.from_coordinates([0.0, 1.0])
        f = DiscreteFunction(dom, [0.5, 0.5])
        g = DiscreteFunction(dom, [0.5, 0.5])
        # alpha holds on (f, g) values but fails after the shift pushes
        # values out of the window
        op = AffineMap(scale=1.0, shift=5.0)
        alpha = WindowAlpha(arg="first", lower=0.0, upper=1.0)
        rep = check_alpha_admissible(op, alpha, [(f, g)])
        assert not rep.satisfied
        assert rep.witness is not None


# ---------------------------------------------------------------------------
# psi families
# ---------------------------------------------------------------------------


class TestPsi:
    def test_linear_orbit(self):
        psi = LinearPsi(0.5)
        orbit = psi.orbit(8.0, 4)
        assert orbit == [8.0, 4.0, 2.0, 1.0, 0.5]

    def test_linear_rejects_ratio_one(self):
        with pytest.raises(ValueError):
            LinearPsi(1.0)

    def test_table_interpolation(self):
        psi = TablePsi(((0.0, 0.0), (1.0, 0.25), (2.0, 0.5)))
        assert psi.evaluate(0.5) == 0.125
        assert psi.evaluate(10.0) == 0.5  # clamped at the last knot

    def test_table_requires_zero_anchor(self):
        with pytest.raises(ValueError, match="0"):
            TablePsi(((0.5, 0.1), (1.0, 0.2)))

    def test_half_family_accepted(self):
        rep = check_psi_family(LinearPsi(0.5), [0.1, 1.0, 10.0])
        assert rep.satisfied
        assert rep.details["monotone_ok"]
        assert rep.details["tail_ok"]
        assert rep.details["strict_decrease_ok"]
        assert rep.details["zero_limit_ok"]
        # the iterate series at t = 1 sums to 1 - 2^-60, which rounds to
        # exactly 1.0 in double precision
        row = next(r for r in rep.details["samples"] if r["t"] == 1.0)
        assert row["partial_sum"] == 1.0

    def test_identity_family_rejected(self):
        ident = TablePsi(((0.0, 0.0), (10.0, 10.0)))
        rep = check_psi_family(ident, [0.5, 1.0, 2.0])
        assert not rep.satisfied
        assert not rep.details["tail_ok"]
        assert not rep.details["strict_decrease_ok"]

    def test_validation(self):
        with pytest.raises(ValueError, match="n_max"):
            check_psi_family(LinearPsi(0.5), [1.0], n_max=3)
        with pytest.raises(ValueError, match="positive"):
            check_psi_family(LinearPsi(0.5), [0.0, 1.0])

    def test_json_round_trip(self):
        for obj, psi in (
            ({"kind": "linear", "c": 0.75}, LinearPsi(0.75)),
            ({"kind": "table", "knots": [[0, 0], [1.0, 0.5], [4, 1]]}, TablePsi(((0.0, 0.0), (1.0, 0.5), (4.0, 1.0)))),
        ):
            assert read_config("psi", obj) == psi


class TestAlphaPsiContractive:
    def test_indicator_example(self, indicator_pair):
        # alpha vanishes whenever the first argument leaves [0, 1], and the
        # images under identity keep f's values in [0, 1], so the weighted
        # left side is d(f, g) itself; with d = 1 and psi(1) ... the pair
        # (f, g) needs the window on the operator output. Identity keeps
        # values in range, alpha = 1, lhs = d(Tf, Tg) = 1, psi(d(f,g)=1+..)
        # stays below. Use the scaled map so the inequality is strict.
        _, f, g, alpha, psi = indicator_pair
        op = AffineMap(scale=0.25, shift=0.0)
        rep = check_alpha_psi_contractive(op, alpha, psi, MetricKind.UNIFORM, [(f, g)])
        assert rep.satisfied

    def test_violation_detected(self, indicator_pair):
        _, f, g, alpha, _ = indicator_pair
        psi = LinearPsi(0.1)
        op = AffineMap(scale=0.9, shift=0.0)
        rep = check_alpha_psi_contractive(op, alpha, psi, MetricKind.UNIFORM, [(f, g)])
        assert not rep.satisfied
        assert rep.witness is not None

    def test_zero_alpha_trivially_holds(self, indicator_pair):
        _, f, g, _, psi = indicator_pair
        alpha = WindowAlpha.constant(0.0)
        op = AffineMap(scale=50.0, shift=0.0)
        rep = check_alpha_psi_contractive(op, alpha, psi, MetricKind.UNIFORM, [(f, g)])
        assert rep.satisfied
        assert rep.details["pairs"][0]["lhs"] == 0.0


class TestConditionReportShape:
    def test_witness_required_when_unsatisfied(self):
        from fixfunc import ConditionReport

        with pytest.raises(ValueError, match="witness"):
            ConditionReport(check="x", satisfied=False, witness=None)

    def test_json(self, tmp_path, patient1, quad_op):
        _, f1, f2 = patient1
        rep = estimate_contraction_constant(quad_op, MetricKind.CROSS_SUP, [(f1, f2)])
        obj = json.loads(cli._write_json(tmp_path, "report.json", rep).read_text())
        assert obj["check"] == "contraction_estimate"
        assert obj["satisfied"] is True
