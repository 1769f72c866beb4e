"""Operator, alpha, psi, and condition-checker tests."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npoly

from conftest import strict_json
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
    check_metric_axioms,
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

    @settings(max_examples=300, deadline=None)
    @given(
        coeffs=st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=6),
        values=st.lists(st.floats() | st.sampled_from([math.inf, -math.inf, -0.0, 1e300]), min_size=1, max_size=8),
    )
    def test_polynomial_is_numpy_polynomial_polyval_bit_for_bit(self, coeffs, values):
        # NaN, both infinities, -0.0 and overflow included: the same bytes, sign bit too
        x = np.array(values)
        with np.errstate(all="ignore"):
            got = PolynomialMap(tuple(coeffs)).map_values(x)
            expect = npoly.polyval(x, coeffs)
        assert got.dtype == expect.dtype and got.tobytes() == expect.tobytes()

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

    def test_map_parameters_checked(self):
        with pytest.raises(ValueError, match="^polynomial map needs at least one coefficient$"):
            PolynomialMap(())
        with pytest.raises(ValueError, match="^polynomial coefficients must be finite$"):
            PolynomialMap((1.0, math.nan))
        with pytest.raises(ValueError, match="^affine map parameters must be finite$"):
            AffineMap(math.nan, 0.0)
        with pytest.raises(ValueError, match="^composite map needs at least one part$"):
            CompositeMap(())

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
        vals = rng.uniform(-2.0, 2.0, len(grid))
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
            f = DiscreteFunction(grid, rng.uniform(-4.0, 4.0, len(grid)))
            g = DiscreteFunction(grid, rng.uniform(-4.0, 4.0, len(grid)))
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

    @pytest.mark.parametrize(
        "check, message",
        [
            pytest.param(lambda op: estimate_contraction_constant(op, MetricKind.UNIFORM, []),
                         "contraction estimate", id="contraction"),
            pytest.param(lambda op: check_reich_condition(op, MetricKind.UNIFORM, 0.1, 0.1, 0.1, []),
                         "condition check", id="reich"),
            pytest.param(lambda op: check_alpha_admissible(op, WindowAlpha(), []), "admissibility check", id="admissible"),
            pytest.param(lambda op: check_alpha_psi_contractive(op, WindowAlpha(), LinearPsi(0.5), MetricKind.UNIFORM, []),
                         "contractivity check", id="alpha-psi"),
        ],
    )
    def test_no_pairs_rejected(self, quad_op, check, message):
        with pytest.raises(ValueError, match=f"^{message} needs at least one function pair$"):
            check(quad_op)

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


def weight(alpha, x, y):
    """The weight of the one pair (x, y)."""
    return alpha.pair_min(np.array([x]), np.array([y]))[0]


def pair_matrix(alpha, xs, ys):
    """Brute-force oracle: the weight of every ordered pair (xs[i], ys[j]).

    Built from the public fields alone, so it shares no code with the
    reductions it checks.
    """
    if isinstance(alpha, WindowAlpha):
        def w(x, y):
            v = x if alpha.arg == "first" else y
            above = v > alpha.lower if alpha.open_lower else v >= alpha.lower
            below = v < alpha.upper if alpha.open_upper else v <= alpha.upper
            return alpha.inside if above and below else alpha.outside
    else:
        table = {(x, y): v for x, y, v in alpha.entries}  # the last entry of a pair wins

        def w(x, y):
            return table.get((x, y), alpha.default)
    xs, ys = np.asarray(xs, dtype=float).tolist(), np.asarray(ys, dtype=float).tolist()
    return np.array([[w(x, y) for y in ys] for x in xs], dtype=float).reshape(len(xs), len(ys))


class TestAlpha:
    def test_window_first_argument(self):
        a = WindowAlpha(arg="first", lower=0.0, upper=1.0)
        assert weight(a, 0.5, 99.0) == 1.0
        assert weight(a, 1.5, 0.5) == 0.0
        assert weight(a, 0.0, 0.0) == 1.0 and weight(a, 1.0, 0.0) == 1.0

    def test_window_open_bounds(self):
        a = WindowAlpha(arg="second", lower=0.0, upper=1.0, open_lower=True)
        assert weight(a, 0.0, 0.0) == 0.0
        assert weight(a, 0.0, 1e-9) == 1.0

    def test_window_constant(self):
        a = WindowAlpha(inside=1.0, outside=1.0)
        assert weight(a, -1e6, 1e6) == 1.0

    def test_window_rejects_reversed_bounds(self):
        with pytest.raises(ValueError, match="^window needs lower <= upper$"):
            WindowAlpha(lower=2.0, upper=1.0)

    def test_table_alpha(self):
        a = TableAlpha(((1.0, 2.0, 1.5),), default=0.25)
        assert weight(a, 1.0, 2.0) == 1.5
        assert weight(a, 2.0, 1.0) == 0.25

    def test_pair_matrix_shape(self):
        a = WindowAlpha(arg="first", lower=0.0, upper=1.0)
        m = pair_matrix(a, np.array([0.5, 2.0]), np.array([0.0, 0.5, 1.0]))
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
    m = pair_matrix(alpha, xs, ys)
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
        assert weight(a, 0.5, 0.5) == 0.25
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

    @pytest.mark.parametrize(
        "starts, activated",
        [
            pytest.param([2.0], 0, id="below-one"),
            pytest.param([2.0, 0.25], 1, id="below-one-then-active"),
        ],
    )
    def test_pairs_below_one_are_not_activated(self, starts, activated):
        # alpha is 0 at 2 and stays 0 after the shift, so the pair at 2 does
        # not activate the implication and is no witness; 0.25 moves to 0.75,
        # inside the window
        dom = Domain.from_coordinates([0.0, 1.0])
        pairs = [(DiscreteFunction(dom, [v, v]), DiscreteFunction(dom, [v, v])) for v in starts]
        alpha = WindowAlpha(arg="first", lower=0.0, upper=1.0)
        rep = check_alpha_admissible(AffineMap(scale=1.0, shift=0.5), alpha, pairs)
        assert rep.satisfied and rep.witness is None
        assert rep.details["activated_pairs"] == activated


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

    @pytest.mark.parametrize(
        "knots, message",
        [
            pytest.param(((0.0, 0.0),), "table psi needs at least two knots", id="one-knot"),
            pytest.param(((0.0, 0.0), (1.0, math.nan)), "table psi knots must be finite", id="nan"),
            pytest.param(((0.0, 0.0), (0.0, 1.0)), "table psi knot locations must be strictly increasing", id="repeated-t"),
            pytest.param(((0.0, -1.0), (1.0, 0.0)), "table psi values must be nonnegative", id="negative"),
            pytest.param(((0.0, 1.0), (1.0, 0.5)), "table psi values must be nondecreasing", id="falling"),
        ],
    )
    def test_table_refusals(self, knots, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            TablePsi(knots)

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

    def test_partial_sum_past_the_floats_is_inf(self):
        # finite terms from 9e307 down whose sum passes the float range: inf,
        # which the JSON writer writes as null, and the slow tail still fails the family
        rep = check_psi_family(LinearPsi(0.9), [1e308])
        assert not rep.satisfied and not rep.details["tail_ok"]
        assert rep.details["samples"][0]["partial_sum"] == math.inf

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

    @pytest.mark.parametrize("tail_tol", [0.0, -1e-12, math.nan, math.inf])
    def test_tail_tol_must_be_finite_and_positive(self, tail_tol):
        # a tolerance of 0 or below fails every contractive map's tail and zero-limit gates
        with pytest.raises(ValueError, match=r"^tail_tol must be finite and positive, got "):
            check_psi_family(LinearPsi(0.5), [0.1, 1.0], tail_tol=tail_tol)

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
        alpha = WindowAlpha(inside=0.0, outside=0.0)
        op = AffineMap(scale=50.0, shift=0.0)
        rep = check_alpha_psi_contractive(op, alpha, psi, MetricKind.UNIFORM, [(f, g)])
        assert rep.satisfied
        assert rep.details["pairs"][0]["lhs"] == 0.0


# ---------------------------------------------------------------------------
# rounding in the sampled inequalities
# ---------------------------------------------------------------------------


def reich_failures(op, metric, a, b, c, pairs):
    return sum(not row["ok"] for row in check_reich_condition(op, metric, a, b, c, pairs).details["pairs"])


class TestRoundingRule:
    """Each inequality holds up to a few ulps of the magnitudes it compares.

    Equalities must hold at every scale, violations of 1e-9 relative size
    must show at every scale, and a verdict must not change when every value
    is scaled by a power of two.
    """

    DOMAIN = Domain.uniform_grid(0.0, 1.0, 50, weights="trapezoid")

    def random_pairs(self, seed, n, scale, offset=0.0):
        rng = np.random.default_rng(seed)
        size = len(self.DOMAIN)
        return [
            (DiscreteFunction(self.DOMAIN, offset + rng.uniform(-scale, scale, size)),
             DiscreteFunction(self.DOMAIN, offset + rng.uniform(-scale, scale, size)))
            for _ in range(n)
        ]

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("scale", [1.0, 1e6, 1e9])
    def test_reich_equality_holds(self, metric, scale):
        # d(Tf, Tg) = 0.3 d(f, g) exactly for y -> 0.3y + 0.1s
        pairs = self.random_pairs(1, 200, scale)
        assert reich_failures(AffineMap(0.3, 0.1 * scale), metric, 0.0, 0.0, 0.3, pairs) == 0

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_reich_equality_holds_on_near_equal_pairs(self, metric):
        # the distances are about 1e-3, the rounding is of the values, about 1e6
        rng = np.random.default_rng(2)
        pairs = []
        for _ in range(150):
            f = 1e6 + rng.uniform(0.0, 1.0, len(self.DOMAIN))
            g = f + rng.uniform(-1e-3, 1e-3, f.size)
            pairs.append((DiscreteFunction(self.DOMAIN, f), DiscreteFunction(self.DOMAIN, g)))
        assert reich_failures(AffineMap(0.3, 0.1), metric, 0.0, 0.0, 0.3, pairs) == 0

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("scale", [1.0, 1e6])
    def test_alpha_psi_equality_holds(self, metric, scale):
        pairs = self.random_pairs(3, 200, scale)
        rep = check_alpha_psi_contractive(
            AffineMap(0.3, 0.0), WindowAlpha(inside=1.0, outside=1.0), LinearPsi(0.3), metric, pairs
        )
        assert rep.satisfied

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("offset", [0.0, 1e6])
    def test_triangle_equality_holds(self, metric, offset):
        # g on the segment from f to h: d(f, h) = d(f, g) + d(g, h) for the sup and L1 distances
        rng = np.random.default_rng(4)
        for f, h in self.random_pairs(5, 150, 1.0, offset):
            g = DiscreteFunction(self.DOMAIN, f.values + rng.uniform() * (h.values - f.values))
            assert check_metric_axioms(metric, [f, g, h]).triangle_ok

    @pytest.mark.parametrize("metric", list(MetricKind))
    def test_small_violations_show_at_every_scale(self, metric):
        for k in range(-30, 31, 6):
            pairs = self.random_pairs(k + 100, 40, 2.0**k)
            # the map contracts by 0.3, a relative 1e-9 more than c allows
            assert reich_failures(AffineMap(0.3, 0.0), metric, 0.0, 0.0, 0.3 * (1.0 - 1e-9), pairs) == 40
            rep = check_alpha_psi_contractive(
                AffineMap(0.3, 0.0), WindowAlpha(inside=1.0, outside=1.0), LinearPsi(0.3 * (1.0 - 1e-9)), metric, pairs
            )
            assert not any(row["ok"] for row in rep.details["pairs"])

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(st.integers(-10**9, 10**9).map(lambda i: i / 1e9), min_size=100, max_size=100),
        metric=st.sampled_from(list(MetricKind)),
        slope=st.floats(0.05, 0.9),
        shift=st.floats(-1.0, 1.0),
        ratio=st.sampled_from([1.0, 1.0 - 1e-9, 1.0 + 1e-9, 1.0 - 1e-15, 1.0 + 1e-15]),
        weight=st.sampled_from([1.0, 0.5, 2.0]),
        image_coefficients=st.sampled_from([0.0, 0.01]),
        k=st.integers(-40, 40),
    )
    def test_verdicts_do_not_change_under_power_of_two_scaling(
        self, values, metric, slope, shift, ratio, weight, image_coefficients, k
    ):
        a, b = np.array(values[:50]), np.array(values[50:])
        c = slope * ratio
        alpha = WindowAlpha(inside=weight, outside=weight)

        def verdicts(s):
            f, g = DiscreteFunction(self.DOMAIN, s * a), DiscreteFunction(self.DOMAIN, s * b)
            op = AffineMap(slope, s * shift)
            return (
                check_reich_condition(op, metric, image_coefficients, image_coefficients, c, [(f, g)]).satisfied,
                check_alpha_psi_contractive(op, alpha, LinearPsi(c), metric, [(f, g)]).satisfied,
                check_metric_axioms(metric, [f, g, apply(op, f)]).triangle_ok,
            )

        assert verdicts(2.0**k) == verdicts(1.0)


class TestDistancesPastTheFloatRange:
    """A pair whose distance passes the float range fails, and the witness names that distance."""

    DOMAIN = Domain.from_coordinates(np.array([0.0, 1.0]))

    def pair(self, a):
        """f = (a, -a) and g = -f, 2a apart in the uniform metric."""
        f = DiscreteFunction(self.DOMAIN, np.array([a, -a]))
        return f, DiscreteFunction(self.DOMAIN, -f.values)

    def test_contraction_ratio_of_an_infinite_distance_fails(self):
        # d(f, g) = 2e308 would give 1e308 / inf = 0.0; the finite pair first still gives its ratio
        rep = estimate_contraction_constant(AffineMap(0.5, 0.0), MetricKind.UNIFORM, [self.pair(1.0), self.pair(1e308)])
        assert not rep.satisfied and rep.estimated_constant == 0.5
        assert rep.witness == {"pair_index": 1, "past_float_range": ["d_fg"]}
        # only the images' distance, 1.92e308, passes it: not a ratio of inf that happens to fail
        rep = estimate_contraction_constant(AffineMap(1.2, 0.0), MetricKind.UNIFORM, [self.pair(8e307)])
        assert rep.estimated_constant is None and rep.witness == {"pair_index": 0, "past_float_range": ["d_images"]}

    def test_reich_with_infinite_sides_fails(self):
        # lhs = rhs = inf read ok at equality before
        rep = check_reich_condition(AffineMap(1.0, 0.0), MetricKind.UNIFORM, 0.0, 0.0, 0.1, [self.pair(1e308)])
        assert not rep.satisfied and not rep.details["pairs"][0]["ok"]
        assert rep.witness == {"pair_index": 0, "past_float_range": ["lhs", "d_fg"]}

    def test_alpha_psi_with_infinite_distances_fails(self):
        rep = check_alpha_psi_contractive(
            AffineMap(1.0, 0.0), WindowAlpha(), LinearPsi(0.5), MetricKind.UNIFORM, [self.pair(1.0), self.pair(1e308)]
        )
        assert not rep.satisfied and [row["ok"] for row in rep.details["pairs"]] == [False, False]
        # the first pair fails on its own merit, 2 > psi(2) = 1
        assert rep.witness["pair_index"] == 0 and "past_float_range" not in rep.witness
        rep = check_alpha_psi_contractive(
            AffineMap(1.0, 0.0), WindowAlpha(), LinearPsi(0.5), MetricKind.UNIFORM, [self.pair(1e308)]
        )
        assert rep.witness == {"pair_index": 0, "past_float_range": ["d_fg", "image_distance", "lhs"]}
        # finite distances whose weighted side alpha * d(Tf, Tg) = 1e300 * 5e29 passes the range, as
        # its rounding allowance does: inf <= inf read ok before
        f = DiscreteFunction(self.DOMAIN, np.array([1e30, 0.0]))
        rep = check_alpha_psi_contractive(
            AffineMap(0.5, 0.0), WindowAlpha(inside=1e300), LinearPsi(0.5), MetricKind.UNIFORM,
            [(f, DiscreteFunction(self.DOMAIN, np.zeros(2)))],
        )
        assert rep.witness == {"pair_index": 0, "past_float_range": ["lhs"]}


class TestConditionReportShape:
    def test_witness_required_when_unsatisfied(self):
        from fixfunc import ConditionReport

        with pytest.raises(ValueError, match="witness"):
            ConditionReport(check="x", satisfied=False, witness=None)

    def test_json(self, tmp_path, patient1, quad_op):
        _, f1, f2 = patient1
        rep = estimate_contraction_constant(quad_op, MetricKind.CROSS_SUP, [(f1, f2)])
        obj = strict_json(cli._write_json(tmp_path, "report.json", rep).read_text())
        assert obj["check"] == "contraction_estimate"
        assert obj["satisfied"] is True
