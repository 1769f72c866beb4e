"""Domain, function, and dissimilarity tests.

The cross-sup dissimilarity has a brute-force oracle (enumerate every ordered
pair of sample points); the closed form used by the library must agree with it
exactly, not just approximately, because both reduce to the same max/min
comparisons in floating point.
"""

import json
import math
import re
import tracemalloc

import numpy as np
import pytest

from fixfunc import (
    DiscreteFunction,
    Domain,
    DomainPoint,
    MetricKind,
    check_metric_axioms,
    cross_sup_distance,
    distance,
    grid_l1_distance,
    uniform_distance,
)
from fixfunc import cli
from fixfunc.function_space import array_distance


def read_f0(obj):
    """``obj`` read as the config field ``f0`` by the command line's reader."""
    return cli._read(cli._FIELDS["f0"], obj, "/f0")


def brute_force_cross_sup(f, g):
    """Oracle: enumerate all ordered point pairs."""
    return max(abs(float(a) - float(b)) for a in f.values for b in g.values)


def random_function(dom, rng, lo=-5.0, hi=5.0):
    return DiscreteFunction(dom, rng.uniform(lo, hi, len(dom)))


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


class TestDomain:
    def test_rejects_duplicate_labels(self):
        pts = (DomainPoint("a", 0.0), DomainPoint("a", 1.0))
        with pytest.raises(ValueError, match="unique"):
            Domain(pts)

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Domain(())

    def test_rejects_bad_weight_count(self):
        pts = (DomainPoint("a", 0.0), DomainPoint("b", 1.0))
        with pytest.raises(ValueError):
            Domain(pts, weights=(1.0,))

    def test_rejects_nonpositive_weight(self):
        pts = (DomainPoint("a", 0.0), DomainPoint("b", 1.0))
        with pytest.raises(ValueError):
            Domain(pts, weights=(1.0, 0.0))

    def test_point_rejects_nonfinite_coordinate(self):
        with pytest.raises(ValueError):
            DomainPoint("a", float("nan"))

    @pytest.mark.parametrize(
        "build, message",
        [
            pytest.param(lambda: DomainPoint("", 0.0), "domain point label must be a non-empty string", id="empty-label"),
            pytest.param(lambda: Domain.from_coordinates([[0.0, 1.0]]),
                         "domain coordinates must be one-dimensional, got shape (1, 2)", id="2d-coordinates"),
            pytest.param(lambda: Domain.uniform_grid(0.0, 1.0, 3, weights="simpson"),
                         "unknown weight rule 'simpson', expected None or 'trapezoid'", id="simpson-weights"),
        ],
    )
    def test_malformed_input_is_refused_with_its_message(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    def test_from_coordinates_labels(self):
        dom = Domain.from_coordinates([0.0, 0.5, 1.0])
        assert dom.labels == ("u0000", "u0001", "u0002")

    def test_uniform_grid_spacing(self):
        dom = Domain.uniform_grid(0.0, 1.0, 5)
        assert np.allclose(dom.coordinates, [0.0, 0.25, 0.5, 0.75, 1.0])
        assert dom.weights is None
        with pytest.raises(ValueError, match="weights"):
            dom.weight_array()

    def test_uniform_grid_trapezoid_weights(self):
        dom = Domain.uniform_grid(0.0, 1.0, 5, weights="trapezoid")
        w = dom.weight_array()
        h = 0.25
        assert w[0] == pytest.approx(h / 2.0)
        assert w[2] == pytest.approx(h)
        # trapezoid weights integrate constants exactly
        assert math.fsum(w) == pytest.approx(1.0)

    def test_uniform_grid_needs_two_points(self):
        with pytest.raises(ValueError):
            Domain.uniform_grid(0.0, 1.0, 1)

    @pytest.mark.parametrize("start, stop", [(-1e308, 1e308), (-math.inf, 0.0), (0.0, math.nan)])
    def test_uniform_grid_refuses_a_span_past_the_floats(self, start, stop):
        # refused before linspace, whose step would overflow with a warning and give NaN coordinates
        with pytest.raises(ValueError, match=r"^grid span stop - start must be finite, got "):
            Domain.uniform_grid(start, stop, 3)

    def test_uniform_grid_takes_the_widest_finite_span(self):
        dom = Domain.uniform_grid(-8e307, 8e307, 3)
        assert dom.coordinates.tolist() == [-8e307, 0.0, 8e307]

    @pytest.mark.parametrize("weights", [None, "trapezoid"])
    def test_uniform_grid_memory_is_a_few_arrays(self, weights):
        n = 10**5
        tracemalloc.start()
        try:
            dom = Domain.uniform_grid(0.0, 1.0, n, weights=weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(dom) == n and dom.label(n - 1) == "u99999"
        # coordinates and weights as arrays, no per-point objects
        assert peak < 10 * 8 * n

    def test_equality(self):
        grid = Domain.uniform_grid(0.0, 1.0, 3)
        assert grid == Domain.uniform_grid(0.0, 1.0, 3)
        assert hash(grid) == hash(Domain.uniform_grid(0.0, 1.0, 3))
        explicit = Domain(tuple(DomainPoint(f"u{i:04d}", c) for i, c in enumerate([0.0, 0.5, 1.0])))
        assert grid == explicit and explicit == grid
        assert hash(grid) == hash(explicit)
        assert grid != Domain.uniform_grid(0.0, 1.0, 3, weights="trapezoid")
        assert grid != Domain(tuple(DomainPoint(f"v{i:04d}", c) for i, c in enumerate([0.0, 0.5, 1.0])))
        assert grid != Domain.from_coordinates([0.0, 0.5, 0.75])
        assert grid != Domain.uniform_grid(0.0, 1.0, 4)
        relabeled = Domain(tuple(DomainPoint(l, c) for l, c in zip("abc", [0.0, 0.5, 1.0])))
        assert grid != relabeled
        # a domain leaves the comparison with anything else to the other side
        assert grid.__eq__([0.0, 0.5, 1.0]) is NotImplemented and grid != [0.0, 0.5, 1.0]

    def test_separately_parsed_grids_share_a_domain(self):
        # two functions parsed from the same grid recipe get distinct but
        # equal domains, so distances between them are defined
        f = read_f0(DiscreteFunction.constant(Domain.uniform_grid(0.0, 2.0, 5, weights="trapezoid"), 1.0).to_json_dict())
        g = DiscreteFunction.constant(Domain.uniform_grid(0.0, 2.0, 5, weights="trapezoid"), 0.0)
        assert f.domain is not g.domain and f.domain == g.domain
        assert f.domain.grid == g.domain.grid == {"start": 0.0, "stop": 2.0, "n": 5, "weights": "trapezoid"}
        assert grid_l1_distance(f, g) == 2.0

    def test_label_and_points_on_demand(self):
        dom = Domain.from_coordinates([0.0, 1.0, 2.0], weights=[1.0, 2.0, 3.0])
        assert dom.label(0) == "u0000" and dom.label(-1) == "u0002"
        with pytest.raises(IndexError):
            dom.label(3)
        assert dom.labels == ("u0000", "u0001", "u0002")
        assert dom.weights == (1.0, 2.0, 3.0)
        with pytest.raises(ValueError):
            dom.coordinates[0] = 5.0
        with pytest.raises(ValueError):
            dom.weight_array()[0] = 5.0

    def test_from_coordinates_rejects_nonfinite_naming_the_point(self):
        with pytest.raises(ValueError, match="'u0001'"):
            Domain.from_coordinates([0.0, float("inf")])


class TestDiscreteFunction:
    def test_values_read_only(self, patient1):
        _, f1, _ = patient1
        with pytest.raises(ValueError):
            f1.values[0] = 9.0

    def test_rejects_wrong_length(self, patient1):
        dom, _, _ = patient1
        with pytest.raises(ValueError):
            DiscreteFunction(dom, [1.0])
        with pytest.raises(ValueError, match=r"^function values must be one-dimensional, got shape \(1, 2\)$"):
            DiscreteFunction(dom, [[1.0, 2.0]])

    def test_rejects_nonfinite(self, patient1):
        dom, _, _ = patient1
        with pytest.raises(ValueError):
            DiscreteFunction(dom, [1.0, float("inf")])

    def test_constant(self, patient1):
        dom, _, _ = patient1
        c = DiscreteFunction.constant(dom, 3.5)
        assert np.all(c.values == 3.5)

    def test_isclose(self, patient1):
        dom, f1, _ = patient1
        g = DiscreteFunction(dom, f1.values + 1e-12)
        assert uniform_distance(f1, g) <= 1e-10
        assert not uniform_distance(f1, g) <= 1e-14

    def test_json_round_trip(self, patient1):
        _, f1, _ = patient1
        obj = f1.to_json_dict()
        back = read_f0(json.loads(json.dumps(obj)))
        assert back.domain.labels == f1.domain.labels
        assert np.array_equal(back.values, f1.values)

    def test_json_round_trip_with_weights(self):
        dom = Domain.uniform_grid(0.0, 1.0, 4, weights="trapezoid")
        f = DiscreteFunction.from_callable(dom, lambda u: u * u)
        obj = f.to_json_dict()
        assert obj["grid"] == {"start": 0.0, "stop": 1.0, "n": 4, "weights": "trapezoid"} and "domain" not in obj
        back = read_f0(json.loads(json.dumps(obj)))
        assert np.array_equal(back.domain.weight_array(), dom.weight_array())
        assert back.domain == dom and np.array_equal(back.values, f.values)

    def test_json_rejects_partial_weights(self, patient1):
        _, f1, _ = patient1
        obj = f1.to_json_dict()
        obj["domain"][0]["weight"] = 1.0
        with pytest.raises(cli.ConfigError, match="^/f0: .*weight"):
            read_f0(obj)

    def test_output_bytes_weighted_grid(self):
        dom = Domain.uniform_grid(0.0, 1.0, 4, weights="trapezoid")
        f = DiscreteFunction.from_callable(dom, lambda u: u * u)
        # a grid is written as its recipe, not point by point
        assert json.dumps(f.to_json_dict()) == (
            '{"grid": {"start": 0.0, "stop": 1.0, "n": 4, "weights": "trapezoid"},'
            ' "values": [0.0, 0.1111111111111111, 0.4444444444444444, 1.0]}'
        )

    def test_output_bytes_explicit_labels(self):
        dom = Domain((DomainPoint("s1", 1.0), DomainPoint("s2", 0.5)))
        f = DiscreteFunction(dom, [2.0 / 3.0, 1e-20])
        assert json.dumps(f.to_json_dict()) == (
            '{"domain": [{"label": "s1", "coordinate": 1.0}, {"label": "s2", "coordinate": 0.5}],'
            ' "values": [0.6666666666666666, 1e-20]}'
        )


# ---------------------------------------------------------------------------
# dissimilarity values from the worked two-point examples
# ---------------------------------------------------------------------------


class TestWorkedDistances:
    def test_pair_one_function_distance(self, patient1):
        # f1 takes {2, 1}, f2 takes {1/3, 1/6}; worst ordered gap is 2 - 1/6.
        _, f1, f2 = patient1
        assert cross_sup_distance(f1, f2) == pytest.approx(11.0 / 6.0, abs=1e-15)
        assert cross_sup_distance(f1, f2) == brute_force_cross_sup(f1, f2)

    def test_pair_two_function_distance(self, patient2):
        # f1 takes {1, 2}, f2 takes {2/3, 4/3}; worst ordered gap is 2 - 2/3.
        _, f1, f2 = patient2
        assert cross_sup_distance(f1, f2) == pytest.approx(4.0 / 3.0, abs=1e-15)
        assert cross_sup_distance(f1, f2) == brute_force_cross_sup(f1, f2)

    def test_diagonal_is_range_diameter(self, patient1):
        # d(f, f) = max f - min f, which is nonzero for non-constant f.
        _, f1, _ = patient1
        assert cross_sup_distance(f1, f1) == 1.0

    def test_uniform_distance(self, patient1):
        _, f1, f2 = patient1
        # |2 - 1/3| = 5/3 at the first point dominates |1 - 1/6|.
        assert uniform_distance(f1, f2) == pytest.approx(5.0 / 3.0, abs=1e-15)


# ---------------------------------------------------------------------------
# metric properties against random data
# ---------------------------------------------------------------------------


class TestCrossSupProperties:
    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(2026)
        dom = Domain.from_coordinates(np.linspace(-1.0, 1.0, 17))
        for _ in range(200):
            f = random_function(dom, rng)
            g = random_function(dom, rng)
            assert cross_sup_distance(f, g) == brute_force_cross_sup(f, g)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(11)
        dom = Domain.from_coordinates(np.linspace(0.0, 1.0, 9))
        for _ in range(100):
            f = random_function(dom, rng)
            g = random_function(dom, rng)
            assert cross_sup_distance(f, g) == cross_sup_distance(g, f)

    def test_dominates_uniform(self):
        rng = np.random.default_rng(12)
        dom = Domain.from_coordinates(np.linspace(0.0, 1.0, 13))
        for _ in range(100):
            f = random_function(dom, rng)
            g = random_function(dom, rng)
            assert cross_sup_distance(f, g) >= uniform_distance(f, g)

    def test_permutation_invariance(self):
        # cross-sup only looks at value sets, so shuffling values across
        # points must not change it.
        rng = np.random.default_rng(13)
        dom = Domain.from_coordinates(np.linspace(0.0, 1.0, 11))
        f = random_function(dom, rng)
        g = random_function(dom, rng)
        perm = rng.permutation(11)
        fp = DiscreteFunction(dom, f.values[perm])
        gp = DiscreteFunction(dom, g.values[perm[::-1]])
        assert cross_sup_distance(fp, gp) == cross_sup_distance(f, g)

    def test_constant_functions_recover_absolute_difference(self):
        dom = Domain.from_coordinates([0.0, 1.0, 2.0])
        a = DiscreteFunction.constant(dom, 1.25)
        b = DiscreteFunction.constant(dom, -0.75)
        assert cross_sup_distance(a, b) == 2.0
        assert cross_sup_distance(a, a) == 0.0

    def test_requires_matching_domains(self, patient1, patient2):
        _, f1, _ = patient1
        _, g1, _ = patient2
        with pytest.raises(ValueError, match="domain"):
            cross_sup_distance(f1, g1)


class TestGridL1:
    def test_weighted_value(self):
        dom = Domain(
            (DomainPoint("a", 0.0), DomainPoint("b", 1.0)),
            weights=(2.0, 3.0),
        )
        f = DiscreteFunction(dom, [1.0, 1.0])
        g = DiscreteFunction(dom, [0.0, 2.0])
        # 2*|1-0| + 3*|1-2| = 5
        assert grid_l1_distance(f, g) == 5.0

    def test_requires_weights(self):
        dom = Domain.from_coordinates([0.0, 1.0])
        f = DiscreteFunction.constant(dom, 0.0)
        with pytest.raises(ValueError, match="weight"):
            grid_l1_distance(f, f)

    def test_sum_past_the_floats_is_inf(self):
        # as the other metrics do, not fsum's OverflowError
        dom = Domain.uniform_grid(0.0, 100.0, 101, weights="trapezoid")
        f, g = DiscreteFunction.constant(dom, 1e307), DiscreteFunction.constant(dom, 0.0)
        assert grid_l1_distance(f, g) == math.inf
        assert distance(f, g, MetricKind.GRID_L1) == math.inf

    def test_sum_order_stable(self):
        # fsum keeps the weighted sum independent of point ordering.
        rng = np.random.default_rng(5)
        coords = np.linspace(0.0, 1.0, 50)
        w = rng.uniform(0.1, 1.0, 50)
        fv = rng.uniform(-1.0, 1.0, 50)
        gv = rng.uniform(-1.0, 1.0, 50)
        dom = Domain.from_coordinates(coords, weights=w)
        d1 = grid_l1_distance(DiscreteFunction(dom, fv), DiscreteFunction(dom, gv))
        perm = rng.permutation(50)
        dom_p = Domain.from_coordinates(coords[perm], weights=w[perm])
        d2 = grid_l1_distance(
            DiscreteFunction(dom_p, fv[perm]), DiscreteFunction(dom_p, gv[perm])
        )
        assert d1 == d2


# f and -f lie 2e308 apart at every point: past the float range
HUGE_PAIR = ([1e308, -1e308], [-1e308, 1e308])


@pytest.mark.parametrize("kind", list(MetricKind))
def test_distance_past_the_floats_is_inf_without_a_warning(kind):
    # pytest turns a warning into an error here, so a leaked numpy overflow warning fails the test
    dom = Domain.uniform_grid(0.0, 1.0, 2, weights="trapezoid")
    f, g = (DiscreteFunction(dom, v) for v in HUGE_PAIR)
    assert distance(f, g, kind) == math.inf
    assert array_distance(f.values, g.values, kind, dom) == math.inf


@pytest.mark.parametrize("kind", [MetricKind.UNIFORM, MetricKind.GRID_L1])
def test_axiom_survey_with_a_triangle_sum_past_the_floats_is_silent(kind):
    dom = Domain.uniform_grid(0.0, 1.0, 2, weights="trapezoid")
    f, zero, g = DiscreteFunction(dom, HUGE_PAIR[0]), DiscreteFunction.constant(dom, 0.0), DiscreteFunction(dom, HUGE_PAIR[1])
    rep = check_metric_axioms(kind, [f, zero, g])
    assert rep.satisfied and rep.witness is None


class TestDistanceDispatch:
    def test_kinds(self, patient1):
        _, f1, f2 = patient1
        assert distance(f1, f2, MetricKind.CROSS_SUP) == cross_sup_distance(f1, f2)
        assert distance(f1, f2, MetricKind.UNIFORM) == uniform_distance(f1, f2)

    def test_grid_l1_dispatch(self):
        dom = Domain.uniform_grid(0.0, 1.0, 3, weights="trapezoid")
        f = DiscreteFunction.constant(dom, 1.0)
        g = DiscreteFunction.constant(dom, 0.0)
        assert distance(f, g, MetricKind.GRID_L1) == pytest.approx(1.0)

    def test_kind_that_is_not_a_metric_kind_rejected(self, patient1):
        dom, f1, f2 = patient1
        with pytest.raises(ValueError, match="^unknown metric kind 'uniform'$"):
            distance(f1, f2, "uniform")
        with pytest.raises(ValueError, match="^unknown metric kind 'uniform'$"):
            array_distance(f1.values, f2.values, "uniform", dom)


# ---------------------------------------------------------------------------
# axiom reports
# ---------------------------------------------------------------------------


class TestAxiomReports:
    def _sample(self, seed, n_funcs=4, n_pts=7):
        rng = np.random.default_rng(seed)
        dom = Domain.from_coordinates(np.linspace(0.0, 1.0, n_pts))
        return [random_function(dom, rng) for _ in range(n_funcs)]

    def test_uniform_is_metric(self):
        rep = check_metric_axioms(MetricKind.UNIFORM, self._sample(1))
        assert rep.nonnegative_ok and rep.symmetric_ok and rep.triangle_ok
        assert rep.diagonal_all_zero
        assert rep.all_metric_axioms_ok
        assert rep.witness is None

    def test_cross_sup_fails_identity_only(self):
        sample = self._sample(2)
        rep = check_metric_axioms(MetricKind.CROSS_SUP, sample)
        assert rep.nonnegative_ok and rep.symmetric_ok and rep.triangle_ok
        assert not rep.diagonal_all_zero
        assert not rep.all_metric_axioms_ok
        # diagonal entries are the range diameters
        for f, d in zip(sample, rep.diagonal):
            assert d == float(np.max(f.values) - np.min(f.values))

    def test_needs_three_functions(self):
        with pytest.raises(ValueError, match="at least 3"):
            check_metric_axioms(MetricKind.UNIFORM, self._sample(3)[:2])

    def test_report_fields_serialize(self):
        rep = check_metric_axioms(MetricKind.CROSS_SUP, self._sample(4))
        assert rep.metric is MetricKind.CROSS_SUP
        assert len(rep.diagonal) == 4
        # every field the CLI writes out is plain data
        json.dumps(
            {
                "metric": rep.metric.value,
                "symmetric_ok": rep.symmetric_ok,
                "triangle_ok": rep.triangle_ok,
                "nonnegative_ok": rep.nonnegative_ok,
                "diagonal": list(rep.diagonal),
            }
        )
