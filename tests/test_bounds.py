import dataclasses
import math

import numpy as np
import pytest

import mar
from mar import bounds, errors
from mar.bounds import _best_optimum, _beta_expression, _spaced
from mar.costs import _spacing, capacity

from factories import grid_net, parallel_net, random_road, random_network, symmetric_pair


def asym_road(headway, platoon_headway, sigma=1.0, model=mar.CapacityModel.MODEL1, **kw):
    base = dict(rid=1, tail="s", head="t", length=1.0, freeflow=1.0, rho=1.0)
    base.update(kw)
    return mar.Road(headway=headway, platoon_headway=platoon_headway, sigma=sigma,
                    capacity_model=model, **base)


class TestXi:
    def test_degree_one(self):
        assert mar.xi(1.0) == 0.25

    def test_degree_four_hand_value(self):
        assert mar.xi(4.0) == pytest.approx(0.534992, abs=1e-6)

    def test_below_one_on_grid(self):
        grid = np.linspace(1.0, 16.0, 61)
        values = [mar.xi(s) for s in grid]
        assert all(0 < v < 1 for v in values)
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_invalid_sigma(self):
        with pytest.raises(errors.InvalidSigmaError):
            mar.xi(0.5)


class TestDegreeOfAsymmetry:
    def test_symmetric_network(self):
        assert mar.degree_of_asymmetry(symmetric_pair()) == 1.0

    def test_both_orientations(self):
        net = parallel_net(
            [dict(headway=10.0, platoon_headway=5.0, sigma=1.0),
             dict(headway=4.0, platoon_headway=8.0, sigma=1.0)])
        assert mar.degree_of_asymmetry(net) == 2.0

    def test_single_road_ratio(self):
        net = parallel_net([dict(headway=6.0, platoon_headway=2.0, sigma=1.0)])
        assert mar.degree_of_asymmetry(net) == 3.0


class TestPoABounds:
    def test_classic_four_thirds(self):
        report = mar.poa_bounds(symmetric_pair(sigma=1.0))
        assert abs(report.bound_thm1 - 4.0 / 3.0) <= 1e-12
        assert report.bound_thm2 is not None
        assert abs(report.bound_thm2 - report.bound_thm1) <= 1e-12

    def test_monotonicity_demo_network(self):
        # its roads have headways (3, 1) and (3, 2) at sigma 1: both bounds are 4
        report = mar.poa_bounds(mar.demo_scenario("monotonicity").network)
        assert (report.k, report.sigma) == (3.0, 1.0)
        assert report.bound_thm1 == report.bound_thm2 == report.bound_combined == 4.0

    def test_k2_worked_values(self):
        net = parallel_net(
            [dict(headway=10.0, platoon_headway=5.0, sigma=1.0),
             dict(headway=4.0, platoon_headway=8.0, sigma=1.0)])
        report = mar.poa_bounds(net)
        assert abs(report.bound_thm1 - 8.0 / 3.0) <= 1e-12
        assert abs(report.bound_thm2 - 2.0) <= 1e-12
        assert abs(report.bound_combined - 2.0) <= 1e-12

    def test_k3_sigma4_bicriteria_factor(self):
        net = parallel_net(
            [dict(headway=6.0, platoon_headway=2.0, sigma=4.0),
             dict(headway=2.0, platoon_headway=2.0, sigma=4.0)])
        report = mar.poa_bounds(net)
        assert report.bicriteria_factor == pytest.approx(2.60498, abs=5e-3)

    def test_thm2_absent_when_k_xi_reaches_one(self):
        net = parallel_net([dict(headway=4.0, platoon_headway=1.0, sigma=1.0)])
        report = mar.poa_bounds(net)
        assert report.bound_thm2 is None
        assert report.bound_combined == report.bound_thm1

    def test_invariants_on_random_networks(self, rng):
        for _ in range(50):
            net = random_network(rng)
            report = mar.poa_bounds(net)
            assert report.k >= 1.0
            assert 0 < report.xi < 1
            assert report.bound_thm1 >= 1.0
            assert report.bound_combined <= report.bound_thm1 + 1e-15
            assert (report.bound_thm2 is not None) == (report.k * report.xi < 1.0)
            if report.bound_thm2 is not None:
                assert report.bound_thm2 >= 1.0


def reference_aggregate_cost(agg, f):
    """The three piecewise congestion ratios ``AggregateCost`` evaluated
    before it called the shared kernel."""
    road = agg.road
    a, rho, sig, d = road.freeflow, road.rho, road.sigma, road.length
    f = np.asarray(f, dtype=float)
    big, small = sorted((road.headway, road.platoon_headway), reverse=True)
    delta = big - small
    inner_low = big * f / d
    safe_f = np.where(f > 0, f, 1.0)
    if road.capacity_model is mar.CapacityModel.MODEL1:
        inner_high = (small * f + delta * agg.anchor) / d
    elif agg.swapped:
        inner_high = np.where(
            f > 0, (small * f * f + delta * agg.anchor * agg.anchor) / (d * safe_f), 0.0)
    else:
        inner_high = np.where(
            f > 0, (big * f * f - delta * (f - agg.anchor) ** 2) / (d * safe_f), 0.0)
    inner = np.where(f <= agg.anchor, inner_low, inner_high)
    return a * (1.0 + rho * inner ** sig)


class TestAggregateCost:
    def test_matches_the_piecewise_reference(self, rng):
        kinds = set()
        for i in range(1000):
            road = random_road(rng, 1, "s", "t", monotone_envelope=i % 2 == 0)
            x_eq, y_eq = rng.uniform(0, 3, size=2)
            if i % 10 == 0:
                x_eq = y_eq = 0.0
            agg = mar.aggregate_cost(road, float(x_eq), float(y_eq))
            kinds.add((road.capacity_model, agg.swapped))
            f = np.r_[0.0, agg.anchor, x_eq + y_eq, agg.anchor * rng.uniform(0, 1, 4),
                      agg.anchor + rng.uniform(0, 4, 4)]
            expected = reference_aggregate_cost(agg, f)
            values = [agg(float(v)) for v in f]
            assert all(isinstance(value, float) for value in values)
            assert np.all(np.abs(np.array(values) - expected) <= 1e-13 * expected)
        assert len(kinds) == 4

    def test_zero_anchor_single_piece(self):
        road = asym_road(2.0, 1.0)
        agg = mar.aggregate_cost(road, 0.0, 0.0)
        assert agg.anchor == 0.0
        # above the origin every unit pays the small (platoon) headway
        for f in (0.5, 1.0, 2.0):
            assert agg(f) == pytest.approx(1.0 + 1.0 * f / 1.0, rel=1e-12)

    def test_symmetric_headways_single_curve(self):
        for model in mar.CapacityModel:
            road = asym_road(2.0, 2.0, model=model)
            agg = mar.aggregate_cost(road, 0.7, 0.4)
            for f in np.linspace(0, 3, 20):
                assert agg(f) == pytest.approx(1.0 + 2.0 * f, rel=1e-12)

    def test_anchor_consistency_hand_instance(self):
        road = asym_road(2.0, 1.0)
        agg = mar.aggregate_cost(road, 1.0, 1.0)
        assert agg(2.0) == pytest.approx(4.0, rel=1e-12)
        assert agg(2.0) == pytest.approx(mar.link_cost(road, 1.0, 1.0), rel=1e-12)

    def test_anchor_consistency_random(self, rng):
        for _ in range(300):
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            x_eq, y_eq = rng.uniform(0, 3, size=2)
            agg = mar.aggregate_cost(road, float(x_eq), float(y_eq))
            f_eq = float(x_eq + y_eq)
            assert agg(f_eq) == pytest.approx(
                mar.link_cost(road, float(x_eq), float(y_eq)), rel=1e-9)

    def test_continuity_at_breakpoint(self, rng):
        # both branch formulas evaluated exactly at the anchor must agree
        for _ in range(200):
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            x_eq, y_eq = rng.uniform(0, 3, size=2)
            agg = mar.aggregate_cost(road, float(x_eq), float(y_eq))
            a = agg.anchor
            if a == 0:
                continue
            left = agg(a)
            big, small = sorted((road.headway, road.platoon_headway), reverse=True)
            delta = big - small
            if road.capacity_model is mar.CapacityModel.MODEL1:
                inner = (small * a + delta * a) / road.length
            elif agg.swapped:
                inner = (small * a * a + delta * a * a) / (road.length * a)
            else:
                inner = (big * a * a) / (road.length * a)
            right = road.freeflow * (1.0 + road.rho * inner ** road.sigma)
            assert abs(left - right) <= 1e-12 * (1 + abs(left))

    def test_nondecreasing_within_monotone_envelope(self, rng):
        for _ in range(200):
            road = random_road(rng, 1, "s", "t", monotone_envelope=True)
            x_eq, y_eq = rng.uniform(0, 3, size=2)
            agg = mar.aggregate_cost(road, float(x_eq), float(y_eq))
            grid = np.linspace(0, 4, 200)
            values = [agg(float(f)) for f in grid]
            assert np.all(np.diff(values) >= -1e-12)


def reference_beta_road_numeric(road, v, w, sigma_use):
    """Reference for ``beta_road_numeric``'s grid zoom: a 1,201-point grid per
    axis refined by a 90-step scalar golden-section search around each axis's
    best grid point, plus the 41x41 interior grid."""
    def gain(x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        t_q = v + w
        t_z = x + y
        m_q = capacity(road, v, w)
        safe_t = np.where(t_z > 0, t_z, 1.0)
        m_z = road.length / _spacing(road, np.where(t_z > 0, y / safe_t, 0.0))
        ratio = (m_q * t_z) / (m_z * t_q)
        return (t_z / t_q) * (1.0 - ratio ** sigma_use)

    def golden_max(fun, lo, hi, iters=90):
        invphi = (math.sqrt(5.0) - 1.0) / 2.0
        a, b = lo, hi
        c = b - invphi * (b - a)
        d = a + invphi * (b - a)
        fc, fd = fun(c), fun(d)
        for _ in range(iters):
            if fc < fd:
                a, c, fc = c, d, fd
                d = a + invphi * (b - a)
                fd = fun(d)
            else:
                b, d, fd = d, c, fc
                c = b - invphi * (b - a)
                fc = fun(c)
        return max(fc, fd)

    bound = 3.0 * (v + w) * road.headway_ratio
    grid = np.linspace(0.0, bound, 1201)
    best = 0.0
    zeros = np.zeros_like(grid)
    for values, fun in ((gain(grid, zeros), lambda t: float(gain(t, 0.0))),
                        (gain(zeros, grid), lambda t: float(gain(0.0, t)))):
        j = int(np.argmax(values))
        lo = grid[max(j - 1, 0)]
        hi = grid[min(j + 1, grid.size - 1)]
        best = max(best, float(values[j]), golden_max(fun, lo, hi))
    interior = np.linspace(0.0, bound, 41)
    gx, gy = np.meshgrid(interior, interior)
    return max(best, float(np.max(gain(gx, gy))))


def reference_lane_search(road, v, w, sigma_use):
    """``beta_road_numeric``'s search with every point on ``_beta_expression``:
    both axes as lanes of ``np.linspace`` grids, three zooms, and the 41x41
    interior grid from ``np.meshgrid``."""
    t_q, m_q = v + w, capacity(road, v, w)
    bound = 3.0 * t_q * road.headway_ratio
    human = np.array([[1.0], [0.0]])  # lane 0 deviates along x, lane 1 along y
    lanes = np.arange(2)
    grid = np.linspace(0.0, np.full(2, bound), 1201, axis=1)
    best = 0.0
    for zoom in range(4):
        if zoom:
            j = np.argmax(values, axis=1)
            grid = np.linspace(grid[lanes, np.maximum(j - 1, 0)],
                               grid[lanes, np.minimum(j + 1, 1200)], 1201, axis=1)
        values = _beta_expression(road, t_q, m_q, sigma_use, human * grid, (1.0 - human) * grid)
        best = max(best, float(values.max()))
    gx, gy = np.meshgrid(np.linspace(0.0, bound, 41), np.linspace(0.0, bound, 41))
    return max(best, float(np.max(_beta_expression(road, t_q, m_q, sigma_use, gx, gy))))


def property_samples(rng, count):
    """Beta samples as the criterion-5 property blocks draw them: random roads
    past the monotone envelope under both capacity models, reference flows in
    [0, 3) and sigma 1, 2 or 4."""
    for i in range(count):
        road = random_road(rng, 1, "s", "t", monotone_envelope=False)
        road = mar.Road(**{**road.__dict__, "capacity_model": list(mar.CapacityModel)[i % 2]})
        v, w = (float(t) for t in rng.uniform(0, 3, size=2))
        yield road, v if v + w >= 1e-9 else 0.5, w, float(rng.choice([1.0, 2.0, 4.0]))


class TestBetaRoad:
    def test_search_equals_the_lane_search_on_the_expression(self, rng):
        for road, v, w, sigma in property_samples(rng, 200):
            assert mar.beta_road_numeric(road, v, w, sigma) == reference_lane_search(
                road, v, w, sigma)

    def test_spaced_is_linspace(self, rng):
        for _ in range(50):
            lo, hi = np.sort(rng.uniform(0, 10, size=(2, 2)), axis=0)
            assert np.array_equal(_spaced(lo[:, None], hi[:, None], 1201),
                                  np.linspace(lo, hi, 1201, axis=1))
            assert np.array_equal(_spaced(0.0, hi[0], 41), np.linspace(0.0, hi[0], 41))

    def test_grid_zoom_matches_golden_section_reference(self, rng):
        for _ in range(500):
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            v, w = (float(t) for t in rng.uniform(0, 3, size=2))
            sigma = float(rng.choice([1.0, 2.0, 4.0]))
            expected = reference_beta_road_numeric(road, v, w, sigma)
            assert mar.beta_road_numeric(road, v, w, sigma) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("road, v, w, sigma", [
        (asym_road(2.0, 1.0), 0.0, 1.3, 1.0),
        (asym_road(1.0, 3.0, model=mar.CapacityModel.MODEL2), 1.3, 0.0, 2.0),
        (asym_road(2.0, 2.0, sigma=2.0), 1.3, 0.4, 2.0),
        (asym_road(1.0, 2.5, model=mar.CapacityModel.MODEL2), 0.8, 1.1, 1.0),
        (asym_road(1.0, 2.5, model=mar.CapacityModel.MODEL2), 0.8, 1.1, 4.0),
        (asym_road(3.0, 1.0, sigma=4.0), 0.6, 2.2, 4.0),
    ], ids=["human-ref-zero", "auto-ref-zero", "symmetric", "model2-non-monotone",
            "model2-non-monotone-sigma4", "sigma4"])
    def test_grid_zoom_matches_reference_on_edge_cases(self, road, v, w, sigma):
        expected = reference_beta_road_numeric(road, v, w, sigma)
        assert mar.beta_road_numeric(road, v, w, sigma) == pytest.approx(expected, rel=1e-12)
        assert mar.beta_road_numeric(road, v, w, sigma) == pytest.approx(
            mar.beta_road_closed_form(road, v, w, sigma), rel=1e-12)

    @pytest.mark.parametrize("beta", [mar.beta_road_numeric, mar.beta_road_closed_form],
                             ids=["numeric", "closed-form"])
    @pytest.mark.parametrize("sigma", [float("nan"), 0.0, -1.0, 0.5, float("inf")])
    def test_invalid_sigma_rejected(self, beta, sigma):
        with pytest.raises(errors.InvalidSigmaError):
            beta(asym_road(2.0, 1.0), 1.0, 1.0, sigma)

    def test_return_types(self):
        road = asym_road(2.0, 1.0, model=mar.CapacityModel.MODEL2)
        assert type(mar.beta_road_numeric(road, 1.0, 0.5, 2.0)) is float
        assert type(mar.beta_road_closed_form(road, 1.0, 0.5, 2.0)) is float

    def test_symmetric_road_gives_xi(self):
        road = asym_road(2.0, 2.0)
        assert mar.beta_road_closed_form(road, 1.3, 0.4, 1.0) == pytest.approx(0.25, rel=1e-12)
        assert mar.beta_road_numeric(road, 1.3, 0.4, 1.0) == pytest.approx(0.25, rel=1e-9)

    def test_model1_ratio2_hand_value(self):
        road = asym_road(2.0, 1.0)
        assert mar.beta_road_closed_form(road, 1.0, 1.0, 1.0) == pytest.approx(0.375, rel=1e-12)

    def test_model2_ratio2_hand_value(self):
        road = asym_road(2.0, 1.0, model=mar.CapacityModel.MODEL2)
        assert mar.beta_road_closed_form(road, 1.0, 1.0, 1.0) == pytest.approx(0.4375, rel=1e-12)

    def test_numeric_matches_closed_form(self, rng):
        for _ in range(150):
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            v, w = rng.uniform(0, 3, size=2)
            if v + w < 1e-6:
                continue
            sigma = float(rng.choice([1.0, 2.0, 4.0]))
            closed = mar.beta_road_closed_form(road, float(v), float(w), sigma)
            numeric = mar.beta_road_numeric(road, float(v), float(w), sigma)
            assert numeric == pytest.approx(closed, rel=1e-6)

    def test_capped_by_ratio_times_xi(self, rng):
        for _ in range(200):
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            v, w = rng.uniform(0.01, 3, size=2)
            sigma = float(rng.choice([1.0, 2.0, 4.0]))
            value = mar.beta_road_numeric(road, float(v), float(w), sigma)
            assert value <= road.headway_ratio * mar.xi(sigma) + 1e-9

    def test_zero_reference_rejected(self):
        road = asym_road(2.0, 1.0)
        with pytest.raises(errors.ZeroReferenceError):
            mar.beta_road_closed_form(road, 0.0, 0.0, 1.0)
        with pytest.raises(errors.ZeroReferenceError):
            mar.beta_road_numeric(road, 0.0, 0.0, 1.0)


class TestBetaNetworkEstimate:
    def test_symmetric_network_constant(self):
        net = symmetric_pair(sigma=1.0)
        est = mar.beta_network_estimate(net, samples=32, seed=1)
        assert est == pytest.approx(0.25, abs=1e-9)

    def test_capped_on_random_networks(self, rng):
        for i in range(100):
            net = random_network(rng)
            est = mar.beta_network_estimate(net, samples=8, seed=i)
            cap = mar.degree_of_asymmetry(net) * mar.xi(mar.max_degree(net))
            assert est <= cap + 1e-9

    @pytest.mark.parametrize("field, value", [
        ("samples", 2.5), ("samples", 0), ("seed", -1), ("seed", 0.5)])
    def test_samples_and_seed_must_be_integers_in_range(self, field, value):
        with pytest.raises(errors.InvalidParameterError, match=field):
            mar.beta_network_estimate(symmetric_pair(), **{field: value})


class TestLemmaVerifiers:
    def test_ratio_trivial_cases(self):
        road = asym_road(2.0, 1.0)
        assert mar.verify_lemma_agg_poa_ratio(road, 1.0, 1.0, 2.0, 2.0)
        assert mar.verify_lemma_agg_poa_ratio(road, 1.0, 1.0, 0.0, 2.0)

    def test_ratio_rejects_bad_order(self):
        road = asym_road(2.0, 1.0)
        with pytest.raises(errors.InvalidOrderError):
            mar.verify_lemma_agg_poa_ratio(road, 1.0, 1.0, 3.0, 2.0)

    def test_ratio_random_sample(self, rng):
        for _ in range(500):
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            x_eq, y_eq = rng.uniform(0, 3, size=2)
            g = float(rng.uniform(1e-3, 5))
            f = float(rng.uniform(0, g))
            assert mar.verify_lemma_agg_poa_ratio(road, float(x_eq), float(y_eq), f, g)

    def test_agg_opt_trivial_cases(self):
        sym = asym_road(2.0, 2.0)
        assert mar.verify_lemma_agg_opt(sym, 1.0, 2.0)
        road = asym_road(2.0, 1.0)
        assert mar.verify_lemma_agg_opt(road, 0.0, 0.0)

    @pytest.mark.parametrize("model", list(mar.CapacityModel))
    def test_verdicts_are_python_bools(self, model):
        road = asym_road(2.0, 1.0, model=model)
        assert type(mar.verify_lemma_agg_poa_ratio(road, 1.0, 0.5, 0.5, 2.0)) is bool
        assert type(mar.verify_lemma_agg_poa_ratio(road, 1.0, 0.5, 0.0, 2.0)) is bool
        assert type(mar.verify_lemma_agg_opt(road, 1.0, 0.5)) is bool
        assert type(mar.verify_lemma_agg_opt(road, 0.0, 0.0)) is bool

    @pytest.mark.parametrize("model", list(mar.CapacityModel))
    @pytest.mark.parametrize("rho", [0.15, 0.0], ids=["inf", "constant"])
    @pytest.mark.parametrize("check", [
        lambda road: mar.verify_lemma_agg_opt(road, 50.0, 60.0),
        lambda road: mar.verify_lemma_agg_poa_ratio(road, 50.0, 60.0, 50.0, 110.0)],
        ids=["agg_opt", "poa_ratio"])
    def test_overflowing_delays_raise(self, model, rho, check):
        # r**400 overflows: the delay is inf, and a comparison on it would
        # read as a violation; with rho 0 the delay is the constant freeflow,
        # nothing overflows and the lemma holds
        road = mar.Road(1, "s", "t", headway=3.0, sigma=400.0, rho=rho, capacity_model=model)
        if rho == 0:
            assert check(road) is True
            return
        with pytest.raises(errors.InvalidParameterError, match="delays overflow"):
            check(road)

    def test_finite_violations_are_reported(self, monkeypatch):
        # the overflow check runs only on the way to a violation; with finite
        # delays that break an inequality, each verifier still answers False
        road = mar.Road(1, "s", "t")
        monkeypatch.setattr(bounds, "_road_latency", lambda p, x, y: 0.0 if x and y else 1.0)
        assert not mar.verify_lemma_agg_opt(road, 1.0, 1.0)
        monkeypatch.setattr(bounds, "aggregate_cost",
                            lambda road, x, y: lambda t: t ** (road.sigma + 1.0))
        assert not mar.verify_lemma_agg_poa_ratio(road, 1.0, 1.0, 1.0, 2.0)

    def test_agg_opt_holds_where_the_ratio_power_overflows(self):
        # 1000**200 is past the float range, the delays at small flows are not
        road = asym_road(1.0, 1000.0, sigma=200.0)
        assert mar.verify_lemma_agg_opt(road, 1e-3, 1e-3)
        assert mar.verify_lemma_agg_opt(dataclasses.replace(road, freeflow=0.0), 1e-3, 1e-3)

    def test_agg_opt_random_sample(self, rng):
        for _ in range(500):
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            x, y = rng.uniform(0, 4, size=2)
            assert mar.verify_lemma_agg_opt(road, float(x), float(y))


class TestEmpiricalPoA:
    def test_symmetric_network_ratio_one(self):
        net = symmetric_pair(sigma=1.0, rho=1.0)
        outcome = mar.empirical_poa(net)
        assert outcome.ratio == pytest.approx(1.0, abs=1e-6)
        assert outcome.opt_oracle == "brute-force"
        assert outcome.flags == ()

    def test_no_asymmetry_stays_below_classic_bound(self, rng):
        # k = 1, sigma = 1 instances never beat the affine 4/3 guarantee
        opt_cfg = mar.OptimumConfig(restarts=6, max_iterations=600, grid_resolution=0.05)
        for _ in range(20):
            h = float(rng.uniform(0.5, 3.0))
            specs = [dict(headway=h, platoon_headway=h, sigma=1.0,
                          rho=float(rng.uniform(0.05, 1.5)),
                          freeflow=float(rng.uniform(0.5, 2.0)),
                          length=float(rng.uniform(0.5, 2.0)))
                     for _ in range(int(rng.integers(2, 4)))]
            net = parallel_net(specs,
                               demand_human=float(rng.uniform(0.2, 2.0)),
                               demand_auto=float(rng.uniform(0.2, 2.0)))
            outcome = mar.empirical_poa(net, opt_cfg=opt_cfg)
            if outcome.equilibrium.converged:
                assert outcome.ratio <= 4.0 / 3.0 + 2e-3

    def test_monotonicity_demo_within_its_bound(self):
        # the optimum sends humans to road 2 (cost 7) and autos to road 1
        # (cost 4): 2*7 + 3*4 = 26
        net = mar.demo_scenario("monotonicity").network
        outcome = mar.empirical_poa(net)
        assert outcome.opt_oracle == "brute-force"
        assert outcome.flags == ()
        assert outcome.optimum.social_cost == pytest.approx(26.0, rel=1e-12)
        assert 1.0 <= outcome.ratio <= mar.poa_bounds(net).bound_combined


def test_best_optimum_does_not_swallow_the_path_cap():
    # its TooLargeError handler is the brute-force guard, not the path cap
    with pytest.raises(errors.TooLargeError, match="cap"):
        _best_optimum(grid_net(6), mar.OptimumConfig(restarts=1))


class TestTightnessProbe:
    def test_k2_reaches_three_halves(self):
        points = mar.tightness_probe(ks=(2.0,), sigma=1.0, rhos=(100.0,))
        assert points[0].best_ratio >= 1.5
        assert points[0].best_ratio <= points[0].bound_combined + 2e-3

    def test_each_instance_solves_distinct_starts(self, monkeypatch):
        solve = mar.bounds.solve_equilibrium
        starts = {}

        def recording(net, cfg, *, start=None):
            table = mar.path_table(net)
            z = table.uniform_start() if start is None else table.arrays(start)
            starts.setdefault(net, []).append(z)
            return solve(net, cfg, start=start)

        monkeypatch.setattr(mar.bounds, "solve_equilibrium", recording)
        mar.tightness_probe(ks=(2.0,), rhos=(10.0, 100.0),
                            eq_cfg=mar.EquilibriumConfig(max_iterations=10))
        assert len(starts) == 2
        for zs in starts.values():
            assert len(zs) == 7
            for a in range(len(zs)):
                for b in range(a):
                    assert not np.array_equal(zs[a], zs[b])

    @pytest.mark.parametrize("ks, rhos", [((), (10.0,)), ((2.0,), ())])
    def test_empty_ks_or_rhos_rejected(self, ks, rhos):
        with pytest.raises(errors.InvalidParameterError):
            mar.tightness_probe(ks=ks, rhos=rhos)

    @pytest.mark.parametrize("k", [0.5, 0.0, -2.0, float("nan"), float("inf")])
    def test_k_below_one_or_not_finite_rejected(self, k):
        # a k below 1 would build the 1/k instance and report it as k
        with pytest.raises(errors.InvalidParameterError, match=r"\bk must be"):
            mar.tightness_probe(ks=(2.0, k), rhos=(10.0,))

    @pytest.mark.parametrize("levels, field", [
        ({"rhos": (10.0, -1.0)}, "rhos"), ({"rhos": (float("inf"),)}, "rhos"),
        ({"sigma": 0.5}, "sigma"), ({"sigma": float("inf")}, "sigma"),
        ({"demand": 0.0}, "demand"), ({"demand": float("nan")}, "demand")])
    def test_rho_sigma_and_demand_rules(self, levels, field):
        # the rule scenario.TightnessSpec applies too
        with pytest.raises(errors.InvalidParameterError, match=f"^{field}: "):
            mar.tightness_probe(**{"ks": (2.0,), "rhos": (10.0,), **levels})

    @pytest.mark.parametrize("seed", [-1, 1.5])
    def test_seed_must_be_a_nonnegative_integer(self, seed):
        with pytest.raises(errors.InvalidParameterError, match="seed"):
            mar.tightness_probe(ks=(2.0,), rhos=(10.0,), seed=seed)

    def test_aggregate_equilibrium_cost_identity(self, rng):
        # the single-class aggregate curves anchored at an equilibrium
        # reproduce its social cost exactly
        for _ in range(5):
            net = random_network(rng)
            res = mar.solve_equilibrium(net, mar.EquilibriumConfig(max_iterations=20_000))
            x, y = res.link_flows.x, res.link_flows.y
            total = 0.0
            for i, road in enumerate(net.roads):
                agg = mar.aggregate_cost(road, float(x[i]), float(y[i]))
                f = float(x[i] + y[i])
                total += f * agg(f)
            assert total == pytest.approx(res.social_cost, rel=1e-9)
