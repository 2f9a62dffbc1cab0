import numpy as np
import pytest

import mar
from mar import errors
from mar.costs import _arrays_for, _congestion, _latencies, _latency_partials, _road_floats

from factories import parallel_net, random_road


def bpr_road(**kw):
    base = dict(rid=1, tail="s", head="t", length=1.0, headway=1.0,
                platoon_headway=1.0, freeflow=1.0, rho=1.0, sigma=1.0)
    base.update(kw)
    return mar.Road(**base)


def affine_demo_net():
    """Two parallel sigma = 1 model-1 roads whose costs are the affine 3x+y+1
    and 3x+2y+1."""
    return parallel_net(
        [dict(headway=3.0, platoon_headway=1.0, rho=1.0, sigma=1.0),
         dict(headway=3.0, platoon_headway=2.0, rho=1.0, sigma=1.0)],
        demand_human=2.0, demand_auto=3.0)


class TestAutonomyLevel:
    def test_half(self):
        assert mar.autonomy_level(1.0, 1.0) == 0.5

    def test_pure_human(self):
        assert mar.autonomy_level(3.0, 0.0) == 0.0

    def test_zero_flow_convention(self):
        assert mar.autonomy_level(0.0, 0.0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(errors.NegativeFlowError):
            mar.autonomy_level(-1.0, 1.0)


class TestCapacity:
    def test_model1_hand_value(self):
        road = bpr_road(length=1000.0, headway=10.0, platoon_headway=5.0)
        assert mar.capacity(road, 30.0, 10.0) == pytest.approx(1000.0 / 8.75, rel=1e-12)

    def test_model2_hand_value(self):
        road = bpr_road(length=1000.0, headway=10.0, platoon_headway=5.0,
                        capacity_model=mar.CapacityModel.MODEL2)
        assert mar.capacity(road, 30.0, 10.0) == pytest.approx(1000.0 / 9.6875, rel=1e-12)

    def test_pure_human_flow_agrees_across_models(self):
        r1 = bpr_road(length=100.0, headway=4.0, platoon_headway=2.0)
        r2 = bpr_road(length=100.0, headway=4.0, platoon_headway=2.0,
                      capacity_model=mar.CapacityModel.MODEL2)
        assert mar.capacity(r1, 5.0, 0.0) == 100.0 / 4.0
        assert mar.capacity(r1, 5.0, 0.0) == mar.capacity(r2, 5.0, 0.0)

    def test_pure_auto_flow_agrees_across_models(self, rng):
        for _ in range(50):
            road1 = random_road(rng, 1, "s", "t", monotone_envelope=False)
            road2 = mar.Road(**{**road1.__dict__, "capacity_model": mar.CapacityModel.MODEL2})
            y = float(rng.uniform(0.1, 5))
            assert mar.capacity(road1, 0.0, y) == mar.capacity(road2, 0.0, y)

    def test_capacity_between_pure_flow_extremes(self, rng):
        for _ in range(300):
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            x, y = rng.uniform(0, 5, size=2)
            cap = mar.capacity(road, float(x), float(y))
            lo = min(road.length / road.headway, road.length / road.platoon_headway)
            hi = max(road.length / road.headway, road.length / road.platoon_headway)
            assert lo - 1e-12 <= cap <= hi + 1e-12


class TestLinkCost:
    def test_bpr_hand_value(self):
        # capacity pinned at 100 regardless of composition, total flow 40
        road = bpr_road(length=1000.0, headway=10.0, platoon_headway=10.0,
                        freeflow=10.0, rho=0.15, sigma=4.0)
        assert mar.link_cost(road, 25.0, 15.0) == pytest.approx(10.0384, rel=1e-12)

    def test_zero_flow_freeflow(self):
        road = bpr_road(freeflow=7.0, rho=0.3, sigma=2.0)
        assert mar.link_cost(road, 0.0, 0.0) == 7.0

    def test_affine(self):
        # sigma = 1 under model 1: the cost 3x+y+1
        road = bpr_road(headway=3.0, platoon_headway=1.0)
        assert mar.link_cost(road, 2.0, 0.0) == 7.0

    def test_monotonicity_demo_roads_are_its_affine_costs(self):
        # the demo's sigma = 1 roads give 3x+y+1 and 3x+2y+1 exactly
        first, second = mar.demo_scenario("monotonicity").network.roads
        for x in np.linspace(0.0, 5.0, 11):
            for y in np.linspace(0.0, 5.0, 11):
                assert mar.link_cost(first, x, y) == 3.0 * x + y + 1.0
                assert mar.link_cost(second, x, y) == 3.0 * x + 2.0 * y + 1.0


    def test_kernel_matches_capacity_rule(self, rng):
        # the vectorized kernel expands (x+y)/capacity in closed form; the
        # capacity rule is the reference it must agree with
        for _ in range(200):
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            road = mar.Road(**{**road.__dict__, "length": float(rng.uniform(0.5, 5.0)),
                               "freeflow": float(rng.uniform(0.5, 3.0))})
            x, y = (float(v) for v in rng.uniform(0, 5, size=2))
            for fx, fy in ((x, y), (0.0, 0.0), (x, 0.0), (0.0, y)):
                expected = road.freeflow * (
                    1.0 + road.rho * ((fx + fy) / mar.capacity(road, fx, fy)) ** road.sigma)
                assert mar.link_cost(road, fx, fy) == pytest.approx(expected, rel=1e-12)


def reference_kernel(roads, x, y):
    """The per-model closed forms the kernel evaluated before it wrote the
    congestion ratio once: both models' ratios and partials for every road,
    picked by the model mask. Returns (c, dc/dx, dc/dy, scale), where
    ``scale`` bounds the magnitude of the terms a partial sums, so that
    partials near zero are compared on the scale they cancel from."""
    def column(name):
        return np.array([getattr(r, name) for r in roads])

    h, hbar, d = column("headway"), column("platoon_headway"), column("length")
    freeflow, rho, sigma = column("freeflow"), column("rho"), column("sigma")
    model2 = np.array([r.capacity_model is mar.CapacityModel.MODEL2 for r in roads])
    t = x + y
    safe_t = np.where(t > 0, t, 1.0)
    r1 = (h * x + hbar * y) / d
    r2 = np.where(t > 0, (h * t * t - (h - hbar) * y * y) / (d * safe_t), 0.0)
    r = np.where(model2, r2, r1)
    alpha = np.where(t > 0, y / safe_t, 0.0)
    drdx1 = h / d
    drdy1 = hbar / d
    drdx2 = (h + (h - hbar) * alpha * alpha) / d
    drdy2 = (h - (h - hbar) * alpha * (2.0 - alpha)) / d
    base = freeflow * rho * sigma * r ** (sigma - 1.0)
    scale = base * (h + np.abs(h - hbar)) / d
    return (freeflow * (1.0 + rho * r ** sigma), base * np.where(model2, drdx2, drdx1),
            base * np.where(model2, drdy2, drdy1), scale)


def test_kernel_matches_the_per_model_forms(rng):
    # every random road once per capacity model, both headway orientations
    roads = tuple(mar.Road(**{**road.__dict__, "rid": 2 * i + j, "capacity_model": model})
                  for i in range(400)
                  for road in [random_road(rng, i, "s", "t", monotone_envelope=i % 2 == 0)]
                  for j, model in enumerate(mar.CapacityModel))
    assert len({(r.capacity_model, r.platoon_headway > r.headway) for r in roads}) == 4
    n = len(roads)
    p = _arrays_for(roads)
    for _ in range(5):
        x, y = rng.uniform(0, 5, size=(2, n))
        x[: n // 4] = 0.0                   # pure autonomous
        y[n // 4: n // 2] = 0.0             # pure human
        x[::7] = y[::7] = 0.0               # zero total flow
        c, dcdx, dcdy, t = _latency_partials(p, x, y)
        assert np.array_equal(t, x + y)
        ref_c, ref_dx, ref_dy, scale = reference_kernel(roads, x, y)
        assert np.array_equal(_latencies(p, x, y), c)
        assert np.all(np.abs(c - ref_c) <= 1e-13 * ref_c)
        assert np.all(np.abs(dcdx - ref_dx) <= 1e-13 * scale)
        assert np.all(np.abs(dcdy - ref_dy) <= 1e-13 * scale)


def test_float_kernel_matches_the_array_kernel(rng):
    # both capacity models and headway orientations, model-2 roads past the
    # monotone envelope (platoon headway above twice the plain one), and zero
    # flow in either class or both
    roads = [mar.Road(**{**road.__dict__, "capacity_model": model})
             for i in range(150)
             for road in [random_road(rng, 1, "s", "t", monotone_envelope=i % 2 == 0)]
             for model in mar.CapacityModel]
    roads += [bpr_road(headway=h, platoon_headway=h * rng.uniform(2.05, 4.0),
                       sigma=float(rng.choice([1.0, 2.0, 4.0])), rho=rng.uniform(0.05, 1.5),
                       capacity_model=mar.CapacityModel.MODEL2)
              for h in rng.uniform(0.5, 3.0, size=100)]
    assert len({(r.capacity_model, r.platoon_headway > r.headway) for r in roads}) == 4
    for road in roads:
        p = _arrays_for((road,))
        agg = mar.aggregate_cost(road, *(float(a) for a in rng.uniform(0, 3, size=2)))
        for x, y in [rng.uniform(0, 4, size=2), (0.0, 1.7), (2.3, 0.0), (0.0, 0.0)]:
            x, y = float(x), float(y)
            value = mar.link_cost(road, x, y)
            assert type(value) is float
            assert value == pytest.approx(
                _latencies(p, np.array([x]), np.array([y]))[0], rel=1e-14)
            f = x + y  # the costlier class carries min(f, anchor), the other the rest
            costly = min(f, agg.anchor)
            split = (f - costly, costly) if agg.swapped else (costly, f - costly)
            assert agg(f) == pytest.approx(
                _latencies(p, *(np.array([a]) for a in split))[0], rel=1e-14)
        assert _congestion(_road_floats(road), 0.0, 0.0)[1] == 0.0
        assert _congestion(p, np.zeros(1), np.zeros(1))[1][0] == 0.0


@pytest.mark.parametrize("rho", [1.0, 0.0])
def test_float_kernel_overflow_gives_what_arrays_give(rho):
    # r**sigma overflows: inf on arrays, so inf latency; with rho 0 the
    # exponent is 0 and the latency is the constant freeflow
    road = bpr_road(sigma=400.0, rho=rho)
    with np.errstate(over="ignore", invalid="ignore"):
        expected = _latencies(_arrays_for((road,)), np.array([100.0]), np.array([0.0]))[0]
        assert np.array_equal(mar.link_cost(road, 100.0, 0.0), expected, equal_nan=True)
        assert np.array_equal(mar.aggregate_cost(road, 100.0, 0.0)(100.0), expected,
                              equal_nan=True)


@pytest.mark.parametrize("freeflow", [1.0, 0.0])
def test_constant_delay_road_stays_at_freeflow_where_its_power_overflows(freeflow):
    # rho 0 makes road 1's delay the constant freeflow, though its r**400
    # overflows at (50, 60): no entry point gives nan, and no power overflows
    net = parallel_net([dict(headway=3.0, sigma=400.0, rho=0.0, freeflow=freeflow),
                        dict(headway=1.0, sigma=1.0)], demand_human=50.0, demand_auto=60.0)
    road, z = net.roads[0], [50.0, 60.0, 0.0, 0.0]
    with np.errstate(all="raise"):
        assert mar.link_cost(road, 50.0, 60.0) == freeflow
        assert mar.aggregate_cost(road, 50.0, 60.0)(110.0) == freeflow
        assert mar.social_cost(net, z) == 110.0 * freeflow
        assert list(mar.cost_vector(net, z)) == [freeflow, freeflow, 1.0, 1.0]
        assert not mar.cost_jacobian(net, z)[:2].any()
        assert _latency_partials(_road_floats(road), 50.0, 60.0)[:3] == (freeflow, 0.0, 0.0)
        c, dcdx, dcdy, _ = _latency_partials(_arrays_for(net.roads), np.array([50.0, 0.0]),
                                             np.array([60.0, 0.0]))
    assert list(c) == [freeflow, 1.0] and dcdx[0] == dcdy[0] == 0.0


class TestCostVector:
    def test_zero_flow_single_road(self):
        net = parallel_net([dict(freeflow=3.0, rho=1.0, sigma=1.0)],
                           demand_human=1.0, demand_auto=0.0)
        assert list(mar.cost_vector(net, [0.0, 0.0])) == [3.0, 3.0]

    def test_structure_two_roads(self):
        net = parallel_net([dict(rho=1.0, sigma=1.0), dict(rho=1.0, sigma=1.0, freeflow=2.0)])
        cv = mar.cost_vector(net, [1.0, 0.0, 0.0, 1.0])
        assert cv.shape == (4,)
        assert cv[0] == cv[1] and cv[2] == cv[3]

    def test_affine_demo_vector(self):
        net = affine_demo_net()
        cv = mar.cost_vector(net, [2.0, 0.0, 0.0, 3.0])
        assert list(cv) == [7.0, 7.0, 7.0, 7.0]

    def test_duplicates_bit_identical(self, rng):
        for _ in range(50):
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            net = mar.Network(nodes=("s", "t"), roads=(road,),
                              od_pairs=(mar.ODPair("s", "t", 1.0, 1.0),))
            x, y = rng.uniform(0, 3, size=2)
            cv = mar.cost_vector(net, [float(x), float(y)])
            assert cv[0] == cv[1]


class TestSocialCost:
    def test_zero_flow(self):
        net = parallel_net([dict(rho=1.0, sigma=1.0)], demand_human=1.0, demand_auto=0.0)
        assert mar.social_cost(net, [0.0, 0.0]) == 0.0

    def test_constant_cost_degenerates_to_total_flow(self):
        net = parallel_net([dict(freeflow=1.0, rho=0.0, sigma=1.0)],
                           demand_human=1.0, demand_auto=0.0)
        assert mar.social_cost(net, [0.7, 0.3]) == pytest.approx(1.0, rel=1e-12)

    def test_hand_value_model1(self):
        net = parallel_net([dict(length=1.0, headway=1.0, platoon_headway=1.0,
                                 freeflow=1.0, rho=1.0, sigma=1.0)],
                           demand_human=1.0, demand_auto=1.0)
        assert mar.social_cost(net, [1.0, 1.0]) == pytest.approx(6.0, rel=1e-12)

    def test_matches_cost_vector_inner_product(self, rng):
        from factories import random_network, random_assignment
        for _ in range(10):
            net = random_network(rng)
            z = mar.to_link_flows(net, random_assignment(net, rng))
            direct = mar.social_cost(net, z)
            inner = float(np.dot(mar.cost_vector(net, z), z.interleaved))
            assert direct == pytest.approx(inner, rel=1e-12)


class TestCostJacobian:
    def test_affine_demo_matrix(self):
        net = affine_demo_net()
        jac = mar.cost_jacobian(net, [2.0, 0.0, 0.0, 3.0])
        expected = np.array([[3, 1, 0, 0], [3, 1, 0, 0], [0, 0, 3, 2], [0, 0, 3, 2]], float)
        assert np.array_equal(jac, expected)

    def test_zero_rho_zero_matrix(self):
        net = parallel_net([dict(rho=0.0, sigma=1.0), dict(rho=0.0, sigma=2.0)])
        assert not mar.cost_jacobian(net, [1.0, 2.0, 0.5, 0.4]).any()

    def test_off_diagonal_blocks_zero(self, rng):
        from factories import random_network
        net = random_network(rng)
        n = net.n_roads
        z = rng.uniform(0.1, 2.0, size=2 * n)
        jac = mar.cost_jacobian(net, z)
        for i in range(n):
            block = jac[2 * i:2 * i + 2].copy()
            block[:, 2 * i:2 * i + 2] = 0.0
            assert not block.any()

    def test_matches_finite_differences(self, rng):
        # central differences with step 1e-6 at 100 random points
        checked = 0
        while checked < 100:
            road = random_road(rng, 1, "s", "t", monotone_envelope=False)
            net = mar.Network(nodes=("s", "t"), roads=(road,),
                              od_pairs=(mar.ODPair("s", "t", 1.0, 1.0),))
            z = rng.uniform(0.05, 3.0, size=2)
            jac = mar.cost_jacobian(net, z)
            step = 1e-6
            for col in range(2):
                zp = z.copy()
                zn = z.copy()
                zp[col] += step
                zn[col] -= step
                num = (mar.cost_vector(net, zp) - mar.cost_vector(net, zn)) / (2 * step)
                for row in range(2):
                    assert jac[row, col] == pytest.approx(num[row], rel=1e-4, abs=1e-4)
            checked += 1


class TestMonotonicityProbe:
    def test_zero_at_equal_points(self):
        net = affine_demo_net()
        assert mar.monotonicity_probe(net, [1.0, 1.0, 1.0, 2.0], [1.0, 1.0, 1.0, 2.0]) == 0.0

    def test_affine_demo_violation(self):
        net = affine_demo_net()
        assert mar.monotonicity_probe(net, [2, 0, 0, 3], [0, 3, 2, 0]) == -3.0

    def test_quadratic_form_indefinite(self):
        net = affine_demo_net()
        jac = mar.cost_jacobian(net, [2.0, 0.0, 0.0, 3.0])
        v = np.array([-1.0, 2.0, 0.0, 0.0])
        assert float(v @ jac @ v) == -1.0


class TestHeadwayFromSpeed:
    def test_zero_speed(self):
        assert mar.headway_from_speed(4.5, 0.0, 1.0) == 4.5

    def test_hand_value(self):
        assert mar.headway_from_speed(4.5, 30.0, 1.5) == 49.5

    def test_zero_length(self):
        assert mar.headway_from_speed(0.0, 10.0, 0.5) == 5.0

    def test_negative_rejected(self):
        with pytest.raises(errors.NegativeInputError):
            mar.headway_from_speed(-1.0, 10.0, 0.5)


class TestElementwiseMonotonicity:
    def _check_samples(self, rng, model, n_samples):
        violations = 0
        per_road = 40
        for _ in range(n_samples // per_road):
            road = random_road(rng, 1, "s", "t", monotone_envelope=True)
            road = mar.Road(**{**road.__dict__, "capacity_model": model})
            if (model is mar.CapacityModel.MODEL2
                    and road.platoon_headway > 2.0 * road.headway):
                road = mar.Road(**{**road.__dict__,
                                   "platoon_headway": 2.0 * road.headway})
            for _ in range(per_road):
                x, y = rng.uniform(0, 4, size=2)
                dx, dy = rng.uniform(0, 2, size=2)
                before = mar.link_cost(road, float(x), float(y))
                after = mar.link_cost(road, float(x + dx), float(y + dy))
                if after < before - 1e-12 * (1 + abs(before)):
                    violations += 1
        return violations

    def test_model1_nondecreasing(self, rng):
        assert self._check_samples(rng, mar.CapacityModel.MODEL1, 10_000) == 0

    def test_model2_nondecreasing_within_envelope(self, rng):
        # model 2 is elementwise monotone only while the platooned headway is
        # at most twice the plain one; the sampler keeps to that regime
        assert self._check_samples(rng, mar.CapacityModel.MODEL2, 10_000) == 0

    def test_model2_extreme_platoon_penalty_is_not_monotone(self):
        # documented limitation: with platoon_headway > 2*headway, adding
        # human flow breaks up expensive platoon pairs and lowers the delay
        road = bpr_road(headway=1.0, platoon_headway=3.0,
                        capacity_model=mar.CapacityModel.MODEL2)
        assert mar.link_cost(road, 0.5, 1.0) < mar.link_cost(road, 0.0, 1.0)

    def test_headway_orientation_both_ways_covered(self, rng):
        # the sampler must produce roads with platoon headway above the plain
        # one as well as below it
        larger = smaller = 0
        for i in range(200):
            road = random_road(rng, i, "s", "t")
            if road.platoon_headway > road.headway:
                larger += 1
            elif road.platoon_headway < road.headway:
                smaller += 1
        assert larger > 20 and smaller > 20
