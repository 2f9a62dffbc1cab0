import dataclasses
import functools
import math
import time

import numpy as np
import pytest

import mar
from mar import errors
from mar.costs import _net_arrays
from mar.equilibrium import _result
from mar import optimum
from mar.optimum import (
    _STATIONARITY_TOL, _backtrack, _compositions, _cost_and_grad, _descend, _grid_steps,
    _project, _winner)

from factories import (
    designated_two_road, parallel_net, random_network, random_road, separate_parallel,
    symmetric_pair, zero_demand_beside_asymmetric)


def reference_projection(v, total):
    """Projection of one block onto {p >= 0, sum(p) = total} by the plain
    sort-and-threshold rule, one block at a time."""
    if total <= 0:
        return np.zeros_like(v)
    u = sorted(v, reverse=True)
    running = 0.0
    tau = None
    for j, value in enumerate(u):
        running += value
        if value - (running - total) / (j + 1) > 0:
            tau = (running - total) / (j + 1)
    return np.maximum(v - tau, 0.0)


def sequential_backtrack(table, params, z, grad, cost, step):
    """Armijo backtracking of one row by one halving at a time."""
    for _ in range(60):
        cand = _project((z - step * grad)[None, :], table)
        direction = float(np.dot(grad, cand[0] - z))
        cand_cost = _cost_and_grad(table, params, cand)[0][0]
        if cand_cost <= cost + 1e-4 * direction:
            return True, step
        step *= 0.5
        if step < 1e-16:
            break
    return False, step


def reference_cost_and_grad(table, p, z):
    """Social cost and gradient of rows of stacked path flows, in the
    row-major arithmetic: ``(rows, 2, roads)`` link flows, the latency and
    its partials written out from one congestion ratio, and the gradient's
    stacked per-class link terms mapped back by one matmul. The kernel must
    match it bit for bit."""
    n = table.total_paths
    xy = z.reshape(len(z), 2, n) @ table.incidence.T
    x, y = xy[:, 0], xy[:, 1]
    t = x + y
    alpha = y / np.where(t > 0, t, 1.0)
    human = 1.0 - alpha
    r = p.h_d * x + (p.hbar_d - p.mixed_d * (1.0 - alpha)) * y
    c = p.freeflow * (1.0 + p.rho * r ** p.sigma)
    base = p.slope * r ** p.sigma_less1
    dcdx = base * (p.h_d - p.mixed_d * alpha * alpha)
    dcdy = base * (p.hbar_d - p.mixed_d * human * human)
    grad = np.stack([c + t * dcdx, c + t * dcdy], axis=1) @ table.incidence
    return np.sum(c * t, axis=1), grad.reshape(len(z), 2 * n)


@functools.cache
def reference_compositions(n, parts):
    """The nonnegative integer tuples of length ``parts`` summing to ``n``,
    built recursively on the first entry, in lexicographic order."""
    if parts == 1:
        return np.array([[n]])
    rows = []
    for first in range(n + 1):
        rest = reference_compositions(n - first, parts - 1)
        rows.append(np.hstack([np.full((rest.shape[0], 1), first), rest]))
    return np.vstack(rows)


def reference_brute_force(net, resolution):
    """Brute force that gathers every grid point's stacked path flows and
    evaluates them through ``reference_cost_and_grad``, 200,000 points at a time.
    Returns the stacked path flows of the first lowest-cost grid point."""
    steps = _grid_steps(resolution)
    table = mar.path_table(net)
    params = _net_arrays(net)
    counts = table.valid.sum(axis=1).tolist()
    sizes = [math.comb(steps + m - 1, m - 1) if demand > 0 else 1
             for m, demand in zip(counts, table.totals.tolist())]
    n_points = math.prod(sizes)
    grids = [reference_compositions(steps, m) * (demand / steps) if demand > 0
             else np.zeros((1, m)) for m, demand in zip(counts, table.totals)]
    first_rows = np.cumsum([0] + sizes[:-1])
    width = table.valid.shape[1]
    stacked = np.vstack([np.pad(g, ((0, 0), (0, width - g.shape[1]))) for g in grids])
    best_cost, best_point = np.inf, None
    for lo in range(0, n_points, 200_000):
        idx = np.unravel_index(np.arange(lo, min(lo + 200_000, n_points)), sizes)
        pts = stacked[np.stack(idx, axis=1) + first_rows][:, table.valid]
        costs = reference_cost_and_grad(table, params, pts)[0]
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost, best_point = float(costs[j]), pts[j].copy()
    return best_point


#: Guard-admitted topologies as (road endpoints, OD endpoints): one, two and
#: three OD pairs, with roads shared across OD pairs.
ADMITTED_TOPOLOGIES = {
    "two-parallel": ([("s", "t")] * 2, [("s", "t")]),
    "three-parallel": ([("s", "t")] * 3, [("s", "t")]),
    "triangle": ([("s", "a"), ("a", "t"), ("s", "t")], [("s", "t")]),
    "two-od-shared": ([("s", "a"), ("a", "t"), ("s", "t")], [("s", "t"), ("a", "t")]),
    "three-od-chain": ([("s", "a"), ("a", "b")], [("s", "a"), ("a", "b"), ("s", "b")]),
    "two-od-one-and-two": ([("s", "a"), ("a", "t"), ("a", "t")], [("s", "a"), ("a", "t")]),
}


def admitted_network(rng, topology, zero_demand):
    """Random roads and demands on one of ``ADMITTED_TOPOLOGIES``; with
    ``zero_demand`` the first OD pair carries no autonomous flow."""
    road_ends, od_ends = ADMITTED_TOPOLOGIES[topology]
    roads = tuple(random_road(rng, i + 1, tail, head) for i, (tail, head) in enumerate(road_ends))
    demands = rng.uniform(0.2, 2.0, size=(len(od_ends), 2))
    if zero_demand:
        demands[0, 1] = 0.0
    ods = tuple(mar.ODPair(o, d, *map(float, dem)) for (o, d), dem in zip(od_ends, demands))
    nodes = tuple(sorted({node for ends in road_ends for node in ends}))
    return mar.Network(nodes=nodes, roads=roads, od_pairs=ods)


def class_blocks(table):
    """Column ranges of the human blocks, then the auto blocks, of a stacked row."""
    n = table.total_paths
    return table.blocks + tuple(slice(blk.start + n, blk.stop + n) for blk in table.blocks)


class TestSolveOptimum:
    def test_single_road_routes_everything(self):
        net = parallel_net([dict(headway=2.0, platoon_headway=1.0, rho=1.0, sigma=1.0)],
                           demand_human=1.5, demand_auto=0.5)
        res = mar.solve_optimum(net, mar.OptimumConfig(restarts=2))
        assert res.link_flows.pairs() == [(1.5, 0.5)]

    def test_identical_roads_equal_split(self):
        net = symmetric_pair(sigma=1.0, rho=1.0)
        res = mar.solve_optimum(net, mar.OptimumConfig(restarts=4))
        assert res.converged
        for total in res.link_flows.total:
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_designated_instance_matches_brute_force(self):
        net = designated_two_road()
        res = mar.solve_optimum(net, mar.OptimumConfig(restarts=8))
        oracle = mar.brute_force_optimum(net, 1e-3)
        assert res.social_cost == pytest.approx(oracle.social_cost, rel=1e-4)

    def test_never_worse_than_equilibrium(self):
        net = designated_two_road()
        eq = mar.solve_equilibrium(net)
        opt = mar.solve_optimum(net, mar.OptimumConfig(restarts=8))
        assert opt.social_cost <= eq.social_cost * (1 + 1e-6)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_step_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(errors.InvalidParameterError, match="step_tolerance"):
            mar.OptimumConfig(step_tolerance=tol)

    @pytest.mark.parametrize("field, value", [
        ("seed", -1), ("seed", 1.0), ("restarts", 2.5), ("restarts", 0),
        ("max_iterations", 2.5), ("max_iterations", True)])
    def test_counts_and_seed_must_be_integers_in_range(self, field, value):
        # rejected when the config is built, not once a solve starts
        with pytest.raises(errors.InvalidParameterError, match=field):
            mar.OptimumConfig(**{field: value})

    @pytest.mark.parametrize("restarts", [optimum.MAX_RESTARTS + 1, 10 ** 20])
    def test_restarts_are_capped(self, restarts):
        # the config only; no solve ever starts at such a count
        with pytest.raises(errors.InvalidParameterError,
                           match=f"restarts must be at most {optimum.MAX_RESTARTS}, got"):
            mar.OptimumConfig(restarts=restarts)
        assert mar.OptimumConfig(restarts=optimum.MAX_RESTARTS).restarts == optimum.MAX_RESTARTS

    def test_numpy_integer_seed_accepted(self):
        assert mar.OptimumConfig(seed=np.int64(3), restarts=np.int32(2)).seed == 3


class TestKernel:
    @staticmethod
    def rows(rng, table, count=40):
        """Nonnegative rows of stacked path flows, some with whole blocks or
        rows at zero flow."""
        z = rng.uniform(0.0, 3.0, size=(count, 2 * table.total_paths))
        z[rng.random(z.shape) < 0.3] = 0.0
        z[:3] = 0.0
        z[3, :table.total_paths] = 0.0  # pure autonomous
        z[4, table.total_paths:] = 0.0  # pure human
        return z

    @pytest.mark.parametrize("model", list(mar.CapacityModel))
    def test_matches_the_row_major_reference_bit_for_bit(self, rng, model):
        nets = [random_network(rng) for _ in range(6)]
        nets = [mar.Network(net.nodes, tuple(dataclasses.replace(r, capacity_model=model)
                                             for r in net.roads), net.od_pairs)
                for net in nets]
        # padded multi-OD tables with a zero-demand block, and sigma = 1 roads
        nets += [separate_parallel([1, 3, 2], [(1.0, 0.0), (0.5, 1.5), (0.0, 0.0)]),
                 zero_demand_beside_asymmetric(), mar.demo_scenario("monotonicity").network]
        for net in nets:
            table = mar.path_table(net)
            params = _net_arrays(net)
            z = self.rows(rng, table)
            cost, grad = _cost_and_grad(table, params, z)
            expect_cost, expect_grad = reference_cost_and_grad(table, params, z)
            np.testing.assert_array_equal(cost, expect_cost)
            np.testing.assert_array_equal(grad, expect_grad)

    def test_descent_makes_one_kernel_call_per_backtracking_batch(self, rng, monkeypatch):
        calls = {"kernel": 0, "project": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper
        monkeypatch.setattr(optimum, "_cost_and_grad", counted("kernel", _cost_and_grad))
        monkeypatch.setattr(optimum, "_project", counted("project", _project))
        net = random_network(np.random.default_rng(11))
        table = mar.path_table(net)
        z = np.array([table.random_start(rng) for _ in range(6)])
        iterations = _descend(table, _net_arrays(net), z, mar.OptimumConfig())[3]
        # each batch projects its tries once; the stationarity measure projects once more
        batches = calls["project"] - 1
        assert batches > iterations.max()  # some iteration needed a second batch
        assert calls["kernel"] == 1 + batches


class TestBatchedDescent:
    def test_projection_matches_per_block_reference(self, rng):
        # unequal block lengths, 1-path blocks and zero-demand blocks
        table = mar.path_table(separate_parallel(
            [1, 4, 2, 5, 1], [(1.5, 0.0), (0.0, 1.2), (2.0, 0.3), (0.7, 0.0), (0.0, 2.5)]))
        totals = np.concatenate([table.demand_human, table.demand_auto])
        v = rng.normal(scale=2.0, size=(50, 2 * table.total_paths))
        v[::2] = np.round(v[::2])  # ties
        v[1] = 0.0
        # an entry at the threshold projects to 0, and the largest partial-sum
        # average is attained both with and without it, so the max-average
        # rule and the last-index rule can round apart there
        for row in v[2:30]:
            for b, blk in enumerate(class_blocks(table)):
                m = blk.stop - blk.start
                if m < 2:
                    continue
                tau = rng.normal(scale=2.0)
                above = int(rng.integers(1, m))
                entries = np.concatenate([tau + totals[b] * rng.dirichlet(np.ones(above)), [tau],
                                          tau - rng.uniform(0.1, 2.0, size=m - above - 1)])
                row[blk] = rng.permutation(entries)
        # exactly: the human block of demand 2.0 has threshold -0.75
        v[30, class_blocks(table)[2]] = [1.25, -0.75]
        out = _project(v, table)
        for row_in, row_out in zip(v, out):
            for b, blk in enumerate(class_blocks(table)):
                expect = reference_projection(row_in[blk], totals[b])
                np.testing.assert_allclose(row_out[blk], expect, rtol=0, atol=1e-12)

    def test_batched_backtracking_matches_sequential_halving(self, rng):
        net = parallel_net([dict(headway=2.0, platoon_headway=1.0, rho=1.0, sigma=4.0),
                            dict(rho=0.5, sigma=2.0), dict(rho=2.0, sigma=1.0)],
                           demand_human=3.0, demand_auto=2.0)
        table = mar.path_table(net)
        params = _net_arrays(net)
        z = np.array([table.random_start(rng) for _ in range(24)])
        cost, grad = _cost_and_grad(table, params, z)
        grad[::3] *= -1.0  # ascent directions exhaust the tries
        step = 10.0 ** rng.uniform(-16, 3, size=len(z))
        step[:4] = [1e3, 1e-15, 1e-16, 1.0]
        ok, new_step, _, _, _ = _backtrack(table, params, z, grad, cost, step)
        tries = []
        for r in range(len(z)):
            expect_ok, expect_step = sequential_backtrack(table, params, z[r], grad[r],
                                                          cost[r], step[r])
            assert ok[r] == expect_ok
            if expect_ok:
                assert new_step[r] == expect_step
                tries.append(round(np.log2(step[r] / expect_step)))
        assert max(tries) >= 4  # some row needed more than one batch of halvings
        assert not ok.all()

    def test_backtracking_returns_the_gradient_of_its_point(self, rng):
        net = random_network(np.random.default_rng(11))
        table = mar.path_table(net)
        params = _net_arrays(net)
        z = np.array([table.random_start(rng) for _ in range(24)])
        cost, grad = _cost_and_grad(table, params, z)
        grad[::5] *= -1.0
        step = 10.0 ** rng.uniform(-8, 3, size=len(z))
        ok, _, point, new_cost, new_grad = _backtrack(table, params, z, grad, cost, step)
        assert ok.any() and not ok.all()
        expect_cost, expect_grad = _cost_and_grad(table, params, point[ok])
        np.testing.assert_array_equal(new_cost[ok], expect_cost)
        np.testing.assert_array_equal(new_grad[ok], expect_grad)

    def test_batched_rows_descend_as_they_would_alone(self, rng):
        # rows stop at different iterations, some at the cap; a row's result
        # must not depend on which other rows share its batch
        checked = 0
        for _ in range(4):
            net = random_network(rng)
            table = mar.path_table(net)
            params = _net_arrays(net)
            start = np.array([table.random_start(rng) for _ in range(6)])
            free = _descend(table, params, start.copy(), mar.OptimumConfig())[3]
            cap = int(np.median(free))
            for cfg in (mar.OptimumConfig(), mar.OptimumConfig(max_iterations=cap)):
                z, cost, stat, iterations = _descend(table, params, start.copy(), cfg)
                if len(set(iterations.tolist())) == 1:
                    continue
                checked += 1
                for r in range(len(start)):
                    alone = _descend(table, params, start[r:r + 1].copy(), cfg)
                    np.testing.assert_array_equal(alone[0][0], z[r])
                    assert (alone[1][0], alone[2][0], alone[3][0]) == \
                        (cost[r], stat[r], iterations[r])
        assert checked >= 4

    def test_ties_within_relative_tolerance_go_to_lower_index(self):
        assert _winner(np.array([3.0, 1.0 + 1e-12, 1.0, 2.0])) == 1
        assert _winner(np.array([1e6 * (1 + 5e-13), 1e6])) == 0
        assert _winner(np.array([1.0 + 1e-11, 1.0])) == 1
        assert _winner(np.array([2.0, 2.0, 2.0])) == 0

    def test_first_forty_fuzz_instances_converge(self):
        # the acceptance fuzz stream; under step doubling, instances 8, 10
        # and 14 stopped short of stationarity
        gen = np.random.default_rng(987654321)
        for index in range(40):
            net = random_network(gen)
            cfg = mar.OptimumConfig(restarts=6, max_iterations=600, seed=index)
            assert mar.solve_optimum(net, cfg).converged, index

    def test_nonconvex_fallback_keeps_descent_monotone_and_feasible(self, rng):
        # social cost of the sigma = 1 monotonicity demo is an indefinite
        # quadratic, so some moves see s.y <= 0 and take the doubling fallback;
        # _descend is deterministic, so its state after k iterations is the
        # result of a run capped at k
        net = mar.demo_scenario("monotonicity").network
        table = mar.path_table(net)
        params = _net_arrays(net)
        start = np.array([table.random_start(rng) for _ in range(6)])
        demands = np.concatenate([table.demand_human, table.demand_auto])
        points, costs = [start], [_cost_and_grad(table, params, start)[0]]
        for k in range(1, 100):
            z, cost, _, iterations = _descend(table, params, start.copy(),
                                              mar.OptimumConfig(max_iterations=k))
            sums = np.array([[row[blk].sum() for blk in class_blocks(table)] for row in z])
            np.testing.assert_allclose(sums, np.tile(demands, (len(z), 1)), rtol=1e-12)
            assert (z >= 0).all()
            assert (cost <= costs[-1]).all()
            points.append(z)
            costs.append(cost)
            if (iterations < k).all():
                break
        # the fallback keeps every row descending to a stationary point
        assert (_descend(table, params, start.copy(), mar.OptimumConfig())[2]
                <= _STATIONARITY_TOL).all()
        fallbacks = 0
        for before, after in zip(points, points[1:-1]):
            s = after - before
            y = (_cost_and_grad(table, params, after)[1]
                 - _cost_and_grad(table, params, before)[1])
            fallbacks += int(np.sum((np.sum(s * y, axis=1) <= 0) & np.any(s != 0, axis=1)))
        assert fallbacks > 0

    def test_every_restart_stays_feasible(self, rng):
        cfg = mar.OptimumConfig(restarts=5, max_iterations=200)
        for _ in range(6):
            net = random_network(rng)
            table = mar.path_table(net)
            z = np.array([table.random_start(rng) for _ in range(cfg.restarts)])
            z, cost, _, iterations = _descend(table, _net_arrays(net), z, cfg)
            demands = np.concatenate([table.demand_human, table.demand_auto])
            sums = np.array([[row[blk].sum() for blk in class_blocks(table)] for row in z])
            np.testing.assert_allclose(sums, np.tile(demands, (len(z), 1)),
                                       rtol=1e-12, atol=1e-12)
            assert (z >= 0).all()
            assert ((iterations >= 1) & (iterations <= cfg.max_iterations)).all()


class TestBruteForceOptimum:
    def test_single_road_exact(self):
        net = parallel_net([dict(rho=1.0, sigma=1.0)], demand_human=1.0, demand_auto=1.0)
        res = mar.brute_force_optimum(net, 0.1)
        assert res.link_flows.pairs() == [(1.0, 1.0)]
        assert res.converged

    def test_symmetric_split_at_grid_precision(self):
        net = symmetric_pair(sigma=1.0, rho=1.0)
        res = mar.brute_force_optimum(net, 1e-2)
        for total in res.link_flows.total:
            assert total == pytest.approx(1.0, abs=1e-2)

    def test_guard_rejects_large_instances(self, rng):
        # 4 parallel roads: 4 paths x 2 classes = 8 > 6
        net = parallel_net([dict(sigma=1.0)] * 4)
        with pytest.raises(errors.TooLargeError):
            mar.brute_force_optimum(net, 0.1)

    def test_grid_point_cap_falls_back_to_local_search(self):
        # 3 roads at resolution 1e-3: 501,501 points per class, 2.5e11 in all
        net = parallel_net([dict(sigma=1.0)] * 3)
        started = time.perf_counter()
        with pytest.raises(errors.TooLargeError, match=r"2\.515e\+11 points"):
            mar.brute_force_optimum(net, 1e-3)
        assert time.perf_counter() - started < 1.0
        cfg = mar.OptimumConfig(restarts=4, grid_resolution=1e-3)
        assert mar.empirical_poa(net, opt_cfg=cfg).opt_oracle == "local-search"

    def test_resolution_too_fine_to_count_falls_back_to_local_search(self):
        net = parallel_net([dict(sigma=1.0)] * 2)
        # 1/5e-324 overflows to inf; 1e-300 gives about 1e300 points per class
        with pytest.raises(errors.TooLargeError, match="not finite"):
            mar.brute_force_optimum(net, 5e-324)
        with pytest.raises(errors.TooLargeError, match=r"has 1\.000e\+600 points") as caught:
            mar.brute_force_optimum(net, 1e-300)
        assert len(str(caught.value)) < 120
        cfg = mar.OptimumConfig(restarts=2, grid_resolution=5e-324)
        assert mar.empirical_poa(net, opt_cfg=cfg).opt_oracle == "local-search"

    @pytest.mark.parametrize("resolution", [-0.01, 0.0, 1.5, float("nan"), float("inf")])
    def test_grid_error_bound_rejects_resolution_outside_unit_interval(self, resolution):
        net = parallel_net([dict(sigma=1.0)] * 2)
        with pytest.raises(errors.InvalidParameterError, match=r"\(0, 1\]"):
            mar.grid_error_bound(net, resolution)
        with pytest.raises(errors.InvalidParameterError, match=r"\(0, 1\]"):
            mar.brute_force_optimum(net, resolution)
        assert mar.grid_error_bound(net, 1.0) > 0.0

    @pytest.mark.parametrize("resolution, spacing", [(0.3, 1.0 / 3.0), (0.7, 1.0)])
    def test_grid_error_bound_describes_the_searched_grid(self, resolution, spacing):
        # brute force searches spacing 1/round(1/resolution); the certificate
        # must bound that grid, not a finer one of spacing ``resolution``
        net = mar.demo_scenario("classic-4-3").network
        searched = mar.brute_force_optimum(net, resolution)
        exact = mar.brute_force_optimum(net, spacing)
        assert searched.iterations == exact.iterations
        assert searched.social_cost == exact.social_cost
        bound = mar.grid_error_bound(net, resolution)
        assert bound == mar.grid_error_bound(net, spacing)
        assert bound == pytest.approx(56.0 * spacing, rel=1e-12)

    @pytest.mark.parametrize("parts", [1, 2, 3, 4])
    def test_compositions_match_the_recursive_reference(self, parts):
        for n in (0, 1, 5, 20, 100):
            got, expect = _compositions(n, parts), reference_compositions(n, parts)
            assert got.dtype == expect.dtype
            np.testing.assert_array_equal(got, expect)

    @pytest.mark.parametrize("zero_demand", [False, True])
    @pytest.mark.parametrize("topology", sorted(ADMITTED_TOPOLOGIES))
    def test_matches_the_gather_reference_bit_for_bit(self, rng, topology, zero_demand):
        for _ in range(3):
            net = admitted_network(rng, topology, zero_demand)
            table = mar.path_table(net)
            resolution = 0.05 if max(b.stop - b.start for b in table.blocks) >= 3 else 0.01
            self.assert_matches_reference(net, resolution)

    def test_first_of_tied_points_wins_across_a_slab_boundary(self):
        # dyadic demands and spacing, unit headways and lengths: the cost
        # depends on road 1's total flow alone and is exact, so every point
        # with human share i/256 and auto share (2304 - 8i)/2048 on road 1
        # ties; the first, i = 224, ends a slab of 8192 // 513 rows
        net = symmetric_pair(demand_human=2.0, demand_auto=0.25)
        width = optimum._SLAB // 513
        assert (224 + 1) % width == 0
        res = mar.brute_force_optimum(net, 1 / 512)
        assert res.link_flows.pairs()[0] == (224 / 256, 0.25)
        self.assert_matches_reference(net, 1 / 512)

    def test_slabs_stay_bounded_at_the_finest_admitted_grid(self, monkeypatch):
        # (1, 2) paths at resolution 1/5150: 5151**2 = 26.5 M points, all in
        # one piece of the leading block's axis
        net = admitted_network(np.random.default_rng(3), "two-od-one-and-two", False)
        largest = []

        def recording(params, x, y):
            shape = np.broadcast_shapes(x.shape, y.shape)
            largest.append(math.prod(shape))
            return np.zeros(shape)
        monkeypatch.setattr(optimum, "_latencies", recording)
        res = mar.brute_force_optimum(net, 1 / 5150)
        assert res.iterations == 5151 ** 2 == optimum.MAX_GRID_POINTS
        assert max(largest) <= optimum._SLAB * net.n_roads
        assert sum(largest) == res.iterations * net.n_roads

    @pytest.mark.parametrize("demand_auto", [0.0, 30.0])
    def test_grid_point_zero_when_every_point_overflows(self, demand_auto):
        # sigma = 400 with at least 50 on one road overflows r ** sigma at
        # every split, so no point beats the starting cost of inf
        net = symmetric_pair(sigma=400.0, demand_human=100.0, demand_auto=demand_auto)
        table = mar.path_table(net)
        with np.errstate(over="ignore", invalid="ignore"):
            res = mar.brute_force_optimum(net, 0.1)
        first = [_compositions(10, 2)[0] * demand / 10 for demand in table.totals]
        np.testing.assert_array_equal(table.arrays(res.flows), np.concatenate(first))
        assert res.social_cost == np.inf

    @pytest.mark.parametrize("net, resolution", [
        (symmetric_pair(), 0.1),  # ties: the first grid point in order wins
        (separate_parallel([1, 1, 1], [(1.0, 0.5), (0.0, 2.0), (1.5, 1.5)]), 0.01),
        (designated_two_road(), 0.002),  # 251,001 points: two chunks
        (symmetric_pair(), 0.002),  # and ties across them
    ])
    def test_matches_the_gather_reference_on_edge_cases(self, net, resolution):
        self.assert_matches_reference(net, resolution)

    @staticmethod
    def assert_matches_reference(net, resolution):
        table = mar.path_table(net)
        res = mar.brute_force_optimum(net, resolution)
        point = reference_brute_force(net, resolution)
        np.testing.assert_array_equal(table.arrays(res.flows), point)
        expect = _result(table, point, 0.0, res.iterations, True)
        assert res.social_cost == expect.social_cost

    def test_oracle_within_lipschitz_bound_of_solver(self, rng):
        checked = 0
        while checked < 8:
            net = random_network(rng)
            table = mar.path_table(net)
            if 2 * table.total_paths > 6:
                continue
            resolution = 0.05
            bf = mar.brute_force_optimum(net, resolution)
            ls = mar.solve_optimum(net, mar.OptimumConfig(restarts=8, max_iterations=2000))
            tol = mar.grid_error_bound(net, resolution)
            assert abs(bf.social_cost - ls.social_cost) <= tol
            # the exhaustive grid can never beat the true optimum, so the
            # local search result must not undercut it by more than tolerance
            assert ls.social_cost <= bf.social_cost + 1e-9
            checked += 1


class TestScaledOptimum:
    def test_factor_one_identity(self):
        net = designated_two_road()
        cfg = mar.OptimumConfig(restarts=4, seed=3)
        a = mar.solve_optimum(net, cfg)
        b = mar.solve_scaled_optimum(net, 1.0, cfg)
        assert a.social_cost == pytest.approx(b.social_cost, rel=1e-9)

    def test_factor_two_single_road(self):
        net = parallel_net([dict(rho=1.0, sigma=1.0)], demand_human=1.0, demand_auto=0.5)
        res = mar.solve_scaled_optimum(net, 2.0, mar.OptimumConfig(restarts=2))
        assert res.link_flows.pairs() == [(2.0, 1.0)]

    def test_factor_below_one_rejected(self):
        net = designated_two_road()
        with pytest.raises(errors.InvalidParameterError):
            mar.solve_scaled_optimum(net, 0.5)

    def test_bicriteria_guarantee_k3_sigma4(self):
        # k = 3, sigma = 4: equilibrium cost stays below the optimum cost of
        # the game with 1 + 3*xi(4) (about 2.605) times the demand
        net = parallel_net(
            [dict(headway=6.0, platoon_headway=2.0, rho=0.15, sigma=4.0),
             dict(headway=2.0, platoon_headway=2.0, rho=0.15, sigma=4.0)],
            demand_human=0.3, demand_auto=0.3)
        factor = 1.0 + 3.0 * mar.xi(4.0)
        assert factor == pytest.approx(2.605, abs=5e-3)
        eq = mar.solve_equilibrium(net)
        scaled = mar.solve_scaled_optimum(net, factor, mar.OptimumConfig(restarts=8))
        assert eq.converged
        assert eq.social_cost <= scaled.social_cost * (1 + 1e-9)
