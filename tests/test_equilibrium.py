import dataclasses
import itertools

import numpy as np
import pytest

import mar
from mar import errors
from mar.costs import _latencies, _latency_partials, _net_arrays
from mar.equilibrium import _gap_at, _newton_step

from factories import (
    designated_min_gap_grid,
    designated_two_road,
    grid_net,
    parallel_net,
    random_assignment,
    random_network,
    separate_parallel,
    symmetric_pair,
    zero_demand_beside_asymmetric,
)


def constant_cost_pair(a1=3.0, a2=1.0, demand_human=2.0, demand_auto=1.0):
    return parallel_net(
        [dict(freeflow=a1, rho=0.0, sigma=1.0), dict(freeflow=a2, rho=0.0, sigma=1.0)],
        demand_human=demand_human, demand_auto=demand_auto)


class TestWardropGap:
    def test_single_road_zero_gap(self):
        net = parallel_net([dict(rho=1.0, sigma=1.0)])
        pf = mar.PathFlowAssignment(human=({(1,): 1.0},), auto=({(1,): 1.0},))
        assert mar.wardrop_gap(net, pf) == (0.0, 0.0)

    def test_symmetric_split_zero_gap(self):
        net = symmetric_pair()
        pf = mar.PathFlowAssignment(
            human=({(1,): 0.5, (2,): 0.5},), auto=({(1,): 0.5, (2,): 0.5},))
        absolute, relative = mar.wardrop_gap(net, pf)
        assert absolute == 0.0 and relative == 0.0

    def test_all_flow_on_costlier_road(self):
        # constant costs 3 and 1: parking all 3 units on the costly road
        # leaves an absolute gap of demand * (3 - 1) = 6
        net = constant_cost_pair()
        pf = mar.PathFlowAssignment(
            human=({(1,): 2.0, (2,): 0.0},), auto=({(1,): 1.0, (2,): 0.0},))
        absolute, relative = mar.wardrop_gap(net, pf)
        assert absolute == pytest.approx(6.0, rel=1e-12)
        assert relative == pytest.approx(6.0 / 9.0, rel=1e-12)

    def test_zero_cost_with_demand_raises(self):
        net = parallel_net(
            [dict(freeflow=0.0, rho=1.0, sigma=1.0), dict(freeflow=0.0, rho=0.0, sigma=1.0)])
        pf = mar.PathFlowAssignment(
            human=({(1,): 0.5, (2,): 0.5},), auto=({(1,): 0.5, (2,): 0.5},))
        with pytest.raises(errors.ZeroCostError):
            mar.wardrop_gap(net, pf)


class TestSolveEquilibrium:
    def test_single_road_immediate(self):
        net = parallel_net([dict(rho=1.0, sigma=1.0)])
        res = mar.solve_equilibrium(net)
        assert res.converged
        assert res.relative_gap == 0.0
        assert res.iterations <= 1
        assert res.link_flows.pairs() == [(1.0, 1.0)]

    def test_identical_roads_equal_split(self):
        net = symmetric_pair(sigma=1.0, rho=1.0)
        res = mar.solve_equilibrium(net)
        assert res.converged
        for split in res.link_flows.total:
            assert split == pytest.approx(1.0, abs=1e-4)

    def test_designated_instance_matches_grid_oracle(self):
        net = designated_two_road()
        cfg = mar.EquilibriumConfig(max_iterations=200_000)
        res = mar.solve_equilibrium(net, cfg)
        assert res.converged
        sh_grid, sa_grid = designated_min_gap_grid()
        x1 = res.link_flows.x[0]
        y1 = res.link_flows.y[0]
        dist = np.min(np.maximum(np.abs(sh_grid - x1), np.abs(sa_grid - y1)))
        assert dist <= 5e-3

    def test_deterministic_given_seed(self):
        net = designated_two_road()
        table = mar.path_table(net)
        start = table.assignment(table.random_start(np.random.default_rng(7)))
        a = mar.solve_equilibrium(net, start=start)
        b = mar.solve_equilibrium(net, start=start)
        assert np.array_equal(a.link_flows.interleaved, b.link_flows.interleaved)
        assert a.social_cost == b.social_cost

    @pytest.mark.parametrize("start", ["random", 123])
    def test_start_is_an_assignment_or_none(self, start):
        with pytest.raises(errors.InvalidParameterError, match="start"):
            mar.solve_equilibrium(designated_two_road(), start=start)

    def test_warm_start_at_equilibrium_returns_it(self):
        # segregated flows on the opposed-asymmetry pair have exactly equal
        # road costs, hence zero gap: the solver must keep the start point
        net = parallel_net(
            [dict(headway=2.0, platoon_headway=1.0, rho=1.0, sigma=1.0),
             dict(headway=1.0, platoon_headway=2.0, rho=1.0, sigma=1.0)])
        start = mar.PathFlowAssignment(
            human=({(1,): 1.0, (2,): 0.0},), auto=({(1,): 0.0, (2,): 1.0},))
        res = mar.solve_equilibrium(net, start=start)
        assert res.converged
        assert res.iterations == 0
        assert res.link_flows.pairs() == [(1.0, 0.0), (0.0, 1.0)]

    def test_not_converged_soft_result(self):
        # a steep degree-4 instance that one iteration cannot equalize
        gen = np.random.default_rng(5)
        nets = [random_network(gen, sigma_pool=(4.0,), k_max=4.0) for _ in range(2)]
        cfg = mar.EquilibriumConfig(max_iterations=1, gap_tolerance=1e-10)
        res = mar.solve_equilibrium(nets[1], cfg)
        assert not res.converged
        assert res.relative_gap > cfg.gap_tolerance
        mar.validate_assignment(nets[1], res.flows)

    def test_unconverged_reports_iterations_run(self):
        # the best iterate of this instance is iterate 3; the report must
        # still count all 5 iterations run
        gen = np.random.default_rng(5)
        nets = [random_network(gen, sigma_pool=(4.0,), k_max=4.0) for _ in range(4)]
        cfg = mar.EquilibriumConfig(max_iterations=5, gap_tolerance=1e-10)
        res = mar.solve_equilibrium(nets[3], cfg)
        assert not res.converged
        assert res.iterations == 5

    def test_progress_is_logged_every_5000_iterations(self, caplog):
        # this instance's gap stalls near 1e-16 and never reaches zero
        gen = np.random.default_rng(2)
        nets = [random_network(gen, sigma_pool=(4.0,), k_max=4.0) for _ in range(4)]
        cfg = mar.EquilibriumConfig(max_iterations=5001, gap_tolerance=1e-300)
        with caplog.at_level("DEBUG", logger="mar.equilibrium"):
            res = mar.solve_equilibrium(nets[3], cfg)
        assert not res.converged
        assert [r.getMessage()[:15] for r in caplog.records] == [
            "iteration 5000:", "not converged a"]

    def test_iterates_stay_feasible(self, monkeypatch):
        # every iterate, and every Newton candidate, has its gap measured
        net = designated_two_road()
        seen = []

        def check(table, params, z):
            mar.validate_assignment(net, table.assignment(z))
            seen.append(z.copy())
            return _gap_at(table, params, z)

        monkeypatch.setattr(mar.equilibrium, "_gap_at", check)
        mar.solve_equilibrium(net, mar.EquilibriumConfig(max_iterations=500))
        assert len(seen) > 1

    def test_classes_see_equal_minimum_path_costs(self):
        # the duplicated cost vector gives each class its own entry per road;
        # both views must agree bit for bit, hence equal shortest-path costs
        net = designated_two_road()
        res = mar.solve_equilibrium(net)
        table = mar.path_table(net)
        cv = mar.cost_vector(net, res.link_flows)
        human_path_costs = table.incidence.T @ cv[0::2]
        auto_path_costs = table.incidence.T @ cv[1::2]
        for blk in table.blocks:
            assert min(human_path_costs[blk]) == min(auto_path_costs[blk])

    def test_fuzz_instances_converge_quickly(self):
        # the acceptance fuzz stream: the equalization phase must not stall
        # for thousands of iterations on any of its first 200 instances
        gen = np.random.default_rng(987654321)
        cfg = mar.EquilibriumConfig(max_iterations=30_000)
        iterations = []
        for _ in range(200):
            res = mar.solve_equilibrium(random_network(gen), cfg)
            assert res.converged
            iterations.append(res.iterations)
        assert max(iterations) <= 2_000, max(iterations)

    def test_grids_converge(self):
        # grids 4 and 5 of the seed-0 random 4x4 stream (368 paths) and the
        # 5x5 grid of default roads (17,024 paths)
        rng = np.random.default_rng(0)
        random_grids = [grid_net(4, rng) for _ in range(6)]
        cfg = mar.EquilibriumConfig(max_iterations=20_000, gap_tolerance=1e-6)
        for net in (random_grids[4], random_grids[5], grid_net(5)):
            res = mar.solve_equilibrium(net, cfg)
            assert res.converged and res.relative_gap <= 1e-6, res.relative_gap

    def test_constant_delay_road_whose_power_overflows(self):
        # rho 0: road 1's delay is the constant 1, below road 2's at any
        # positive flow, though its r**400 overflows at the full demand
        net = parallel_net([dict(headway=3.0, sigma=400.0, rho=0.0),
                            dict(headway=1.0, sigma=1.0)], demand_human=50.0, demand_auto=60.0)
        res = mar.solve_equilibrium(net)
        assert res.converged and res.iterations == 1
        assert res.social_cost == 110.0
        free = dataclasses.replace(net, roads=(dataclasses.replace(net.roads[0], freeflow=0.0),
                                               net.roads[1]))
        with pytest.raises(errors.ZeroCostError):
            mar.solve_equilibrium(free)

    def test_overflowing_delay_reads_no_nan_path_cost(self):
        # road 1's delay overflows at the uniform split; the path of road 2
        # must still cost its finite delay, not 0 * inf
        net = parallel_net([dict(headway=3.0, sigma=400.0, rho=0.15),
                            dict(headway=1.0, sigma=1.0)], demand_human=50.0, demand_auto=60.0)
        with np.errstate(over="ignore", invalid="raise"):
            res = mar.solve_equilibrium(net)
        assert res.converged
        assert res.social_cost == pytest.approx(1916.2494609346832, rel=1e-9)

    def test_zero_demand_od_pair_beside_asymmetric_one(self):
        # the equalization step must skip an OD block that carries no flow
        net = zero_demand_beside_asymmetric()
        res = mar.solve_equilibrium(net, mar.EquilibriumConfig(gap_tolerance=1e-9))
        assert res.converged and res.relative_gap <= 1e-9, res.relative_gap
        assert sum(res.flows.human[1].values()) == 0.0
        assert sum(res.flows.auto[1].values()) == 0.0


def reference_newton_step(table, params, c_road, ph, pa):
    """The Newton step as a loop over OD pairs and paths, one class at a time."""
    ph = ph.copy()
    pa = pa.copy()
    n = table.total_paths
    incidence = table.incidence
    cp = incidence.T @ c_road
    for i, blk in enumerate(table.blocks):
        jmin = blk.start + int(np.argmin(cp[blk]))
        for p, demand in ((ph, table.demand_human[i]), (pa, table.demand_auto[i])):
            for j in range(blk.start, blk.stop):
                if j != jmin and p[j] < 1e-3 * max(float(demand), 1e-300):
                    p[jmin] += p[j]
                    p[j] = 0.0
    c, dcdx, dcdy, _ = _latency_partials(params, incidence @ ph, incidence @ pa)
    cp = incidence.T @ c
    rows = []
    rhs = []
    mask = np.zeros(2 * n, dtype=bool)
    for i, blk in enumerate(table.blocks):
        support = [j for j in range(blk.start, blk.stop) if ph[j] + pa[j] > 0.0]
        if not support:
            continue
        mask[support] = True
        mask[[n + j for j in support]] = True
        ref = support[0]
        for j in support[1:]:
            diff = incidence[:, j] - incidence[:, ref]
            row = np.empty(2 * n)
            row[:n] = (diff * dcdx) @ incidence
            row[n:] = (diff * dcdy) @ incidence
            rows.append(row)
            rhs.append(cp[ref] - cp[j])
        row_h = np.zeros(2 * n)
        row_h[support] = 1.0
        rows.append(row_h)
        rhs.append(float(table.demand_human[i]) - float(ph[support].sum()))
        row_a = np.zeros(2 * n)
        row_a[[n + j for j in support]] = 1.0
        rows.append(row_a)
        rhs.append(float(table.demand_auto[i]) - float(pa[support].sum()))
    try:
        step, *_ = np.linalg.lstsq(np.array(rows)[:, mask], np.array(rhs), rcond=None)
    except np.linalg.LinAlgError:
        step = None
    if step is not None:
        full = np.zeros(2 * n)
        full[mask] = step
        dh, da = full[:n], full[n:]
        for p, d in ((ph, dh), (pa, da)):
            d[(p <= 0.0) & (d < 0.0)] = 0.0
        damping = 1.0
        for p, d in ((ph, dh), (pa, da)):
            neg = d < 0.0
            if neg.any():
                damping = min(damping, float(np.min(0.95 * p[neg] / -d[neg])))
        if np.isfinite(damping) and damping > 0.0:
            ph = np.maximum(ph + damping * dh, 0.0)
            pa = np.maximum(pa + damping * da, 0.0)
    for i, blk in enumerate(table.blocks):
        for p, demand in ((ph, float(table.demand_human[i])),
                          (pa, float(table.demand_auto[i]))):
            total = float(p[blk].sum())
            if total > 0.0:
                p[blk] *= demand / total
            elif demand > 0.0:
                p[blk.start] = demand
    return np.concatenate([ph, pa])


class TestNewtonStep:
    @staticmethod
    def steps(net, rng, points):
        """(layout step, reference step) at random points where some flows
        are shrunk under 1e-3 of their demand and some are zero."""
        table = mar.path_table(net)
        params = _net_arrays(net)
        n = table.total_paths
        for _ in range(points):
            z = table.random_start(rng)
            shrink = rng.random(z.size) < 0.4
            z[shrink] *= rng.choice([0.0, 1e-5], size=shrink.sum())
            _, _, aon = _gap_at(table, params, z)
            c_road = _latencies(params, *table.link_flows(z))
            yield (_newton_step(table, params, np.r_[aon, aon + n], z),
                   reference_newton_step(table, params, c_road, z[:n], z[n:]))

    def test_bit_identical_to_the_loop_on_small_networks(self, rng):
        gen = np.random.default_rng(987654321)
        nets = [random_network(gen) for _ in range(100)]
        nets += [separate_parallel([3, 2, 2], [(1.0, 0.5), (0.0, 0.0), (0.4, 0.9)]),
                 separate_parallel([2, 3], [(1.2, 0.0), (0.0, 0.8)]),
                 zero_demand_beside_asymmetric()]
        for net in nets:
            for got, expect in self.steps(net, rng, 3):
                np.testing.assert_array_equal(got, expect)

    def test_agrees_with_the_loop_on_a_grid(self, rng):
        # sums over blocks of 8 or more paths may group their terms apart
        for got, expect in self.steps(grid_net(4), rng, 4):
            np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12 * np.abs(expect).max())

    def test_an_overflowing_delay_leaves_the_point_unmoved(self):
        # road 1's delay is inf at the uniform split, so the linear system
        # holds inf and nan and its least-squares solve fails: no step
        roads = (mar.Road(1, "s", "t", headway=3.0, sigma=400.0, rho=0.15),
                 mar.Road(2, "s", "t", headway=1.0, sigma=1.0))
        net = mar.Network(("s", "t"), roads, (mar.ODPair("s", "t", 50.0, 60.0),))
        table = mar.path_table(net)
        z = table.uniform_start()
        with np.errstate(over="ignore", invalid="ignore"):
            step = _newton_step(table, _net_arrays(net), np.array([1, 3]), z)
        np.testing.assert_array_equal(step, z)


def test_all_or_nothing_tie_breaks_to_lowest_index_in_a_padded_block():
    # OD 0 has three roads, the first dearer and the other two identical, so
    # its block is padded to the width of OD 1's five identical roads
    roads = [mar.Road(rid=1, tail="s0", head="t0", freeflow=2.0),
             mar.Road(rid=2, tail="s0", head="t0"), mar.Road(rid=3, tail="s0", head="t0")]
    roads += [mar.Road(rid=rid, tail="s1", head="t1") for rid in range(4, 9)]
    net = mar.Network(("s0", "t0", "s1", "t1"), tuple(roads),
                      (mar.ODPair("s0", "t0", 1.0, 1.0), mar.ODPair("s1", "t1", 1.0, 0.5)))
    table = mar.path_table(net)
    assert table.valid.sum(axis=1).tolist() == [3, 5, 3, 5]
    _, _, aon = _gap_at(table, _net_arrays(net), table.uniform_start())
    assert aon.tolist() == [1, 3]


class TestEquilibriumConfig:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_gap_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(errors.InvalidParameterError, match="gap_tolerance"):
            mar.EquilibriumConfig(gap_tolerance=tol)

    @pytest.mark.parametrize("value", [2.5, 0, -3, True, "10"])
    def test_max_iterations_must_be_a_positive_integer(self, value):
        with pytest.raises(errors.InvalidParameterError, match="max_iterations"):
            mar.EquilibriumConfig(max_iterations=value)

    def test_fields_are_the_iteration_cap_and_the_tolerance(self):
        assert [f.name for f in dataclasses.fields(mar.EquilibriumConfig)] == [
            "max_iterations", "gap_tolerance"]


class TestViResidual:
    def test_zero_at_same_point(self):
        net = symmetric_pair()
        z = [0.5, 0.5, 0.5, 0.5]
        assert mar.vi_residual(net, z, z) == 0.0

    def test_nonpositive_at_equilibrium(self):
        net = symmetric_pair()
        z_eq = [0.5, 0.5, 0.5, 0.5]
        deviation = [1.0, 1.0, 0.0, 0.0]
        assert mar.vi_residual(net, z_eq, deviation) <= 0.0

    def test_positive_certificate_of_non_equilibrium(self):
        # all flow on the constant-cost-3 road, deviation to the cost-1 road:
        # <c(z), z - z'> = (3+3*... ) hand value 6 > 0
        net = constant_cost_pair()
        bad = [2.0, 1.0, 0.0, 0.0]
        better = [0.0, 0.0, 2.0, 1.0]
        assert mar.vi_residual(net, bad, better) == pytest.approx(6.0, rel=1e-12)

    def test_gap_zero_iff_vi_against_all_vertices(self, rng):
        for _ in range(10):
            net = random_network(rng)
            table = mar.path_table(net)
            pf = random_assignment(net, rng)
            gap_abs, _ = mar.wardrop_gap(net, pf)
            z = mar.to_link_flows(net, pf)
            worst = -np.inf
            choices = [range(blk.start, blk.stop) for blk in table.blocks]
            for hsel in itertools.product(*choices):
                for asel in itertools.product(*choices):
                    ph = np.zeros(table.total_paths)
                    pa = np.zeros(table.total_paths)
                    for i, j in enumerate(hsel):
                        ph[j] = table.demand_human[i]
                    for i, j in enumerate(asel):
                        pa[j] = table.demand_auto[i]
                    vert = mar.to_link_flows(net, table.assignment(np.concatenate([ph, pa])))
                    worst = max(worst, mar.vi_residual(net, z, vert))
            # the worst vertex residual is exactly the absolute gap
            assert worst == pytest.approx(gap_abs, abs=1e-9)

    def test_random_feasible_residuals_below_gap(self, rng):
        net = designated_two_road()
        res = mar.solve_equilibrium(net)
        gap_abs, _ = mar.wardrop_gap(net, res.flows)
        for _ in range(1000):
            other = mar.to_link_flows(net, random_assignment(net, rng))
            assert mar.vi_residual(net, res.link_flows, other) <= gap_abs + 1e-9


