import itertools

import numpy as np
import pytest

import mar
from mar import errors
from mar.costs import _net_arrays
from mar.equilibrium import _gap_at

from factories import (
    designated_min_gap_grid,
    designated_two_road,
    grid_net,
    parallel_net,
    random_assignment,
    random_network,
    symmetric_pair,
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

    @pytest.mark.parametrize("rule", [mar.StepRule.MSA, mar.StepRule.SELF_REGULATED])
    def test_designated_instance_matches_grid_oracle(self, rule):
        net = designated_two_road()
        cfg = mar.EquilibriumConfig(max_iterations=200_000, step_rule=rule)
        res = mar.solve_equilibrium(net, cfg)
        assert res.converged
        sh_grid, sa_grid = designated_min_gap_grid()
        x1 = res.link_flows.x[0]
        y1 = res.link_flows.y[0]
        dist = np.min(np.maximum(np.abs(sh_grid - x1), np.abs(sa_grid - y1)))
        assert dist <= 5e-3

    def test_deterministic_given_seed(self):
        net = designated_two_road()
        cfg = mar.EquilibriumConfig(seed=7)
        a = mar.solve_equilibrium(net, cfg, start="random")
        b = mar.solve_equilibrium(net, cfg, start="random")
        assert np.array_equal(a.link_flows.interleaved, b.link_flows.interleaved)
        assert a.social_cost == b.social_cost

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

    def test_iterates_stay_feasible(self):
        net = designated_two_road()
        seen = []

        def check(it, pf, gap):
            mar.validate_assignment(net, pf)
            seen.append(it)

        mar.solve_equilibrium(net, mar.EquilibriumConfig(max_iterations=500),
                              on_iterate=check)
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

    def test_zero_demand_od_pair_beside_asymmetric_one(self):
        # the equalization step must skip an OD block that carries no flow
        roads = (
            mar.Road(rid=1, tail="s0", head="t0", length=1.0, headway=2.0,
                     platoon_headway=1.0, freeflow=1.0, rho=1.0, sigma=1.0),
            mar.Road(rid=2, tail="s0", head="t0", length=1.0, headway=2.0,
                     platoon_headway=2.0, freeflow=1.0, rho=1.0, sigma=1.0),
            mar.Road(rid=3, tail="s1", head="t1"),
            mar.Road(rid=4, tail="s1", head="t1"),
        )
        net = mar.Network(("s0", "t0", "s1", "t1"), roads,
                          (mar.ODPair("s0", "t0", 1.0, 1.0), mar.ODPair("s1", "t1", 0.0, 0.0)))
        res = mar.solve_equilibrium(net, mar.EquilibriumConfig(gap_tolerance=1e-9))
        assert res.converged and res.relative_gap <= 1e-9, res.relative_gap
        assert sum(res.flows.human[1].values()) == 0.0
        assert sum(res.flows.auto[1].values()) == 0.0


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
    _, _, _, aon = _gap_at(table, _net_arrays(net), *table.uniform_start())
    assert aon.tolist() == [1, 3]


class TestEquilibriumConfig:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_gap_tolerance_must_be_finite_and_positive(self, tol):
        with pytest.raises(errors.InvalidParameterError, match="gap_tolerance"):
            mar.EquilibriumConfig(gap_tolerance=tol)


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
                    vert = mar.to_link_flows(net, table.assignment(ph, pa))
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


