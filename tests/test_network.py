import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import mar
from mar import errors, network

from factories import (
    grid_net, parallel_net, random_assignment, random_network, separate_parallel, triangle_net)


def test_minimal_two_road_network():
    net = parallel_net([dict(sigma=1.0), dict(sigma=1.0)])
    assert net.n_roads == 2
    assert net.road(1).tail == "s"
    assert net.od_pairs[0].total_demand == 2.0


def test_sigma_below_one_rejected():
    with pytest.raises(errors.InvalidParameterError):
        mar.Road(rid=1, tail="s", head="t", sigma=0.5)


def test_nonpositive_physical_parameters_rejected():
    with pytest.raises(errors.InvalidParameterError):
        mar.Road(rid=1, tail="s", head="t", length=0.0)
    with pytest.raises(errors.InvalidParameterError):
        mar.Road(rid=1, tail="s", head="t", headway=-1.0)
    with pytest.raises(errors.InvalidParameterError):
        mar.Road(rid=1, tail="s", head="t", freeflow=-0.1)


@pytest.mark.parametrize("field", [
    "length", "headway", "platoon_headway", "freeflow", "rho", "sigma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_road_parameters_rejected(field, value):
    with pytest.raises(errors.InvalidParameterError, match=field):
        mar.Road(rid=1, tail="s", head="t", **{field: value})


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_demand_rejected(value):
    with pytest.raises(errors.InvalidParameterError, match="demand_human"):
        mar.ODPair("s", "t", demand_human=value, demand_auto=1.0)
    with pytest.raises(errors.InvalidParameterError, match="demand_auto"):
        mar.ODPair("s", "t", demand_human=1.0, demand_auto=value)


def test_unreachable_od():
    road = mar.Road(rid=1, tail="s", head="t")
    with pytest.raises(errors.UnreachableODError):
        mar.Network(nodes=("s", "t"), roads=(road,),
                    od_pairs=(mar.ODPair("t", "s", 1.0, 1.0),))


def test_duplicate_ids_rejected():
    road = mar.Road(rid=1, tail="s", head="t")
    with pytest.raises(errors.DuplicateIdError):
        mar.Network(nodes=("s", "t", "s"), roads=(road,),
                    od_pairs=(mar.ODPair("s", "t", 1.0, 0.0),))
    with pytest.raises(errors.DuplicateIdError):
        mar.Network(nodes=("s", "t"),
                    roads=(road, mar.Road(rid=1, tail="s", head="t")),
                    od_pairs=(mar.ODPair("s", "t", 1.0, 0.0),))


def test_dangling_endpoint_rejected():
    with pytest.raises(errors.DanglingEndpointError):
        mar.Network(nodes=("s",), roads=(mar.Road(rid=1, tail="s", head="t"),),
                    od_pairs=(mar.ODPair("s", "s", 1.0, 0.0),))


def test_zero_total_demand_rejected():
    road = mar.Road(rid=1, tail="s", head="t")
    with pytest.raises(errors.InvalidParameterError):
        mar.Network(nodes=("s", "t"), roads=(road,),
                    od_pairs=(mar.ODPair("s", "t", 0.0, 0.0),))


def test_build_network_from_mapping():
    net = mar.build_network({
        "nodes": ["s", "t"],
        "roads": [
            {"id": 1, "tail": "s", "head": "t", "sigma": 1.0},
            {"id": 2, "tail": "s", "head": "t", "sigma": 1.0},
        ],
        "od_pairs": [{"origin": "s", "destination": "t",
                      "demand_human": 1.0, "demand_auto": 1.0}],
    })
    assert net.n_roads == 2
    assert net.road(2).sigma == 1.0


def test_import_leaves_scipy_optimize_unloaded():
    # mar needs no scipy at all (see test_cli's scipy-blocked run); scipy stays
    # a test dependency, for the reference LP of check_feasible below
    src = str(Path(mar.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mar; print('scipy.optimize' in sys.modules)"],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False"


class TestEnumeratePaths:
    def test_two_parallel_roads(self):
        net = parallel_net([{}, {}])
        paths = mar.enumerate_paths(net, net.od_pairs[0])
        assert paths == ((1,), (2,))

    def test_diamond(self):
        roads = (
            mar.Road(rid=1, tail="s", head="a"),
            mar.Road(rid=2, tail="a", head="t"),
            mar.Road(rid=3, tail="s", head="b"),
            mar.Road(rid=4, tail="b", head="t"),
        )
        net = mar.Network(nodes=("s", "a", "b", "t"), roads=roads,
                          od_pairs=(mar.ODPair("s", "t", 1.0, 1.0),))
        paths = mar.enumerate_paths(net, net.od_pairs[0])
        assert paths == ((1, 2), (3, 4))

    def test_triangle_exhaustive(self):
        net = triangle_net()
        paths = mar.enumerate_paths(net, net.od_pairs[0])
        # by-hand DFS: the two simple routes, ordered by road-id sequence
        assert paths == ((1, 2), (3,))

    def test_no_path_found(self):
        net = parallel_net([{}, {}])
        reverse = mar.ODPair("t", "s", 1.0, 0.0)
        with pytest.raises(errors.NoPathFoundError):
            mar.enumerate_paths(net, reverse)

    def test_deterministic_and_duplicate_free(self, rng):
        for _ in range(20):
            net = random_network(rng)
            for od in net.od_pairs:
                a = mar.enumerate_paths(net, od)
                b = mar.enumerate_paths(net, od)
                assert a == b
                assert len(set(a)) == len(a)
                assert list(a) == sorted(a)


class TestPathTable:
    def test_uniform_start_matches_per_slice_reference(self, rng):
        nets = [separate_parallel([1, 4, 2, 5, 1], [(1.5, 0.0), (0.0, 1.2), (2.0, 0.3),
                                                    (0.7, 0.0), (0.0, 2.5)])]
        nets += [random_network(rng) for _ in range(20)]
        for net in nets:
            table = mar.path_table(net)
            ph = np.zeros(table.total_paths)
            pa = np.zeros(table.total_paths)
            for i, blk in enumerate(table.blocks):
                m = blk.stop - blk.start
                ph[blk] = table.demand_human[i] / m
                pa[blk] = table.demand_auto[i] / m
            np.testing.assert_array_equal(table.uniform_start(), np.concatenate([ph, pa]))

    def test_random_start_keeps_the_per_block_draw_order(self, rng):
        # human block i, then auto block i, each a flat Dirichlet draw scaled
        # by its demand; two calls in a row must continue the same stream
        nets = [separate_parallel([1, 4, 2, 5, 1], [(1.5, 0.0), (0.0, 1.2), (2.0, 0.3),
                                                    (0.7, 0.0), (0.0, 2.5)])]
        nets += [random_network(rng) for _ in range(20)]
        for seed, net in enumerate(nets):
            table = mar.path_table(net)
            draws, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(2):
                ph = np.zeros(table.total_paths)
                pa = np.zeros(table.total_paths)
                for i, blk in enumerate(table.blocks):
                    m = blk.stop - blk.start
                    ph[blk] = table.demand_human[i] * reference.dirichlet(np.ones(m))
                    pa[blk] = table.demand_auto[i] * reference.dirichlet(np.ones(m))
                np.testing.assert_array_equal(table.random_start(draws), np.concatenate([ph, pa]))

    def test_six_by_six_grid_fails_fast(self):
        # 1,262,816 simple corner-to-corner paths per OD pair
        net = grid_net(6)
        started = time.perf_counter()
        with pytest.raises(errors.TooLargeError, match=f"n0_0->n5_5 .* {mar.network.MAX_PATHS}"):
            mar.path_table(net)
        with pytest.raises(errors.TooLargeError):
            mar.enumerate_paths(net, net.od_pairs[0])
        assert time.perf_counter() - started < 20.0

    def test_five_by_five_grid_stays_under_the_cap(self):
        assert mar.path_table(grid_net(5)).total_paths == 17024


class TestToLinkFlows:
    def test_single_path_human_only(self):
        net = parallel_net([{}], demand_human=2.0, demand_auto=0.0)
        pf = mar.PathFlowAssignment(human=({(1,): 2.0},), auto=({},))
        z = mar.to_link_flows(net, pf)
        assert z.pairs() == [(2.0, 0.0)]

    def test_even_split(self):
        net = parallel_net([{}, {}])
        pf = mar.PathFlowAssignment(
            human=({(1,): 0.5, (2,): 0.5},), auto=({(1,): 0.5, (2,): 0.5},))
        z = mar.to_link_flows(net, pf)
        assert z.pairs() == [(0.5, 0.5), (0.5, 0.5)]

    def test_triangle_two_hop(self):
        net = triangle_net(demand_human=1.0, demand_auto=0.0)
        pf = mar.PathFlowAssignment(human=({(1, 2): 1.0},), auto=({},))
        z = mar.to_link_flows(net, pf)
        assert list(z.x) == [1.0, 1.0, 0.0]
        assert list(z.y) == [0.0, 0.0, 0.0]

    @given(lam=st.floats(0.0, 1.0), d1=st.floats(0.1, 5.0), d2=st.floats(0.1, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_linearity(self, lam, d1, d2):
        net = parallel_net([{}, {}], demand_human=1.0, demand_auto=1.0)
        pf1 = mar.PathFlowAssignment(
            human=({(1,): d1, (2,): 0.0},), auto=({(1,): 0.0, (2,): d1},))
        pf2 = mar.PathFlowAssignment(
            human=({(1,): 0.0, (2,): d2},), auto=({(1,): d2, (2,): 0.0},))
        mix = mar.PathFlowAssignment(
            human=({(1,): lam * d1, (2,): (1 - lam) * d2},),
            auto=({(1,): (1 - lam) * d2, (2,): lam * d1},))
        z1 = mar.to_link_flows(net, pf1).interleaved
        z2 = mar.to_link_flows(net, pf2).interleaved
        zm = mar.to_link_flows(net, mix).interleaved
        assert np.allclose(zm, lam * z1 + (1 - lam) * z2, atol=1e-12)

    def test_bad_paths_and_flows_raise_typed_errors(self):
        net = parallel_net([{}, {}])
        unknown = mar.PathFlowAssignment(human=({(99,): 1.0},), auto=({(1,): 1.0},))
        with pytest.raises(errors.InvalidParameterError,
                           match=r"path \(99,\) is not a simple path of OD pair 0 \(s->t\)"):
            mar.to_link_flows(net, unknown)
        negative = mar.PathFlowAssignment(human=({(1,): 1.5, (2,): -0.5},), auto=({(1,): 1.0},))
        with pytest.raises(errors.NegativeFlowError):
            mar.to_link_flows(net, negative)

    def test_od_count_mismatch_raises(self):
        net = parallel_net([{}, {}])
        pf = mar.PathFlowAssignment(human=({(1,): 1.0}, {(1,): 1.0}), auto=({(1,): 1.0}, {}))
        with pytest.raises(errors.DimensionMismatchError):
            mar.to_link_flows(net, pf)


def reference_path_nodes(net, path):
    return [net.road(path[0]).tail] + [net.road(rid).head for rid in path]


def reference_validate_path(net, od, path):
    """A hand-written walk that accepts exactly the simple directed paths
    joining ``od``'s endpoints, independent of path enumeration."""
    if not path:
        raise errors.InvalidParameterError("empty path")
    for rid in path:
        if rid not in net._road_index:
            raise errors.InvalidParameterError(f"unknown road id {rid} in path")
    nodes = reference_path_nodes(net, path)
    for (rid_a, rid_b) in zip(path, path[1:]):
        if net.road(rid_a).head != net.road(rid_b).tail:
            raise errors.InvalidParameterError(f"disconnected path {path}")
    if nodes[0] != od.origin or nodes[-1] != od.destination:
        raise errors.InvalidParameterError(
            f"path {path} does not join {od.origin}->{od.destination}"
        )
    if len(set(nodes)) != len(nodes):
        raise errors.InvalidParameterError(f"path {path} revisits a node")


def _candidate_paths(net, table, rng):
    """Enumerated paths of every OD pair plus reversed, truncated, extended,
    cycled, unknown-id and random road sequences built from them."""
    rids = [road.rid for road in net.roads]
    candidates = {()}
    for path in (p for od_paths in table.paths for p in od_paths):
        candidates |= {path, path[::-1], path[:-1], path[1:], path + path,
                       path[1:] + path[:1], path + (int(rng.choice(rids)),),
                       path[:-1] + (max(rids) + 1,)}
    for _ in range(10):
        candidates.add(tuple(int(r) for r in rng.choice(rids, size=rng.integers(1, 5))))
    return sorted(candidates, key=lambda p: (len(p), p))


class TestPathValidity:
    def test_arrays_accepts_exactly_what_the_reference_walk_accepts(self, rng):
        nets = [random_network(rng) for _ in range(100)] + [grid_net(3)]
        tried = accepted = 0
        mismatches = []
        for net in nets:
            table = mar.path_table(net)
            n_od = len(net.od_pairs)
            for path in _candidate_paths(net, table, rng):
                for i, od in enumerate(net.od_pairs):
                    try:
                        reference_validate_path(net, od, path)
                        expected = True
                    except errors.InvalidParameterError:
                        expected = False
                    human = tuple({path: 1.0} if j == i else {} for j in range(n_od))
                    try:
                        table.arrays(mar.PathFlowAssignment(human=human, auto=({},) * n_od))
                        got = True
                    except errors.InvalidParameterError:
                        got = False
                    tried += 1
                    accepted += got
                    if got != expected:
                        mismatches.append((net, i, path))
        assert mismatches == []
        assert 0 < accepted < tried

    def test_flow_below_the_clip_threshold_raises(self):
        table = mar.path_table(parallel_net([{}, {}]))
        pf = mar.PathFlowAssignment(human=({(1,): 1.0, (2,): -1e-9},), auto=({(1,): 1.0},))
        with pytest.raises(errors.NegativeFlowError):
            table.arrays(pf)

    def test_tiny_negative_flows_clip_to_zero(self):
        table = mar.path_table(parallel_net([{}, {}]))
        pf = mar.PathFlowAssignment(human=({(1,): 1.0, (2,): -1e-13},), auto=({(2,): 1.0},))
        np.testing.assert_array_equal(table.arrays(pf), [1.0, 0.0, 0.0, 1.0])


class TestValidateAssignment:
    def test_demand_mismatch_rejected(self):
        net = parallel_net([{}, {}])
        pf = mar.PathFlowAssignment(human=({(1,): 0.4},), auto=({(2,): 1.0},))
        with pytest.raises(errors.InvalidParameterError):
            mar.validate_assignment(net, pf)

    def test_bad_path_rejected(self):
        net = parallel_net([{}, {}])
        pf = mar.PathFlowAssignment(human=({(7,): 1.0},), auto=({(2,): 1.0},))
        with pytest.raises(errors.InvalidParameterError):
            mar.validate_assignment(net, pf)


class TestCheckFeasible:
    def test_round_trip(self, rng):
        for _ in range(15):
            net = random_network(rng)
            pf = random_assignment(net, rng)
            z = mar.to_link_flows(net, pf)
            assert mar.check_feasible(net, z)

    def test_zero_flow_with_positive_demand(self):
        net = parallel_net([{}, {}])
        report = mar.check_feasible(net, [0.0, 0.0, 0.0, 0.0])
        assert not report
        assert report.max_conservation_residual > 0

    def test_negative_entry_invalid(self):
        net = parallel_net([{}, {}])
        assert not mar.check_feasible(net, [-0.5, 0.0, 1.5, 1.0])

    def test_wrong_length_raises(self):
        net = parallel_net([{}, {}])
        with pytest.raises(errors.DimensionMismatchError):
            mar.check_feasible(net, [1.0, 1.0])

    @pytest.mark.parametrize("entry_point", [
        mar.check_feasible, mar.social_cost, mar.cost_vector, mar.cost_jacobian,
        lambda net, z: mar.monotonicity_probe(net, [1.0] * 4, z),
        lambda net, z: mar.vi_residual(net, [1.0] * 4, z)])
    @pytest.mark.parametrize("z", [[1.0, 1.0], [1.0, 1.0, 1.0], [[1.0, 1.0], [1.0, 1.0]]],
                             ids=["short", "odd", "2-d"])
    def test_every_link_flow_input_checks_its_length(self, entry_point, z):
        with pytest.raises(errors.DimensionMismatchError, match="expected 4 flow entries"):
            entry_point(parallel_net([{}, {}]), z)

    def test_conservation_violation(self):
        net = triangle_net(demand_human=1.0, demand_auto=0.0)
        # human flow enters the middle link without leaving the origin
        z = [0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        assert not mar.check_feasible(net, z)

    def test_commodity_mismatch_detected(self):
        # two OD pairs: flows satisfy aggregate node balance only if each
        # commodity can actually be decomposed along its own paths
        roads = (
            mar.Road(rid=1, tail="s", head="a"),
            mar.Road(rid=2, tail="a", head="t"),
        )
        net = mar.Network(nodes=("s", "a", "t"), roads=roads,
                          od_pairs=(mar.ODPair("s", "a", 1.0, 0.0),
                                    mar.ODPair("a", "t", 1.0, 0.0)))
        good = [1.0, 0.0, 1.0, 0.0]
        assert mar.check_feasible(net, good)
        bad = [2.0, 0.0, 0.0, 0.0]
        assert not mar.check_feasible(net, bad)

    def test_balanced_flow_without_path_decomposition(self):
        # flow 1 on s->t balances every node for the OD pairs s->a and a->t,
        # but no path of either pair uses road s->t
        roads = (mar.Road(rid=1, tail="s", head="a"), mar.Road(rid=2, tail="a", head="t"),
                 mar.Road(rid=3, tail="s", head="t"))
        net = mar.Network(nodes=("s", "a", "t"), roads=roads,
                          od_pairs=(mar.ODPair("s", "a", 1.0, 0.0),
                                    mar.ODPair("a", "t", 1.0, 0.0)))
        report = mar.check_feasible(net, [0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
        assert not report
        assert report.max_conservation_residual <= 1e-12
        assert report.detail == "no per-OD path decomposition for human flows"

    def test_verdicts_agree_with_the_reference_lp(self, rng):
        # flows of random assignments, a third of them perturbed well past the
        # tolerance and a third by a tenth of it
        verdicts = []
        for i in range(300):
            net = random_network(rng)
            z = mar.to_link_flows(net, random_assignment(net, rng)).interleaved.copy()
            if i % 3 == 1:
                z += rng.uniform(0, 0.5, z.size) * (rng.random(z.size) < 0.3)
            elif i % 3 == 2:
                z += 0.1 * network.FLOW_TOL * rng.random(z.size)
            expected = reference_verdicts(net, z)
            got = network._decomposes(mar.path_table(net), z.reshape(-1, 2).T,
                                      decompose_tol(net), np.ones(2, bool))
            assert got.tolist() == expected
            verdicts.append(bool(mar.check_feasible(net, z)))
            assert verdicts[-1] == all(expected)
        assert any(verdicts) and not all(verdicts)

    def test_grid_circulation_verdicts_agree_with_the_reference_lp(self):
        # a human circulation around one unit square keeps every node balanced;
        # whether the paths can still carry it depends on its size, down to a
        # few times either tolerance
        verdicts = []
        tiny = [3 * network.FLOW_TOL, 3 * network.DECOMPOSE_TOL]
        for k, size in enumerate([0.05, 0.5, 2.0] * 4 + tiny * 2):
            net, z0 = grid_flows(k)
            z = z0 + size * grid_circulation(net)
            verdicts.append(bool(mar.check_feasible(net, z)))
            assert verdicts[-1] == all(reference_verdicts(net, z))
        assert any(verdicts) and not all(verdicts)

    def test_flows_a_few_tolerances_off_get_a_certified_verdict(self, rng):
        # perturbed by 1, 3 or 10 times either tolerance, a class is decided:
        # "decomposes" puts path flows within DECOMPOSE_TOL (scaled) of it, so
        # the least worst-road miss is at most that; "does not" certifies a
        # Euclidean miss above half of it, so a worst-road miss above that over
        # the square root of the road count
        verdicts = []
        for i in range(120):
            net = random_network(rng)
            z = mar.to_link_flows(net, random_assignment(net, rng)).interleaved.copy()
            tol = (network.FLOW_TOL, network.DECOMPOSE_TOL)[i % 2]
            z += (1, 3, 10)[i % 3] * tol * (1.0 + z.max()) * rng.random(z.size)
            mar.check_feasible(net, z)  # never raises
            verdicts += assert_certified(net, z)
        assert any(verdicts) and not all(verdicts)

    def test_flows_at_the_edge_of_decomposable_get_a_certified_verdict(self):
        # between a grid's flows and the same flows with a circulation of 2 the
        # paths cannot carry, the reference LP's last decomposable point t is
        # the edge; within a few tolerances past it, several paths of a block
        # tie at the least residual cost, where a residual's rounding matters
        verdicts = []
        for k in range(3):
            net, z0 = grid_flows(k)
            step = 2.0 * grid_circulation(net)
            table = mar.path_table(net)
            lo, hi = 0.0, 1.0
            for _ in range(30):
                mid = 0.5 * (lo + hi)
                if lp_decomposes(table, (z0 + mid * step)[0::2], table.demand_human):
                    lo = mid
                else:
                    hi = mid
            for dt in (-1e-6, 1e-8, 1e-6, 3e-6, 1e-4):
                z = z0 + (lo + dt) * step
                mar.check_feasible(net, z)  # never raises
                verdicts += assert_certified(net, z)
        assert any(verdicts) and not all(verdicts)

    def test_auto_flows_that_do_not_conserve_are_not_decomposed(self, monkeypatch):
        # the one solve leaves out a class that already fails conservation, so
        # such a class cannot exhaust the iteration cap
        net = grid_net(4)
        table = mar.path_table(net)
        z = mar.to_link_flows(net, table.assignment(
            table.random_start(np.random.default_rng(0)))).interleaved.copy()
        z[1::2] += 3 * network.FLOW_TOL * (1.0 + z.max()) * grid_circulation(net)[0::2]
        z[1] += 5 * network.FLOW_TOL * (1.0 + z.max())
        asked = []
        solve = network._decomposes
        monkeypatch.setattr(network, "_decomposes",
                            lambda *args: asked.append(args[3].tolist()) or solve(*args))
        report = mar.check_feasible(net, z)
        assert report.detail.startswith("auto conservation residual")
        assert asked == [[True, False]]

    def test_undecided_at_the_iteration_cap_raises(self, monkeypatch):
        net = grid_net(4)
        table = mar.path_table(net)
        z = mar.to_link_flows(net, table.assignment(
            table.random_start(np.random.default_rng(0))))
        assert mar.check_feasible(net, z)
        monkeypatch.setattr(network, "_DECOMPOSE_ITERATIONS", 1)
        with pytest.raises(errors.TooLargeError, match="undecided after 1 iterations"):
            mar.check_feasible(net, z)


def block_rows(table):
    """Per OD pair, the 0/1 row of its path columns."""
    n_od = len(table.blocks)
    owner = np.nonzero(table.valid[:n_od])[0]  # the OD pair of each path column
    return (owner == np.arange(n_od)[:, None]).astype(float)


def lp_decomposes(table, link_flows, demands):
    """The linear program check_feasible decided path decomposition with
    before, kept as the reference: path flows ``p >= 0`` with ``incidence @ p
    = link_flows`` and per-OD totals equal to the demands."""
    from scipy.optimize import linprog

    res = linprog(np.zeros(table.total_paths),
                  A_eq=np.vstack([table.incidence, block_rows(table)]),
                  b_eq=np.concatenate([link_flows, demands]), bounds=(0, None),
                  method="highs", options={"primal_feasibility_tolerance": 1e-9})
    return res.status == 0


def lp_distance(table, link_flows, demands):
    """The least worst-road miss ``max|incidence @ p - link_flows|`` over path
    flows ``p >= 0`` with per-OD totals equal to the demands, by a linear
    program in ``(p, t)`` with ``-t <= incidence @ p - link_flows <= t``."""
    from scipy.optimize import linprog

    a, ones = table.incidence, np.ones((len(table.incidence), 1))
    rows = block_rows(table)
    res = linprog(np.eye(table.total_paths + 1)[-1],
                  A_ub=np.block([[a, -ones], [-a, -ones]]),
                  b_ub=np.concatenate([link_flows, -link_flows]),
                  A_eq=np.hstack([rows, np.zeros((len(rows), 1))]), b_eq=demands,
                  bounds=(0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return res.fun


def decompose_tol(net):
    return network.DECOMPOSE_TOL * (1.0 + max(od.total_demand for od in net.od_pairs))


def assert_certified(net, z):
    """Per class, ``_decomposes``'s verdict on link flows ``z``, checked
    against the least worst-road miss that it certifies."""
    table, tol = mar.path_table(net), decompose_tol(net)
    flows = np.asarray(z).reshape(-1, 2).T
    got = network._decomposes(table, flows, tol, np.ones(2, bool))
    for fits, f, d in zip(got, flows, (table.demand_human, table.demand_auto)):
        miss = lp_distance(table, f, d)
        if fits:
            assert miss <= tol + 1e-9
        else:
            assert miss > 0.5 * tol / np.sqrt(net.n_roads) - 1e-9
    return got.tolist()


def grid_flows(seed):
    """A 4x4 grid and the interleaved link flows of a random assignment on it."""
    net = grid_net(4, np.random.default_rng(seed))
    table = mar.path_table(net)
    return net, mar.to_link_flows(net, table.assignment(
        table.random_start(np.random.default_rng(100 + seed)))).interleaved.copy()


def grid_circulation(net):
    """Interleaved link flows of a unit human circulation around the grid's
    first unit square."""
    index = {(road.tail, road.head): i for i, road in enumerate(net.roads)}
    c = np.zeros(2 * net.n_roads)
    for ends in (("n0_0", "n0_1"), ("n0_1", "n1_1"), ("n1_1", "n1_0"), ("n1_0", "n0_0")):
        c[2 * index[ends]] = 1.0
    return c


def reference_verdicts(net, z):
    """Per class, the reference LP's verdict on link flows ``z``."""
    table = mar.path_table(net)
    return [lp_decomposes(table, f, d)
            for f, d in zip(z.reshape(-1, 2).T, (table.demand_human, table.demand_auto))]


_ROAD = mar.Road(rid=1, tail="s", head="t")
_NON_FINITE_ENTRY_POINTS = {
    "FlowVector": lambda v: mar.FlowVector([v, 1.0]),
    "check_feasible": lambda v: mar.check_feasible(parallel_net([{}, {}]), [v, 0.0, 1.0, 1.0]),
    "social_cost": lambda v: mar.social_cost(parallel_net([{}, {}]), [v, 0.0, 1.0, 1.0]),
    "vi_residual": lambda v: mar.vi_residual(parallel_net([{}, {}]), [1.0] * 4, [v, 0, 1, 1]),
    "link_cost": lambda v: mar.link_cost(_ROAD, v, 1.0),
    "autonomy_level": lambda v: mar.autonomy_level(1.0, v),
    "xi": lambda v: mar.xi(v),
    "beta_road_closed_form": lambda v: mar.beta_road_closed_form(_ROAD, v, 1.0, 1.0),
    "beta_road_numeric": lambda v: mar.beta_road_numeric(_ROAD, 1.0, v, 1.0),
    "aggregate_cost": lambda v: mar.aggregate_cost(_ROAD, v, 1.0),
    "AggregateCost": lambda v: mar.aggregate_cost(_ROAD, 1.0, 1.0)(v),
    "verify_lemma_agg_poa_ratio-anchor":
        lambda v: mar.verify_lemma_agg_poa_ratio(_ROAD, 1.0, v, 0.5, 1.0),
    "verify_lemma_agg_poa_ratio-f": lambda v: mar.verify_lemma_agg_poa_ratio(_ROAD, 1.0, 1.0, v, 1.0),
    "verify_lemma_agg_poa_ratio-g": lambda v: mar.verify_lemma_agg_poa_ratio(_ROAD, 1.0, 1.0, 0.5, v),
    "verify_lemma_agg_opt-x": lambda v: mar.verify_lemma_agg_opt(_ROAD, v, 1.0),
    "verify_lemma_agg_opt-y": lambda v: mar.verify_lemma_agg_opt(_ROAD, 1.0, v),
    "headway_from_speed-vehicle_length": lambda v: mar.headway_from_speed(v, 1.0, 1.0),
    "headway_from_speed-speed": lambda v: mar.headway_from_speed(1.0, v, 1.0),
    "headway_from_speed-reaction_time": lambda v: mar.headway_from_speed(1.0, 1.0, v),
}


def _through_assignment(check, cls_name):
    """``check(net, pf)`` on two parallel roads with unit demands, where the
    ``cls_name`` flow on road 1 is the value under test."""
    def call(v):
        flows = {"human": ({(1,): 1.0, (2,): 0.0},), "auto": ({(1,): 1.0, (2,): 0.0},)}
        flows[cls_name] = ({(1,): v, (2,): 0.0},)
        return check(parallel_net([{}, {}]), mar.PathFlowAssignment(**flows))
    return call


_NON_FINITE_ENTRY_POINTS.update({
    f"{name}-{cls_name}": _through_assignment(check, cls_name)
    for name, check in (("validate_assignment", mar.validate_assignment),
                        ("to_link_flows", mar.to_link_flows),
                        ("PathTable.arrays", lambda net, pf: mar.path_table(net).arrays(pf)),
                        ("wardrop_gap", mar.wardrop_gap),
                        ("solve_equilibrium", lambda net, pf: mar.solve_equilibrium(net, start=pf)))
    for cls_name in ("human", "auto")
})


@pytest.mark.parametrize("value", [float("nan"), float("inf")], ids=["nan", "inf"])
@pytest.mark.parametrize("entry_point", sorted(_NON_FINITE_ENTRY_POINTS))
def test_non_finite_flows_rejected(entry_point, value):
    with pytest.raises(errors.MarError):
        _NON_FINITE_ENTRY_POINTS[entry_point](value)


class TestFlowVector:
    def test_from_xy_and_views(self):
        z = mar.FlowVector.from_xy([1.0, 2.0], [3.0, 4.0])
        assert list(z.interleaved) == [1.0, 3.0, 2.0, 4.0]
        assert list(z.total) == [4.0, 6.0]
        assert z.n_roads == 2

    def test_negative_rejected(self):
        with pytest.raises(errors.NegativeFlowError):
            mar.FlowVector([1.0, -0.5])

    def test_odd_length_rejected(self):
        with pytest.raises(errors.DimensionMismatchError):
            mar.FlowVector([1.0, 2.0, 3.0])

    def test_read_only(self):
        z = mar.FlowVector([1.0, 2.0])
        with pytest.raises(ValueError):
            z.interleaved[0] = 5.0
