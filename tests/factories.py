"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np

import mar


def parallel_net(road_specs, demand_human=1.0, demand_auto=1.0) -> mar.Network:
    """Parallel roads s->t. Each spec is a dict of Road keyword overrides."""
    roads = tuple(
        mar.Road(rid=i + 1, tail="s", head="t", **spec)
        for i, spec in enumerate(road_specs)
    )
    od = mar.ODPair("s", "t", demand_human, demand_auto)
    return mar.Network(nodes=("s", "t"), roads=roads, od_pairs=(od,))


def separate_parallel(lengths, demands) -> mar.Network:
    """OD pair i joins its own nodes s<i> -> t<i> by ``lengths[i]`` parallel
    default roads and carries ``demands[i]``, a (human, auto) pair."""
    roads, ods, nodes = [], [], []
    for i, (m, (dh, da)) in enumerate(zip(lengths, demands)):
        nodes += [f"s{i}", f"t{i}"]
        roads += [mar.Road(rid=len(roads) + j + 1, tail=f"s{i}", head=f"t{i}")
                  for j in range(m)]
        ods.append(mar.ODPair(f"s{i}", f"t{i}", dh, da))
    return mar.Network(nodes=tuple(nodes), roads=tuple(roads), od_pairs=tuple(ods))


def grid_net(k: int, rng: np.random.Generator | None = None) -> mar.Network:
    """Bidirectional k x k grid with two crossing corner-to-corner OD pairs.

    Default roads and unit demands; given ``rng``, random roads and then
    demands, drawn in the order of the benchmark's grid generator (so
    ``default_rng(0)`` yields its seed-0 grid stream at ``k = 4``).
    """
    name = [[f"n{r}_{c}" for c in range(k)] for r in range(k)]
    ends = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                ends += [(name[r][c], name[r][c + 1]), (name[r][c + 1], name[r][c])]
            if r + 1 < k:
                ends += [(name[r][c], name[r + 1][c]), (name[r + 1][c], name[r][c])]
    if rng is None:
        roads = tuple(mar.Road(rid=i + 1, tail=tail, head=head)
                      for i, (tail, head) in enumerate(ends))
        demands = [(1.0, 1.0), (1.0, 1.0)]
    else:
        roads = tuple(random_road(rng, i + 1, tail, head) for i, (tail, head) in enumerate(ends))
        demands = [(rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)) for _ in range(2)]
    ods = (mar.ODPair(name[0][0], name[k - 1][k - 1], *demands[0]),
           mar.ODPair(name[k - 1][0], name[0][k - 1], *demands[1]))
    return mar.Network(tuple(n for row in name for n in row), roads, ods)


def zero_demand_beside_asymmetric() -> mar.Network:
    """An asymmetric two-road OD pair (the designated instance's roads) beside
    an OD pair of two default roads that carries no demand."""
    roads = (
        mar.Road(rid=1, tail="s0", head="t0", length=1.0, headway=2.0,
                 platoon_headway=1.0, freeflow=1.0, rho=1.0, sigma=1.0),
        mar.Road(rid=2, tail="s0", head="t0", length=1.0, headway=2.0,
                 platoon_headway=2.0, freeflow=1.0, rho=1.0, sigma=1.0),
        mar.Road(rid=3, tail="s1", head="t1"),
        mar.Road(rid=4, tail="s1", head="t1"),
    )
    return mar.Network(("s0", "t0", "s1", "t1"), roads,
                       (mar.ODPair("s0", "t0", 1.0, 1.0), mar.ODPair("s1", "t1", 0.0, 0.0)))


def symmetric_pair(sigma=1.0, rho=1.0, freeflow=1.0, headway=1.0,
                   demand_human=1.0, demand_auto=1.0) -> mar.Network:
    spec = dict(length=1.0, headway=headway, platoon_headway=headway,
                freeflow=freeflow, rho=rho, sigma=sigma)
    return parallel_net([dict(spec), dict(spec)], demand_human, demand_auto)


def designated_two_road() -> mar.Network:
    """The two-road instance used for solver cross-validation: road 1 has
    asymmetric headways (2, 1), road 2 symmetric (2, 2); unit demands."""
    return parallel_net(
        [dict(length=1.0, headway=2.0, platoon_headway=1.0, freeflow=1.0, rho=1.0, sigma=1.0),
         dict(length=1.0, headway=2.0, platoon_headway=2.0, freeflow=1.0, rho=1.0, sigma=1.0)],
        demand_human=1.0, demand_auto=1.0,
    )


def triangle_net(demand_human=1.0, demand_auto=1.0) -> mar.Network:
    """Roads 1: s->a, 2: a->t, 3: s->t; one OD pair s->t."""
    roads = (
        mar.Road(rid=1, tail="s", head="a", rho=1.0, sigma=1.0),
        mar.Road(rid=2, tail="a", head="t", rho=1.0, sigma=1.0),
        mar.Road(rid=3, tail="s", head="t", rho=1.0, sigma=1.0),
    )
    od = mar.ODPair("s", "t", demand_human, demand_auto)
    return mar.Network(nodes=("s", "a", "t"), roads=roads, od_pairs=(od,))


def random_road(rng: np.random.Generator, rid: int, tail: str, head: str,
                sigma_pool=(1.0, 2.0, 4.0), k_max=4.0,
                monotone_envelope=True) -> mar.Road:
    """Random BPR road.

    With ``monotone_envelope`` the sample stays inside the regime where the
    delay is nondecreasing in each flow: model 2 roads cap the platooned
    headway at twice the plain one (the other orientation is unrestricted).
    """
    model = mar.CapacityModel.MODEL1 if rng.random() < 0.5 else mar.CapacityModel.MODEL2
    small = rng.uniform(0.5, 3.0)
    ratio = rng.uniform(1.0, k_max)
    platoon_larger = rng.random() < 0.5
    if platoon_larger and monotone_envelope and model is mar.CapacityModel.MODEL2:
        ratio = rng.uniform(1.0, min(k_max, 2.0))
    if platoon_larger:
        headway, platoon = small, small * ratio
    else:
        headway, platoon = small * ratio, small
    return mar.Road(
        rid=rid, tail=tail, head=head,
        length=rng.uniform(0.5, 2.0),
        headway=headway, platoon_headway=platoon,
        freeflow=rng.uniform(0.5, 2.0),
        rho=rng.uniform(0.05, 1.5),
        sigma=float(rng.choice(sigma_pool)),
        capacity_model=model,
    )


def random_network(rng: np.random.Generator, sigma_pool=(1.0, 2.0, 4.0),
                   k_max=4.0, monotone_envelope=True) -> mar.Network:
    """Random 2-4 road, 1-2 OD instance over a few small topologies."""
    def road(rid, tail, head):
        return random_road(rng, rid, tail, head, sigma_pool, k_max, monotone_envelope)

    topology = rng.integers(0, 5)
    dh = rng.uniform(0.2, 2.0)
    da = rng.uniform(0.2, 2.0)
    if topology in (0, 1, 2):  # 2-4 parallel roads, one OD
        n = int(topology) + 2
        roads = tuple(road(i + 1, "s", "t") for i in range(n))
        ods = (mar.ODPair("s", "t", dh, da),)
        nodes = ("s", "t")
    elif topology == 3:  # triangle
        roads = (road(1, "s", "a"), road(2, "a", "t"), road(3, "s", "t"))
        ods = (mar.ODPair("s", "t", dh, da),)
        nodes = ("s", "a", "t")
    else:  # two OD pairs over a shared middle link
        roads = (road(1, "s", "a"), road(2, "s", "a"), road(3, "a", "t"), road(4, "a", "t"))
        ods = (mar.ODPair("s", "t", dh, da),
               mar.ODPair("a", "t", rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)))
        nodes = ("s", "a", "t")
    return mar.Network(nodes=nodes, roads=roads, od_pairs=ods)


def random_assignment(net: mar.Network, rng: np.random.Generator) -> mar.PathFlowAssignment:
    table = mar.path_table(net)
    return table.assignment(table.random_start(rng))


def random_flow_pair(rng: np.random.Generator, scale=4.0) -> tuple[float, float]:
    return float(rng.uniform(0, scale)), float(rng.uniform(0, scale))


def designated_min_gap_grid(resolution=1e-3):
    """Brute-force minimal-gap points of the designated two-road instance.

    Costs are written out by hand (road 1: 1 + (2x+y), road 2: 1 + 2(x+y))
    so this oracle shares no arithmetic with the library. Returns the grid
    coordinates (human share on road 1, auto share on road 1) of every point
    whose hand-computed routing gap is within 1e-9 of the minimum.
    """
    s = np.linspace(0.0, 1.0, int(round(1.0 / resolution)) + 1)
    sh, sa = np.meshgrid(s, s, indexing="ij")
    c1 = 1.0 + (2.0 * sh + sa)
    c2 = 1.0 + 2.0 * ((1.0 - sh) + (1.0 - sa))
    cmin = np.minimum(c1, c2)
    gap = (sh + sa) * (c1 - cmin) + ((1.0 - sh) + (1.0 - sa)) * (c2 - cmin)
    keep = gap <= gap.min() + 1e-9
    return sh[keep], sa[keep]
