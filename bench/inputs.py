"""Seeded input generators for the benchmark.

The small-instance stream reproduces the distribution (and the exact draw
order) of the test suite's ``random_network`` factory, so the default
``fuzz-poa`` seed replays the acceptance fuzz fixture. It is a copy, not an
import: editing the tests must not shift the benchmark's inputs.
"""

from __future__ import annotations

import dataclasses
import json

import numpy as np

import mar

FUZZ_SEED = 987654321      # the acceptance fuzz fixture's seed
BOUNDS_SEED = 13577531     # the acceptance criterion-5 seed
GRID_SEED = 0
CLI_SEED = 5               # the acceptance criterion-10 sweep seed
SIGMA_POOL = (1.0, 2.0, 4.0)
K_MAX = 4.0                # largest ratio of the two headways
GRID_K = 4                 # grid side: 48 roads, 2 x 184 simple paths
PAIRS = 40                 # lemma samples per verifier and capacity model in a block
BETAS = 40                 # beta samples in a block


def random_road(rng: np.random.Generator, rid: int, tail: str, head: str,
                monotone_envelope=True) -> mar.Road:
    """Random BPR road; model 2 roads stay inside the monotone envelope
    (platooned headway at most twice the plain one) unless told otherwise."""
    model = mar.CapacityModel.MODEL1 if rng.random() < 0.5 else mar.CapacityModel.MODEL2
    small = rng.uniform(0.5, 3.0)
    ratio = rng.uniform(1.0, K_MAX)
    platoon_larger = rng.random() < 0.5
    if platoon_larger and monotone_envelope and model is mar.CapacityModel.MODEL2:
        ratio = rng.uniform(1.0, min(K_MAX, 2.0))
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
        sigma=float(rng.choice(SIGMA_POOL)),
        capacity_model=model,
    )


def random_network(rng: np.random.Generator) -> mar.Network:
    """Random 2-4 road, 1-2 OD instance over five small topologies."""
    topology = rng.integers(0, 5)
    dh = rng.uniform(0.2, 2.0)
    da = rng.uniform(0.2, 2.0)
    if topology in (0, 1, 2):  # 2-4 parallel roads, one OD
        roads = tuple(random_road(rng, i + 1, "s", "t") for i in range(int(topology) + 2))
        return mar.Network(("s", "t"), roads, (mar.ODPair("s", "t", dh, da),))
    if topology == 3:  # triangle
        roads = (random_road(rng, 1, "s", "a"), random_road(rng, 2, "a", "t"),
                 random_road(rng, 3, "s", "t"))
        return mar.Network(("s", "a", "t"), roads, (mar.ODPair("s", "t", dh, da),))
    # two OD pairs over a shared middle link
    roads = (random_road(rng, 1, "s", "a"), random_road(rng, 2, "s", "a"),
             random_road(rng, 3, "a", "t"), random_road(rng, 4, "a", "t"))
    ods = (mar.ODPair("s", "t", dh, da),
           mar.ODPair("a", "t", rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)))
    return mar.Network(("s", "a", "t"), roads, ods)


def fuzz_stream(seed: int, count: int) -> list[mar.Network]:
    """The first ``count`` instances of the seeded small-instance stream."""
    rng = np.random.default_rng(seed)
    return [random_network(rng) for _ in range(count)]


def grid_network(rng: np.random.Generator) -> mar.Network:
    """Bidirectional ``GRID_K`` x ``GRID_K`` grid with random roads and two
    crossing corner-to-corner OD pairs."""
    k = GRID_K
    name = [[f"n{r}_{c}" for c in range(k)] for r in range(k)]
    ends = []
    for r in range(k):
        for c in range(k):
            if c + 1 < k:
                ends += [(name[r][c], name[r][c + 1]), (name[r][c + 1], name[r][c])]
            if r + 1 < k:
                ends += [(name[r][c], name[r + 1][c]), (name[r + 1][c], name[r][c])]
    roads = tuple(random_road(rng, i + 1, tail, head) for i, (tail, head) in enumerate(ends))
    ods = (mar.ODPair(name[0][0], name[k - 1][k - 1],
                      rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)),
           mar.ODPair(name[k - 1][0], name[0][k - 1],
                      rng.uniform(0.2, 2.0), rng.uniform(0.2, 2.0)))
    return mar.Network(tuple(n for row in name for n in row), roads, ods)


def grid_stream(seed: int, count: int) -> list[mar.Network]:
    rng = np.random.default_rng(seed)
    return [grid_network(rng) for _ in range(count)]


def property_block(rng: np.random.Generator) -> dict:
    """One block of criterion-5 property samples.

    Per capacity model, one random road (headways unrestricted) with ``PAIRS``
    samples for each of the two lemma verifiers; then ``BETAS`` beta samples
    on fresh roads, every tenth also through the numeric maximizer.
    """
    lemmas = []
    for model in mar.CapacityModel:
        road = random_road(rng, 1, "s", "t", monotone_envelope=False)
        road = dataclasses.replace(road, capacity_model=model)
        for _ in range(PAIRS):
            x_eq, y_eq = rng.uniform(0, 3, size=2)
            g = float(rng.uniform(1e-3, 5))
            f = float(rng.uniform(0, g))
            x, y = rng.uniform(0, 4, size=2)
            lemmas.append((road, float(x_eq), float(y_eq), f, g, float(x), float(y)))
    beta = []
    for i in range(BETAS):
        road = random_road(rng, 1, "s", "t", monotone_envelope=False)
        v, w = rng.uniform(0, 3, size=2)
        if v + w < 1e-9:
            v = 0.5
        sigma = float(rng.choice(SIGMA_POOL))
        beta.append((road, float(v), float(w), sigma, i % 10 == 0))
    return {"lemmas": lemmas, "beta": beta}


def property_stream(seed: int, count: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    return [property_block(rng) for _ in range(count)]


def designated_two_road() -> dict:
    """The solver cross-validation instance: road 1 headways (2, 1), road 2 (2, 2)."""
    return {"nodes": ["s", "t"],
            "roads": [{"id": 1, "tail": "s", "head": "t", "headway": 2.0,
                       "platoon_headway": 1.0, "rho": 1.0, "sigma": 1.0},
                      {"id": 2, "tail": "s", "head": "t", "headway": 2.0,
                       "platoon_headway": 2.0, "rho": 1.0, "sigma": 1.0}],
            "od_pairs": [{"origin": "s", "destination": "t",
                          "demand_human": 1.0, "demand_auto": 1.0}]}


def two_od_network() -> dict:
    """Four roads, two OD pairs sharing the middle node (the stream's topology
    4) with fixed, moderately asymmetric parameters: the path set exceeds the
    brute-force guard, so every optimum is local search."""
    road = lambda rid, tail, head, h, hp, sigma: {
        "id": rid, "tail": tail, "head": head, "headway": h, "platoon_headway": hp,
        "rho": 1.0, "sigma": sigma, "capacity_model": "model1" if rid % 2 else "model2"}
    return {"nodes": ["s", "a", "t"],
            "roads": [road(1, "s", "a", 2.0, 1.0, 1.0), road(2, "s", "a", 1.5, 1.5, 2.0),
                      road(3, "a", "t", 1.0, 1.8, 1.0), road(4, "a", "t", 2.5, 1.25, 2.0)],
            "od_pairs": [{"origin": "s", "destination": "t",
                          "demand_human": 1.0, "demand_auto": 0.8},
                         {"origin": "a", "destination": "t",
                          "demand_human": 0.6, "demand_auto": 0.9}]}


def cli_scenarios(seed: int) -> dict[str, str]:
    """Scenario files for the CLI workload, keyed by file stem.

    The seed only sets the solver seeds, written into each file, so the CLI
    run and an in-process ``mar.run`` of the parsed file compute the same
    report.
    """
    docs = {
        "sweep-share": {"experiment": "sweep", "network": designated_two_road(),
                        "sweep": {"parameter": "autonomy_share", "start": 0.0,
                                  "stop": 1.0, "steps": 11}},
        "sweep-k": {"experiment": "sweep", "network": two_od_network(),
                    "optimum": {"restarts": 8},
                    "sweep": {"parameter": "k_scale", "start": 1.0, "stop": 3.0,
                              "steps": 5}},
        "poa": {"experiment": "poa", "network": two_od_network(),
                "optimum": {"restarts": 8}},
    }
    return {stem: json.dumps({"schema_version": "1", "seed": seed, **doc}, indent=1)
            for stem, doc in docs.items()}
