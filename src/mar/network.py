"""Road networks, travel demands, and the path-based routing space.

A network is a directed multigraph of roads plus OD pairs carrying separate
human-driven and autonomous flow demands. Every road has the one delay kind of
``mar.costs``, BPR-form with a headway-set capacity. Routings are represented
two ways:

* link flows: one (human, autonomous) pair per road, interleaved in a single
  vector ``[x_1, y_1, x_2, y_2, ...]`` of length ``2N``;
* path flows: one stacked array ``[human | auto]`` of length ``2P`` over the
  ``P`` enumerated simple paths, laid out by ``PathTable``. Every solver
  keeps path flows this way; ``PathFlowAssignment`` (per OD pair and class, a
  dict from path to flow) exists only at the API edge and enters the solvers
  through ``PathTable.arrays``, which accepts a path exactly when it is
  enumerated.

The path problem has a topology part and a demand part. The topology (the
enumerated paths, the incidence matrix and the block layout of a path-flow
row) depends only on road ids and endpoints and on OD endpoints, so it is
built once and shared by networks that differ only in demands or road
parameters, as sweep steps do. ``path_table`` adds a network's demands.

All types are immutable after construction and validate their invariants on
construction. Feasibility of a raw link-flow vector is decided by decomposing
it into per-OD path flows, on the simplex projection the optimum also uses.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from . import errors

#: A directed path, written as the sequence of road ids it traverses.
Path = tuple[int, ...]

#: Most simple paths, summed over OD pairs, that enumeration lists before it
#: stops with ``TooLargeError``; a 5x5 grid's two corner-to-corner pairs have 17,024.
MAX_PATHS = 100_000

#: Relative tolerance of the demand totals and flow conservation that
#: ``validate_assignment`` and ``check_feasible`` check.
FLOW_TOL = 1e-9

#: Relative Euclidean tolerance of ``check_feasible``'s path decomposition; in
#: float64 it certifies "none" only well above sqrt(eps) times the flows.
DECOMPOSE_TOL = 1e-6


def _check_finite(owner: str, **values: float) -> None:
    for name, value in values.items():
        if not math.isfinite(value):
            raise errors.InvalidParameterError(f"{owner}: {name} must be finite, got {value}")


def _check_integer(name: str, value, minimum: int) -> None:
    """Raise unless ``value`` is an integer, not a bool, of at least ``minimum``:
    a count, or a seed for ``numpy.random.default_rng``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < minimum:
        raise errors.InvalidParameterError(
            f"{name} must be an integer >= {minimum}, got {value!r}")


class CapacityModel(enum.Enum):
    """How autonomous vehicles are allowed to platoon on a road.

    MODEL1: an autonomous vehicle platoons behind any vehicle, so it always
    occupies ``platoon_headway``. MODEL2: it platoons only behind another
    autonomous vehicle and otherwise occupies the full ``headway``.
    """

    MODEL1 = "model1"
    MODEL2 = "model2"


@dataclass(frozen=True)
class Road:
    """One directed road.

    ``headway`` is the road length occupied by a non-platooned vehicle at
    nominal speed, ``platoon_headway`` by a platooned one. Neither is assumed
    larger than the other. The delay is BPR-form with a capacity set by the
    headways (see ``mar.costs``); with ``sigma`` 1 under model 1 it is affine
    in the two class flows. ``rid`` is the road's id, keyed ``id`` in a
    scenario file.
    """

    rid: int = field(metadata={"key": "id"})
    tail: str
    head: str
    length: float = 1.0
    headway: float = 1.0
    platoon_headway: float = 1.0
    freeflow: float = 1.0
    rho: float = 0.15
    sigma: float = 4.0
    capacity_model: CapacityModel = CapacityModel.MODEL1

    def __post_init__(self) -> None:
        _check_finite(f"road {self.rid}", length=self.length, headway=self.headway,
                      platoon_headway=self.platoon_headway, freeflow=self.freeflow,
                      rho=self.rho, sigma=self.sigma)
        if self.length <= 0:
            raise errors.InvalidParameterError(f"road {self.rid}: length must be > 0")
        if self.headway <= 0 or self.platoon_headway <= 0:
            raise errors.InvalidParameterError(f"road {self.rid}: headways must be > 0")
        if self.freeflow < 0:
            raise errors.InvalidParameterError(f"road {self.rid}: freeflow must be >= 0")
        if self.rho < 0:
            raise errors.InvalidParameterError(f"road {self.rid}: rho must be >= 0")
        if self.sigma < 1:
            raise errors.InvalidParameterError(
                f"road {self.rid}: sigma must be >= 1, got {self.sigma}"
            )
        if not isinstance(self.capacity_model, CapacityModel):
            raise errors.InvalidParameterError(
                f"road {self.rid}: capacity_model must be a CapacityModel"
            )

    @property
    def headway_ratio(self) -> float:
        """Per-road asymmetry: max of the headway ratio in either direction."""
        return max(self.headway / self.platoon_headway,
                   self.platoon_headway / self.headway)


@dataclass(frozen=True)
class ODPair:
    """Origin-destination pair with per-class flow demands."""

    origin: str
    destination: str
    demand_human: float
    demand_auto: float

    def __post_init__(self) -> None:
        _check_finite(f"OD ({self.origin}->{self.destination})",
                      demand_human=self.demand_human, demand_auto=self.demand_auto)
        if self.demand_human < 0 or self.demand_auto < 0:
            raise errors.InvalidParameterError(
                f"OD ({self.origin}->{self.destination}): demands must be >= 0"
            )

    @property
    def total_demand(self) -> float:
        return self.demand_human + self.demand_auto


@dataclass(frozen=True)
class Network:
    """Immutable road network with demands. Validates all invariants on build."""

    nodes: tuple[str, ...]
    roads: tuple[Road, ...]
    od_pairs: tuple[ODPair, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "roads", tuple(self.roads))
        object.__setattr__(self, "od_pairs", tuple(self.od_pairs))
        if len(set(self.nodes)) != len(self.nodes):
            raise errors.DuplicateIdError("duplicate node id")
        rids = [r.rid for r in self.roads]
        if len(set(rids)) != len(rids):
            raise errors.DuplicateIdError("duplicate road id")
        if not self.roads:
            raise errors.InvalidParameterError("network has no roads")
        node_set = set(self.nodes)
        for road in self.roads:
            if road.tail not in node_set or road.head not in node_set:
                raise errors.DanglingEndpointError(
                    f"road {road.rid} endpoint not declared: {road.tail}->{road.head}"
                )
        if not self.od_pairs:
            raise errors.InvalidParameterError("network has no OD pairs")
        for od in self.od_pairs:
            if od.origin not in node_set or od.destination not in node_set:
                raise errors.DanglingEndpointError(
                    f"OD endpoint not declared: {od.origin}->{od.destination}"
                )
        if all(od.total_demand == 0 for od in self.od_pairs):
            raise errors.InvalidParameterError(
                "at least one OD pair must carry positive demand"
            )
        for od in self.od_pairs:
            if not _reachable(self, od.origin, od.destination):
                raise errors.UnreachableODError(
                    f"no directed path {od.origin}->{od.destination}"
                )

    @cached_property
    def _adjacency(self) -> dict[str, list[tuple[int, str]]]:
        return _adjacency_of((r.rid, r.tail, r.head) for r in self.roads)

    @cached_property
    def _road_index(self) -> dict[int, int]:
        return {road.rid: i for i, road in enumerate(self.roads)}

    @property
    def n_roads(self) -> int:
        return len(self.roads)

    def road(self, rid: int) -> Road:
        return self.roads[self._road_index[rid]]


def _reachable(net: Network, origin: str, destination: str) -> bool:
    if origin == destination:
        return False
    seen = {origin}
    stack = [origin]
    while stack:
        node = stack.pop()
        for _, head in net._adjacency.get(node, ()):
            if head == destination:
                return True
            if head not in seen:
                seen.add(head)
                stack.append(head)
    return False


def _adjacency_of(ends) -> dict[str, list[tuple[int, str]]]:
    """Per node, the (rid, head) of its outgoing roads in road-id order."""
    adj: dict[str, list[tuple[int, str]]] = {}
    for rid, tail, head in sorted(ends):
        adj.setdefault(tail, []).append((rid, head))
    return adj


class FlowVector:
    """Per-road (human, autonomous) flow pairs, interleaved as ``[x1, y1, ...]``.

    Entries are finite and nonnegative; tiny negative values (>= -1e-9) from
    floating arithmetic are clipped to zero.
    """

    __slots__ = ("_z",)

    def __init__(self, entries: Iterable[float]):
        arr = np.array(list(entries) if not isinstance(entries, np.ndarray) else entries,
                       dtype=float)
        if arr.ndim != 1 or arr.size % 2 != 0 or arr.size == 0:
            raise errors.DimensionMismatchError(
                f"flow vector must have even positive length, got shape {arr.shape}"
            )
        if not np.isfinite(arr).all():
            raise errors.InvalidParameterError("flow entries must be finite")
        if arr.min(initial=0.0) < -1e-9:
            raise errors.NegativeFlowError(f"negative flow entry: {arr.min()}")
        np.clip(arr, 0.0, None, out=arr)
        arr.setflags(write=False)
        self._z = arr

    @classmethod
    def from_xy(cls, x: Sequence[float], y: Sequence[float]) -> "FlowVector":
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.shape != y.shape or x.ndim != 1:
            raise errors.DimensionMismatchError("x and y must be 1-d with equal length")
        z = np.empty(2 * x.size)
        z[0::2] = x
        z[1::2] = y
        return cls(z)

    @property
    def interleaved(self) -> np.ndarray:
        return self._z

    @property
    def x(self) -> np.ndarray:
        """Human-driven flow per road."""
        return self._z[0::2]

    @property
    def y(self) -> np.ndarray:
        """Autonomous flow per road."""
        return self._z[1::2]

    @property
    def total(self) -> np.ndarray:
        return self.x + self.y

    @property
    def n_roads(self) -> int:
        return self._z.size // 2

    def pairs(self) -> list[tuple[float, float]]:
        return list(zip(self.x.tolist(), self.y.tolist()))

    def __repr__(self) -> str:  # pragma: no cover
        return f"FlowVector({self.pairs()!r})"


@dataclass(frozen=True)
class PathFlowAssignment:
    """Per-OD, per-class flow on enumerated paths.

    ``human[i]`` and ``auto[i]`` map each used path of OD pair ``i`` (a tuple
    of road ids) to its flow. For each OD pair and class the flows sum to
    that class's demand.
    """

    human: tuple[dict[Path, float], ...]
    auto: tuple[dict[Path, float], ...]

    def od_count(self) -> int:
        return len(self.human)


def enumerate_paths(net: Network, od: ODPair) -> tuple[Path, ...]:
    """All simple directed origin->destination paths.

    Paths are ordered lexicographically by their road-id sequence, which makes
    the enumeration deterministic. Raises ``TooLargeError`` as soon as there
    are more than ``MAX_PATHS`` paths.
    """
    return _simple_paths(net._adjacency, od.origin, od.destination, MAX_PATHS)


def _simple_paths(adjacency, origin: str, destination: str, budget: int) -> tuple[Path, ...]:
    """Depth-first enumeration behind ``enumerate_paths``; a path never
    revisits a node, which bounds the walk. Stops with ``TooLargeError`` once
    it finds more than ``budget`` paths."""
    out: list[Path] = []
    visited = {origin}
    acc: list[int] = []

    def walk(node: str) -> None:
        for rid, head in adjacency.get(node, ()):
            if head == destination:
                out.append(tuple(acc) + (rid,))
                if len(out) > budget:
                    raise errors.TooLargeError(f"OD pair {origin}->{destination} takes the "
                                               f"path count past the cap of {MAX_PATHS}")
            elif head not in visited:
                visited.add(head)
                acc.append(rid)
                walk(head)
                acc.pop()
                visited.remove(head)

    walk(origin)
    if not out:
        raise errors.NoPathFoundError(f"no path {origin}->{destination}")
    return tuple(out)


def validate_assignment(net: Network, pf: PathFlowAssignment) -> np.ndarray:
    """Raise unless ``pf`` is a valid assignment for ``net``; return its
    stacked path flows.

    Checks what ``PathTable.arrays`` checks (enumerated paths, finite
    nonnegative flows) and per-class demand totals within relative tolerance
    ``FLOW_TOL``.
    """
    table = path_table(net)
    z = table.arrays(pf)
    sums = np.where(table.valid, z[table.columns], 0.0).sum(axis=1)
    bad = np.flatnonzero(np.abs(sums - table.totals) > FLOW_TOL * (1.0 + table.totals))
    if bad.size:
        n_od = len(table.blocks)
        b = int(bad[0])
        raise errors.InvalidParameterError(
            f"OD {b % n_od} {('human', 'auto')[b // n_od]} flows sum to {sums[b]}, "
            f"demand is {table.totals[b]}"
        )
    return z


def to_link_flows(net: Network, pf: PathFlowAssignment) -> FlowVector:
    """Aggregate path flows, checked by ``PathTable.arrays``, into per-road
    (human, autonomous) link flows."""
    table = path_table(net)
    return FlowVector.from_xy(*table.link_flows(table.arrays(pf)))


@dataclass(frozen=True)
class FeasibilityReport:
    """Outcome of a link-flow feasibility check."""

    feasible: bool
    max_conservation_residual: float
    detail: str = ""

    def __bool__(self) -> bool:
        return self.feasible


def _flow_array(net: Network, z) -> np.ndarray:
    """The interleaved entries of link flows ``z``, a FlowVector or a sequence
    of ``2 * n_roads`` entries. A sequence is checked and clipped as a
    FlowVector is; a FlowVector passes unchecked but for its length."""
    arr = z.interleaved if isinstance(z, FlowVector) else np.asarray(z, dtype=float)
    if arr.ndim != 1 or arr.size != 2 * net.n_roads:
        raise errors.DimensionMismatchError(
            f"expected {2 * net.n_roads} flow entries, got {arr.size}"
        )
    return arr if isinstance(z, FlowVector) else FlowVector(arr).interleaved


def check_feasible(net: Network, z) -> FeasibilityReport:
    """Decide whether link flows ``z`` are realizable by some valid assignment.

    Runs a per-node, per-class flow-conservation check within ``FLOW_TOL`` and
    then a per-OD path decomposition of the classes that conserve within
    ``DECOMPOSE_TOL`` (both times ``1 + largest OD demand``), which certifies
    either verdict or raises ``TooLargeError``. ``z`` may be a FlowVector or any
    interleaved sequence; a negative entry gives an infeasible report, a
    non-finite one raises.
    """
    try:
        arr = _flow_array(net, z)
    except errors.NegativeFlowError:
        return FeasibilityReport(False, float("inf"), "negative flow entry")
    scale = 1.0 + max(od.total_demand for od in net.od_pairs)

    table = path_table(net)
    flows = arr.reshape(-1, 2).T  # rows: human, auto
    residuals = []
    for k, demands in enumerate((table.demand_human, table.demand_auto)):
        expected = {n: 0.0 for n in net.nodes}
        for od, d in zip(net.od_pairs, demands):
            expected[od.origin] += d
            expected[od.destination] -= d
        balance = {n: 0.0 for n in net.nodes}
        for i, road in enumerate(net.roads):
            balance[road.tail] += flows[k, i]
            balance[road.head] -= flows[k, i]
        residuals.append(max(abs(balance[n] - expected[n]) for n in net.nodes))
    conserves = np.array(residuals) <= FLOW_TOL * scale
    # one solve decides the classes that conserve, if the human class does
    decomposes = conserves[0] and _decomposes(table, flows, DECOMPOSE_TOL * scale, conserves)
    for k, cls in enumerate(("human", "auto")):
        worst = max(0.0, *residuals[:k + 1])
        if not conserves[k]:
            return FeasibilityReport(False, worst,
                                     f"{cls} conservation residual {residuals[k]:.3g}")
        if not decomposes[k]:
            return FeasibilityReport(False, worst,
                                     f"no per-OD path decomposition for {cls} flows")
    return FeasibilityReport(True, worst)


#: Iterations after which ``_decomposes`` raises ``TooLargeError``.
_DECOMPOSE_ITERATIONS = 5_000


def _decomposes(table: "PathTable", flows: np.ndarray, tol: float,
                wanted: np.ndarray) -> np.ndarray:
    """Per class (rows of ``flows``: human, auto), whether path flows ``p`` on
    its demand simplices come within ``tol``: FISTA (Beck & Teboulle, 2009) on
    ``||r||^2 / 2``, ``r = incidence @ p - flows``, until each ``wanted`` class
    has ``||r|| <= tol`` or, ``g = incidence.T @ r``, the Frank-Wolfe bound (Jaggi,
    2013) ``(sum_blocks total * min_j g_j - r.flows) / ||r||`` on ``min_p ||r||``
    above ``tol / 2``. Both tend to ``min_p ||r||``, so every class gets decided."""
    a, n, step = table.incidence, table.total_paths, 1.0 / np.linalg.norm(table.incidence, 2) ** 2
    p, w_old, fits, fails = table.uniform_start(), 0.0, False, ~wanted
    for k in range(_DECOMPOSE_ITERATIONS):
        r = p.reshape(2, n) @ a.T - flows
        g = (r @ a).ravel()
        norm = np.sqrt((r * r).sum(axis=1))
        low = (np.where(table.valid, g[table.columns], np.inf).min(axis=1)
               * table.totals).reshape(2, -1).sum(axis=1) - (r * flows).sum(axis=1)
        fits, fails = fits | (norm <= tol), fails | (low > 0.5 * tol * norm)
        if (fits | fails).all():
            return fits
        w = p - step * g  # the gradient is affine: FISTA's step from y extrapolates w
        p, w_old = _project((w + k / (k + 3.0) * (w - w_old))[None], table)[0], w
    raise errors.TooLargeError(f"path decomposition undecided after {_DECOMPOSE_ITERATIONS} "
                               "iterations")


@dataclass(frozen=True)
class PathTable:
    """A topology's enumerated paths, incidence matrix and block layout, with
    one network's demands.

    The incidence matrix has one row per road and one column per path;
    ``blocks[i]`` is the column range of OD pair ``i``. Both vehicle classes
    share the same path set. Path flows live in one stacked array ``z`` of
    length ``2 * total_paths``, human flows then autonomous flows, the one
    path-flow layout of every solver. It has one simplex block per OD pair
    and class, human blocks first, padded to a common width: ``columns[b, j]``
    is the column of ``z`` holding path j of block b where ``valid[b, j]``
    (elsewhere the block's first column), and ``totals[b]`` is the block's
    demand.
    """

    net: Network
    paths: tuple[tuple[Path, ...], ...]
    incidence: np.ndarray
    blocks: tuple[slice, ...]
    columns: np.ndarray
    valid: np.ndarray
    demand_human: np.ndarray
    demand_auto: np.ndarray
    totals: np.ndarray

    @property
    def total_paths(self) -> int:
        return self.incidence.shape[1]

    def link_flows(self, z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-road human and autonomous link flows of stacked path flows."""
        human, auto = z.reshape(2, self.total_paths)
        return self.incidence @ human, self.incidence @ auto

    def uniform_start(self) -> np.ndarray:
        """Each class's demand split evenly over its OD's paths."""
        counts = self.valid.sum(axis=1)
        return np.repeat(self.totals / counts, counts)

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        """Each block's demand split by a flat Dirichlet draw."""
        z = np.zeros(2 * self.total_paths)
        n_od = len(self.blocks)
        for i in range(n_od):
            # human block i, then auto block i, so a seed keeps its draws
            for b in (i, n_od + i):
                cols = self.columns[b, self.valid[b]]
                z[cols] = self.totals[b] * rng.dirichlet(np.ones(cols.size))
        return z

    def assignment(self, z: np.ndarray) -> PathFlowAssignment:
        n_od = len(self.blocks)
        flows = tuple(dict(zip(self.paths[b % n_od], z[self.columns[b, self.valid[b]]].tolist()))
                      for b in range(2 * n_od))
        return PathFlowAssignment(human=flows[:n_od], auto=flows[n_od:])

    def arrays(self, pf: PathFlowAssignment) -> np.ndarray:
        """The stacked ``[human | auto]`` path flows of an assignment.

        A path is valid exactly when it is in its OD pair's enumeration.
        Raises on a wrong OD count, a path outside the enumeration, a
        non-finite flow or one below -1e-12; smaller negatives clip to zero.
        """
        n_od = len(self.blocks)
        if len(pf.human) != n_od or len(pf.auto) != n_od:
            raise errors.DimensionMismatchError(
                f"assignment covers {len(pf.human)} OD pairs, network has {n_od}"
            )
        z = np.zeros(2 * self.total_paths)
        for i, (od, od_paths) in enumerate(zip(self.net.od_pairs, self.paths)):
            index = dict(zip(od_paths, range(self.blocks[i].start, self.blocks[i].stop)))
            for offset, source in ((0, pf.human[i]), (self.total_paths, pf.auto[i])):
                try:
                    cols = [offset + index[path] for path in source]
                except KeyError as exc:
                    raise errors.InvalidParameterError(
                        f"path {exc.args[0]} is not a simple path of OD pair {i} "
                        f"({od.origin}->{od.destination})"
                    ) from None
                z[cols] = list(source.values())
        if not np.isfinite(z).all():
            raise errors.InvalidParameterError("path flows must be finite")
        if z.min() < -1e-12:
            raise errors.NegativeFlowError(f"negative path flow {z.min()}")
        return np.clip(z, 0.0, None, out=z)


def _project(v: np.ndarray, table: PathTable) -> np.ndarray:
    """Euclidean projection of every row of ``v`` onto the product of the
    simplices ``{p >= 0, sum(p) = total}`` of the table's blocks, by one padded
    sort over all rows and blocks (Duchi et al., ICML 2008). A block's entries
    drop by the threshold ``max_j (s_j - total) / j``, with ``s_j`` the sum of
    its ``j`` largest entries (Held, Wolfe & Crowder, Math. Prog. 1974), and
    clip at 0. Zero-demand blocks project to 0. The rows' blocks are
    ``(rows, blocks, width)`` padded copies, sorted and clipped in place."""
    w = v[:, table.columns]
    # descending sort; -inf pads after each block's entries, so their averages are -inf
    u = np.where(table.valid, w, -np.inf)
    u.sort(axis=-1)
    css = u[..., ::-1].cumsum(axis=-1) - table.totals[:, None]
    w -= (css / np.arange(1, u.shape[-1] + 1)).max(axis=-1, keepdims=True)
    proj = np.where(table.totals[:, None] > 0, np.maximum(w, 0.0, out=w), 0.0)
    return proj[:, table.valid]  # valid entries, block by block, are the columns in order


def _read_only(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=128)
def _topology(ends, ods):
    """Paths, incidence, blocks and block layout of one topology, given what
    enumeration reads: the ordered (rid, tail, head) of every road and the OD
    endpoints."""
    adjacency = _adjacency_of(ends)
    all_paths = []
    for origin, destination in ods:
        budget = MAX_PATHS - sum(map(len, all_paths))
        all_paths.append(_simple_paths(adjacency, origin, destination, budget))
    counts = np.array([len(od_paths) for od_paths in all_paths])
    starts = np.cumsum(counts) - counts
    total = int(counts.sum())
    position = {rid: i for i, (rid, _, _) in enumerate(ends)}
    incidence = np.zeros((len(ends), total))
    for col, path in enumerate(p for od_paths in all_paths for p in od_paths):
        incidence[[position[rid] for rid in path], col] = 1.0
    blocks = tuple(slice(int(start), int(start + m)) for start, m in zip(starts, counts))
    # a stacked row [human | auto] holds each OD pair's block twice
    counts, starts = np.tile(counts, 2), np.concatenate([starts, starts + total])
    offsets = np.arange(counts.max())
    valid = offsets < counts[:, None]
    columns = np.where(valid, starts[:, None] + offsets, starts[:, None])
    return tuple(all_paths), _read_only(incidence), blocks, _read_only(columns), _read_only(valid)


def path_table(net: Network) -> PathTable:
    """The network's path problem: its topology's enumeration, built once per
    topology, with the network's demands."""
    topology = _topology(tuple((r.rid, r.tail, r.head) for r in net.roads),
                         tuple((od.origin, od.destination) for od in net.od_pairs))
    dh = _read_only(np.array([od.demand_human for od in net.od_pairs]))
    da = _read_only(np.array([od.demand_auto for od in net.od_pairs]))
    return PathTable(net, *topology, demand_human=dh, demand_auto=da,
                     totals=_read_only(np.concatenate([dh, da])))
