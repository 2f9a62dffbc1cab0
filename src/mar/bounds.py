"""Price-of-anarchy and bicriteria bounds for mixed-autonomy routing games.

Everything here is parameterized by two quantities: the maximum degree of
asymmetry ``k`` (worst headway ratio over all roads, in either direction) and
the maximum polynomial degree ``sigma`` of the BPR-form delays. The scalar
``xi(sigma) = sigma * (sigma+1)**(-(sigma+1)/sigma)`` drives every bound:

* ``k**sigma / (1 - xi(sigma))`` always bounds the equilibrium/optimum cost
  ratio;
* ``1 / (1 - k*xi(sigma))`` bounds it too whenever ``k*xi(sigma) < 1``;
* equilibrium cost never exceeds the optimum cost of the same game with
  ``1 + k*xi(sigma)`` times the demand (the bicriteria guarantee).

The module also exposes the proof artifacts as executable checks: the
aggregate single-class cost construction anchored at an equilibrium, the
geometric ``beta`` parameter with its per-road closed form, and per-road
inequality verifiers suitable for property-test harnesses. ``tightness_probe``
searches a two-road family for costly equilibria; ``TightnessSpec`` states its
inputs, their defaults and their rule once.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .costs import _check_flow_pair, _road_floats, _road_latency, _spacing, capacity
from .equilibrium import EquilibriumConfig, SolveResult, solve_equilibrium
from .network import CapacityModel, Network, ODPair, Road, _check_integer, path_table
from .optimum import OptimumConfig, brute_force_optimum, solve_optimum

log = logging.getLogger("mar.bounds")


def xi(sigma: float) -> float:
    """The bound-driving scalar ``sigma * (sigma+1)**(-(sigma+1)/sigma)``.

    Strictly below 1 for every sigma >= 1 (and increasing in sigma).
    """
    if not 1 <= sigma < math.inf:
        raise errors.InvalidSigmaError(f"sigma must be finite and >= 1, got {sigma}")
    return sigma * (sigma + 1.0) ** (-(sigma + 1.0) / sigma)


def degree_of_asymmetry(net: Network) -> float:
    """Maximum headway ratio over all roads, in either direction. Always >= 1."""
    return max(road.headway_ratio for road in net.roads)


def max_degree(net: Network) -> float:
    """Maximum polynomial degree over the network's roads."""
    return max(road.sigma for road in net.roads)


@dataclass(frozen=True)
class BoundsReport:
    """All closed-form bounds for one network.

    ``bound_thm2`` is present only when ``k * xi(sigma) < 1``;
    ``bound_combined`` is the minimum of the applicable bounds.
    """

    k: float
    sigma: float
    xi: float
    bound_thm1: float
    bound_thm2: float | None
    bound_combined: float
    bicriteria_factor: float
    beta_cap: float


def poa_bounds(net: Network) -> BoundsReport:
    """Closed-form price-of-anarchy and bicriteria bounds for a network."""
    k = degree_of_asymmetry(net)
    sigma = max_degree(net)
    x = xi(sigma)
    thm1 = k ** sigma / (1.0 - x)
    kx = k * x
    thm2 = 1.0 / (1.0 - kx) if kx < 1.0 else None
    combined = thm1 if thm2 is None else min(thm1, thm2)
    return BoundsReport(
        k=k,
        sigma=sigma,
        xi=x,
        bound_thm1=thm1,
        bound_thm2=thm2,
        bound_combined=combined,
        bicriteria_factor=1.0 + kx,
        beta_cap=kx,
    )


@dataclass(frozen=True)
class AggregateCost:
    """Single-class latency anchored at an equilibrium flow split.

    ``agg(f)``, for one float flow ``f``, is the road's two-class latency when
    the costlier class, the one with the larger headway, carries ``min(f,
    anchor)`` and the other class the rest: below the anchor the whole flow
    pays the larger headway. ``swapped`` means the costlier class is the
    autonomous one. At ``f = x_eq + y_eq`` the value is the equilibrium latency.
    """

    road: Road
    anchor: float
    swapped: bool

    def __call__(self, f: float) -> float:
        f = float(f)
        if not math.isfinite(f):
            raise errors.InvalidParameterError("aggregate flow must be finite")
        if f < 0:
            raise errors.NegativeFlowError("aggregate flow must be >= 0")
        costly = min(self.anchor, f)
        x, y = (f - costly, costly) if self.swapped else (costly, f - costly)
        return _road_latency(_road_floats(self.road), x, y)


def aggregate_cost(road: Road, x_eq: float, y_eq: float) -> AggregateCost:
    """Aggregate latency map anchored at the equilibrium split (x_eq, y_eq).

    The anchor is the equilibrium flow of whichever class occupies more road
    space per vehicle on this road.
    """
    _check_flow_pair(x_eq, y_eq, what="equilibrium flows")
    swapped = road.platoon_headway > road.headway  # the platooned class is costlier
    return AggregateCost(road=road, anchor=y_eq if swapped else x_eq, swapped=swapped)


def _check_reference(road: Road, v: float, w: float) -> None:
    _check_flow_pair(v, w, what="reference flows")
    if v + w == 0:
        raise errors.ZeroReferenceError("reference flow pair sums to zero")


def beta_road_closed_form(road: Road, v: float, w: float, sigma_use: float) -> float:
    """Per-road geometric congestion parameter, in closed form.

    Equals ``xi(sigma) * average_spacing(v, w) / min(headways)``: the
    maximizing deviation routes all its flow as the space-cheapest class.
    Reduces to ``xi(sigma)`` on symmetric roads and is capped by
    ``road_ratio * xi(sigma)``.
    """
    _check_reference(road, v, w)
    small = min(road.headway, road.platoon_headway)
    # the average spacing, as length / capacity: reading it from the spacing
    # rule directly would move reported values by an ulp
    return xi(sigma_use) * (road.length / capacity(road, v, w)) / small


def _beta_expression(road: Road, t_q: float, m_q: float, sigma_use: float, x, y):
    """The deviation-gain expression maximized by beta, vectorized over (x, y),
    against a reference of total flow ``t_q`` and capacity ``m_q``."""
    t_z = x + y
    # capacity at (x, y), with the kernel's zero-flow convention alpha = 0
    m_z = road.length / _spacing(road, y / (t_z + (t_z == 0)))
    return _gain(t_z, m_z, t_q, m_q, sigma_use)


def _gain(t_z, m_z, t_q: float, m_q: float, sigma_use: float):
    """The deviation gain at total flow ``t_z`` and capacity ``m_z`` against
    the reference ``(t_q, m_q)``: the one statement of beta's expression."""
    ratio = (m_q * t_z) / (m_z * t_q)
    return (t_z / t_q) * (1.0 - ratio ** sigma_use)


_RAMP = np.arange(1201.0)


def _spaced(lo, hi, n: int) -> np.ndarray:
    """``np.linspace(lo, hi, n)`` along a new last axis, for scalar ends or
    ends of shape ``(lanes, 1)``, by linspace's own formula without its
    per-call overhead; ``n`` is at most 1,201."""
    grid = lo + _RAMP[:n] * ((hi - lo) / (n - 1))
    grid[..., -1:] = hi
    return grid


def beta_road_numeric(road: Road, v: float, w: float, sigma_use: float) -> float:
    """Numeric maximization of the per-road beta expression over deviations.

    Searches both axes (where the analytic maximizer is known to lie) as two
    lanes of one array, each at its axis's one capacity: a 1,201-point grid,
    then three zooms that each lay 1,201 points between the neighbours of
    each lane's best point, plus a coarse interior grid as a defensive check
    against the axis argument. Reads the capacity rule only, never the closed
    form, and agrees with ``beta_road_closed_form`` to high relative accuracy.
    """
    _check_reference(road, v, w)
    xi(sigma_use)  # rejects the sigmas the closed form rejects
    t_q = v + w
    m_q = capacity(road, v, w)
    bound = 3.0 * t_q * road.headway_ratio
    lanes, neighbours = np.arange(2)[:, None], np.array([-1, 1])
    # the autonomy level is 0 along x and 1 along y, so each lane has one
    # capacity (at zero flow the gain is 0 at any capacity)
    m_lane = np.array([[road.length / _spacing(road, 0.0)], [road.length / _spacing(road, 1.0)]])
    grid = _spaced(0.0, np.full((2, 1), bound), 1201)
    best = 0.0
    for zoom in range(4):  # the grid, then three zooms
        if zoom:
            j = values.argmax(axis=1)[:, None] + neighbours
            ends = grid[lanes, np.minimum(np.maximum(j, 0), 1200)]
            grid = _spaced(ends[:, :1], ends[:, 1:], 1201)
        values = _gain(grid, m_lane, t_q, m_q, sigma_use)
        best = max(best, float(values.max()))
    interior = _spaced(0.0, bound, 41)
    values = _beta_expression(road, t_q, m_q, sigma_use, interior, interior[:, None])
    return max(best, float(values.max()))


def beta_network_estimate(net: Network, samples: int = 256, seed: int = 0) -> float:
    """Sampled lower estimate of the network beta parameter.

    Maximizes the per-road closed form over random feasible flow patterns.
    Roads with zero flow contribute zero (the 0/0 convention). The analytic
    cap ``k * xi(sigma)`` always dominates the estimate.
    """
    _check_integer("samples", samples, 1)
    _check_integer("seed", seed, 0)
    sigma = max_degree(net)
    table = path_table(net)
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(samples):
        x, y = table.link_flows(table.random_start(rng))
        for i, road in enumerate(net.roads):
            if x[i] + y[i] > 0:
                best = max(best, beta_road_closed_form(road, float(x[i]), float(y[i]), sigma))
    return best


def verify_lemma_agg_poa_ratio(road: Road, x_eq: float, y_eq: float,
                               f: float, g: float) -> bool:
    """Check the aggregate-cost ratio inequality ``c(f)/c(g) >= (f/g)**sigma``.

    Requires ``0 <= f <= g`` with ``g > 0``; allows 1e-12 slack on the ratio
    scale. Holds for both capacity models, both headway orientations, and on
    every side of the anchor. Raises ``InvalidParameterError`` where an
    overflowing delay leaves no verdict.
    """
    if f > g:
        raise errors.InvalidOrderError(f"expected f <= g, got ({f}, {g})")
    if g <= 0:
        raise errors.InvalidParameterError("g must be > 0")
    agg = aggregate_cost(road, x_eq, y_eq)
    c_g, c_f = agg(g), agg(f)  # g first: a non-finite flow is reported before a negative f
    if c_g <= 0 or c_f / c_g + 1e-12 >= (f / g) ** road.sigma:
        return True
    _check_no_overflow(road, c_g, c_f)
    return False


def verify_lemma_agg_opt(road: Road, x: float, y: float) -> bool:
    """Check ``k_road**sigma * c(x, y) >= max(c(x+y, 0), c(0, x+y))``.

    Relates a mixed composition's cost to the worse single-class cost of the
    same total flow, with relative slack 1e-12. Raises ``InvalidParameterError``
    where an overflowing delay leaves no verdict.
    """
    _check_flow_pair(x, y)
    t = x + y
    p = _road_floats(road)
    mixed, human, auto = _road_latency(p, x, y), _road_latency(p, t, 0.0), _road_latency(p, 0.0, t)
    try:
        lhs = road.headway_ratio ** road.sigma * mixed
    except OverflowError:  # k**sigma is past the float range
        lhs = math.inf if mixed > 0 else 0.0
    rhs = max(human, auto)
    if lhs >= rhs - 1e-12 * (1.0 + abs(rhs)):
        return True
    _check_no_overflow(road, mixed, human, auto)
    return False


def _check_no_overflow(road: Road, *delays: float) -> None:
    """Raise before a lemma check reports a violation unless its delays are
    finite: a delay that overflows is inf (a constant-delay road stays at its
    ``freeflow``), and the check's arithmetic on inf gives nan, which would
    read as a violation."""
    if not all(map(math.isfinite, delays)):
        raise errors.InvalidParameterError(
            f"road {road.rid}: delays overflow at these flows: {delays}")


@dataclass(frozen=True)
class PoAOutcome:
    """Empirical equilibrium/optimum cost ratio with provenance."""

    ratio: float
    equilibrium: SolveResult
    optimum: SolveResult
    opt_oracle: str          # "brute-force" or "local-search"
    flags: tuple[str, ...]   # nonempty when the ratio is not fully certified


def _best_optimum(net: Network, cfg: OptimumConfig) -> tuple[SolveResult, str]:
    """Multistart local search, then the grid oracle when the brute-force guard
    admits the instance; the cheaper optimum and its oracle's name."""
    opt = solve_optimum(net, cfg)
    try:
        bf = brute_force_optimum(net, cfg.grid_resolution)
    except errors.TooLargeError:
        return opt, "local-search"
    return (bf if bf.social_cost < opt.social_cost else opt), "brute-force"


def empirical_poa(
    net: Network,
    eq_cfg: EquilibriumConfig | None = None,
    opt_cfg: OptimumConfig | None = None,
) -> PoAOutcome:
    """Solve for an equilibrium and an optimum and report their cost ratio.

    The optimum is backed by the exhaustive grid oracle whenever the instance
    passes the brute-force guard; otherwise by multistart local search, which
    can overestimate the optimum cost and therefore only ever lowers the
    reported ratio. Flags record any uncertainty.
    """
    opt_cfg = opt_cfg or OptimumConfig()
    eq = solve_equilibrium(net, eq_cfg)
    opt, oracle = _best_optimum(net, opt_cfg)
    flags = []
    if not eq.converged:
        flags.append("eq-unconverged")
    if oracle == "local-search" and not opt.converged:
        flags.append("opt-unconverged")
    if opt.social_cost <= 0:
        raise errors.ZeroCostError("optimum social cost is zero")
    return PoAOutcome(
        ratio=eq.social_cost / opt.social_cost,
        equilibrium=eq,
        optimum=opt,
        opt_oracle=oracle,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class TightnessSpec:
    """The tightness probe's inputs, which also read a scenario's ``tightness``
    section, and its rule: nonempty ``ks`` and ``rhos``, each k finite and >= 1,
    each rho finite and >= 0, ``sigma`` finite and >= 1, ``demand`` finite and
    > 0. Messages start with the field."""

    ks: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0)
    sigma: float = 1.0
    rhos: tuple[float, ...] = (10.0, 100.0)
    demand: float = 1.0

    def __post_init__(self) -> None:
        if not self.ks or not self.rhos:
            empty = "rhos" if self.ks else "ks"
            raise errors.InvalidParameterError(f"{empty}: expected at least one value")
        if not all(1.0 <= k < np.inf for k in self.ks):
            raise errors.InvalidParameterError(
                f"ks: every k must be finite and >= 1, got {self.ks}")
        if not all(0.0 <= rho < np.inf for rho in self.rhos):
            raise errors.InvalidParameterError(
                f"rhos: every rho must be finite and >= 0, got {self.rhos}")
        if not 1.0 <= self.sigma < np.inf:
            raise errors.InvalidParameterError(
                f"sigma: expected a finite value >= 1, got {self.sigma}")
        if not 0.0 < self.demand < np.inf:
            raise errors.InvalidParameterError(
                f"demand: expected a finite value > 0, got {self.demand}")


@dataclass(frozen=True)
class TightnessPoint:
    """Worst converged ratio the probe found for one asymmetry level."""

    k: float
    best_ratio: float
    bound_combined: float


def _opposed_asymmetry_net(k: float, sigma: float, rho: float, demand: float) -> Network:
    """Two parallel roads whose asymmetry favors opposite vehicle classes."""
    roads = (
        Road(rid=1, tail="s", head="t", length=1.0, headway=k, platoon_headway=1.0,
             freeflow=1.0, rho=rho, sigma=sigma, capacity_model=CapacityModel.MODEL1),
        Road(rid=2, tail="s", head="t", length=1.0, headway=1.0, platoon_headway=k,
             freeflow=1.0, rho=rho, sigma=sigma, capacity_model=CapacityModel.MODEL1),
    )
    od = ODPair(origin="s", destination="t", demand_human=demand, demand_auto=demand)
    return Network(nodes=("s", "t"), roads=roads, od_pairs=(od,))


def _segregated_starts(table):
    """All-or-nothing class-to-path combinations, used to probe bad equilibria."""
    counts = table.valid.sum(axis=1)
    # one path per block, every combination in lexicographic order
    picks = table.columns[np.arange(len(counts)), np.indices(counts).reshape(len(counts), -1).T]
    starts = np.zeros((len(picks), 2 * table.total_paths))
    starts[np.arange(len(picks))[:, None], picks] = table.totals
    return starts


# The probe's solver settings, which its callers do not choose.
_PROBE_EQ = EquilibriumConfig(max_iterations=20_000)
_PROBE_OPT = OptimumConfig(restarts=8, max_iterations=2_000)


def tightness_probe(
    ks=TightnessSpec.ks,
    sigma: float = TightnessSpec.sigma,
    *,
    rhos=TightnessSpec.rhos,
    demand: float = TightnessSpec.demand,
) -> tuple[TightnessPoint, ...]:
    """Search two-road families for large equilibrium/optimum cost ratios.

    For each finite asymmetry level ``k >= 1`` the probe builds one
    opposed-asymmetry instance per ``rho``, solves it from each of its
    segregated starts (each class on one road: four starts) to reach the
    costly equilibria of the non-unique game, and reports the worst ratio of
    a converged (Wardrop-gap certified) solve against the best optimum found.
    It is expected to fall short of the closed-form bound: it shows growth,
    not tightness.
    """
    spec = TightnessSpec(tuple(ks), sigma, tuple(rhos), demand)
    points = []
    for k in spec.ks:
        # poa_bounds reads no rho, so one bound serves the level
        bound = poa_bounds(_opposed_asymmetry_net(float(k), sigma, float(spec.rhos[0]), demand))
        best_ratio = 0.0
        for rho in spec.rhos:
            net = _opposed_asymmetry_net(float(k), sigma, float(rho), demand)
            table = path_table(net)
            opt, _ = _best_optimum(net, _PROBE_OPT)
            for z in _segregated_starts(table):
                eq = solve_equilibrium(net, _PROBE_EQ, start=table.assignment(z))
                if eq.converged:
                    best_ratio = max(best_ratio, eq.social_cost / opt.social_cost)
        points.append(TightnessPoint(k=float(k), best_ratio=best_ratio,
                                     bound_combined=bound.bound_combined))
    return tuple(points)
