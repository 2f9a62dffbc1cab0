"""Social optimum computation.

Social cost is smooth but nonconvex here (the cost operator is not monotone),
so the optimum is approached by multistart projected gradient descent over the
product of per-OD-class path-flow simplices, cross-checked on small instances
by an exhaustive grid oracle. The reported optimum is the best point found;
every ratio computed from it is therefore an upper bound for the found
equilibrium cost against the true optimum cost.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .costs import _latencies, _latency_partials, _net_arrays
from .network import Network, PathTable, path_table
from .equilibrium import SolveResult, _result

log = logging.getLogger("mar.optimum")

_STATIONARITY_TOL = 1e-6


@dataclass(frozen=True)
class OptimumConfig:
    restarts: int = 32
    max_iterations: int = 10_000
    step_tolerance: float = 1e-9
    grid_resolution: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.restarts < 1:
            raise errors.InvalidParameterError("restarts must be >= 1")
        if not 0 < self.grid_resolution <= 1:
            raise errors.InvalidParameterError("grid_resolution must be in (0, 1]")
        if self.max_iterations < 1:
            raise errors.InvalidParameterError("max_iterations must be >= 1")


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {p >= 0, sum(p) = total}."""
    if total <= 0:
        return np.zeros_like(v)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, v.size + 1)
    cond = u - css / idx > 0
    rho = int(np.nonzero(cond)[0][-1])
    tau = css[rho] / (rho + 1.0)
    return np.maximum(v - tau, 0.0)


def _project(table: PathTable, ph: np.ndarray, pa: np.ndarray):
    for i, blk in enumerate(table.blocks):
        ph[blk] = _project_simplex(ph[blk], float(table.demand_human[i]))
        pa[blk] = _project_simplex(pa[blk], float(table.demand_auto[i]))
    return ph, pa


def _cost_and_grad(table: PathTable, params, ph, pa, want_grad=True):
    x, y = table.link_flows(ph, pa)
    c = _latencies(params, x, y)
    total = float(np.dot(c, x + y))
    if not want_grad:
        return total, None, None
    dcdx, dcdy = _latency_partials(params, x, y)
    gx = c + (x + y) * dcdx
    gy = c + (x + y) * dcdy
    return total, table.incidence.T @ gx, table.incidence.T @ gy


def _pgd(table: PathTable, params, ph, pa, cfg: OptimumConfig):
    """Projected gradient descent with Armijo backtracking from one start."""
    cost, gh, ga = _cost_and_grad(table, params, ph, pa)
    scale = 1.0 + float(np.hypot(np.linalg.norm(gh), np.linalg.norm(ga)))
    step = min(1.0, 1.0 / scale)
    iterations = 0
    stalls = 0
    for it in range(cfg.max_iterations):
        iterations = it + 1
        moved = False
        for _ in range(60):
            cand_h, cand_a = _project(table, ph - step * gh, pa - step * ga)
            direction = float(np.dot(gh, cand_h - ph) + np.dot(ga, cand_a - pa))
            cand_cost, _, _ = _cost_and_grad(table, params, cand_h, cand_a, want_grad=False)
            if cand_cost <= cost + 1e-4 * direction:
                moved = True
                break
            step *= 0.5
            if step < 1e-16:
                break
        if not moved:
            break
        move = float(np.linalg.norm(cand_h - ph) + np.linalg.norm(cand_a - pa))
        improvement = cost - cand_cost
        ph, pa = cand_h, cand_a
        cost, gh, ga = _cost_and_grad(table, params, ph, pa)
        step = min(step * 2.0, 1e3)
        if move <= cfg.step_tolerance * (1.0 + float(np.linalg.norm(ph) + np.linalg.norm(pa))):
            break
        # flat equal-cost manifolds (identical headways) admit endless
        # zero-improvement moves; stop once progress is numerically dead
        stalls = stalls + 1 if improvement <= 1e-14 * (1.0 + abs(cost)) else 0
        if stalls >= 3:
            break
    # gradient-mapping stationarity at unit step, scaled by cost
    pm_h, pm_a = _project(table, ph - gh, pa - ga)
    grad_map = float(np.linalg.norm(ph - pm_h) + np.linalg.norm(pa - pm_a))
    stationarity = grad_map / max(cost, 1e-12)
    return ph, pa, cost, stationarity, iterations


def solve_optimum(net: Network, cfg: OptimumConfig | None = None) -> SolveResult:
    """Best local minimizer of social cost found across restarts.

    Restart 0 starts from the uniform split; the rest from Dirichlet-random
    simplex points seeded by ``cfg.seed``. Results merge by cost, then restart
    order, so the outcome is deterministic. ``relative_gap`` carries the
    projected-gradient stationarity measure of the winner.
    """
    cfg = cfg or OptimumConfig()
    table = path_table(net)
    params = _net_arrays(net)
    rng = np.random.default_rng(cfg.seed)
    best = None
    for r in range(cfg.restarts):
        if r == 0:
            ph, pa = table.uniform_start()
        else:
            ph, pa = table.random_start(rng)
        ph, pa, cost, stat, its = _pgd(table, params, ph, pa, cfg)
        log.debug("restart %d: cost %.6g, stationarity %.2e", r, cost, stat)
        if best is None or cost < best[2] - 1e-15:
            best = (ph, pa, cost, stat, its)
    ph, pa, cost, stat, its = best
    return _result(table, ph, pa, stat, its, stat <= _STATIONARITY_TOL)


def _compositions(n: int, parts: int) -> np.ndarray:
    """All nonnegative integer tuples of length ``parts`` summing to ``n``,
    in lexicographic order."""
    if parts == 1:
        return np.array([[n]])
    rows = []
    for first in range(n + 1):
        rest = _compositions(n - first, parts - 1)
        rows.append(np.hstack([np.full((rest.shape[0], 1), first), rest]))
    return np.vstack(rows)


def _block_grids(table: PathTable, resolution: float) -> list[np.ndarray]:
    """Per-OD-class grids over the scaled simplices; order is human blocks
    then auto blocks, OD by OD."""
    steps = max(1, round(1.0 / resolution))
    grids = []
    for demand_arr in (table.demand_human, table.demand_auto):
        for i, blk in enumerate(table.blocks):
            m = blk.stop - blk.start
            demand = float(demand_arr[i])
            if demand == 0.0:
                grids.append(np.zeros((1, m)))
            else:
                grids.append(_compositions(steps, m) * (demand / steps))
    return grids


def brute_force_optimum(net: Network, resolution: float = 1e-2) -> SolveResult:
    """Exhaustive grid search over the product of path-flow simplices.

    Guarded: refuses instances whose total path count summed over OD-class
    pairs exceeds 6. Ties break lexicographically (first grid point in
    enumeration order wins). The result is within the grid's modulus of
    continuity of the true optimum, see ``grid_error_bound``.
    """
    if not 0 < resolution <= 1:
        raise errors.InvalidParameterError("resolution must be in (0, 1]")
    table = path_table(net)
    n_od = len(table.blocks)
    path_count = 2 * sum(blk.stop - blk.start for blk in table.blocks)
    if path_count > 6:
        raise errors.TooLargeError(
            f"{path_count} paths across OD-class pairs exceeds the brute-force guard of 6"
        )
    params = _net_arrays(net)
    grids = _block_grids(table, resolution)
    sizes = [g.shape[0] for g in grids]
    n_points = int(np.prod(sizes))
    best_cost = np.inf
    best_point = None
    chunk = 200_000
    combos = itertools.product(*[range(s) for s in sizes])
    total_paths = table.total_paths
    while True:
        combo_list = list(itertools.islice(combos, chunk))
        if not combo_list:
            break
        pts_h = np.empty((len(combo_list), total_paths))
        pts_a = np.empty((len(combo_list), total_paths))
        idx = np.array(combo_list)
        for i, blk in enumerate(table.blocks):
            pts_h[:, blk] = grids[i][idx[:, i]]
            pts_a[:, blk] = grids[n_od + i][idx[:, n_od + i]]
        x = pts_h @ table.incidence.T
        y = pts_a @ table.incidence.T
        c = _latencies(params, x, y)
        costs = np.sum(c * (x + y), axis=1)
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best_point = (pts_h[j].copy(), pts_a[j].copy())
    ph, pa = best_point
    return _result(table, ph, pa, 0.0, n_points, True)


def grid_error_bound(net: Network, resolution: float) -> float:
    """Upper bound on ``|C(grid optimum) - C(true optimum)|``.

    Uses a global bound on the social-cost gradient over the feasible set
    (all demand on any one road) times the l1 distance from an arbitrary
    simplex point to the grid.
    """
    table = path_table(net)
    params = _net_arrays(net)
    total_h = float(table.demand_human.sum())
    total_a = float(table.demand_auto.sum())
    t_bar = total_h + total_a
    big = np.maximum(params.h, params.hbar)
    r_max = big * t_bar / params.d
    c_max = params.freeflow * (1.0 + params.rho * r_max ** params.sigma)
    dc_max = params.freeflow * params.rho * params.sigma * \
        np.where(r_max > 0, r_max ** (params.sigma - 1.0), 1.0) * 2.0 * big / params.d
    if params.affine.any():
        c_max = np.where(params.affine, params.ax * t_bar + params.ay * t_bar + params.a0, c_max)
        dc_max = np.where(params.affine, np.maximum(params.ax, params.ay), dc_max)
    per_road = c_max + t_bar * dc_max
    # max over paths of the summed per-road bound
    grad_bound = float(max(per_road @ table.incidence[:, j] for j in range(table.total_paths)))
    displacement = 0.0
    for demand_arr in (table.demand_human, table.demand_auto):
        for i, blk in enumerate(table.blocks):
            m = blk.stop - blk.start
            displacement += 2.0 * m * resolution * float(demand_arr[i])
    return grad_bound * displacement


def scale_demands(net: Network, factor: float) -> Network:
    """Network with every OD demand (both classes) multiplied by ``factor``."""
    if factor < 0:
        raise errors.InvalidParameterError("factor must be >= 0")
    od_pairs = tuple(
        replace(od, demand_human=od.demand_human * factor,
                demand_auto=od.demand_auto * factor)
        for od in net.od_pairs
    )
    return Network(nodes=net.nodes, roads=net.roads, od_pairs=od_pairs)


def solve_scaled_optimum(net: Network, factor: float,
                         cfg: OptimumConfig | None = None) -> SolveResult:
    """Social optimum of the same game with demands inflated by ``factor`` (>= 1)."""
    if factor < 1:
        raise errors.InvalidParameterError("factor must be >= 1")
    return solve_optimum(scale_demands(net, factor), cfg)
