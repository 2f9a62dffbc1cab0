"""Social optimum computation.

Social cost is smooth but nonconvex here (the cost operator is not monotone),
so the optimum is approached by multistart projected gradient descent over the
product of per-OD-class path-flow simplices, cross-checked on small instances
by an exhaustive grid oracle. The descent is spectral: each trial step is the
Barzilai-Borwein step from the last move, safeguarded by doubling the last
accepted step where the cost curves down along the move, and every step still
passes a monotone Armijo test. The reported optimum is the best point found,
so its cost can only overestimate the true optimum cost, and a ratio of the
equilibrium cost to it is a lower estimate of the true ratio.
"""

from __future__ import annotations

import decimal
import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from . import errors
from .costs import _latencies, _latency_at, _latency_partials, _net_arrays
from .network import Network, PathTable, _check_integer, path_table
from .equilibrium import SolveResult, _result

log = logging.getLogger("mar.optimum")

_STATIONARITY_TOL = 1e-6
#: Consecutive Armijo halvings evaluated per kernel call while backtracking.
_BACKTRACK_BATCH = 4
#: Armijo tries per iteration, and the halved step below which tries stop.
_MAX_TRIES = 60
_MIN_STEP = 1e-16
#: Restart costs within this relative distance of the lowest one are tied.
_TIE_RTOL = 1e-12
#: Most grid points brute force visits: 3 paths per class at resolution 0.01.
MAX_GRID_POINTS = 26_532_801


@dataclass(frozen=True)
class OptimumConfig:
    restarts: int = 32
    max_iterations: int = 10_000
    step_tolerance: float = 1e-9
    grid_resolution: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("restarts", self.restarts, 1)
        if not 0 < self.grid_resolution <= 1:
            raise errors.InvalidParameterError("grid_resolution must be in (0, 1]")
        _check_integer("max_iterations", self.max_iterations, 1)
        _check_integer("seed", self.seed, 0)
        if not 0 < self.step_tolerance < np.inf:
            raise errors.InvalidParameterError("step_tolerance must be finite and > 0")


def _project(v: np.ndarray, table: PathTable) -> np.ndarray:
    """Euclidean projection of every row of ``v`` onto the product of the
    simplices ``{p >= 0, sum(p) = total}`` of the table's blocks, by one padded
    sort over all rows and blocks (Duchi et al., ICML 2008). A block's entries
    drop by the threshold ``max_j (s_j - total) / j``, with ``s_j`` the sum of
    its ``j`` largest entries (Held, Wolfe & Crowder, Math. Prog. 1974), and
    clip at 0. Zero-demand blocks project to 0."""
    w = v[:, table.columns]
    # descending sort; -inf pads after each block's entries, so their averages are -inf
    u = np.sort(np.where(table.valid, w, -np.inf), axis=-1)[..., ::-1]
    css = np.cumsum(u, axis=-1) - table.totals[:, None]
    tau = np.max(css / np.arange(1, u.shape[-1] + 1), axis=-1, keepdims=True)
    proj = np.where(table.totals[:, None] > 0, np.maximum(w - tau, 0.0), 0.0)
    return proj[:, table.valid]  # valid entries, block by block, are the columns in order


def _class_norms(v: np.ndarray, n: int) -> np.ndarray:
    """Per row, the human norm plus the auto norm of a stacked array."""
    return np.sqrt(np.square(v.reshape(len(v), 2, n)).sum(axis=2)).sum(axis=1)


def _cost_and_grad(table: PathTable, params, z: np.ndarray):
    """Social cost of every row of stacked path flows ``z`` and its gradient
    in the same layout."""
    n = table.total_paths
    xy = z.reshape(len(z), 2, n) @ table.incidence.T
    x, y = xy[:, 0], xy[:, 1]
    t = x + y
    c, dcdx, dcdy = _latency_partials(params, x, y)
    grad = np.stack([c + t * dcdx, c + t * dcdy], axis=1) @ table.incidence
    return np.sum(c * t, axis=1), grad.reshape(len(z), 2 * n)


def _backtrack(table: PathTable, params, z, grad, cost, step):
    """Armijo backtracking for every row at once.

    Try ``t`` of a row uses the step ``step * 2**-t``. As in sequential
    halving, a row makes at most ``_MAX_TRIES`` tries and stops trying once
    the halved step falls below ``_MIN_STEP``. Each kernel call evaluates the
    next ``_BACKTRACK_BATCH`` tries, with their gradients, of every undecided
    row; a row takes its first accepted try. Returns (accepted mask, step,
    point, cost, gradient); the last four mean something only where accepted.
    """
    pending = np.arange(len(z))
    for first in range(0, _MAX_TRIES, _BACKTRACK_BATCH):
        k = np.arange(first, min(first + _BACKTRACK_BATCH, _MAX_TRIES))
        steps = step[:, None] * 0.5 ** k
        tried = (k == 0) | (steps >= _MIN_STEP)
        cand = _project((z[:, None, :] - steps[..., None] * grad[:, None, :])
                        .reshape(-1, z.shape[1]), table)
        cand_cost, cand_grad = _cost_and_grad(table, params, cand)
        cand, cand_grad = (a.reshape(len(z), len(k), -1) for a in (cand, cand_grad))
        cand_cost = cand_cost.reshape(steps.shape)
        direction = np.sum(grad[:, None, :] * (cand - z[:, None, :]), axis=-1)
        ok = tried & (cand_cost <= cost[:, None] + 1e-4 * direction)
        hit = ok.any(axis=1)
        pick = np.arange(len(z)), np.argmax(ok, axis=1)
        found = hit, steps[pick], cand[pick], cand_cost[pick], cand_grad[pick]
        if first == 0:
            result = found  # later batches scatter their accepted rows into it
        else:
            for out, new in zip(result, found):
                out[pending[hit]] = new[hit]
        # a row whose tries ran out inside this batch stops without a move
        keep = ~hit & tried[:, -1]
        if not keep.any():
            break
        pending, z, grad, cost, step = (a[keep] for a in (pending, z, grad, cost, step))
    return result


def _descend(table: PathTable, params, z: np.ndarray, cfg: OptimumConfig):
    """Spectral projected gradient descent (Birgin, Martinez & Raydan, SIAM J.
    Optim. 2000) with monotone Armijo backtracking from every row of ``z`` at
    once. A row's next trial step is the Barzilai-Borwein step ``s.s / s.y``
    (IMA J. Numer. Anal. 1988) from its last move ``s`` and gradient change
    ``y``; where ``s.y <= 0`` (the cost is nonconvex along the move) it is
    twice the last accepted step instead, and either is clipped to
    ``[1e-10, 1e3]``. Each row keeps its own step and stop rules; a stopped
    row's final state is set aside and the live rows' state stays compacted.
    Returns (points, costs, stationarity, iterations), one entry per row."""
    n = table.total_paths
    cost, grad = _cost_and_grad(table, params, z)
    norms = np.linalg.norm(grad.reshape(len(z), 2, n), axis=2)
    step = np.minimum(1.0, 1.0 / (1.0 + np.hypot(norms[:, 0], norms[:, 1])))
    final = np.empty_like(z), np.empty_like(cost), np.empty_like(grad)
    iterations, stalls = np.zeros((2, len(z)), dtype=int)
    live = np.arange(len(z))
    for it in range(cfg.max_iterations):
        moved, new_step, cand, cand_cost, cand_grad = _backtrack(
            table, params, z, grad, cost, step)
        s = cand - z
        # Barzilai-Borwein (BB1) trial step s.s / s.y; where the cost curves
        # down along the move (s.y <= 0) fall back to doubling the last step
        sy = np.sum(s * (cand_grad - grad), axis=1)
        bb = np.sum(s * s, axis=1) / np.where(sy > 0, sy, 1.0)
        step = np.clip(np.where(sy > 0, bb, new_step * 2.0), 1e-10, 1e3)
        done = _class_norms(s, n) <= cfg.step_tolerance * (1.0 + _class_norms(cand, n))
        # flat equal-cost manifolds (identical headways) admit endless
        # zero-improvement moves; stop once progress is numerically dead
        flat = cost - cand_cost <= 1e-14 * (1.0 + np.abs(cand_cost))
        stalls = np.where(flat, stalls + 1, 0)
        stop = ~moved | done | (stalls >= 3) | (it + 1 == cfg.max_iterations)
        if stop.any():
            iterations[live[stop]] = it + 1
            for out, old, new in zip(final, (z, cost, grad), (cand, cand_cost, cand_grad)):
                out[live[stop]] = new[stop]
                out[live[~moved]] = old[~moved]  # no acceptable step: it stops where it is
            if stop.all():
                break
            live, step, stalls, cand, cand_cost, cand_grad = (
                a[~stop] for a in (live, step, stalls, cand, cand_cost, cand_grad))
        z, cost, grad = cand, cand_cost, cand_grad
    z, cost, grad = final
    # gradient-mapping stationarity at unit step, scaled by cost
    grad_map = _class_norms(z - _project(z - grad, table), n)
    return z, cost, grad_map / np.maximum(cost, 1e-12), iterations


def _winner(costs: np.ndarray) -> int:
    """The lowest-cost restart; costs within ``_TIE_RTOL * (1 + |cost|)`` of
    the lowest are tied and go to the lowest restart index."""
    low = costs.min()
    return int(np.argmax(costs <= low + _TIE_RTOL * (1.0 + abs(low))))


def solve_optimum(net: Network, cfg: OptimumConfig | None = None) -> SolveResult:
    """Best local minimizer of social cost found across restarts.

    Restart 0 starts from the uniform split; the rest from Dirichlet-random
    simplex points seeded by ``cfg.seed``. All restarts descend together as
    one batched projected-gradient solve, each with its own step and stop
    rules. The winner is the lowest cost; restarts whose costs lie within
    ``1e-12 * (1 + |cost|)`` of it are tied and the lowest restart index
    wins, so the outcome is deterministic. ``relative_gap`` carries the
    projected-gradient stationarity measure of the winner.
    """
    cfg = cfg or OptimumConfig()
    table = path_table(net)
    params = _net_arrays(net)
    rng = np.random.default_rng(cfg.seed)
    starts = [table.uniform_start()]
    starts += [table.random_start(rng) for _ in range(1, cfg.restarts)]
    z = np.array(starts)
    z, cost, stat, iterations = _descend(table, params, z, cfg)
    for r in range(cfg.restarts):
        log.debug("restart %d: cost %.6g, stationarity %.2e", r, cost[r], stat[r])
    r = _winner(cost)
    return _result(table, z[r], float(stat[r]), int(iterations[r]),
                   bool(stat[r] <= _STATIONARITY_TOL))


def _compositions(n: int, parts: int) -> np.ndarray:
    """All nonnegative integer tuples of length ``parts`` summing to ``n``,
    in lexicographic order: stars and bars, the ``parts - 1`` bar positions
    among ``n + parts - 1`` slots taken in lexicographic order."""
    slots = n + parts - 1
    bars = np.array(list(itertools.combinations(range(slots), parts - 1)), dtype=int)
    edges = np.hstack([np.full((len(bars), 1), -1), bars, np.full((len(bars), 1), slots)])
    return np.diff(edges, axis=1) - 1


def _grid_steps(resolution: float) -> int:
    """``round(1/resolution)``, the steps per block of the grid at ``resolution``:
    the grid ``brute_force_optimum`` searches, and ``grid_error_bound`` bounds,
    has spacing ``1/steps`` of each block's demand."""
    if not 0 < resolution <= 1:
        raise errors.InvalidParameterError("resolution must be in (0, 1]")
    if not math.isfinite(1.0 / resolution):
        raise errors.TooLargeError(f"resolution {resolution} is too fine: 1/resolution "
                                   f"is not finite")
    return round(1.0 / resolution)


def brute_force_optimum(net: Network, resolution: float = 1e-2) -> SolveResult:
    """Exhaustive grid search over the product of path-flow simplices.

    Guarded: refuses instances whose total path count summed over OD-class
    pairs exceeds 6, or whose grid has more than ``MAX_GRID_POINTS`` points,
    with ``TooLargeError``. Ties break lexicographically (first grid point in
    enumeration order wins). The grid's spacing is ``1/round(1/resolution)``
    of each block's demand. The grid is a product of per-block grids, so
    each block's grid points are mapped to link flows once, and a grid
    point's link flows per class are the sums of its blocks' rows. The
    result is within the grid's modulus of continuity of the true optimum,
    see ``grid_error_bound``.
    """
    steps = _grid_steps(resolution)
    table = path_table(net)
    n = table.total_paths
    if 2 * n > 6:
        raise errors.TooLargeError(
            f"{2 * n} paths across OD-class pairs exceeds the brute-force guard of 6"
        )
    params = _net_arrays(net)
    counts = table.valid.sum(axis=1).tolist()
    sizes = [math.comb(steps + m - 1, m - 1) if demand > 0 else 1
             for m, demand in zip(counts, table.totals.tolist())]
    n_points = math.prod(sizes)
    if n_points > MAX_GRID_POINTS:
        raise errors.TooLargeError(f"the grid at resolution {resolution} has "
                                   f"{decimal.Decimal(n_points):.3e} points, "
                                   f"past the brute-force cap of {MAX_GRID_POINTS}")
    # one grid per block over its scaled simplex, and its points' link flows
    grids = [_compositions(steps, m) * (demand / steps) if demand > 0 else np.zeros((1, m))
             for m, demand in zip(counts, table.totals)]
    flows = [g @ table.incidence[:, table.blocks[b % len(table.blocks)]].T
             for b, g in enumerate(grids)]
    best_cost, best_index = np.inf, 0
    chunk = 200_000
    for lo in range(0, n_points, chunk):
        # grid points in lexicographic order of their per-block indices
        idx = np.unravel_index(np.arange(lo, min(lo + chunk, n_points)), sizes)
        link = [f[i] for f, i in zip(flows, idx)]
        x, y = sum(link[:len(table.blocks)]), sum(link[len(table.blocks):])
        costs = np.sum(_latencies(params, x, y) * (x + y), axis=1)
        j = int(np.argmin(costs))
        if costs[j] < best_cost:
            best_cost = float(costs[j])
            best_index = lo + j
    # valid entries, block by block, are the columns in order
    best = [g[i] for g, i in zip(grids, np.unravel_index(best_index, sizes))]
    return _result(table, np.concatenate(best), 0.0, n_points, True)


def grid_error_bound(net: Network, resolution: float) -> float:
    """Upper bound on ``|C(grid optimum) - C(true optimum)|`` for the grid
    ``brute_force_optimum`` searches at ``resolution``.

    Uses a global bound on the social-cost gradient over the feasible set
    (all demand on any one road) times the l1 distance from an arbitrary
    simplex point to the grid.
    """
    spacing = 1.0 / _grid_steps(resolution)
    table = path_table(net)
    params = _net_arrays(net)
    t_bar = float(table.demand_human.sum()) + float(table.demand_auto.sum())
    big = np.maximum(params.h, params.hbar)
    r_max = big * t_bar / params.d
    c_max = _latency_at(params, t_bar, t_bar, r_max)
    dc_max = params.slope * np.where(r_max > 0, r_max ** params.sigma_less1, 1.0) \
        * 2.0 * big / params.d
    if params.any_affine:
        dc_max = np.where(params.affine, np.maximum(params.ax, params.ay), dc_max)
    per_road = c_max + t_bar * dc_max
    # max over paths of the summed per-road bound
    grad_bound = float((per_road @ table.incidence).max())
    displacement = float(np.sum(2.0 * table.valid.sum(axis=1) * spacing * table.totals))
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
