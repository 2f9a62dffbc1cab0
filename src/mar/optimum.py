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
from .network import Network, PathTable, _check_integer, _project, path_table
from .equilibrium import SolveResult, _result

log = logging.getLogger("mar.optimum")

_STATIONARITY_TOL = 1e-6
#: Consecutive Armijo halvings evaluated per kernel call while backtracking.
_BACKTRACK_BATCH = 4
#: Armijo tries per iteration, and the halved step below which tries stop.
_MAX_TRIES = 60
_MIN_STEP = 1e-16
#: The step factor of each try, 2**-t.
_HALVINGS = 0.5 ** np.arange(_MAX_TRIES)
#: Grid points brute force evaluates per kernel call, so its temporaries stay in cache.
_SLAB = 8192
#: Restart costs within this relative distance of the lowest one are tied.
_TIE_RTOL = 1e-12
#: Most grid points brute force visits: 3 paths per class at resolution 0.01.
MAX_GRID_POINTS = 26_532_801
#: Most restarts a multistart solve takes; each holds a start row before the descent.
MAX_RESTARTS = 1_000


@dataclass(frozen=True)
class OptimumConfig:
    restarts: int = 32
    max_iterations: int = 10_000
    step_tolerance: float = 1e-9
    grid_resolution: float = 1e-2
    seed: int = 0

    def __post_init__(self) -> None:
        _check_integer("restarts", self.restarts, 1)
        if self.restarts > MAX_RESTARTS:
            raise errors.InvalidParameterError(
                f"restarts must be at most {MAX_RESTARTS}, got {self.restarts}")
        if not 0 < self.grid_resolution <= 1:
            raise errors.InvalidParameterError("grid_resolution must be in (0, 1]")
        _check_integer("max_iterations", self.max_iterations, 1)
        _check_integer("seed", self.seed, 0)
        if not 0 < self.step_tolerance < np.inf:
            raise errors.InvalidParameterError("step_tolerance must be finite and > 0")


def _class_norms(v: np.ndarray, n: int) -> np.ndarray:
    """Per row, the human norm plus the auto norm of a stacked array."""
    return np.sqrt(np.square(v.reshape(len(v), 2, n)).sum(axis=2)).sum(axis=1)


def _cost_and_grad(table: PathTable, params, z: np.ndarray):
    """Social cost of every row of stacked path flows ``z`` and its gradient
    in the same layout. Class-major: one matmul of ``z`` read as ``(2, rows,
    paths)`` gives contiguous ``(rows, roads)`` link flows per class, and each
    class's link terms ``c + t * dc`` map back into its half of the gradient."""
    n = table.total_paths
    x, y = z.reshape(len(z), 2, n).transpose(1, 0, 2) @ table.incidence.T
    c, dcdx, dcdy, t = _latency_partials(params, x, y)
    cost = (c * t).sum(axis=1)
    grad = np.empty_like(z)
    for half, dc in ((grad[:, :n], dcdx), (grad[:, n:], dcdy)):
        dc *= t
        dc += c
        np.matmul(dc, table.incidence, out=half)
    return cost, grad


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
        steps = step[:, None] * _HALVINGS[first:first + _BACKTRACK_BATCH]
        rows, k = steps.shape
        tried = steps >= _MIN_STEP
        tried[:, 0] |= first == 0
        cand = _project((z[:, None, :] - steps[..., None] * grad[:, None, :])
                        .reshape(rows * k, -1), table)
        cand_cost, cand_grad = _cost_and_grad(table, params, cand)
        # Armijo: cost <= cost(z) + 1e-4 * grad.(cand - z)
        rhs = cand.reshape(rows, k, -1) - z[:, None, :]
        rhs *= grad[:, None, :]
        ok = cand_cost.reshape(rows, k) <= rhs.sum(axis=-1) * 1e-4 + cost[:, None]
        ok &= tried
        # each row's first accepted try, as an index into the rows * k tries
        pick = ok.argmax(axis=1) + np.arange(0, rows * k, k)
        hit = ok.take(pick)
        found = (hit, steps.take(pick), cand.take(pick, axis=0), cand_cost.take(pick),
                 cand_grad.take(pick, axis=0))
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
        sy = (s * (cand_grad - grad)).sum(axis=1)
        curved = sy > 0
        bb = (s * s).sum(axis=1) / np.where(curved, sy, 1.0)
        step = np.minimum(np.maximum(np.where(curved, bb, new_step * 2.0), 1e-10), 1e3)
        norms = _class_norms(np.concatenate((s, cand)), n)
        done = norms[:len(s)] <= cfg.step_tolerance * (1.0 + norms[len(s):])
        # flat equal-cost manifolds (identical headways) admit endless
        # zero-improvement moves; stop once progress is numerically dead
        stalls += 1
        stalls *= cost - cand_cost <= 1e-14 * (1.0 + np.abs(cand_cost))
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
    of each block's demand. The grid is a product of per-block grids: block
    b's points map to link flows once and lie along axis b, and a point's
    link flows per class broadcast as the sums over its blocks. Slabs of about
    ``_SLAB`` points (a piece of one axis and all later axes) keep the
    temporaries in cache. The result is within the grid's modulus of
    continuity of the true optimum, see ``grid_error_bound``.
    """
    steps = _grid_steps(resolution)
    table = path_table(net)
    n = table.total_paths
    if 2 * n > 6:
        raise errors.TooLargeError(
            f"{2 * n} paths across OD-class pairs exceeds the brute-force guard of 6"
        )
    params = _net_arrays(net)
    n_od = len(table.blocks)
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
    flows = [g @ table.incidence[:, table.blocks[b % n_od]].T for b, g in enumerate(grids)]
    # a slab is a piece of grid axis k and all of the axes after it, with block
    # b's link flows along axis b; the axes before k are looped over
    k, inner = len(sizes) - 1, 1
    while k > 0 and inner * sizes[k] <= _SLAB:
        inner *= sizes[k]
        k -= 1
    width = _SLAB // inner
    axes = [f.reshape(-1, *[1] * (len(sizes) - 1 - b), len(params.d))
            for b, f in enumerate(flows)]
    best_cost, best_index = np.inf, (0,) * len(sizes)
    for outer in itertools.product(*map(range, sizes[:k])):
        for lo in range(0, sizes[k], width):
            link = [f[i] for f, i in zip(flows, outer)] + [axes[k][lo:lo + width]] + axes[k + 1:]
            x, y = sum(link[:n_od]), sum(link[n_od:])
            costs = (_latencies(params, x, y) * (x + y)).sum(axis=-1)
            j = costs.argmin()  # the first minimum in C order is the lexicographic first
            if costs.flat[j] < best_cost:
                best_cost = costs.flat[j]
                first, *rest = np.unravel_index(j, costs.shape)
                best_index = outer + (lo + first, *rest)
    # valid entries, block by block, are the columns in order
    best = [g[i] for g, i in zip(grids, best_index)]
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
    c_max = _latency_at(params, r_max)
    dc_max = params.slope * np.where(r_max > 0, r_max ** params.sigma_less1, 1.0) \
        * 2.0 * big / params.d
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
