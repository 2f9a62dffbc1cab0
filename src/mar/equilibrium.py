"""Wardrop equilibria of the mixed-autonomy routing game.

The game has no potential function and its cost operator is not monotone, so
equilibria are computed by averaging heuristics and certified a posteriori by
the Wardrop gap: the demand-weighted excess of used-path costs over shortest
path costs, normalized by social cost. A point is an equilibrium exactly when
the gap is zero.

The averaging is self-regulated: each iteration moves toward the
all-or-nothing assignment with step ``1/denom``, and the denominator grows
slowly while the gap improves and quickly when it deteriorates. Averaging
alone oscillates around the equilibrium with amplitude proportional to the
step, so once the gap is below 1e-2 each iteration first tries one
equalization move: a damped least-squares Newton step on the used paths
toward equal path costs per OD pair, moving each class on its own. The step
is kept only when the measured gap drops; otherwise the iteration takes the
averaging step. Every returned answer is certified by ``relative_gap``.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import errors
from .costs import (
    _duplicated_costs,
    _latencies,
    _latency_partials,
    _net_arrays,
    social_cost,
)
from .network import (
    FlowVector,
    Network,
    PathFlowAssignment,
    PathTable,
    _check_integer,
    _flow_array,
    path_table,
    validate_assignment,
)

log = logging.getLogger("mar.equilibrium")


@dataclass(frozen=True)
class EquilibriumConfig:
    max_iterations: int = 100_000
    gap_tolerance: float = 1e-6

    def __post_init__(self) -> None:
        _check_integer("max_iterations", self.max_iterations, 1)
        if not 0 < self.gap_tolerance < np.inf:
            raise errors.InvalidParameterError("gap_tolerance must be finite and > 0")


@dataclass(frozen=True)
class SolveResult:
    """Outcome of an equilibrium or optimum solve.

    For equilibria ``relative_gap`` is the normalized Wardrop gap; for optima
    it is a first-order stationarity measure. ``converged`` never hides a bad
    point: the flows are feasible either way.
    """

    flows: PathFlowAssignment
    link_flows: FlowVector
    social_cost: float
    relative_gap: float
    iterations: int
    converged: bool


def _gap_at(table: PathTable, params, z: np.ndarray):
    """The Wardrop gap certificate at stacked path flows ``z``.

    Returns (relative gap, absolute gap, array of the all-or-nothing path
    index per OD). Both vehicle classes see the same road latencies, so the
    per-class shortest paths coincide.
    """
    x, y = table.link_flows(z)
    cp = table.incidence.T @ _latencies(params, x, y)
    total_cost = float(z[:cp.size] @ cp) + float(z[cp.size:] @ cp)
    # each OD pair's cheapest path over the layout's human rows, ties to the
    # lowest index (padding repeats a block's first path, which argmin never
    # prefers); costs summed in OD order, as a Python sum, for any OD count
    n_od = len(table.blocks)
    padded = cp[table.columns[:n_od]]
    demand = table.demand_human + table.demand_auto
    shortest_cost = sum((demand * padded.min(axis=1)).tolist())
    aon = table.columns[:n_od, 0] + padded.argmin(axis=1)
    gap_abs = max(total_cost - shortest_cost, 0.0)
    if total_cost <= 0.0:
        # a Network always carries positive demand
        raise errors.ZeroCostError("social cost is zero with positive demand")
    return gap_abs / total_cost, gap_abs, aon


def _newton_step(table: PathTable, params, cheapest: np.ndarray, z: np.ndarray) -> np.ndarray:
    """One damped least-squares Newton step toward equal support-path costs.

    Moves each class's flow on paths carrying under 1e-3 of its OD demand onto
    the block's column ``cheapest[b]``, the all-or-nothing path at ``z``, then
    solves the linearized equal-cost/demand system on the support (least-norm
    step, since equilibria form a manifold), with a ratio test to stay
    nonnegative. The two classes move independently, so the step also makes
    the pure class-composition exchanges some equilibria require. Returns a
    candidate point; the caller keeps it only if the gap certificate improves.
    """
    n = table.total_paths
    n_od = len(table.blocks)
    incidence = table.incidence
    z = z.copy()
    # every small flow of a block moves, in column order, onto its cheapest path
    flows = z[table.columns]
    small = (table.valid & (table.columns != cheapest[:, None])
             & (flows < 1e-3 * np.maximum(table.totals, 1e-300)[:, None]))
    rows, offsets = np.nonzero(small)
    np.add.at(z, cheapest[rows], flows[rows, offsets])
    z[table.columns[rows, offsets]] = 0.0

    x, y = table.link_flows(z)
    c, dcdx, dcdy, _ = _latency_partials(params, x, y)
    cp = incidence.T @ c
    # the support: used paths, grouped by OD pair; each group's first is its reference
    support = np.nonzero((z.reshape(2, n) > 0.0).any(axis=0))[0]
    owner = np.nonzero(table.valid[:n_od])[0][support]  # the OD pair of each path
    first = np.concatenate(([True], owner[1:] != owner[:-1]))
    leaders = owner[first]
    ref = support[first][np.cumsum(first) - 1][~first]
    others = support[~first]
    # equal-cost rows: d(cost(j) - cost(ref))/dz per support column, per class
    diff = (incidence[:, others] - incidence[:, ref]).T
    inc_support = incidence[:, support]
    member = (owner == leaders[:, None]).astype(float)
    zeros = np.zeros_like(member)
    matrix = np.vstack([np.hstack([(diff * dcdx) @ inc_support, (diff * dcdy) @ inc_support]),
                        np.hstack([member, zeros]), np.hstack([zeros, member])])
    groups = np.concatenate((leaders, leaders + n_od))
    # a path off the support carries no flow, so a block's sum is its support's
    sums = np.where(table.valid, z[table.columns], 0.0).sum(axis=1)
    rhs = np.concatenate((cp[ref] - cp[others], table.totals[groups] - sums[groups]))
    # per OD pair: its equal-cost rows, then its human and its auto demand row
    order = np.argsort(np.concatenate((3 * owner[~first], 3 * leaders + 1, 3 * leaders + 2)),
                       kind="stable")
    try:
        step, *_ = np.linalg.lstsq(matrix[order], rhs[order], rcond=None)
    except np.linalg.LinAlgError:
        pass
    else:
        d = np.zeros(2 * n)
        d.reshape(2, n)[:, support] = step.reshape(2, -1)
        d[(z <= 0.0) & (d < 0.0)] = 0.0
        neg = d < 0.0
        damping = min(1.0, float(np.min(0.95 * z[neg] / -d[neg]))) if neg.any() else 1.0
        if np.isfinite(damping) and damping > 0.0:
            z = np.maximum(z + damping * d, 0.0)
    # Newton preserves the demand totals only to first order; restore exactly
    sums = np.where(table.valid, z[table.columns], 0.0).sum(axis=1)
    z *= np.repeat(np.divide(table.totals, sums, out=np.ones_like(sums), where=sums > 0.0),
                   table.valid.sum(axis=1))
    empty = (sums <= 0.0) & (table.totals > 0.0)
    z[table.columns[empty, 0]] = table.totals[empty]
    return z


def wardrop_gap(net: Network, pf: PathFlowAssignment) -> tuple[float, float]:
    """(absolute, relative) Wardrop gap of a path-flow assignment; zero
    exactly at equilibrium."""
    z = validate_assignment(net, pf)
    gap_rel, gap_abs, _ = _gap_at(path_table(net), _net_arrays(net), z)
    return gap_abs, gap_rel


def solve_equilibrium(
    net: Network,
    cfg: EquilibriumConfig | None = None,
    *,
    start: PathFlowAssignment | None = None,
    on_iterate: Callable[[int, PathFlowAssignment, float], None] | None = None,
) -> SolveResult:
    """Compute a Wardrop equilibrium by averaged all-or-nothing assignment.

    ``start`` is an explicit assignment (used to probe equilibrium
    multiplicity) or None for the uniform split. The averaging step is
    self-regulated, see the module docstring. When the gap tolerance is not
    reached the best iterate found is returned with ``converged=False``
    rather than raising; ``iterations`` counts the iterations run either way.
    Deterministic for a given config and start.
    """
    cfg = cfg or EquilibriumConfig()
    table = path_table(net)
    params = _net_arrays(net)
    if start is None:
        z = table.uniform_start()
    elif isinstance(start, PathFlowAssignment):
        z = validate_assignment(net, start)
    else:
        raise errors.InvalidParameterError(
            f"start must be a PathFlowAssignment or None, got {start!r}")

    best_gap = np.inf
    best = z.copy()
    prev_gap = np.inf
    denom = 1.0
    averaging_steps = 0
    for it in range(cfg.max_iterations + 1):
        gap_rel, _, aon = _gap_at(table, params, z)
        cheapest = np.concatenate((aon, aon + table.total_paths))  # per block of the layout
        if on_iterate is not None:
            on_iterate(it, table.assignment(z), gap_rel)
        if gap_rel < best_gap:
            best_gap = gap_rel
            best = z.copy()
        if gap_rel <= cfg.gap_tolerance:
            return _result(table, z, gap_rel, it, True)
        if it == cfg.max_iterations:
            break

        if gap_rel <= 1e-2:
            # equalization regime: a Newton step, kept only if the gap drops
            candidate = _newton_step(table, params, cheapest, z)
            if _gap_at(table, params, candidate)[0] < gap_rel:
                z = candidate
                continue

        # grow the averaging denominator slowly on progress, fast on setbacks
        if averaging_steps > 0:
            denom += 2.0 if gap_rel > prev_gap * (1.0 - 1e-9) else 0.05
        target = np.zeros_like(z)
        target[cheapest] = table.totals
        z += (1.0 / denom) * (target - z)
        prev_gap = gap_rel
        averaging_steps += 1
        if it % 5000 == 0 and it > 0:
            log.debug("iteration %d: relative gap %.3e", it, gap_rel)

    log.info("not converged after %d iterations, best gap %.3e",
             cfg.max_iterations, best_gap)
    return _result(table, best, best_gap, cfg.max_iterations, False)


def _result(table, z, gap_rel, iterations, converged) -> SolveResult:
    link = FlowVector.from_xy(*table.link_flows(z))
    return SolveResult(
        flows=table.assignment(z),
        link_flows=link,
        social_cost=social_cost(table.net, link),
        relative_gap=float(gap_rel),
        iterations=iterations,
        converged=converged,
    )


def vi_residual(net: Network, z_eq, z) -> float:
    """Variational-inequality residual ``<c(z_eq), z_eq - z>``.

    At a true equilibrium this is <= 0 for every feasible z; a positive value
    against some feasible z certifies z_eq is not an equilibrium.
    """
    zz = _flow_array(net, z_eq)
    return float(np.dot(_duplicated_costs(net, zz), zz - _flow_array(net, z)))
