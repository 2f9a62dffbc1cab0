"""Wardrop equilibria of the mixed-autonomy routing game.

The game has no potential function and its cost operator is not monotone, so
equilibria are computed by averaging heuristics and certified a posteriori by
the Wardrop gap: the demand-weighted excess of used-path costs over shortest
path costs, normalized by social cost. A point is an equilibrium exactly when
the gap is zero.

Two averaging step rules are available. Plain MSA averages the all-or-nothing
assignment with step ``1/(iteration+1)``. The self-regulated variant (the
default) grows the step denominator slowly while the gap improves and quickly
when it deteriorates. Averaging alone oscillates around the equilibrium with
amplitude proportional to the step, so once the gap is below 1e-2 each
iteration first tries one equalization move: a damped least-squares Newton
step on the used paths toward equal path costs per OD pair, moving each class
on its own. The step is kept only when the measured gap drops; otherwise the
iteration takes the averaging step. Every returned answer is certified by
``relative_gap``.
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import errors
from .costs import (
    _interleaved,
    _latencies,
    _latency_partials,
    _net_arrays,
    cost_vector,
    social_cost,
)
from .network import (
    FlowVector,
    Network,
    PathFlowAssignment,
    PathTable,
    path_table,
    validate_assignment,
)

log = logging.getLogger("mar.equilibrium")


class StepRule(enum.Enum):
    MSA = "msa"
    SELF_REGULATED = "self-regulated"


@dataclass(frozen=True)
class EquilibriumConfig:
    max_iterations: int = 100_000
    gap_tolerance: float = 1e-6
    step_rule: StepRule = StepRule.SELF_REGULATED
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 1:
            raise errors.InvalidParameterError("max_iterations must be >= 1")
        if not 0 < self.gap_tolerance < np.inf:
            raise errors.InvalidParameterError("gap_tolerance must be finite and > 0")
        if isinstance(self.step_rule, str):
            object.__setattr__(self, "step_rule", StepRule(self.step_rule))


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


def _gap_at(table: PathTable, params, ph: np.ndarray, pa: np.ndarray):
    """The Wardrop gap certificate at one point.

    Returns (relative gap, absolute gap, road latencies, array of the
    all-or-nothing path index per OD). Both vehicle classes see the same road
    latencies, so the per-class shortest paths coincide.
    """
    x, y = table.link_flows(ph, pa)
    c_road = _latencies(params, x, y)
    cp = table.incidence.T @ c_road
    total_cost = float(np.dot(ph, cp) + np.dot(pa, cp))
    # each OD pair's cheapest path over the layout's human rows, ties to the
    # lowest index (padding repeats a block's first path, which argmin never
    # prefers); costs summed in OD order, as a Python sum, for any OD count
    n_od = len(table.blocks)
    padded = cp[table.columns[:n_od]]
    j = padded.argmin(axis=1)
    demand = table.demand_human + table.demand_auto
    shortest_cost = sum((demand * padded[np.arange(n_od), j]).tolist())
    aon = table.columns[:n_od, 0] + j
    gap_abs = max(total_cost - shortest_cost, 0.0)
    if total_cost <= 0.0:
        # a Network always carries positive demand
        raise errors.ZeroCostError("social cost is zero with positive demand")
    return gap_abs / total_cost, gap_abs, c_road, aon


def _newton_step(table: PathTable, params, c_road: np.ndarray,
                 ph: np.ndarray, pa: np.ndarray):
    """One damped least-squares Newton step toward equal support-path costs.

    Moves each class's flow on paths carrying under 1e-3 of its OD demand onto
    the block's cheapest path (under the road latencies ``c_road`` at the
    given point), then solves the linearized equal-cost/demand system on the
    support (least-norm step, since equilibria form a manifold), with a ratio
    test to stay nonnegative. The two classes move independently, so the step
    also makes the pure class-composition exchanges some equilibria require.
    Returns a candidate point; the caller keeps it only if the gap certificate
    improves.
    """
    ph = ph.copy()
    pa = pa.copy()
    n = table.total_paths
    incidence = table.incidence
    cp = incidence.T @ c_road
    for i, blk in enumerate(table.blocks):
        jmin = blk.start + int(np.argmin(cp[blk]))
        for p, demand in ((ph, table.demand_human[i]), (pa, table.demand_auto[i])):
            for j in range(blk.start, blk.stop):
                if j != jmin and p[j] < 1e-3 * max(float(demand), 1e-300):
                    p[jmin] += p[j]
                    p[j] = 0.0
    x, y = table.link_flows(ph, pa)
    c, dcdx, dcdy = _latency_partials(params, x, y)
    cp = incidence.T @ c
    rows = []
    rhs = []
    mask = np.zeros(2 * n, dtype=bool)
    for i, blk in enumerate(table.blocks):
        support = [j for j in range(blk.start, blk.stop) if ph[j] + pa[j] > 0.0]
        if not support:
            # an OD pair with zero demand in both classes carries no flow
            continue
        mask[support] = True
        mask[[n + j for j in support]] = True
        ref = support[0]
        for j in support[1:]:
            diff = incidence[:, j] - incidence[:, ref]
            row = np.empty(2 * n)
            row[:n] = (diff * dcdx) @ incidence
            row[n:] = (diff * dcdy) @ incidence
            rows.append(row)
            rhs.append(cp[ref] - cp[j])
        row_h = np.zeros(2 * n)
        row_h[support] = 1.0
        rows.append(row_h)
        rhs.append(float(table.demand_human[i]) - float(ph[support].sum()))
        row_a = np.zeros(2 * n)
        row_a[[n + j for j in support]] = 1.0
        rows.append(row_a)
        rhs.append(float(table.demand_auto[i]) - float(pa[support].sum()))
    try:
        step, *_ = np.linalg.lstsq(np.array(rows)[:, mask], np.array(rhs), rcond=None)
    except np.linalg.LinAlgError:
        step = None
    if step is not None:
        full = np.zeros(2 * n)
        full[mask] = step
        dh, da = full[:n], full[n:]
        for p, d in ((ph, dh), (pa, da)):
            d[(p <= 0.0) & (d < 0.0)] = 0.0
        damping = 1.0
        for p, d in ((ph, dh), (pa, da)):
            neg = d < 0.0
            if neg.any():
                damping = min(damping, float(np.min(0.95 * p[neg] / -d[neg])))
        if np.isfinite(damping) and damping > 0.0:
            ph = np.maximum(ph + damping * dh, 0.0)
            pa = np.maximum(pa + damping * da, 0.0)
    # Newton preserves the demand totals only to first order; restore exactly
    for i, blk in enumerate(table.blocks):
        for p, demand in ((ph, float(table.demand_human[i])),
                          (pa, float(table.demand_auto[i]))):
            total = float(p[blk].sum())
            if total > 0.0:
                p[blk] *= demand / total
            elif demand > 0.0:
                p[blk.start] = demand
    return ph, pa


def wardrop_gap(net: Network, pf: PathFlowAssignment) -> tuple[float, float]:
    """(absolute, relative) Wardrop gap of a path-flow assignment; zero
    exactly at equilibrium."""
    validate_assignment(net, pf)
    table = path_table(net)
    gap_rel, gap_abs, _, _ = _gap_at(table, _net_arrays(net), *table.arrays(pf))
    return gap_abs, gap_rel


def solve_equilibrium(
    net: Network,
    cfg: EquilibriumConfig | None = None,
    *,
    start: PathFlowAssignment | str | None = None,
    on_iterate: Callable[[int, PathFlowAssignment, float], None] | None = None,
) -> SolveResult:
    """Compute a Wardrop equilibrium by averaged all-or-nothing assignment.

    ``start`` may be an explicit assignment (used to probe equilibrium
    multiplicity), the string ``"random"`` (Dirichlet start seeded by
    ``cfg.seed``), or None for the uniform split. When the gap tolerance is
    not reached the best iterate found is returned with ``converged=False``
    rather than raising; ``iterations`` counts the iterations run either way.
    Deterministic for a given config and start.
    """
    cfg = cfg or EquilibriumConfig()
    table = path_table(net)
    params = _net_arrays(net)
    if start is None:
        ph, pa = table.uniform_start()
    elif isinstance(start, str):
        if start != "random":
            raise errors.InvalidParameterError(f"unknown start {start!r}")
        ph, pa = table.random_start(np.random.default_rng(cfg.seed))
    else:
        validate_assignment(net, start)
        ph, pa = table.arrays(start)

    best_gap = np.inf
    best = (ph.copy(), pa.copy())
    prev_gap = np.inf
    denom = 1.0
    averaging_steps = 0
    for it in range(cfg.max_iterations + 1):
        gap_rel, _, c_road, aon = _gap_at(table, params, ph, pa)
        if on_iterate is not None:
            on_iterate(it, table.assignment(ph, pa), gap_rel)
        if gap_rel < best_gap:
            best_gap = gap_rel
            best = (ph.copy(), pa.copy())
        if gap_rel <= cfg.gap_tolerance:
            return _result(table, ph, pa, gap_rel, it, True)
        if it == cfg.max_iterations:
            break

        if gap_rel <= 1e-2:
            # equalization regime: a Newton step, kept only if the gap drops
            cand_h, cand_a = _newton_step(table, params, c_road, ph, pa)
            if _gap_at(table, params, cand_h, cand_a)[0] < gap_rel:
                ph, pa = cand_h, cand_a
                continue

        if cfg.step_rule is StepRule.MSA:
            phi = 1.0 / (averaging_steps + 1.0)
        else:
            # grow the averaging denominator slowly on progress, fast on setbacks
            if averaging_steps > 0:
                denom += 2.0 if gap_rel > prev_gap * (1.0 - 1e-9) else 0.05
            phi = 1.0 / denom
        target = np.zeros((2, len(ph)))
        target[:, aon] = table.demand_human, table.demand_auto
        ph += phi * (target[0] - ph)
        pa += phi * (target[1] - pa)
        prev_gap = gap_rel
        averaging_steps += 1
        if it % 5000 == 0 and it > 0:
            log.debug("iteration %d: relative gap %.3e", it, gap_rel)

    ph, pa = best
    log.info("not converged after %d iterations, best gap %.3e",
             cfg.max_iterations, best_gap)
    return _result(table, ph, pa, best_gap, cfg.max_iterations, False)


def _result(table, ph, pa, gap_rel, iterations, converged) -> SolveResult:
    z = FlowVector.from_xy(*table.link_flows(ph, pa))
    return SolveResult(
        flows=table.assignment(ph, pa),
        link_flows=z,
        social_cost=social_cost(table.net, z),
        relative_gap=float(gap_rel),
        iterations=iterations,
        converged=converged,
    )


def vi_residual(net: Network, z_eq, z) -> float:
    """Variational-inequality residual ``<c(z_eq), z_eq - z>``.

    At a true equilibrium this is <= 0 for every feasible z; a positive value
    against some feasible z certifies z_eq is not an equilibrium.
    """
    zz = _interleaved(net, z_eq)
    return float(np.dot(cost_vector(net, zz), zz - _interleaved(net, z)))
