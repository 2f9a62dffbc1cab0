"""Link latencies for mixed human/autonomous traffic.

Road delay follows the BPR form ``freeflow * (1 + rho * ((x+y)/m(x,y))**sigma)``
where the capacity ``m`` depends on the autonomy level ``y/(x+y)`` through one
of two platooning models. The congestion argument ``(x+y)/m(x,y)`` expands to

* model 1: ``(h*x + hbar*y) / d``
* model 2: ``(h*(x+y)**2 - (h - hbar)*y**2) / (d*(x+y))`` (zero at zero flow)

with ``h`` the non-platooned and ``hbar`` the platooned headway. Those closed
forms are what the vectorized kernel evaluates; ``capacity`` states the rule
itself, ``d / average_spacing``, and is the reference the tests hold the
kernel to.

The duplicated cost vector ``c(z)`` repeats each road's latency twice so that
both vehicle classes see identical delays; its Jacobian is block diagonal in
2x2 road blocks because delays are separable across roads.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import errors
from .network import CapacityModel, Network, Road, _flow_array


@dataclass(frozen=True)
class _RoadArrays:
    """Per-road parameters as aligned numpy arrays (read-only)."""

    freeflow: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray
    h: np.ndarray
    hbar: np.ndarray
    d: np.ndarray
    model2: np.ndarray   # bool mask
    affine: np.ndarray   # bool mask
    ax: np.ndarray
    ay: np.ndarray
    a0: np.ndarray


@functools.lru_cache(maxsize=256)
def _arrays_for(roads: tuple[Road, ...]) -> _RoadArrays:
    def arr(values):
        a = np.array(values, dtype=float)
        a.setflags(write=False)
        return a

    affine_mask = np.array([r.affine is not None for r in roads])
    affine_mask.setflags(write=False)
    model2 = np.array([r.capacity_model is CapacityModel.MODEL2 for r in roads])
    model2.setflags(write=False)
    return _RoadArrays(
        freeflow=arr([r.freeflow for r in roads]),
        rho=arr([r.rho for r in roads]),
        sigma=arr([r.sigma for r in roads]),
        h=arr([r.headway for r in roads]),
        hbar=arr([r.platoon_headway for r in roads]),
        d=arr([r.length for r in roads]),
        model2=model2,
        affine=affine_mask,
        ax=arr([r.affine.coef_human if r.affine else 0.0 for r in roads]),
        ay=arr([r.affine.coef_auto if r.affine else 0.0 for r in roads]),
        a0=arr([r.affine.constant if r.affine else 0.0 for r in roads]),
    )


def _net_arrays(net: Network) -> _RoadArrays:
    return _arrays_for(net.roads)


def _congestion_ratio(p: _RoadArrays, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    t = x + y
    r1 = (p.h * x + p.hbar * y) / p.d
    safe_t = np.where(t > 0, t, 1.0)
    r2 = np.where(t > 0, (p.h * t * t - (p.h - p.hbar) * y * y) / (p.d * safe_t), 0.0)
    return np.where(p.model2, r2, r1)


def _latency_at(p: _RoadArrays, x: np.ndarray, y: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Latency per road given the congestion ratio ``r`` at flows (x, y)."""
    bpr = p.freeflow * (1.0 + p.rho * r ** p.sigma)
    if not p.affine.any():
        return bpr
    return np.where(p.affine, p.ax * x + p.ay * y + p.a0, bpr)


def _latencies(p: _RoadArrays, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _latency_at(p, x, y, _congestion_ratio(p, x, y))


def _latency_partials(p: _RoadArrays, x: np.ndarray, y: np.ndarray):
    """(c, dc/dx, dc/dy) per road: the latency and its partials, from one
    congestion ratio. At zero total flow the autonomy level is taken as 0,
    matching the zero-flow convention of the cost itself."""
    t = x + y
    safe_t = np.where(t > 0, t, 1.0)
    alpha = np.where(t > 0, y / safe_t, 0.0)
    drdx1 = p.h / p.d
    drdy1 = p.hbar / p.d
    drdx2 = (p.h + (p.h - p.hbar) * alpha * alpha) / p.d
    drdy2 = (p.h - (p.h - p.hbar) * alpha * (2.0 - alpha)) / p.d
    drdx = np.where(p.model2, drdx2, drdx1 * np.ones_like(t))
    drdy = np.where(p.model2, drdy2, drdy1 * np.ones_like(t))
    r = _congestion_ratio(p, x, y)
    base = p.freeflow * p.rho * p.sigma * r ** (p.sigma - 1.0)
    dcdx = base * drdx
    dcdy = base * drdy
    if p.affine.any():
        dcdx = np.where(p.affine, p.ax, dcdx)
        dcdy = np.where(p.affine, p.ay, dcdy)
    return _latency_at(p, x, y, r), dcdx, dcdy


def _check_flow_pair(x: float, y: float) -> None:
    if not (math.isfinite(x) and math.isfinite(y)):
        raise errors.InvalidParameterError(f"flows must be finite, got ({x}, {y})")
    if x < 0 or y < 0:
        raise errors.NegativeFlowError(f"flows must be >= 0, got ({x}, {y})")


def _interleaved(net: Network, z) -> np.ndarray:
    """Coerce a FlowVector or interleaved sequence into a checked, clipped array."""
    arr = _flow_array(net, z)
    if arr.min() < -1e-9:
        raise errors.NegativeFlowError(f"negative flow entry: {arr.min()}")
    return np.clip(arr, 0.0, None)


def _split_flows(net: Network, z) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a FlowVector or interleaved sequence into (x, y) arrays."""
    arr = _interleaved(net, z)
    return arr[0::2], arr[1::2]


def _spacing(road: Road, alpha):
    """Average road space per vehicle at autonomy level ``alpha`` (scalar or
    array): the headways mixed with weight ``alpha`` under model 1 and
    ``alpha**2`` under model 2. The single statement of the capacity rule."""
    weight = alpha if road.capacity_model is CapacityModel.MODEL1 else alpha * alpha
    return weight * road.platoon_headway + (1.0 - weight) * road.headway


def autonomy_level(x: float, y: float) -> float:
    """Fraction of autonomous flow, ``y/(x+y)``; zero at zero total flow."""
    _check_flow_pair(x, y)
    total = x + y
    return 0.0 if total == 0 else y / total


def capacity(road: Road, x: float, y: float) -> float:
    """Road capacity at the given flow composition.

    Length divided by the average road space per vehicle. Under model 1 the
    average interpolates linearly in the autonomy level; under model 2
    quadratically, because platooning requires an autonomous predecessor.
    """
    return road.length / _spacing(road, autonomy_level(x, y))


def link_cost(road: Road, x: float, y: float) -> float:
    """Latency on one road at flows (x, y)."""
    _check_flow_pair(x, y)
    p = _arrays_for((road,))
    return float(_latencies(p, np.array([x]), np.array([y]))[0])


def cost_vector(net: Network, z) -> np.ndarray:
    """Duplicated latency vector: entries 2i and 2i+1 both carry road i's latency."""
    x, y = _split_flows(net, z)
    return np.repeat(_latencies(_net_arrays(net), x, y), 2)


def social_cost(net: Network, z) -> float:
    """Aggregate delay over all users, ``sum_i c_i(x_i, y_i) * (x_i + y_i)``."""
    x, y = _split_flows(net, z)
    c = _latencies(_net_arrays(net), x, y)
    return float(np.dot(c, x + y))


def cost_jacobian(net: Network, z) -> np.ndarray:
    """Jacobian of the duplicated cost vector, block diagonal in 2x2 road blocks.

    Both duplicated rows of a road carry the same (dc/dx, dc/dy) pair. At zero
    total flow the derivative is the zero-autonomy limit, which keeps solvers
    that visit the origin well behaved.
    """
    x, y = _split_flows(net, z)
    _, dcdx, dcdy = _latency_partials(_net_arrays(net), x, y)
    n = net.n_roads
    jac = np.zeros((2 * n, 2 * n))
    for i in range(n):
        jac[2 * i:2 * i + 2, 2 * i] = dcdx[i]
        jac[2 * i:2 * i + 2, 2 * i + 1] = dcdy[i]
    return jac


def monotonicity_probe(net: Network, z, q) -> float:
    """Inner product ``<c(z) - c(q), z - q>``; a negative value certifies that
    the cost operator is not monotone."""
    zz = _interleaved(net, z)
    qq = _interleaved(net, q)
    return float(np.dot(cost_vector(net, zz) - cost_vector(net, qq), zz - qq))


def headway_from_speed(vehicle_length: float, speed: float, reaction_time: float) -> float:
    """Nominal road space per vehicle: body length plus reaction distance."""
    if vehicle_length < 0 or speed < 0 or reaction_time < 0:
        raise errors.NegativeInputError(
            "vehicle_length, speed and reaction_time must be >= 0"
        )
    return vehicle_length + speed * reaction_time
