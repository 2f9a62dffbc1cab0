"""Link latencies for mixed human/autonomous traffic.

Road delay follows the BPR form ``freeflow * (1 + rho * r**sigma)`` with the
congestion ratio ``r = (x+y) / m(x,y)``. The capacity ``m`` is the road length
``d`` over the average road space per vehicle, which mixes the non-platooned
headway ``h`` and the platooned headway ``hbar`` by the autonomy level
``alpha = y/(x+y)``: with weight ``alpha`` under model 1, and ``alpha**2``
under model 2, where a vehicle platoons only behind an autonomous one. This is
the one delay kind: with ``sigma`` 1 under model 1 it is the affine delay
``freeflow + freeflow * rho * (h*x + hbar*y) / d``.

The vectorized kernel writes that ratio, ``(x+y) * average_spacing / d``,
once for both models:

    r = (h*x + hbar*y - m2*(hbar - h)*x*y/(x+y)) / d

with ``m2`` 1 on model-2 roads and 0 on model-1 roads: under model 2 the
``x*y/(x+y)`` autonomous vehicles that follow a human one keep the headway
``h``. Its partials are ``dr/dx = (h - m2*(hbar-h)*alpha**2) / d`` and
``dr/dy = (hbar - m2*(hbar-h)*(1-alpha)**2) / d``, with ``alpha`` taken as 0
at zero flow. ``capacity`` states the rule itself, ``d / average_spacing``,
and is the reference the tests hold the kernel to.

The kernel runs on numpy arrays of roads, or on one road's coefficients as
Python floats (``_road_floats``) at float flows, which skips numpy's per-call
dispatch. The two agree to a few ulps: numpy's vectorized ``power`` and the C
library's ``pow`` may round ``r**sigma`` differently.

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


@dataclass(slots=True)  # not frozen: a frozen one builds about 6x slower, once per one-road call
class _RoadArrays:
    """Per-road parameters, and the kernel's coefficients: aligned read-only
    numpy arrays over roads, or one road's Python floats."""

    freeflow: np.ndarray
    rho: np.ndarray
    sigma: np.ndarray    # the exponent: 0 on a constant-delay road
    h: np.ndarray
    hbar: np.ndarray
    d: np.ndarray
    h_d: np.ndarray      # h / d
    hbar_d: np.ndarray   # hbar / d
    mixed_d: np.ndarray  # m2 * (hbar - h) / d
    slope: np.ndarray    # freeflow * rho * sigma
    sigma_less1: np.ndarray  # sigma - 1, and 0 on a constant-delay road


def _coefficients(freeflow, rho, sigma, h, hbar, d, m2) -> _RoadArrays:
    """The kernel's parameters and coefficients from the road parameters
    (``m2`` is 1 on model-2 roads and 0 on model-1 roads), given as arrays over
    roads or as one road's floats. Exponents are 0 where ``freeflow * rho`` is 0
    (a constant delay), so no overflowing power meets a zero factor: no nan."""
    congests = freeflow * rho != 0
    return _RoadArrays(freeflow, rho, sigma * congests, h, hbar, d, h / d, hbar / d,
                       m2 * (hbar - h) / d, freeflow * rho * sigma, (sigma - 1.0) * congests)


@functools.lru_cache(maxsize=256)
def _arrays_for(roads: tuple[Road, ...]) -> _RoadArrays:
    p = _coefficients(
        *(np.array([getattr(r, name) for r in roads], dtype=float)
          for name in ("freeflow", "rho", "sigma", "headway", "platoon_headway", "length")),
        m2=np.array([r.capacity_model is CapacityModel.MODEL2 for r in roads], dtype=float))
    for name in p.__slots__:
        getattr(p, name).setflags(write=False)
    return p


def _road_floats(road: Road) -> _RoadArrays:
    """One road's parameters and coefficients as Python floats."""
    return _coefficients(float(road.freeflow), float(road.rho), float(road.sigma),
                         float(road.headway), float(road.platoon_headway), float(road.length),
                         float(road.capacity_model is CapacityModel.MODEL2))


def _net_arrays(net: Network) -> _RoadArrays:
    return _arrays_for(net.roads)


def _congestion(p: _RoadArrays, x: np.ndarray, y: np.ndarray):
    """(r, alpha, 1 - alpha, x + y) per road: the congestion ratio, the autonomy
    level (0 at zero flow), its complement and the total flow. Floats or arrays."""
    t = x + y
    alpha = y / (t + (t == 0))  # a zero total divides by 1
    human = 1.0 - alpha
    return p.h_d * x + (p.hbar_d - p.mixed_d * human) * y, alpha, human, t


def _latency_at(p: _RoadArrays, r: np.ndarray) -> np.ndarray:
    """Latency per road given the congestion ratio ``r``."""
    return p.freeflow * (1.0 + p.rho * r ** p.sigma)


def _latencies(p: _RoadArrays, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    return _latency_at(p, _congestion(p, x, y)[0])


def _latency_partials(p: _RoadArrays, x: np.ndarray, y: np.ndarray):
    """(c, dc/dx, dc/dy, x + y) per road: the latency and its partials, from
    one congestion ratio, and the total flow. The partials are new arrays."""
    r, alpha, human, t = _congestion(p, x, y)
    base = p.slope * r ** p.sigma_less1
    dcdx = base * (p.h_d - p.mixed_d * alpha * alpha)
    dcdy = base * (p.hbar_d - p.mixed_d * human * human)
    return _latency_at(p, r), dcdx, dcdy, t


def _check_flow_pair(x: float, y: float, what: str = "flows") -> None:
    if not (math.isfinite(x) and math.isfinite(y)):
        raise errors.InvalidParameterError(f"{what} must be finite, got ({x}, {y})")
    if x < 0 or y < 0:
        raise errors.NegativeFlowError(f"{what} must be >= 0, got ({x}, {y})")


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


def _road_latency(p: _RoadArrays, x: float, y: float) -> float:
    """The kernel's latency on one road's float coefficients ``p`` at float
    flows; inf where ``r**sigma`` overflows, as on arrays."""
    try:
        return float(_latencies(p, x, y))
    except OverflowError:
        return math.inf


def link_cost(road: Road, x: float, y: float) -> float:
    """Latency on one road at flows (x, y)."""
    _check_flow_pair(x, y)
    return _road_latency(_road_floats(road), x, y)


def _duplicated_costs(net: Network, z: np.ndarray) -> np.ndarray:
    """The duplicated latency vector of checked interleaved flows ``z``."""
    return np.repeat(_latencies(_net_arrays(net), z[0::2], z[1::2]), 2)


def cost_vector(net: Network, z) -> np.ndarray:
    """Duplicated latency vector: entries 2i and 2i+1 both carry road i's latency."""
    return _duplicated_costs(net, _flow_array(net, z))


def social_cost(net: Network, z) -> float:
    """Aggregate delay over all users, ``sum_i c_i(x_i, y_i) * (x_i + y_i)``."""
    x, y = _flow_array(net, z).reshape(-1, 2).T
    c = _latencies(_net_arrays(net), x, y)
    return float(np.dot(c, x + y))


def cost_jacobian(net: Network, z) -> np.ndarray:
    """Jacobian of the duplicated cost vector, block diagonal in 2x2 road blocks.

    Both duplicated rows of a road carry the same (dc/dx, dc/dy) pair. At zero
    total flow the derivative is the zero-autonomy limit, which keeps solvers
    that visit the origin well behaved.
    """
    x, y = _flow_array(net, z).reshape(-1, 2).T
    _, dcdx, dcdy, _ = _latency_partials(_net_arrays(net), x, y)
    n = net.n_roads
    jac = np.zeros((n, 2, n, 2))
    road = np.arange(n)
    jac[road, :, road, :] = np.stack([dcdx, dcdy], axis=1)[:, None, :]
    return jac.reshape(2 * n, 2 * n)


def monotonicity_probe(net: Network, z, q) -> float:
    """Inner product ``<c(z) - c(q), z - q>``; a negative value certifies that
    the cost operator is not monotone."""
    zz = _flow_array(net, z)
    qq = _flow_array(net, q)
    return float(np.dot(_duplicated_costs(net, zz) - _duplicated_costs(net, qq), zz - qq))


def headway_from_speed(vehicle_length: float, speed: float, reaction_time: float) -> float:
    """Nominal road space per vehicle: body length plus reaction distance."""
    if not all(map(math.isfinite, (vehicle_length, speed, reaction_time))):
        raise errors.InvalidParameterError(
            "vehicle_length, speed and reaction_time must be finite")
    if vehicle_length < 0 or speed < 0 or reaction_time < 0:
        raise errors.NegativeInputError(
            "vehicle_length, speed and reaction_time must be >= 0"
        )
    return vehicle_length + speed * reaction_time
