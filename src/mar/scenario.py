"""Scenario files: a JSON-shaped description of a network plus an experiment.

The schema is the library's own types: ``_value`` reads every section from the
fields of the dataclass it builds, so a field's type hint is its schema and a
field with a default is optional. Unknown fields and wrong types are rejected
with the offending field's path named, such as ``network.roads[1].sigma``.
Each scenario type checks its own rules when built, by ``parse_scenario`` or
by library code, so ``parse_scenario`` only maps JSON onto types. Violations
of network invariants (duplicate ids, unreachable OD pairs, bad parameter
ranges) propagate as their own error types. All quantities are unchecked
scalars; consistent units are the scenario author's responsibility.
"""

from __future__ import annotations

import dataclasses
import enum
import json
import math
import typing
from dataclasses import MISSING, dataclass, field, replace
from typing import Any, Mapping

from . import errors
from .bounds import _check_probe_levels
from .equilibrium import EquilibriumConfig
from .network import Network
from .optimum import OptimumConfig, scale_demands


class Experiment(enum.Enum):
    EQUILIBRIUM = "equilibrium"
    OPTIMUM = "optimum"
    BOUNDS = "bounds"
    POA = "poa"
    BICRITERIA = "bicriteria"
    SWEEP = "sweep"
    MONOTONICITY_DEMO = "monotonicity_demo"
    TIGHTNESS_PROBE = "tightness_probe"


_EXPERIMENT_NAMES = {
    "eq": Experiment.EQUILIBRIUM,
    "opt": Experiment.OPTIMUM,
    **{experiment.value: experiment for experiment in Experiment},
}


def experiment_named(name: str) -> Experiment:
    """The experiment named by a scenario's ``experiment`` field or a CLI verb;
    ``eq`` and ``opt`` are short for ``equilibrium`` and ``optimum``."""
    if name not in _EXPERIMENT_NAMES:
        raise errors.SchemaError(f"scenario.experiment: unknown experiment {name!r}")
    return _EXPERIMENT_NAMES[name]


#: Most values a sweep may take; each solves an equilibrium and an optimum.
MAX_SWEEP_STEPS = 10_000


def _autonomy_share(net: Network, share: float) -> Network:
    return replace(net, od_pairs=tuple(
        replace(od, demand_human=(1.0 - share) * od.total_demand,
                demand_auto=share * od.total_demand)
        for od in net.od_pairs))


def _k_scale(net: Network, k: float) -> Network:
    return replace(net, roads=tuple(
        replace(road, platoon_headway=road.headway * k)
        if road.platoon_headway >= road.headway
        else replace(road, headway=road.platoon_headway * k)
        for road in net.roads))


def _sigma(net: Network, sigma: float) -> Network:
    return replace(net, roads=tuple(replace(road, sigma=sigma) for road in net.roads))


# Each sweep parameter: its allowed values, as a rule and its test, and what one
# value does to a network. autonomy_share keeps each OD's total demand; k_scale
# rescales each road's larger headway so that its headway ratio is the value.
_SWEEPS = {
    "autonomy_share": ("within [0, 1]", lambda v: 0.0 <= v <= 1.0, _autonomy_share),
    "k_scale": ("finite and >= 1", lambda v: 1.0 <= v < math.inf, _k_scale),
    "sigma": ("finite and >= 1", lambda v: 1.0 <= v < math.inf, _sigma),
    "demand_scale": ("finite and > 0", lambda v: 0.0 < v < math.inf, scale_demands),
}


def _sweep_named(parameter: str) -> tuple:
    if parameter not in _SWEEPS:
        raise errors.InvalidSweepParameterError(
            f"unknown sweep parameter {parameter!r}; expected one of {tuple(_SWEEPS)}")
    return _SWEEPS[parameter]


def apply_sweep_parameter(net: Network, parameter: str, value: float) -> Network:
    """``net`` with one value of a sweep parameter applied, as ``_SWEEPS`` states."""
    return _sweep_named(parameter)[2](net, value)


@dataclass(frozen=True)
class SweepSpec:
    """``steps`` (at most ``MAX_SWEEP_STEPS``) evenly spaced values of one
    parameter from ``start`` to ``stop``, both values the parameter allows."""

    parameter: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        rule, admits, _ = _sweep_named(self.parameter)
        if type(self.steps) is not int or not 1 <= self.steps <= MAX_SWEEP_STEPS:
            raise errors.InvalidSweepParameterError(
                f"sweep.steps: expected an integer in [1, {MAX_SWEEP_STEPS}], got {self.steps!r}")
        for end, value in (("start", self.start), ("stop", self.stop)):
            if not admits(value):
                raise errors.InvalidSweepParameterError(
                    f"sweep.{end}: {self.parameter} values must be {rule}, got {value}")


@dataclass(frozen=True)
class TightnessSpec:
    ks: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0)
    sigma: float = 1.0
    rhos: tuple[float, ...] = (10.0, 100.0)
    demand: float = 1.0

    def __post_init__(self) -> None:
        try:
            _check_probe_levels(self.ks, self.rhos, self.sigma, self.demand)
        except errors.InvalidParameterError as exc:
            raise errors.SchemaError(f"tightness.{exc}") from None


@dataclass(frozen=True)
class Scenario:
    """An experiment and its inputs. The seed is an integer >= 0. All but the
    tightness probe need a network, the sweep needs a sweep, and the
    monotonicity demo two roads from the origin to the destination of its one
    OD pair. The tightness probe runs its solves at its own settings, so it
    takes the default solver configs, apart from the optimum seed; the
    scenario seed seeds its random starts."""

    experiment: Experiment
    network: Network | None
    eq_config: EquilibriumConfig
    opt_config: OptimumConfig
    sweep: SweepSpec | None = None
    tightness: TightnessSpec = field(default_factory=TightnessSpec)
    seed: int = 0

    def __post_init__(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise errors.SchemaError(f"scenario.seed: expected an integer >= 0, got {self.seed!r}")
        net = self.network
        if net is None and self.experiment is not Experiment.TIGHTNESS_PROBE:
            raise errors.SchemaError(
                f"the {self.experiment.value} experiment requires a 'network' section")
        if self.experiment is Experiment.TIGHTNESS_PROBE and (
                self.eq_config != EquilibriumConfig()
                or self.opt_config != replace(OptimumConfig(), seed=self.opt_config.seed)):
            raise errors.SchemaError(
                "the tightness_probe experiment takes no equilibrium or optimum settings "
                "(sections 'equilibrium' and 'optimum', flags --gap-tol and --restarts)")
        if self.sweep is None and self.experiment is Experiment.SWEEP:
            raise errors.SchemaError("the sweep experiment requires a 'sweep' section")
        if self.experiment is Experiment.MONOTONICITY_DEMO and (
                net.n_roads != 2 or len(net.od_pairs) != 1
                or {(r.tail, r.head) for r in net.roads}
                != {(net.od_pairs[0].origin, net.od_pairs[0].destination)}):
            raise errors.InvalidParameterError(
                "the monotonicity demo needs exactly two parallel roads and one OD pair")


def _require_mapping(value, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise errors.SchemaError(f"{where}: expected an object, got {type(value).__name__}")
    return value


def _check_keys(data: Mapping, allowed, where: str) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise errors.SchemaError(f"{where}: unknown field {sorted(unknown)[0]!r}")


def _value(value, kind, where: str):
    """``value`` read as ``kind``, with ``where`` naming it in errors.

    ``kind`` is float, int, str, an enum (given by its value),
    ``tuple[T, ...]`` (a list, each item read as ``T``), or a dataclass (an
    object of its fields). A dataclass field's schema is its type hint and its
    default: a field with a default is optional, the others are required, and
    its key is the field's name unless its ``metadata["key"]`` says otherwise.
    The type's own ``__post_init__`` then checks the values.
    """
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise errors.SchemaError(f"{where}: expected a number, got {value!r}")
        try:
            number = float(value)
        except OverflowError:
            raise errors.SchemaError(f"{where}: number out of range") from None
        if not math.isfinite(number):
            raise errors.SchemaError(f"{where}: expected a finite number, got {value!r}")
        return number
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise errors.SchemaError(f"{where}: expected an integer, got {value!r}")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise errors.SchemaError(f"{where}: expected a string, got {value!r}")
        return value
    if isinstance(kind, enum.EnumMeta):
        name = _value(value, str, where)
        try:
            return kind(name)
        except ValueError:
            choices = " or ".join(repr(member.value) for member in kind)
            raise errors.SchemaError(f"{where}: expected {choices}, got {name!r}") from None
    if typing.get_origin(kind) is tuple:
        if not isinstance(value, (list, tuple)):
            raise errors.SchemaError(f"{where}: expected a list, got {value!r}")
        item = typing.get_args(kind)[0]
        return tuple(_value(v, item, f"{where}[{i}]") for i, v in enumerate(value))
    if dataclasses.is_dataclass(kind):
        data = _require_mapping(value, where)
        hints = typing.get_type_hints(kind)
        fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(kind)}
        _check_keys(data, fields, where)
        # a field absent from data takes its default, or _get says it is missing
        return kind(**{
            f.name: _get(data, key, where, hints[f.name]) for key, f in fields.items()
            if key in data or f.default is MISSING and f.default_factory is MISSING})
    raise AssertionError(kind)


def _get(data: Mapping, key: str, where: str, kind):
    """Required field ``key`` of object ``data`` (at ``where``) read as ``kind``."""
    if key not in data:
        raise errors.SchemaError(f"{where}: missing required field {key!r}")
    return _value(data[key], kind, f"{where}.{key}")


def network_from_mapping(data: Mapping) -> Network:
    """Build a validated Network from a plain mapping (the scenario schema).

    Expected shape::

        {"nodes": ["s", "t"],
         "roads": [{"id": 1, "tail": "s", "head": "t", "length": 1.0,
                    "headway": 2.0, "platoon_headway": 1.0, "freeflow": 1.0,
                    "rho": 1.0, "sigma": 1.0, "capacity_model": "model1"}],
         "od_pairs": [{"origin": "s", "destination": "t",
                       "demand_human": 1.0, "demand_auto": 1.0}]}

    Each object is read by ``_value`` from the fields of the type it builds
    (``Network``, ``Road``, ``ODPair``), so a road's ``length`` to
    ``capacity_model`` are optional, and a road's ``rid`` is keyed ``id``.
    Exported as ``mar.build_network``.
    """
    return _value(data, Network, "network")


def _optional(data: Mapping, key: str, kind):
    """Section ``key`` of a scenario read as ``kind``; absent or null reads as empty."""
    section = data.get(key)
    return _value({} if section is None else section, kind, key)


def parse_scenario(text: str) -> Scenario:
    """Map scenario text onto a Scenario, whose types check their own rules.

    The top level is read here: ``schema_version`` must be "1",
    ``experiment`` may be ``eq`` or ``opt`` for short, a null
    ``equilibrium``, ``optimum`` or ``tightness`` section reads as empty and a
    null ``sweep`` as none, and the optimum seed defaults to the scenario's.
    Every section is read by ``_value`` from the type it builds.
    """
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError covers JSONDecodeError
        raise errors.SchemaError(f"invalid JSON: {exc}") from None
    data = _require_mapping(data, "scenario")
    _check_keys(data, {"schema_version", "experiment", "seed", "network",
                       "equilibrium", "optimum", "sweep", "tightness"}, "scenario")
    version = _get(data, "schema_version", "scenario", str)
    if version != "1":
        raise errors.SchemaError(f"scenario.schema_version: unrecognized version {version!r}")
    experiment = experiment_named(_get(data, "experiment", "scenario", str))
    seed = _value(data.get("seed", 0), int, "scenario.seed")
    sweep = data.get("sweep")
    scenario = Scenario(
        experiment=experiment, seed=seed,
        network=network_from_mapping(data["network"]) if "network" in data else None,
        sweep=None if sweep is None else _value(sweep, SweepSpec, "sweep"),
        tightness=_optional(data, "tightness", TightnessSpec),
        eq_config=_optional(data, "equilibrium", EquilibriumConfig),
        opt_config=_optional(data, "optimum", OptimumConfig))
    if "seed" in (data.get("optimum") or {}):
        return scenario
    # the optimum seed defaults to the scenario's, once Scenario has checked it
    return replace(scenario, opt_config=replace(scenario.opt_config, seed=seed))


# Embedded demo scenarios. "monotonicity" is two sigma = 1 model-1 roads with
# costs 3x+y+1 and 3x+2y+1, whose cost operator has an asymmetric, indefinite
# Jacobian; "bicriteria-2.61" is a k=3, sigma=4 network whose demand-inflation
# factor lands near 2.605; "classic-4-3" is a symmetric sigma = 1 network
# recovering the classic 4/3 bound; "tightness-k-sweep" runs the
# order-optimality probe.
_DEMOS: dict[str, dict[str, Any]] = {
    "classic-4-3": {
        "schema_version": "1",
        "experiment": "bounds",
        "network": {
            "nodes": ["s", "t"],
            "roads": [
                {"id": 1, "tail": "s", "head": "t", "length": 1.0, "headway": 1.0,
                 "platoon_headway": 1.0, "freeflow": 1.0, "rho": 1.0, "sigma": 1.0,
                 "capacity_model": "model1"},
                {"id": 2, "tail": "s", "head": "t", "length": 1.0, "headway": 1.0,
                 "platoon_headway": 1.0, "freeflow": 1.0, "rho": 1.0, "sigma": 1.0,
                 "capacity_model": "model1"},
            ],
            "od_pairs": [{"origin": "s", "destination": "t",
                          "demand_human": 1.0, "demand_auto": 1.0}],
        },
    },
    "monotonicity": {
        "schema_version": "1",
        "experiment": "monotonicity_demo",
        "network": {
            "nodes": ["s", "t"],
            "roads": [
                {"id": 1, "tail": "s", "head": "t", "headway": 3.0,
                 "platoon_headway": 1.0, "rho": 1.0, "sigma": 1.0},
                {"id": 2, "tail": "s", "head": "t", "headway": 3.0,
                 "platoon_headway": 2.0, "rho": 1.0, "sigma": 1.0},
            ],
            "od_pairs": [{"origin": "s", "destination": "t",
                          "demand_human": 2.0, "demand_auto": 3.0}],
        },
    },
    "bicriteria-2.61": {
        "schema_version": "1",
        "experiment": "bicriteria",
        "network": {
            "nodes": ["s", "t"],
            "roads": [
                {"id": 1, "tail": "s", "head": "t", "length": 1.0, "headway": 6.0,
                 "platoon_headway": 2.0, "freeflow": 1.0, "rho": 0.15, "sigma": 4.0,
                 "capacity_model": "model1"},
                {"id": 2, "tail": "s", "head": "t", "length": 1.0, "headway": 2.0,
                 "platoon_headway": 2.0, "freeflow": 1.0, "rho": 0.15, "sigma": 4.0,
                 "capacity_model": "model1"},
            ],
            "od_pairs": [{"origin": "s", "destination": "t",
                          "demand_human": 0.2, "demand_auto": 0.2}],
        },
    },
    "tightness-k-sweep": {
        "schema_version": "1",
        "experiment": "tightness_probe",
        "tightness": {"ks": [1.0, 1.5, 2.0, 3.0], "sigma": 1.0,
                      "rhos": [10.0, 100.0], "demand": 1.0},
    },
}

DEMO_NAMES = tuple(sorted(_DEMOS))


def demo_scenario(name: str) -> Scenario:
    """One of the embedded demo scenarios, validated through the normal parser."""
    if name not in _DEMOS:
        raise errors.SchemaError(
            f"unknown demo {name!r}; available: {', '.join(DEMO_NAMES)}"
        )
    return parse_scenario(json.dumps(_DEMOS[name]))
