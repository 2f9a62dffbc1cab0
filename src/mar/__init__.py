"""Routing games on road networks shared by human-driven and autonomous vehicles.

Models link delays whose capacity depends on the autonomy level of the flow
(under two platooning assumptions), computes Wardrop equilibria and social
optima over enumerated-path networks, and evaluates closed-form price-of-
anarchy and bicriteria bounds parameterized by the network's headway asymmetry
and polynomial degree.
"""

from .bounds import (
    AggregateCost,
    BoundsReport,
    PoAOutcome,
    TightnessPoint,
    aggregate_cost,
    beta_network_estimate,
    beta_road_closed_form,
    beta_road_numeric,
    degree_of_asymmetry,
    empirical_poa,
    max_degree,
    poa_bounds,
    tightness_probe,
    verify_lemma_agg_opt,
    verify_lemma_agg_poa_ratio,
    xi,
)
from .costs import (
    autonomy_level,
    capacity,
    cost_jacobian,
    cost_vector,
    headway_from_speed,
    link_cost,
    monotonicity_probe,
    social_cost,
)
from .equilibrium import (
    EquilibriumConfig,
    SolveResult,
    solve_equilibrium,
    vi_residual,
    wardrop_gap,
)
from .network import (
    CapacityModel,
    FeasibilityReport,
    FlowVector,
    Network,
    ODPair,
    Path,
    PathFlowAssignment,
    PathTable,
    Road,
    check_feasible,
    enumerate_paths,
    path_table,
    to_link_flows,
    validate_assignment,
)
from .optimum import (
    OptimumConfig,
    brute_force_optimum,
    grid_error_bound,
    scale_demands,
    solve_optimum,
    solve_scaled_optimum,
)
from .scenario import (
    DEMO_NAMES,
    Experiment,
    Scenario,
    SweepSpec,
    apply_sweep_parameter,
    demo_scenario,
    network_from_mapping as build_network,
    parse_scenario,
)
from . import errors

__version__ = "0.1.0"

_CLI_NAMES = ("main", "run")


def __getattr__(name: str):
    # mar.cli loads on first use, so ``python -m mar.cli`` finds it unimported
    if name in _CLI_NAMES:
        from . import cli
        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "AggregateCost", "BoundsReport", "CapacityModel", "DEMO_NAMES",
    "EquilibriumConfig", "Experiment", "FeasibilityReport", "FlowVector", "Network",
    "ODPair", "OptimumConfig", "Path", "PathFlowAssignment", "PathTable", "PoAOutcome",
    "Road", "Scenario", "SolveResult", "SweepSpec", "TightnessPoint",
    "aggregate_cost", "apply_sweep_parameter", "autonomy_level",
    "beta_network_estimate", "beta_road_closed_form", "beta_road_numeric",
    "brute_force_optimum", "build_network", "capacity", "check_feasible",
    "cost_jacobian", "cost_vector", "degree_of_asymmetry", "demo_scenario",
    "empirical_poa", "enumerate_paths", "errors", "grid_error_bound",
    "headway_from_speed", "link_cost", "main", "max_degree", "monotonicity_probe",
    "parse_scenario", "path_table", "poa_bounds", "run", "scale_demands",
    "social_cost", "solve_equilibrium", "solve_optimum", "solve_scaled_optimum",
    "tightness_probe", "to_link_flows", "validate_assignment", "vi_residual",
    "wardrop_gap", "xi", "verify_lemma_agg_opt", "verify_lemma_agg_poa_ratio",
]
