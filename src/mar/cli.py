"""Command-line interface: scenario ingestion and experiment orchestration.

Verbs mirror the experiments: ``eq``, ``opt``, ``bounds``, ``poa``,
``bicriteria``, ``sweep``, ``demo <name>``, ``validate``; ``run`` runs the
experiment a scenario file names, including those no other verb reaches
(``tightness_probe``, ``monotonicity_demo``). Verbs and flags override the
file through ``dataclasses.replace``, so the scenario types check the result
as they check a parsed file, and ``validate`` checks the scenario as it would
run, flags applied; no scenario rule lives here. Reports are written
as JSON or CSV (``--format``); ``poa``, ``sweep`` and the tightness probe emit
fixed-column CSV rows suitable for plotting:

    param,value,C_eq,gap_rel,C_opt,opt_oracle,poa_emp,bound_t1,bound_t2,bound_combined,k,sigma,xi

``opt_oracle`` carries provenance tokens joined by ``+`` ("brute-force",
"local-search", "eq-unconverged", ...); a row whose empirical ratio is not
fully certified always carries a token beyond plain "brute-force". Identical
scenario and seed produce byte-identical reports. The ``MAR_LOG`` environment
variable (off|info|debug) controls diagnostic verbosity on stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import logging
import os
import sys

import numpy as np

from . import errors
from .bounds import empirical_poa, poa_bounds, beta_network_estimate, tightness_probe
from .costs import cost_jacobian, monotonicity_probe
from .equilibrium import SolveResult, solve_equilibrium
from .network import Network
from .optimum import solve_optimum, solve_scaled_optimum
from .scenario import (
    DEMO_NAMES,
    Experiment,
    Scenario,
    apply_sweep_parameter,
    demo_scenario,
    experiment_named,
    parse_scenario,
)

log = logging.getLogger("mar.cli")

CSV_COLUMNS = ("param", "value", "C_eq", "gap_rel", "C_opt", "opt_oracle",
               "poa_emp", "bound_t1", "bound_t2", "bound_combined",
               "k", "sigma", "xi")


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".12g")
    return str(value)


def _rows_to_csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for row in rows:
        buf.write(",".join(_fmt(row.get(col)) for col in CSV_COLUMNS) + "\n")
    return buf.getvalue()


def _dict_to_csv(payload: dict) -> str:
    buf = io.StringIO()
    buf.write("key,value\n")
    for key, value in _flatten(payload):
        buf.write(f"{key},{_fmt(value)}\n")
    return buf.getvalue()


def _flatten(payload, prefix=""):
    items = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            items.extend(_flatten(value, f"{prefix}{key}." if prefix else f"{key}."))
    elif isinstance(payload, (list, tuple)):
        for i, value in enumerate(payload):
            items.extend(_flatten(value, f"{prefix}{i}."))
    else:
        items.append((prefix[:-1], payload))
    return items


def _solve_summary(res: SolveResult, net: Network) -> dict:
    link = [
        {"road": road.rid, "human": float(res.link_flows.x[i]),
         "auto": float(res.link_flows.y[i])}
        for i, road in enumerate(net.roads)
    ]
    paths = []
    for i in range(res.flows.od_count()):
        for cls, table in (("human", res.flows.human[i]), ("auto", res.flows.auto[i])):
            for path, flow in table.items():
                paths.append({"od": i, "class": cls,
                              "path": list(path), "flow": flow})
    return {
        "social_cost": res.social_cost,
        "relative_gap": res.relative_gap,
        "iterations": res.iterations,
        "converged": res.converged,
        "link_flows": link,
        "path_flows": paths,
    }


def _poa_row(net: Network, scenario: Scenario, param: str, value: float) -> tuple[dict, bool]:
    outcome = empirical_poa(net, scenario.eq_config, scenario.opt_config)
    report = poa_bounds(net)
    tokens = [outcome.opt_oracle, *outcome.flags]
    row = {
        "param": param,
        "value": value,
        "C_eq": outcome.equilibrium.social_cost,
        "gap_rel": outcome.equilibrium.relative_gap,
        "C_opt": outcome.optimum.social_cost,
        "opt_oracle": "+".join(tokens),
        "poa_emp": outcome.ratio,
        "bound_t1": report.bound_thm1,
        "bound_t2": report.bound_thm2,
        "bound_combined": report.bound_combined,
        "k": report.k,
        "sigma": report.sigma,
        "xi": report.xi,
    }
    return row, bool(outcome.flags)


def _run_equilibrium(scenario: Scenario):
    res = solve_equilibrium(scenario.network, scenario.eq_config)
    payload = {"experiment": "equilibrium", **_solve_summary(res, scenario.network)}
    return payload, None, not res.converged


def _run_optimum(scenario: Scenario):
    res = solve_optimum(scenario.network, scenario.opt_config)
    payload = {"experiment": "optimum", **_solve_summary(res, scenario.network)}
    return payload, None, not res.converged


def _run_bounds(scenario: Scenario):
    report = poa_bounds(scenario.network)
    estimate = beta_network_estimate(scenario.network, samples=64, seed=scenario.seed)
    payload = {"experiment": "bounds", **dataclasses.asdict(report)}
    payload["beta_estimate"] = estimate
    return payload, None, False


def _run_poa(scenario: Scenario):
    row, soft = _poa_row(scenario.network, scenario, "poa", 1.0)
    return {"experiment": "poa", "rows": [row]}, [row], soft


def _run_bicriteria(scenario: Scenario):
    report = poa_bounds(scenario.network)
    factor = report.bicriteria_factor
    eq = solve_equilibrium(scenario.network, scenario.eq_config)
    scaled = solve_scaled_optimum(scenario.network, factor, scenario.opt_config)
    holds = eq.social_cost <= scaled.social_cost * (1.0 + 1e-9) + 1e-12
    payload = {
        "experiment": "bicriteria",
        "k": report.k,
        "sigma": report.sigma,
        "xi": report.xi,
        "factor": factor,
        "C_eq": eq.social_cost,
        "eq_gap_rel": eq.relative_gap,
        "eq_converged": eq.converged,
        "C_scaled_opt": scaled.social_cost,
        "holds": holds,
    }
    return payload, None, not (eq.converged and holds)


def _run_sweep(scenario: Scenario):
    sweep = scenario.sweep
    values = np.linspace(sweep.start, sweep.stop, sweep.steps)
    rows = []
    soft = False
    for value in sorted(float(v) for v in values):
        net = apply_sweep_parameter(scenario.network, sweep.parameter, value)
        row, row_soft = _poa_row(net, scenario, sweep.parameter, value)
        rows.append(row)
        soft = soft or row_soft
    return {"experiment": "sweep", "parameter": sweep.parameter, "rows": rows}, rows, soft


def _run_monotonicity(scenario: Scenario):
    net = scenario.network
    od = net.od_pairs[0]
    h, a = od.demand_human, od.demand_auto
    z = [h, 0.0, 0.0, a]   # humans on road 1, autonomous flow on road 2
    q = [0.0, a, h, 0.0]   # the reverse assignment
    probe = monotonicity_probe(net, z, q)
    jac = cost_jacobian(net, z)
    v = np.array([-1.0, 2.0, 0.0, 0.0])
    quad = float(v @ jac @ v)
    payload = {
        "experiment": "monotonicity_demo",
        "flows_z": z,
        "flows_q": q,
        "probe_value": probe,
        "jacobian": [[float(x) for x in row] for row in jac],
        "quadratic_form": {"vector": v.tolist(), "value": quad},
        "monotone": bool(probe >= 0),
    }
    return payload, None, False


def _run_tightness(scenario: Scenario):
    spec = scenario.tightness
    points = tightness_probe(ks=spec.ks, sigma=spec.sigma, rhos=spec.rhos,
                             demand=spec.demand, seed=scenario.seed)
    rows = []
    for pt in points:
        rows.append({
            "param": "k",
            "value": pt.k,
            "C_eq": None,
            "gap_rel": None,
            "C_opt": None,
            "opt_oracle": f"probe:{pt.equilibria_found}-equilibria",
            "poa_emp": pt.best_ratio,
            "bound_t1": None,
            "bound_t2": None,
            "bound_combined": pt.bound_combined,
            "k": pt.k,
            "sigma": spec.sigma,
            "xi": None,
        })
    return {"experiment": "tightness_probe", "rows": rows}, rows, False


_HANDLERS = {
    Experiment.EQUILIBRIUM: _run_equilibrium,
    Experiment.OPTIMUM: _run_optimum,
    Experiment.BOUNDS: _run_bounds,
    Experiment.POA: _run_poa,
    Experiment.BICRITERIA: _run_bicriteria,
    Experiment.SWEEP: _run_sweep,
    Experiment.MONOTONICITY_DEMO: _run_monotonicity,
    Experiment.TIGHTNESS_PROBE: _run_tightness,
}


def run(scenario: Scenario, *, out: str | None = None, fmt: str | None = None) -> int:
    """Run a scenario's experiment and write its report.

    Returns the process exit status: 0 on success, 2 on a solver soft failure
    (the report is still written). ``fmt`` defaults to CSV for row-shaped
    experiments (poa, sweep, tightness probe) and JSON otherwise.
    """
    payload, rows, soft = _HANDLERS[scenario.experiment](scenario)
    if fmt is None:
        fmt = "csv" if rows is not None else "json"
    if fmt == "csv":
        text = _rows_to_csv(rows) if rows is not None else _dict_to_csv(payload)
    elif fmt == "json":
        text = json.dumps(payload, indent=2) + "\n"
    else:
        raise errors.SchemaError(f"unknown format {fmt!r}")
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return 2 if soft else 0


def _configure_logging() -> None:
    level_name = os.environ.get("MAR_LOG", "off").lower()
    level = {"off": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}.get(
        level_name, logging.ERROR
    )
    logging.basicConfig(stream=sys.stderr, level=level,
                        format="%(name)s %(levelname)s: %(message)s")


def _add_common_flags(parser: argparse.ArgumentParser, scenario_required=True) -> None:
    if scenario_required:
        parser.add_argument("--scenario", required=True, help="scenario file path")
    parser.add_argument("--out", default=None, help="output path (default stdout)")
    parser.add_argument("--seed", type=int, default=None, help="override all solver seeds")
    parser.add_argument("--gap-tol", type=float, default=None,
                        help="override the equilibrium gap tolerance")
    parser.add_argument("--restarts", type=int, default=None,
                        help="override the optimum restart count")
    parser.add_argument("--format", choices=("csv", "json"), default=None)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mar",
        description="Routing games for mixed human-driven and autonomous traffic",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in ("eq", "opt", "bounds", "poa", "bicriteria", "sweep", "run", "validate"):
        sp = sub.add_parser(verb)
        _add_common_flags(sp)
    demo = sub.add_parser("demo", help=f"run a built-in demo: {', '.join(DEMO_NAMES)}")
    demo.add_argument("name", choices=DEMO_NAMES)
    _add_common_flags(demo, scenario_required=False)
    return parser


def _apply_overrides(scenario: Scenario, args) -> Scenario:
    eq_cfg, opt_cfg, seed = scenario.eq_config, scenario.opt_config, scenario.seed
    if args.seed is not None:
        seed = args.seed
        opt_cfg = dataclasses.replace(opt_cfg, seed=seed)
    if args.gap_tol is not None:
        eq_cfg = dataclasses.replace(eq_cfg, gap_tolerance=args.gap_tol)
    if args.restarts is not None:
        opt_cfg = dataclasses.replace(opt_cfg, restarts=args.restarts)
    return dataclasses.replace(scenario, eq_config=eq_cfg, opt_config=opt_cfg, seed=seed)


def main(argv=None) -> int:
    _configure_logging()
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "demo":
            scenario = demo_scenario(args.name)
        else:
            with open(args.scenario, "r", encoding="utf-8") as fh:
                scenario = parse_scenario(fh.read())
        if args.verb not in ("demo", "run", "validate"):
            scenario = dataclasses.replace(scenario, experiment=experiment_named(args.verb))
        scenario = _apply_overrides(scenario, args)
        if args.verb == "validate":
            sys.stdout.write("scenario ok\n")
            return 0
        return run(scenario, out=args.out, fmt=args.format)
    except (OSError, errors.MarError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


def entrypoint() -> None:  # pragma: no cover
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    entrypoint()
