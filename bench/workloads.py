"""The benchmark's workloads: inputs, one item's calls into ``mar``, and the
checks on every answer.

Every call into the program goes through a name exported by ``mar`` (or
``python -m mar.cli``), wrapped in a span named ``<layer>.<call>``. A workload
owns a population of items made from the seed in ``setup``; a run repeats
whole passes over it, so every pass does the same work.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import mar

import inputs

EQ_TOL = mar.EquilibriumConfig().gap_tolerance
COST_RTOL = 1e-9           # recomputed social cost against the reported one
RATIO_SLACK = 2e-3         # acceptance slack on ratio <= bound_combined
BETA_RTOL = 1e-6           # numeric against closed-form beta
BETA_CAP_SLACK = 1e-9
IMPORT_PROBE = ("import time; t = time.perf_counter(); import mar; "
                "print(time.perf_counter() - t)")
CHILD_TIMEOUT_S = 150


def child_env(root: Path) -> dict:
    """Environment for child interpreters: ``mar`` from the checkout's
    ``src``; the BLAS pinning is inherited from this process."""
    return {**os.environ, "PYTHONPATH": str(root / "src")}


def import_probe(root: Path) -> float:
    """Seconds a fresh interpreter spends in ``import mar``."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=root, env=child_env(root),
                         capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    return float(out.stdout.strip().splitlines()[-1])


def scipy_import_s(root: Path) -> float:
    """Seconds of a fresh ``import mar`` spent importing ``scipy.optimize``
    (cumulative, as ``-X importtime`` reports it); 0 when it is not imported."""
    out = subprocess.run([sys.executable, "-X", "importtime", "-c", "import mar"], cwd=root,
                         env=child_env(root), capture_output=True, text=True, check=True,
                         timeout=CHILD_TIMEOUT_S)
    for line in out.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "scipy.optimize":
            return int(fields[1]) / 1e6
    return 0.0


def clear_mar_caches() -> None:
    """Empty every ``functools`` cache in the loaded ``mar`` modules, so each
    pass computes from scratch, as a fresh process would (whatever the
    caches are named and wherever they live)."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "mar" or name.startswith("mar.")):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()


def check_cost(net, res, tracer, stats, what: str) -> list[str]:
    """The reported social cost equals ``mar.social_cost`` of the link flows
    rebuilt from the returned path flows."""
    with tracer.span("costs.social_cost"):
        cost = mar.social_cost(net, mar.to_link_flows(net, res.flows))
    stats["costs.social_cost_calls"] += 1
    if abs(cost - res.social_cost) > COST_RTOL * max(1.0, abs(cost)):
        return [f"{what}: reported social cost {res.social_cost!r}, recomputed {cost!r}"]
    return []


def check_equilibrium(net, res, tracer, stats) -> list[str]:
    """Converged, re-certified by ``mar.wardrop_gap``, and cost-consistent."""
    fails = [] if res.converged else [f"equilibrium unconverged, gap {res.relative_gap:.3e}"]
    with tracer.span("equilibrium.wardrop_gap"):
        _, gap = mar.wardrop_gap(net, res.flows)
    if not gap <= EQ_TOL:
        fails.append(f"equilibrium re-certified gap {gap:.3e} > {EQ_TOL:g}")
    return fails + check_cost(net, res, tracer, stats, "equilibrium")


def solve_equilibrium(net, cfg, tracer, stats):
    with tracer.span("equilibrium.solve"):
        res = mar.solve_equilibrium(net, cfg)
    stats["equilibrium.solves"] += 1
    stats["equilibrium.iterations"] += res.iterations
    stats.iterations.append(res.iterations)
    stats["equilibrium.unconverged"] += not res.converged
    return res


def build_path_table(net, tracer, stats):
    with tracer.span("network.path_table"):
        table = mar.path_table(net)
    stats["network.path_table_calls"] += 1
    stats["network.paths"] += table.total_paths
    return table


class Workload:
    """Base: ``setup`` builds ``population``; ``run_item`` returns failures.

    Subclasses set ``name``, ``default_seed`` and ``tail_pct``, the tail
    percentile ``item_tail_s`` reports."""

    in_process = True

    def __init__(self, seed: int | None, root: Path, workdir: Path):
        self.seed = self.default_seed if seed is None else seed
        self.root = root
        self.workdir = workdir

    def setup(self) -> None:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget state carried between items, before a measurement."""

    def begin_pass(self) -> None:
        """Start a pass as a fresh process would: empty caches, and the inputs
        built again from the seed, so nothing an earlier pass cached, in
        ``mar`` or on the input objects, survives."""
        clear_mar_caches()
        self.setup()

    def prepare(self, index: int, tracer, stats) -> list[str]:
        """Untimed work before an item (reference answers); returns failures."""
        return []

    def run_item(self, index: int, tracer, stats) -> list[str]:
        raise NotImplementedError


class FuzzPoA(Workload):
    """The acceptance containment pipeline on small random instances.

    The items are the acceptance fixture's first ``COUNT`` instances (seed
    987654321, all converge) with its optimum restart seeds (the instance
    index); ``--seed`` shuffles the order a pass visits them in. The inputs
    are fixed because their cost is not: instance cost varies tenfold, and
    other restart seeds alone move the median item by 9 % and the p75 by 20 %.
    """

    name = "fuzz-poa"
    default_seed = inputs.FUZZ_SEED
    tail_pct = 75.0
    COUNT = 40
    eq_cfg = mar.EquilibriumConfig(max_iterations=30_000)

    def setup(self) -> None:
        nets = inputs.fuzz_stream(inputs.FUZZ_SEED, self.COUNT)
        order = np.random.default_rng(self.seed).permutation(self.COUNT)
        self.population = [(int(i), nets[i]) for i in order]

    def run_item(self, index, tracer, stats):
        instance, net = self.population[index]
        table = build_path_table(net, tracer, stats)
        with tracer.span("bounds.poa_bounds"):
            report = mar.poa_bounds(net)
        eq = solve_equilibrium(net, self.eq_cfg, tracer, stats)
        fails = check_equilibrium(net, eq, tracer, stats)
        cfg = mar.OptimumConfig(restarts=6, max_iterations=600, seed=instance)
        with tracer.span("optimum.solve"):
            local = mar.solve_optimum(net, cfg)
        stats["optimum.solves"] += 1
        stats["optimum.restarts"] += cfg.restarts
        stats["optimum.unconverged"] += not local.converged
        fails += check_cost(net, local, tracer, stats, "optimum")
        opt_cost = local.social_cost
        if 2 * table.total_paths <= 6:  # the brute-force guard
            resolution = 0.05 if max(len(p) for p in table.paths) >= 3 else 0.01
            with tracer.span("optimum.brute_force"):
                brute = mar.brute_force_optimum(net, resolution)
                tol = mar.grid_error_bound(net, resolution)
            stats["optimum.brute_force_points"] += brute.iterations
            fails += check_cost(net, brute, tracer, stats, "brute force")
            if not abs(local.social_cost - brute.social_cost) <= tol:
                fails.append(f"|local - brute| = {abs(local.social_cost - brute.social_cost):.3e}"
                             f" > grid error bound {tol:.3e}")
            opt_cost = min(opt_cost, brute.social_cost)
        ratio = eq.social_cost / opt_cost
        if not ratio <= report.bound_combined + RATIO_SLACK:
            fails.append(f"ratio {ratio:.6f} > bound {report.bound_combined:.6f} + {RATIO_SLACK}")
        return fails


class GridEq(Workload):
    """Certified equilibria on fixed random bidirectional 4x4 grids.

    The items are grids 6, 7 and 9 of the grid stream with seed 0 (about
    1,700 iterations, 1 s each); ``--seed`` shuffles the order a pass visits
    them in. The grids are fixed because their cost is not: the stream's
    first twelve grids take 0.9-17 s each, and three of them do not converge
    within 20,000 iterations. Slower grids would leave too few passes in a
    run for each item's median to average over a shared machine's spells.
    """

    name = "grid-eq"
    default_seed = inputs.GRID_SEED
    tail_pct = 50.0
    GRIDS = (6, 7, 9)
    eq_cfg = mar.EquilibriumConfig(max_iterations=20_000)

    def setup(self) -> None:
        nets = inputs.grid_stream(inputs.GRID_SEED, max(self.GRIDS) + 1)
        order = np.random.default_rng(self.seed).permutation(len(self.GRIDS))
        self.population = [nets[self.GRIDS[i]] for i in order]

    def run_item(self, index, tracer, stats):
        net = self.population[index]
        build_path_table(net, tracer, stats)
        eq = solve_equilibrium(net, self.eq_cfg, tracer, stats)
        return check_equilibrium(net, eq, tracer, stats)


class BoundsProps(Workload):
    """Blocks of the criterion-5 property samples (lemmas and beta)."""

    name = "bounds-props"
    default_seed = inputs.BOUNDS_SEED
    tail_pct = 90.0
    COUNT = 100

    def setup(self) -> None:
        self.population = inputs.property_stream(self.seed, self.COUNT)

    def run_item(self, index, tracer, stats):
        block = self.population[index]
        fails = []
        with tracer.span("bounds.lemma_checks"):
            for road, x_eq, y_eq, f, g, x, y in block["lemmas"]:
                if not mar.verify_lemma_agg_poa_ratio(road, x_eq, y_eq, f, g):
                    fails.append(f"aggregate ratio lemma fails at {(x_eq, y_eq, f, g)}")
                if not mar.verify_lemma_agg_opt(road, x, y):
                    fails.append(f"aggregate optimum lemma fails at {(x, y)}")
        stats["bounds.lemma_checks"] += 2 * len(block["lemmas"])
        with tracer.span("bounds.beta_closed_form"):
            closed = [mar.beta_road_closed_form(road, v, w, sigma)
                      for road, v, w, sigma, _ in block["beta"]]
        stats["bounds.beta_closed_form"] += len(closed)
        for (road, v, w, sigma, numeric), value in zip(block["beta"], closed):
            cap = road.headway_ratio * mar.xi(sigma) + BETA_CAP_SLACK
            if not value <= cap:
                fails.append(f"closed-form beta {value:.6g} above cap {cap:.6g}")
            if not numeric:
                continue
            with tracer.span("bounds.beta_numeric"):
                other = mar.beta_road_numeric(road, v, w, sigma)
            if not other <= cap:
                fails.append(f"numeric beta {other:.6g} above cap {cap:.6g}")
            if not abs(other - value) <= BETA_RTOL * value:
                fails.append(f"numeric beta {other!r} differs from closed form {value!r}")
        return fails


class CliSweep(Workload):
    """Fresh ``python -m mar.cli`` processes over a fixed command list.

    Each command's report must match, byte for byte, an in-process
    ``mar.run`` of the same scenario (computed once per measurement, before
    the command's first invocation) and the command's earlier reports in the
    run; stderr is ignored. The scenarios and their solver seeds are fixed;
    ``--seed`` shuffles the order a pass runs the commands in (other solver
    seeds change the sweeps' work, and with it the throughput).
    """

    name = "cli-sweep"
    default_seed = inputs.CLI_SEED
    tail_pct = 50.0
    in_process = False

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        commands = []
        for stem, text in inputs.cli_scenarios(inputs.CLI_SEED).items():
            path = self.workdir / f"{stem}.json"
            path.write_text(text, encoding="utf-8")
            verb = "poa" if stem == "poa" else "sweep"
            commands.append((stem, [verb, "--scenario", str(path)],
                             lambda text=text: mar.parse_scenario(text)))
        for name in mar.DEMO_NAMES:
            commands.append((f"demo-{name}", ["demo", name],
                             lambda name=name: mar.demo_scenario(name)))
        order = np.random.default_rng(self.seed).permutation(len(commands))
        self.population = [commands[i] for i in order]
        self.invoke(["validate", "--scenario", str(self.workdir / "poa.json")])  # warm-up
        self.reset()

    def reset(self) -> None:
        self.first: dict[str, bytes] = {}
        self.reference: dict[str, bytes] = {}
        self.run_s: dict[str, float] = {}

    def begin_pass(self) -> None:
        """Child processes start cold; nothing in this process to clear."""

    def invoke(self, argv: list[str]) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-m", "mar.cli", *argv], cwd=self.root,
                              env=child_env(self.root), capture_output=True,
                              timeout=CHILD_TIMEOUT_S)

    def prepare(self, index, tracer, stats):
        label, _, scenario_of = self.population[index]
        if label in self.reference:
            return []
        out = self.workdir / f"{label}.reference"
        started = time.perf_counter()
        with tracer.span("scenario.parse"):
            scenario = scenario_of()
        with tracer.span("cli.run"):
            status = mar.run(scenario, out=str(out))
        self.run_s[label] = time.perf_counter() - started
        self.reference[label] = out.read_bytes()
        return [] if status == 0 else [f"{label}: in-process run returned {status}"]

    def run_item(self, index, tracer, stats):
        label, argv, _ = self.population[index]
        started = time.perf_counter()
        with tracer.span("cli.invoke"):
            done = self.invoke(argv)
        stats["cli.startup_s"] += time.perf_counter() - started - self.run_s[label]
        earlier = self.first.setdefault(label, done.stdout)
        return check_cli(label, done.returncode, done.stdout, self.reference[label], earlier)


def check_cli(label: str, status: int, stdout: bytes, reference: bytes,
              earlier: bytes) -> list[str]:
    """Exit status 0, and a report byte-identical to the in-process reference
    and to the command's first report in the run."""
    fails = [] if status == 0 else [f"{label}: exit status {status}"]
    if stdout != reference:
        fails.append(f"{label}: report differs from the in-process reference "
                     f"({len(stdout)} vs {len(reference)} bytes)")
    if stdout != earlier:
        fails.append(f"{label}: report differs from an earlier run of the same command")
    return fails


WORKLOADS = {cls.name: cls for cls in (FuzzPoA, GridEq, CliSweep, BoundsProps)}
