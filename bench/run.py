"""Benchmark of the ``mar`` library and CLI.

Run from the root of a checkout::

    python3 bench/run.py --workload fuzz-poa [--seed N] [--seconds 40] [--trace 0|1]
    python3 bench/run.py --workload all      # every workload, untraced then traced

``mar`` is imported from the checkout's ``src/`` (it need not be installed).
Load is closed loop with one caller; each workload runs in its own process.
A run repeats whole passes over the workload's items until the next pass
would end after ``--seconds`` (at least one pass; ``--seconds 0`` is the
smallest run). Every answer is checked; an item failing any check, or
raising, counts as failed.

With ``--trace 0`` the run is untraced and reports the end-to-end metrics.
With ``--trace 1`` an untraced measurement is followed by one traced pass
over the same items; the traced pass gives the per-layer metrics, its
comparison with the untraced passes ``trace.overhead_frac``, and its spans
are written to ``.bench_out/``. Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import spans

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # before numpy is first imported, here or in children
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
WORKLOAD_NAMES = ("fuzz-poa", "cli-sweep", "bounds-props", "grid-eq")

END_TO_END = {
    "items_per_s": "1/s",
    "item_p50_s": "s",
    "item_tail_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "network.path_table_s": "s", "network.path_table_calls": "count", "network.paths": "count",
    "costs.social_cost_s": "s", "costs.social_cost_calls": "count",
    "equilibrium.solve_s": "s", "equilibrium.solves": "count",
    "equilibrium.iterations": "count", "equilibrium.s_per_iteration": "s",
    "equilibrium.unconverged": "count", "equilibrium.iterations_p50": "count",
    "equilibrium.iterations_max": "count", "equilibrium.wardrop_gap_s": "s",
    "optimum.solve_s": "s", "optimum.solves": "count", "optimum.restarts": "count",
    "optimum.s_per_restart": "s", "optimum.unconverged": "count",
    "optimum.brute_force_s": "s", "optimum.brute_force_points": "count",
    "optimum.grid_points_per_s": "1/s",
    "bounds.poa_bounds_s": "s", "bounds.lemma_checks_per_s": "1/s",
    "bounds.beta_closed_form_per_s": "1/s", "bounds.beta_numeric_s": "s",
    "scenario.parse_s": "s", "cli.run_s": "s", "cli.import_s": "s",
    "cli.import_scipy_s": "s", "cli.startup_s": "s",
    "bench.other_s": "s", "trace.overhead_frac": "ratio",
    **{f"{layer}.self_s": "s" for layer in
       ("network", "costs", "equilibrium", "optimum", "bounds", "scenario", "cli")},
}


class Measurement:
    """Latencies (per item, one per pass), failures and per-layer counts."""

    def __init__(self):
        self.latencies: dict[int, list[float]] = defaultdict(list)
        self.attempted = 0
        self.passes = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.stats = spans.Stats()
        self.wall = 0.0

    def typical(self) -> list[float]:
        """Each item's median over the run's passes. On a shared 2-vCPU
        virtual machine the speed changes by up to 1.7x for seconds at a
        time, and fast spells come in some runs and not in others. An item's
        fastest pass reads whether the run caught such a spell; its median
        reads the machine's usual speed over the whole run, which varies
        less from run to run."""
        return [statistics.median(runs) for runs in self.latencies.values()]


def percentile(values: list[float], pct: float) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=1000, method="inclusive")[round(pct * 10) - 1]


def measure(wl, seconds: float, tracer) -> Measurement:
    """Whole passes over ``wl.population`` until the next would overrun.

    Pass k runs pinned to the k-th allowed CPU (children inherit the pin).
    The vCPUs of a shared virtual machine can run at different speeds for
    minutes at a time, so a run left on one CPU reads up to a third slower
    than a run on another; rotating gives every item's median passes on both.
    """
    m = Measurement()
    wl.reset()
    cpus = sorted(os.sched_getaffinity(0))
    started = time.perf_counter()
    while True:
        pass_started = time.perf_counter()
        os.sched_setaffinity(0, {cpus[m.passes % len(cpus)]})
        wl.begin_pass()
        for index in range(len(wl.population)):
            tracer.item = m.attempted
            m.attempted += 1
            item_started = None
            try:
                fails = wl.prepare(index, tracer, m.stats)
                item_started = time.perf_counter()
                with tracer.span("bench.item"):
                    fails += wl.run_item(index, tracer, m.stats)
            except Exception as exc:  # a raising item is a failed item; keep measuring
                fails = [f"{type(exc).__name__}: {exc}"]
            m.latencies[index].append(time.perf_counter() - (item_started or time.perf_counter()))
            if fails:
                m.failed += 1
                m.reasons.append(f"item {index}: {'; '.join(fails)}")
        m.passes += 1
        now = time.perf_counter()
        if now - started + (now - pass_started) > seconds:
            break
    m.wall = time.perf_counter() - started
    os.sched_setaffinity(0, cpus)
    return m


def tail_of(wl, times: list[float]) -> tuple[float, float]:
    """(percentile, value): the workload's fixed tail percentile, lowered
    until at least ten items lie beyond it."""
    pct = wl.tail_pct
    while pct > 50.0 and len(times) * (100.0 - pct) < 1000.0:
        pct = {99.0: 95.0, 95.0: 90.0, 90.0: 75.0}.get(pct, 50.0)
    return pct, percentile(times, pct)


def end_to_end(wl, m: Measurement, setup_s: float) -> dict[str, float]:
    usage = resource.getrusage(resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN)
    times = m.typical()
    return {
        "items_per_s": len(times) / sum(times),
        "item_p50_s": statistics.median(times),
        "item_tail_s": tail_of(wl, times)[1],
        "setup_s": setup_s,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def per_layer(m: Measurement, tracer, untraced: Measurement,
              probes: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced pass over the workload's items.
    ``probes`` holds the fresh-process import times."""
    totals = defaultdict(float, tracer.totals())
    layer_self = tracer.self_times()
    s = m.stats

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "network.path_table_s": totals["network.path_table"],
        "network.path_table_calls": s["network.path_table_calls"],
        "network.paths": s["network.paths"],
        "costs.social_cost_s": totals["costs.social_cost"],
        "costs.social_cost_calls": s["costs.social_cost_calls"],
        "equilibrium.solve_s": totals["equilibrium.solve"],
        "equilibrium.solves": s["equilibrium.solves"],
        "equilibrium.iterations": s["equilibrium.iterations"],
        "equilibrium.s_per_iteration": ratio(totals["equilibrium.solve"],
                                             s["equilibrium.iterations"]),
        "equilibrium.unconverged": s["equilibrium.unconverged"],
        "equilibrium.iterations_p50": statistics.median(m.stats.iterations or [0]),
        "equilibrium.iterations_max": max(m.stats.iterations or [0]),
        "equilibrium.wardrop_gap_s": totals["equilibrium.wardrop_gap"],
        "optimum.solve_s": totals["optimum.solve"],
        "optimum.solves": s["optimum.solves"],
        "optimum.restarts": s["optimum.restarts"],
        "optimum.s_per_restart": ratio(totals["optimum.solve"], s["optimum.restarts"]),
        "optimum.unconverged": s["optimum.unconverged"],
        "optimum.brute_force_s": totals["optimum.brute_force"],
        "optimum.brute_force_points": s["optimum.brute_force_points"],
        "optimum.grid_points_per_s": ratio(s["optimum.brute_force_points"],
                                           totals["optimum.brute_force"]),
        "bounds.poa_bounds_s": totals["bounds.poa_bounds"],
        "bounds.lemma_checks_per_s": ratio(s["bounds.lemma_checks"],
                                           totals["bounds.lemma_checks"]),
        "bounds.beta_closed_form_per_s": ratio(s["bounds.beta_closed_form"],
                                               totals["bounds.beta_closed_form"]),
        "bounds.beta_numeric_s": totals["bounds.beta_numeric"],
        "scenario.parse_s": totals["scenario.parse"],
        "cli.run_s": totals["cli.run"],
        **probes,
        "cli.startup_s": s["cli.startup_s"],
        "bench.other_s": m.wall - sum(v for k, v in layer_self.items() if k != "bench"),
        "trace.overhead_frac": ratio(sum(m.typical()), sum(untraced.typical())) - 1.0,
    }
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = layer_self.get(name.split(".", 1)[0], 0.0)
    return out


def metadata() -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    src = ROOT / "src" / "mar"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "src_mar_lines": sum(len(p.read_text(encoding="utf-8").splitlines())
                             for p in sorted(src.glob("*.py"))),
    }


def report(name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{name} = {value:.6g} {unit}{note}")


def run_all(args) -> int:
    """Every workload in its own process, untraced then traced. Exits 1 when
    a run fails or any answer fails its checks."""
    ok = True
    for name in WORKLOAD_NAMES:
        for trace_flag in ("0", "1"):
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seconds", str(args.seconds), "--trace", trace_flag]
            if args.seed is not None:
                cmd += ["--seed", str(args.seed)]
            done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(done.stdout)
            ok = ok and done.returncode == 0 and json.loads(done.stdout.splitlines()[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's recorded seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)

    if not (ROOT / "src" / "mar" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mar package under {ROOT / 'src'}; run from a checkout\n")
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    import mar
    import workloads

    if Path(mar.__file__).resolve().parent != ROOT / "src" / "mar":
        sys.stderr.write(f"error: imported mar from {mar.__file__}, not the checkout\n")
        return 2

    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT,
                                            out_dir / f"{args.workload}-{os.getpid()}")
    print(f"# workload {wl.name} seed {wl.seed} seconds {args.seconds:g} trace {args.trace}")
    print("# meta " + json.dumps(metadata()))

    setups, imports = [], []
    for _ in range(SETUP_REPEATS):
        import_s = workloads.import_probe(ROOT) if wl.in_process else 0.0
        started = time.perf_counter()
        wl.setup()
        setups.append(import_s + time.perf_counter() - started)
        imports.append(import_s)
    setup_s = statistics.median(setups)
    if not wl.in_process and args.trace:
        imports = [workloads.import_probe(ROOT) for _ in range(SETUP_REPEATS)]

    if wl.in_process:  # first calls fill lazy imports and caches; not measured
        wl.begin_pass()
        try:
            wl.run_item(0, spans.Tracer(False), spans.Stats())
        except Exception:  # the measurement runs this item again and counts it
            pass

    untraced = measure(wl, args.seconds / 2 if args.trace else args.seconds,
                       spans.Tracer(False))
    e2e = end_to_end(wl, untraced, setup_s)
    runs, metrics, units = [untraced], e2e, END_TO_END
    if args.trace:
        tracer = spans.Tracer(True)
        runs.append(measure(wl, 0.0, tracer))
        probes = {"cli.import_s": statistics.median(imports),
                  "cli.import_scipy_s": workloads.scipy_import_s(ROOT)}
        metrics = per_layer(runs[-1], tracer, untraced, probes)
        units = PER_LAYER
        tracer.write(out_dir / f"trace-{wl.name}-{wl.seed}.jsonl")
    shutil.rmtree(wl.workdir, ignore_errors=True)

    pct, _ = tail_of(wl, untraced.typical())
    attempted = sum(m.attempted for m in runs)
    failed = sum(m.failed for m in runs)
    for name, value in e2e.items():
        note = (f" (p{pct:g} of {len(untraced.latencies)} items, median of "
                f"{untraced.passes} passes)" if name == "item_tail_s" else "")
        report(name, value, END_TO_END[name], note)
    report("failed_frac", failed / attempted, "ratio", f" ({failed} of {attempted} items)")
    if args.trace:
        for name, value in metrics.items():
            report(name, value, PER_LAYER[name])
    for reason in [r for m in runs for r in m.reasons][:20]:
        sys.stderr.write(f"check failed: {reason}\n")

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
