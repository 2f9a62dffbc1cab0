"""Tests of the benchmark itself: every check catches a planted wrong answer,
and a smoke run of every workload prints every metric.

Run from the repository root: ``python3 -m pytest bench -q``.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import mar  # noqa: E402

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OFF = spans.Tracer(False)


def stats():
    return spans.Stats()


def fuzz(tmp_path, count=3):
    wl = workloads.FuzzPoA(None, ROOT, tmp_path)
    wl.COUNT = count
    wl.setup()
    return wl


def cached_entries() -> int:
    return sum(value.cache_info().currsize
               for name, module in list(sys.modules.items())
               if module is not None and (name == "mar" or name.startswith("mar."))
               for value in vars(module).values() if hasattr(value, "cache_info"))


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(workloads.WORKLOADS)


def test_default_fuzz_stream_is_the_acceptance_stream():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import factories
    finally:
        sys.path.remove(str(ROOT / "tests"))
    import numpy as np

    rng = np.random.default_rng(inputs.FUZZ_SEED)
    assert inputs.fuzz_stream(inputs.FUZZ_SEED, 20) == [factories.random_network(rng)
                                                         for _ in range(20)]


def test_grid_has_the_documented_size():
    net = inputs.grid_stream(0, 1)[0]
    assert net.n_roads == 48
    assert mar.path_table(net).total_paths == 368


def test_each_pass_starts_from_empty_caches_and_new_inputs(tmp_path):
    wl = fuzz(tmp_path, count=2)
    wl.begin_pass()
    net = wl.population[0][1]
    mar.solve_equilibrium(net)
    wl.begin_pass()
    assert cached_entries() == 0
    assert wl.population[0][1] == net and wl.population[0][1] is not net


def test_equilibrium_check_catches_a_perturbed_path_flow():
    net = inputs.fuzz_stream(inputs.FUZZ_SEED, 1)[0]
    res = mar.solve_equilibrium(net)
    assert workloads.check_equilibrium(net, res, OFF, stats()) == []
    human = dict(res.flows.human[0])
    first, second = list(human)[:2]
    shift = 0.1 * max(human[first], human[second])
    if human[first] >= human[second]:
        human[first], human[second] = human[first] - shift, human[second] + shift
    else:
        human[first], human[second] = human[first] + shift, human[second] - shift
    planted = dataclasses.replace(
        res, flows=mar.PathFlowAssignment(human=(human,) + res.flows.human[1:],
                                          auto=res.flows.auto))
    fails = workloads.check_equilibrium(net, planted, OFF, stats())
    assert any("re-certified gap" in f for f in fails)
    assert any("social cost" in f for f in fails)


def test_cost_check_catches_a_wrong_social_cost():
    net = inputs.fuzz_stream(inputs.FUZZ_SEED, 1)[0]
    res = mar.solve_optimum(net, mar.OptimumConfig(restarts=2))
    planted = dataclasses.replace(res, social_cost=res.social_cost * (1 + 1e-6))
    assert workloads.check_cost(net, planted, OFF, stats(), "optimum") != []


def test_unconverged_equilibrium_is_a_failure():
    net = inputs.fuzz_stream(inputs.FUZZ_SEED, 1)[0]
    res = mar.solve_equilibrium(net, mar.EquilibriumConfig(max_iterations=1))
    assert not res.converged
    assert workloads.check_equilibrium(net, res, OFF, stats())[0].startswith("equilibrium unconverged")


def test_fuzz_run_counts_planted_wrong_answers(tmp_path, monkeypatch):
    wl = fuzz(tmp_path)
    assert run.measure(wl, 0, OFF).failed == 0

    real = mar.poa_bounds
    monkeypatch.setattr(mar, "poa_bounds",
                        lambda net: dataclasses.replace(real(net), bound_combined=0.5))
    m = run.measure(wl, 0, OFF)
    assert m.failed == len(wl.population)
    assert all("> bound" in r for r in m.reasons)


def test_fuzz_run_counts_brute_force_disagreement(tmp_path, monkeypatch):
    wl = fuzz(tmp_path, count=10)
    monkeypatch.setattr(mar, "grid_error_bound", lambda net, resolution: -1.0)
    m = run.measure(wl, 0, OFF)
    assert m.failed > 0
    assert all("grid error bound" in r for r in m.reasons)


def test_bounds_run_counts_planted_wrong_answers(tmp_path, monkeypatch):
    wl = workloads.BoundsProps(None, ROOT, tmp_path)
    wl.COUNT = 3
    wl.setup()
    assert run.measure(wl, 0, OFF).failed == 0

    real = mar.beta_road_closed_form
    monkeypatch.setattr(mar, "beta_road_closed_form",
                        lambda *a: real(*a) * (1 + 1e-5))
    assert run.measure(wl, 0, OFF).failed == 3
    monkeypatch.setattr(mar, "beta_road_closed_form", real)
    monkeypatch.setattr(mar, "verify_lemma_agg_opt", lambda road, x, y: False)
    assert run.measure(wl, 0, OFF).failed == 3


def test_cli_check_catches_truncation_and_exit_status():
    report = b"param,value\npoa,1\n"
    assert workloads.check_cli("poa", 0, report, report, report) == []
    assert workloads.check_cli("poa", 0, report[:-3], report, report) != []
    assert workloads.check_cli("poa", 0, report, report, report[:-3]) != []
    assert workloads.check_cli("poa", 2, report, report, report) != []


def test_cli_run_counts_a_truncated_report(tmp_path, monkeypatch):
    wl = workloads.CliSweep(None, ROOT, tmp_path)
    wl.setup()
    wl.population = [c for c in wl.population if c[0] == "demo-classic-4-3"]
    assert run.measure(wl, 0, OFF).failed == 0

    real = wl.invoke

    def truncated(argv):
        done = real(argv)
        return subprocess.CompletedProcess(done.args, done.returncode,
                                           done.stdout[: len(done.stdout) // 2], done.stderr)

    monkeypatch.setattr(wl, "invoke", truncated)
    assert run.measure(wl, 0, OFF).failed == 1


def bench_run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_prints_every_metric(workload, trace):
    done = bench_run("--workload", workload, "--seconds", "0", "--trace", trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, done.stderr
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    printed = {line.split(" = ")[0] for line in lines[:-1] if " = " in line}
    assert set(run.END_TO_END) | {"failed_frac"} <= printed
    assert set(expected) <= printed


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench_run("--workload", "fuzz-poa", "--seconds", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
