"""One SHA-256 over the results a refactor must leave unchanged.

Run from anywhere::

    python3 tools/fingerprint.py [TREE]

``TREE`` (default: the checkout holding this script) is a source tree of the
repository, such as a ``git archive`` of another revision; ``mar`` is imported
from its ``src`` and the inputs from its ``bench``. Two trees print the same
hash exactly when all of the following agree, floats compared as
``float.hex`` and reports as bytes:

* the 1,000 acceptance fuzz records (``bench.inputs.fuzz_stream`` with the
  fixture's seed): the closed-form bounds, the equilibrium, the multistart
  optimum, and where the brute-force guard of the fixture admits the
  instance the grid optimum and its error bound, each with its link flows;
* the certified equilibria of grids 6, 7 and 9 of the grid stream (seed 0);
* eleven reports, each in CSV and JSON: the four demos; ``eq``, ``opt``,
  ``bounds``, ``poa`` and ``bicriteria`` on the benchmark's poa scenario;
  ``sweep`` on its ``sweep-share`` and ``sweep-k`` scenarios.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
from pathlib import Path

FUZZ_COUNT = 1000
GRIDS = (6, 7, 9)
SCENARIO_VERBS = (("poa", "eq"), ("poa", "opt"), ("poa", "bounds"), ("poa", "poa"),
                  ("poa", "bicriteria"), ("sweep-share", "sweep"), ("sweep-k", "sweep"))


def floats(*values) -> str:
    """``float.hex`` of each value; arrays and FlowVectors are flattened."""
    out = []
    for value in values:
        if value is None:
            out.append("None")
        elif hasattr(value, "interleaved"):
            out.extend(map(float.hex, value.interleaved.tolist()))
        else:
            out.append(float(value).hex())
    return " ".join(out)


def solve_text(res) -> str:
    return (f"{floats(res.social_cost, res.relative_gap, res.link_flows)} "
            f"{res.iterations} {res.converged}")


def fuzz_lines(mar, inputs):
    eq_cfg = mar.EquilibriumConfig(max_iterations=30_000)
    for index, net in enumerate(inputs.fuzz_stream(inputs.FUZZ_SEED, FUZZ_COUNT)):
        report = mar.poa_bounds(net)
        yield f"fuzz {index} bounds " + floats(report.k, report.sigma, report.bound_thm1,
                                               report.bound_thm2, report.bound_combined,
                                               report.bicriteria_factor)
        yield f"fuzz {index} eq " + solve_text(mar.solve_equilibrium(net, eq_cfg))
        local = mar.solve_optimum(net, mar.OptimumConfig(restarts=6, max_iterations=600,
                                                         seed=index))
        yield f"fuzz {index} opt " + solve_text(local)
        table = mar.path_table(net)
        if 2 * table.total_paths <= 6:
            resolution = 0.05 if max(b.stop - b.start for b in table.blocks) >= 3 else 0.01
            brute = mar.brute_force_optimum(net, resolution)
            yield (f"fuzz {index} brute " + solve_text(brute) + " "
                   + floats(mar.grid_error_bound(net, resolution)))


def grid_lines(mar, inputs):
    nets = inputs.grid_stream(inputs.GRID_SEED, max(GRIDS) + 1)
    cfg = mar.EquilibriumConfig(max_iterations=20_000)
    for i in GRIDS:
        yield f"grid {i} " + solve_text(mar.solve_equilibrium(nets[i], cfg))


def report_chunks(mar, inputs, workdir: Path):
    from mar.cli import main

    scenarios = {}
    for stem, text in inputs.cli_scenarios(inputs.CLI_SEED).items():
        scenarios[stem] = workdir / f"{stem}.json"
        scenarios[stem].write_text(text, encoding="utf-8")
    commands = [[verb, "--scenario", str(scenarios[stem])] for stem, verb in SCENARIO_VERBS]
    commands += [["demo", name] for name in mar.DEMO_NAMES]
    for argv in commands:
        for fmt in ("csv", "json"):
            out = workdir / "report"
            status = main([*argv, "--format", fmt, "--out", str(out)])
            label = " ".join(argv[:1] + [Path(a).stem for a in argv[1:]])
            yield f"report {label} {fmt} {status}\n".encode() + out.read_bytes()


def fingerprint(tree: Path) -> str:
    sys.path[:0] = [str(tree / "src"), str(tree)]
    import mar
    from bench import inputs

    digest = hashlib.sha256()
    for line in (*fuzz_lines(mar, inputs), *grid_lines(mar, inputs)):
        digest.update(line.encode() + b"\n")
    with tempfile.TemporaryDirectory(prefix="fingerprint-") as tmp:
        for chunk in report_chunks(mar, inputs, Path(tmp)):
            digest.update(chunk)
    return digest.hexdigest()


if __name__ == "__main__":
    tree = Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parent.parent
    print(fingerprint(tree.resolve()))
