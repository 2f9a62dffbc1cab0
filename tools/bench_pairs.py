"""Alternating parent/change pairs of the benchmark, summarized as a BENCH file.

Run from the root of a checkout::

    python3 tools/bench_pairs.py --parent REV --out BENCH_prN.json \
        [--pairs 10] [--seed N] [--workloads fuzz-poa cli-sweep bounds-props]

The parent side runs ``bench/run.py`` in a ``git archive`` of ``REV``; the
change side runs it in this checkout's working tree, so both sides run their
own ``bench/`` and ``src/``, for the ``run_seconds`` that ``BENCHMARK.json``
declares. Pair i runs the parent first when i is even and the change first
when it is odd; within a pair the workloads run in the order given. The output
is rewritten after every pair, so an interrupted run keeps the pairs it
finished. Its ``label`` is the output file's name without its suffix.

Per workload and end-to-end metric (as ``BENCHMARK.json`` declares them) the
file holds each side's runs, median and quartiles (``numpy.percentile``,
linear interpolation), the number of pairs the change won, ties counting for
neither, and the change's median relative to the parent's. A metric is
``unresolved`` where the parent's interquartile range exceeds the metric's
bound, relative to the parent's median: a move within that spread cannot be
told from run-to-run noise.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def archive(rev: str, into: Path) -> Path:
    """A fresh tree of ``rev``'s committed files under ``into``."""
    tar = into / "parent.tar"
    with open(tar, "wb") as fh:
        subprocess.run(["git", "archive", rev], cwd=ROOT, check=True, stdout=fh)
    tree = into / "parent"
    with tarfile.open(tar) as tf:
        tf.extractall(tree, filter="data")
    tar.unlink()
    return tree


def run_once(tree: Path, workload: str, seconds: float, seed: int | None) -> dict:
    """One untraced benchmark run; its closing JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seconds", str(seconds)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n"
                           f"{done.stderr[-2000:]}")
    return json.loads(done.stdout.splitlines()[-1])


def side_summary(values: list[float]) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": float(median), "q1": float(q1), "q3": float(q3),
            "min": min(values), "max": max(values), "runs": values}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per-workload summary of ``runs[workload][side]``, lists of run outputs
    in pair order."""
    out = {}
    for workload, sides in runs.items():
        n = min(len(sides["parent"]), len(sides["change"]))
        if n == 0:
            continue
        pairs = {side: sides[side][:n] for side in ("parent", "change")}
        entry = {
            "pairs": n,
            "failed": {side: sum(r["failed"] for r in rs) for side, rs in pairs.items()},
            "attempted": {side: sum(r["attempted"] for r in rs) for side, rs in pairs.items()},
            "correct": {side: all(r["correct"] for r in rs) for side, rs in pairs.items()},
        }
        for metric in metrics:
            name, higher = metric["name"], metric["better"] == "higher"
            values = {side: [r["metrics"][name]["value"] for r in rs]
                      for side, rs in pairs.items()}
            parent, change = (side_summary(values[s]) for s in ("parent", "change"))
            wins = sum((c > p) if higher else (c < p)
                       for p, c in zip(values["parent"], values["change"]))
            iqr = (parent["q3"] - parent["q1"]) / parent["median"] if parent["median"] else 0.0
            entry[name] = {
                "better": metric["better"],
                "bound": metric["bound"],
                "parent": parent,
                "change": change,
                "change_better_pairs": wins,
                "median_change_rel": (change["median"] / parent["median"] - 1.0
                                      if parent["median"] else 0.0),
                "parent_iqr_rel": iqr,
                "unresolved": iqr > metric["bound"],
            }
        out[workload] = entry
    return out


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--workloads", nargs="+", default=None,
                        help="default: every workload BENCHMARK.json declares")
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = declared["run_seconds"]
    workloads = args.workloads or [w["name"] for w in declared["workloads"]]
    parent_commit = git("rev-parse", "--short", args.parent)
    runs = {w: {"parent": [], "change": []} for w in workloads}
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {"parent": archive(parent_commit, Path(tmp)), "change": ROOT}
        for i in range(args.pairs):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for workload in workloads:
                for side in order:
                    runs[workload][side].append(run_once(trees[side], workload, seconds,
                                                         args.seed))
            report = {
                "label": args.out.stem,
                "parent_commit": parent_commit,
                "change": f"working tree on {git('rev-parse', '--short', 'HEAD')}",
                "machine": machine(),
                "command": f"python3 bench/run.py --workload W --seconds {seconds:g}"
                           + (f" --seed {args.seed}" if args.seed is not None else ""),
                "pairs": i + 1,
                "order": "even pairs (from 0) ran the parent first, odd pairs the change "
                         f"first; within a pair the workloads ran {', '.join(workloads)}; "
                         "the parent ran from a git archive of its commit, the change "
                         "from the working tree",
                "quartiles": "numpy.percentile, linear interpolation",
                "workloads": summarize(runs, declared["end_to_end"]),
            }
            args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
            print(f"pair {i + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
