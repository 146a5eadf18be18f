"""Run the benchmark in pairs on a parent tree and a change tree, and write
one BENCH file of every run and a verdict per metric.

    python3 tools/bench_pairs.py PARENT CHANGE --workload W [--workload W2 ...]
        --seed S --pairs K --out BENCH_<pr>.json [--smoke]

Each run is the tree's own ``perfbench/run.py --workload W --seed S --trace 0
--seconds T``, started in that tree, so that it measures that tree's
``src``; T is ``run_seconds`` of PARENT's BENCHMARK.json, the same for both.
Pair i runs PARENT first when i is even and CHANGE first when it is odd.
The last line of a run's stdout is its JSON result; a run that exits
non-zero, or whose last line is not that object, stops the tool with exit 2.
The file is rewritten after every pair, so a stopped run keeps the
pairs it finished.

For each workload the file holds every run's result line, with its wall
time, and for each end-to-end metric of PARENT's BENCHMARK.json:

    parent   the median, Q1 and Q3 of the parent's runs (inclusive quartiles)
    change   the median and its wins: the pairs in which the change's run
             is better than the parent's, ties counting for neither
    bound    the metric's bound, a fraction of the parent's median
    verdict  "regressed" when the change's median is worse than the
             parent's by more than the bound; else "unresolved" when the
             parent's quartile distance is more than the bound times its
             median and some change run is no better than some parent run;
             else "within bound"
    gain     whether a gain could be claimed: the change wins at least nine
             tenths of the pairs, its median is better than the parent's
             by more than the parent's quartile distance, and its runs
             failed no more commands in all than the parent's

and ``all_correct``, whether every run of both trees was correct with no
failed command.  The environment is recorded: Python and numpy versions,
core count, physical memory, the bytecode-writing flag and
PYTHONDONTWRITEBYTECODE, and each tree as given with its git HEAD, or
null outside git.
Exits 0 when the file is written, whatever the verdicts.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

# Seconds a whole run may take before it is killed: a full corr-warm run,
# set-up included, takes about a minute.
TIMEOUT = 1800.0


def quartiles(values: list[float]) -> tuple[float, float]:
    """Q1 and Q3 by the inclusive method (linear between order statistics)."""
    if len(values) == 1:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def better(a: float, b: float, direction: str) -> bool:
    """Whether a reads better than b for a metric whose better side is
    ``direction``, "lower" or "higher"."""
    return a < b if direction == "lower" else a > b


def summarize(parent: list[float], change: list[float], bound: float, direction: str) -> dict:
    """The parent's median and quartiles, the change's median and wins, and
    the verdict, for one metric's runs in pair order."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    worse = (c_med - p_med) / p_med * (1 if direction == "lower" else -1)
    every_run_better = all(better(c, p, direction) for c in change for p in parent)
    wins = sum(better(c, p, direction) for p, c in zip(parent, change))
    if worse > bound:
        verdict = "regressed"
    elif q3 - q1 > bound * p_med and not every_run_better:
        verdict = "unresolved"
    else:
        verdict = "within bound"
    return {
        "parent": {"median": p_med, "q1": q1, "q3": q3},
        "change": {"median": c_med, "wins": wins},
        "worse_by": worse,
        "spread": (q3 - q1) / p_med,
        "bound": bound,
        "better": direction,
        "verdict": verdict,
        "gain": wins >= 0.9 * len(parent) and -worse * p_med > q3 - q1,
    }


def parse_result(stdout: str) -> dict:
    """The JSON object of a run's last stdout line, checked for its keys."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise ValueError(f"no JSON result line in {stdout[-200:]!r}") from None
    if not isinstance(result, dict) or not {"correct", "attempted", "failed",
                                            "metrics"} <= result.keys():
        raise ValueError(f"not a benchmark result: {lines[-1][:200]!r}")
    return result


def workload_summary(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Per metric of ``end_to_end``, the summary of the pairs' runs so far."""
    metrics = {}
    for m in end_to_end:
        runs = {side: [p[side]["metrics"][m["name"]]["value"] for p in pairs]
                for side in ("parent", "change")}
        metrics[m["name"]] = {"unit": m["unit"],
                              **summarize(runs["parent"], runs["change"], m["bound"], m["better"])}
    correct = all(p[side]["correct"] and p[side]["failed"] == 0
                  for p in pairs for side in ("parent", "change"))
    if sum(p["change"]["failed"] for p in pairs) > sum(p["parent"]["failed"] for p in pairs):
        for m in metrics.values():
            m["gain"] = False
    return {"all_correct": correct, "metrics": metrics}


def run_once(tree: Path, workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--trace", "0", "--seconds", str(seconds)]
    start = time.monotonic()
    proc = subprocess.run(argv + (["--smoke"] if smoke else []), cwd=tree,
                          capture_output=True, text=True, timeout=TIMEOUT)
    if proc.returncode != 0:
        raise ValueError(f"{' '.join(argv)} in {tree} exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return {**parse_result(proc.stdout), "wall_s": time.monotonic() - start}


def git_head(tree: Path) -> str | None:
    proc = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(parent: Path, change: Path) -> dict:
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "cores": os.cpu_count(),
        "memory_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "parent": {"path": str(parent), "git_head": git_head(parent)},
        "change": {"path": str(change), "git_head": git_head(change)},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--smoke", action="store_true", help="perfbench's tiny bounds, for testing")
    argv = sys.argv[1:] if argv is None else argv
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error(f"--pairs must be >= 1, got {args.pairs}")
    parent, change = args.parent.resolve(), args.change.resolve()
    bench = json.loads((parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    report = {"command": " ".join(["tools/bench_pairs.py", *argv]), "seed": args.seed,
              "seconds": seconds, "smoke": args.smoke,
              "environment": environment(args.parent, args.change), "workloads": {}}
    trees = {"parent": parent, "change": change}
    try:
        for workload in args.workload:
            pairs: list[dict] = []
            for i in range(args.pairs):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {"first": order[0]}
                for side in order:
                    pair[side] = run_once(trees[side], workload, args.seed, seconds, args.smoke)
                pairs.append(pair)
                report["workloads"][workload] = {
                    "pairs": pairs, **workload_summary(pairs, bench["end_to_end"])}
                args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
                print(f"{workload}: pair {i + 1}/{args.pairs} done", flush=True)
    except (ValueError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for workload, w in report["workloads"].items():
        for name, m in w["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.4g} -> {m['change']['median']:.4g}"
                  f" ({m['worse_by']:+.1%} worse, spread {m['spread']:.1%}, bound"
                  f" {m['bound']:.0%}, wins {m['change']['wins']}/{len(w['pairs'])}):"
                  f" {m['verdict']}")
        print(f"{workload}: all runs correct: {w['all_correct']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
