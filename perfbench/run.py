#!/usr/bin/env python3
"""Closed-loop benchmark of `ramabel` commands.

Run from anywhere inside a ramabel checkout:

    python3 perfbench/run.py --workload corr-cold --seed 1 --seconds 25 --trace 0

One client runs one `ramabel` process at a time (`python3 -m ramabel.cli`
with PYTHONPATH set to the checkout's `src`) and starts the next only when
the previous one has exited.  It runs the whole decks of commands (see
workloads.py) that fill about `--seconds` at nominal speed, checks every
command's output, prints a report, and prints as its last line one JSON
object: `{"correct", "attempted", "failed", "metrics"}`.

`--trace 1` runs a fixed number of decks instead, each command once under
tracer.py and once plainly, and reports the per-layer metrics.
`--workload all` runs every workload in turn.  `--smoke` runs the same
commands at tiny bounds.  `--record-references` rewrites references.json
from the default seed.

All files go to a temporary directory under `.perfbench_work/` in the
checkout, which is deleted when the run ends.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import stats
from workloads import FRESH, FULL, SMOKE, WARM_UP, WORKLOADS, Cmd, Scale, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"
TRACER = HERE / "tracer.py"

DEFAULT_SEED = 1
SETUP_REPEATS = 3
COMMAND_TIMEOUT_S = 150.0
# Decks per workload that --record-references runs on the default seed.
REFERENCE_DECKS = {"corr-cold": 2, "corr-warm": 1, "constants": 8}
# The twin-prime constant, prod over odd p of (1 - 1/(p-1)^2).
TWIN_CONSTANT = 0.66016181584686957
VALUE_COLUMNS = ("mean", "value")

END_TO_END = {  # name -> unit
    "cmd_p50_s": "s",
    "cmd_tail_s": "s",
    "cmds_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


@dataclass
class Result:
    cmd: Cmd
    wall: float
    rss_mb: float
    code: int
    problems: list[str] = field(default_factory=list)
    trace: dict | None = None


class Runner:
    """Spawns commands, one at a time, and checks what they wrote."""

    def __init__(self, work: Path, references: dict[str, dict[str, list[str]]]):
        self.work = work
        self.references = references
        self.recorded: dict[str, dict[str, list[str]]] = {}
        self.csv_sha: dict[str, str] = {}  # key -> SHA-256 of the first CSV seen
        self.out = work / "out"
        self.shared_cache = work / "cache"
        env = {k: v for k, v in os.environ.items()
               if k not in ("RAMABEL_CACHE_DIR", "PYTHONPATH")}
        env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "2"
        self.env = env

    def run(self, cmd: Cmd, traced: bool = False) -> Result:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        cache = None
        if cmd.cache == FRESH:
            cache = self.work / "fresh"
            shutil.rmtree(cache, ignore_errors=True)
            cache.mkdir()
        elif cmd.cache is not None:
            cache = self.shared_cache
            cache.mkdir(exist_ok=True)
        argv = ["--out", str(self.out)]
        if cmd.threads is not None:
            argv += ["--threads", str(cmd.threads)]
        if cache is not None and cmd.args[0] != "sieve":
            argv += ["--cache-dir", str(cache)]
        argv += list(cmd.args)
        if cache is not None and cmd.args[0] == "sieve":
            # The file name the table cache uses, so that a primed table is reused.
            argv += ["--cache", str(cache / f"tables_N{cmd.args[2]}_v1.bin")]
        try:
            result = self._spawn(cmd, argv, traced)
            self._check(result)
        finally:
            if cmd.cache == FRESH:
                shutil.rmtree(cache, ignore_errors=True)
        return result

    def _spawn(self, cmd: Cmd, argv: list[str], traced: bool) -> Result:
        spans = self.work / "spans.json"
        stderr_path = self.work / "stderr.txt"
        start = time.monotonic()
        if traced:
            full = [sys.executable, str(TRACER), str(spans), repr(start)] + argv
        else:
            full = [sys.executable, "-m", "ramabel.cli"] + argv
        with open(stderr_path, "wb") as err:
            proc = subprocess.Popen(full, cwd=self.work, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        result = Result(cmd, wall, usage.ru_maxrss / 1024, proc.returncode)
        if result.code != 0:
            tail = stderr_path.read_text(errors="replace").strip().splitlines()[-1:]
            result.problems.append(f"exit code {result.code}, expected 0: {tail}")
        if traced:
            try:
                result.trace = json.loads(spans.read_text())
            except (OSError, ValueError) as exc:
                result.problems.append(f"no trace written: {exc}")
            spans.unlink(missing_ok=True)
        return result

    def _check(self, r: Result) -> None:
        name = r.cmd.args[0]
        try:
            data = (self.out / f"{name}.csv").read_bytes()
            manifest = json.loads((self.out / f"{name}_manifest.json").read_text())
        except (OSError, ValueError) as exc:
            r.problems.append(f"output missing: {exc}")
            return
        sha = hashlib.sha256(data).hexdigest()
        if manifest.get("output_sha256") != sha:
            r.problems.append("manifest output_sha256 differs from the CSV's SHA-256")
        first = self.csv_sha.setdefault(r.cmd.key, sha)
        if first != sha:
            r.problems.append("CSV differs from an earlier run of the same argv")
        rows = list(csv.DictReader(io.StringIO(data.decode("utf-8"))))
        values = {c: [row[c] for row in rows] for c in VALUE_COLUMNS if rows and c in rows[0]}
        self.recorded[r.cmd.key] = values
        want = self.references.get(r.cmd.key)
        if want is not None and want != values:
            r.problems.append(f"value columns {values} differ from the reference {want}")
        if name == "singular" and r.cmd.args[2] == "C2":
            row = rows[0]
            if abs(float(row["value"]) - TWIN_CONSTANT) > float(row["tail_estimate"]):
                r.problems.append(f"C2 = {row['value']} not within {row['tail_estimate']}")
        if name == "props":
            failed = [row["property"] for row in rows if row["status"] != "pass"]
            if failed:
                r.problems.append(f"props failed: {failed}")


def environment() -> dict:
    try:
        l3 = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        l3 = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "ram_gib": round(os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") / 2**30, 2),
        "l3": l3,
    }


def _fail_setup(results: list[Result]) -> list[str]:
    return [f"{r.cmd.key}: {p}" for r in results for p in r.problems]


def set_up(runner: Runner, make, seed: int, scale: Scale) -> tuple[Workload, float, list[str]]:
    """Generate the inputs and run the warm-up process, SETUP_REPEATS times,
    then prime the shared cache once.  Returns the median set-up time."""
    times, problems = [], []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        workload = make(seed, scale)
        workload.deck(0)
        warm = runner.run(WARM_UP)
        times.append(time.monotonic() - t0)
        problems += _fail_setup([warm])
    t0 = time.monotonic()
    problems += _fail_setup([runner.run(cmd) for cmd in workload.prime])
    # Flush the primed tables now, so that their write-back does not land
    # inside the measured loop.
    for path in runner.shared_cache.glob("*") if workload.prime else []:
        with open(path, "rb") as f:
            os.fsync(f.fileno())
    return workload, statistics.median(times) + time.monotonic() - t0, problems


def measure(runner: Runner, workload: Workload, seconds: float, trace: bool) -> tuple[list[Result], list[Result], float]:
    """Run whole decks; returns plain results, traced results and loop time."""
    plain, traced = [], []
    start = time.monotonic()
    for d in range(workload.trace_decks if trace else workload.decks(seconds)):
        for cmd in workload.deck(d):
            if trace:
                traced.append(runner.run(cmd, traced=True))
            plain.append(runner.run(cmd))
    return plain, traced, time.monotonic() - start


def run_workload(name: str, seed: int, seconds: float, trace: bool, scale: Scale,
                 runner: Runner) -> dict:
    workload, setup_s, setup_problems = set_up(runner, WORKLOADS[name], seed, scale)
    plain, traced, loop_s = measure(runner, workload, seconds, trace)
    everything = plain + traced
    failed = [r for r in everything if r.problems]
    walls = [r.wall for r in plain]
    pct, tail = stats.tail_percentile(walls)
    report = {
        "workload": name,
        "attempted": len(everything),
        "failed": len(failed),
        "setup_problems": setup_problems,
        "problems": [f"{r.cmd.key}: {p}" for r in failed for p in r.problems],
        "samples": len(walls),
        "tail_pct": pct,
        "setup_samples": SETUP_REPEATS,
        "end_to_end": {
            "cmd_p50_s": statistics.median(walls),
            "cmd_tail_s": tail,
            "cmds_per_s": len(plain) / loop_s,
            "peak_rss_mb": max(r.rss_mb for r in plain),
            "setup_s": setup_s,
        },
        "error_rate": stats.error_rate(len(everything), len(failed)),
    }
    if trace:
        report.update(_trace_report(plain, traced))
    report["correct"] = not failed and not setup_problems and report.get("trace_ok", True)
    return report


def _trace_report(plain: list[Result], traced: list[Result]) -> dict:
    cmds = [{"wall": r.wall, "key": r.cmd.key, "threads": r.cmd.threads, "trace": r.trace}
            for r in traced if r.trace is not None]
    layer, layers = stats.layer_metrics(cmds)
    untraced_p50 = statistics.median([r.wall for r in plain])
    traced_p50 = statistics.median([r.wall for r in traced])
    layer["trace.overhead_frac"] = (traced_p50 - untraced_p50) / untraced_p50
    wall = sum(c["wall"] for c in cmds)
    return {
        "per_layer": layer,
        "layers": layers,
        "traced_wall_s": wall,
        "traced_commands": len(cmds),
        # Self times are disjoint pieces of each process's lifetime.
        "trace_ok": len(cmds) == len(traced) and sum(layers.values()) <= wall,
    }


def print_report(rep: dict, seed: int, env: dict, trace: bool) -> None:
    print(f"# workload={rep['workload']} seed={seed} trace={int(trace)} " +
          " ".join(f"{k}={v}" for k, v in env.items()))
    if not trace:
        print(f"# commands={rep['samples']} (samples behind cmd_p50_s and cmd_tail_s); "
              f"cmd_tail_s is p{rep['tail_pct']}" +
              (" (the maximum: too few samples for a percentile with 10 beyond)"
               if rep["tail_pct"] == 100 else ""))
        e2e = rep["end_to_end"]
        for name, unit in END_TO_END.items():
            n = rep["setup_samples"] if name == "setup_s" else rep["samples"]
            extra = f" p{rep['tail_pct']}" if name == "cmd_tail_s" else ""
            print(f"{name:<14} {e2e[name]:>12.6g} {unit:<9} n={n}{extra}")
    print(f"{'error_rate':<14} {rep['error_rate']:>12.6g} {'fraction':<9} "
          f"n={rep['attempted']} ({rep['failed']} failed of {rep['attempted']} attempted)")
    if trace:
        wall = rep["traced_wall_s"]
        print(f"# traced: {rep['traced_commands']} commands, {wall:.3f} s wall; "
              f"layer self time sums to {sum(rep['layers'].values()):.3f} s")
        for layer, s in sorted(rep["layers"].items(), key=lambda kv: -kv[1]):
            print(f"#   layer {layer:<12} {s:10.4f} s  {s / wall:6.1%} of wall")
        busy = {k: v for k, v in rep["per_layer"].items() if k.endswith(".s") or k == "cli.self_s"}
        top = max(busy, key=busy.get)
        print(f"# largest self time: {top} ({busy[top]:.3f} s)")
        for name, value in rep["per_layer"].items():
            print(f"{name:<40} {value:.6g}")
    for p in rep["setup_problems"] + rep["problems"]:
        print(f"FAILED {p}")


def result_line(reps: list[dict], trace: bool, prefix: bool) -> str:
    metrics = {}
    for rep in reps:
        if trace:
            values = {k: (v, unit_of(k)) for k, v in rep["per_layer"].items()}
        else:
            values = {k: (rep["end_to_end"][k], u) for k, u in END_TO_END.items()}
        for k, (v, unit) in values.items():
            metrics[f"{rep['workload']}/{k}" if prefix else k] = {"value": v, "unit": unit}
    return json.dumps({
        "correct": all(r["correct"] for r in reps),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "metrics": metrics,
    })


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("mb_per_s", "MB/s"), ("mb", "MB"), ("ns_per_entry", "ns"),
                         ("ns_per_summand", "ns"), ("ratio", "ratio"),
                         ("over_threads1", "ratio"), ("frac", "fraction"), ("s", "s")):
        if metric.endswith((f".{suffix}", f"_{suffix}")):
            return unit
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny bounds, for testing")
    ap.add_argument("--record-references", action="store_true",
                    help=f"rewrite {REFERENCES.name} from the default seed")
    args = ap.parse_args()
    # Turn SIGTERM into an exception, so that the running child is killed and
    # reaped and the work directory removed on the way out.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "ramabel" / "cli.py").is_file():
        print(f"error: no ramabel sources under {ROOT / 'src'}; run inside a checkout",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    scale = SMOKE if args.smoke else FULL
    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work"))
    try:
        runner = Runner(work, {} if args.record_references else references)
        if args.record_references:
            return record_references(runner, names)
        env = environment()
        reports = []
        for name in names:
            rep = run_workload(name, args.seed, args.seconds, bool(args.trace), scale, runner)
            print_report(rep, args.seed, env, bool(args.trace))
            reports.append(rep)
            shutil.rmtree(runner.shared_cache, ignore_errors=True)
        sys.stdout.flush()
        print(result_line(reports, bool(args.trace), prefix=len(reports) > 1))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".perfbench_work").rmdir()
        except OSError:
            pass


def record_references(runner: Runner, names: list[str]) -> int:
    """Record the value columns of every command of the first decks of the
    default seed, after checking them like a measured run does."""
    references = json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}
    problems = []
    for name in names:
        workload = WORKLOADS[name](DEFAULT_SEED, FULL)
        cmds = workload.prime + [c for d in range(REFERENCE_DECKS[name]) for c in workload.deck(d)]
        for cmd in cmds:
            r = runner.run(cmd)
            problems += [f"{cmd.key}: {p}" for p in r.problems]
            print(f"{r.wall:8.3f} s  {cmd.key}", flush=True)
        shutil.rmtree(runner.shared_cache, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    references.update(runner.recorded)
    REFERENCES.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
