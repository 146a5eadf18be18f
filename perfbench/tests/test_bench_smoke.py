"""Smoke runs of the benchmark at tiny bounds, end to end.

Run with:  python3 -m pytest perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DECK_SIZES = {"corr-cold": 7, "corr-warm": 11, "constants": 13}


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_all_workloads(trace):
    proc = _run("--workload", "all", "--smoke", "--seconds", "1", "--seed", "7",
                "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stdout
    assert result["failed"] == 0
    kind = "per_layer" if trace == "1" else "end_to_end"
    units = {m["name"]: m["unit"] for m in SPEC[kind]}
    expected = {f"{w['name']}/{n}" for w in SPEC["workloads"] for n in units}
    assert set(result["metrics"]) == expected
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name.split("/", 1)[1]], name
        assert isinstance(metric["value"], (int, float)), name
    for workload in DECK_SIZES:
        assert f"workload={workload} seed=7" in proc.stdout
    assert not (ROOT / ".perfbench_work").exists()


def test_attempted_counts_measured_commands_only():
    # Set-up runs three warm-up processes and primes the cache; neither is
    # in the error-rate base.
    proc = _run("--workload", "corr-warm", "--smoke", "--seconds", "0", "--seed", "3")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == DECK_SIZES["corr-warm"]
    assert "error_rate" in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
