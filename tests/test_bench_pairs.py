"""tools/bench_pairs.py: the quartiles, wins and verdicts on canned runs and
result lines, and one smoke pair on two copies of this tree."""

import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def test_quartiles_inclusive():
    assert bench_pairs.quartiles([float(v) for v in range(10, 0, -1)]) == (3.25, 7.75)
    assert bench_pairs.quartiles([2.0]) == (2.0, 2.0)


@pytest.mark.parametrize("parent, change, direction, verdict, wins, gain", [
    # Medians 1.0 and 1.2: 20% worse, within the 25% bound; one tie.
    ([1.0, 0.9, 1.1, 1.0], [1.2, 1.0, 1.3, 1.2], "lower", "within bound", 0, False),
    # 30% worse.
    ([1.0, 0.9, 1.1, 1.0], [1.3, 1.2, 1.4, 1.3], "lower", "regressed", 0, False),
    # A quartile distance of 0.75 against a median of 1.5: too wide to tell.
    ([1.0, 2.0, 1.0, 2.0], [1.4, 1.6, 1.5, 1.5], "lower", "unresolved", 2, False),
    # As wide, but every change run is better than every parent run, and
    # the medians differ by 0.65, less than the quartile distance.
    ([1.0, 2.0, 1.0, 2.0], [0.9, 0.8, 0.9, 0.8], "lower", "within bound", 4, False),
    # A gain: 4/4 wins and 0.2 between the medians, against quartiles 0.05 apart.
    ([1.0, 1.1, 1.0, 1.0], [0.8, 0.8, 0.9, 0.8], "lower", "within bound", 4, True),
    # 3 wins of 4 are under nine tenths.
    ([1.0, 1.1, 1.0, 1.0], [0.8, 0.8, 1.0, 0.8], "lower", "within bound", 3, False),
    # Higher is better: 4 -> 3 is exactly 25% worse, 4 -> 2.9 more.
    ([4.0, 4.0, 4.0, 4.0], [3.0, 3.0, 5.0, 3.0], "higher", "within bound", 1, False),
    ([4.0, 4.0, 4.0, 4.0], [2.9, 2.9, 2.9, 5.0], "higher", "regressed", 1, False),
    ([4.0, 4.0, 4.0, 4.0], [4.5, 4.5, 4.5, 4.5], "higher", "within bound", 4, True),
])
def test_summarize(parent, change, direction, verdict, wins, gain):
    got = bench_pairs.summarize(parent, change, 0.25, direction)
    assert got["verdict"] == verdict
    assert got["change"]["wins"] == wins
    assert got["gain"] is gain
    assert (got["parent"]["q1"], got["parent"]["q3"]) == bench_pairs.quartiles(parent)


def line(correct, failed, p50, rss):
    metrics = {"cmd_p50_s": {"value": p50, "unit": "s"},
               "peak_rss_mb": {"value": rss, "unit": "MB"}}
    return json.dumps({"correct": correct, "attempted": 7, "failed": failed, "metrics": metrics})


END_TO_END = [{"name": "cmd_p50_s", "unit": "s", "better": "lower", "bound": 0.25},
              {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.1}]


def test_workload_summary_from_result_lines():
    report = "corr-cold report\n  cmd_p50_s 0.4 s\n"
    runs = [(line(True, 0, 0.40, 42.9), line(True, 0, 0.41, 43.0)),
            (line(True, 0, 0.32, 42.9), line(True, 0, 0.50, 48.0)),
            (line(True, 0, 0.48, 42.9), line(True, 0, 0.40, 42.8))]
    pairs = [{"parent": bench_pairs.parse_result(report + p), "change": bench_pairs.parse_result(c)}
             for p, c in runs]
    got = bench_pairs.workload_summary(pairs, END_TO_END)
    assert got["all_correct"] is True
    p50, rss = got["metrics"]["cmd_p50_s"], got["metrics"]["peak_rss_mb"]
    # Parent 0.32, 0.4, 0.48: median 0.4, quartiles 0.36 and 0.44, a spread
    # of 20%, within the bound; the change's median 0.41 is 2.5% worse.
    assert (p50["parent"]["median"], p50["change"]["median"]) == (0.4, 0.41)
    assert p50["parent"]["q1"] == pytest.approx(0.36) and p50["parent"]["q3"] == pytest.approx(0.44)
    assert (p50["change"]["wins"], p50["verdict"], p50["unit"]) == (1, "within bound", "s")
    assert (rss["change"]["median"], rss["change"]["wins"]) == (43.0, 1)
    assert rss["verdict"] == "within bound"
    pairs[1]["change"] = bench_pairs.parse_result(line(True, 1, 0.5, 48.0))
    assert bench_pairs.workload_summary(pairs, END_TO_END)["all_correct"] is False


def test_no_gain_with_more_failed_commands():
    # The change wins every pair by 0.1 against quartiles 0.01 apart: a gain
    # while both trees fail nothing, none once the change fails one more.
    runs = [(line(True, 0, 0.40, 42.9), line(True, 0, 0.30, 42.9)),
            (line(True, 0, 0.41, 42.9), line(True, 0, 0.31, 42.9)),
            (line(True, 0, 0.42, 42.9), line(True, 0, 0.32, 42.9))]
    pairs = [{"parent": bench_pairs.parse_result(p), "change": bench_pairs.parse_result(c)}
             for p, c in runs]
    assert bench_pairs.workload_summary(pairs, END_TO_END)["metrics"]["cmd_p50_s"]["gain"] is True
    pairs[0]["parent"] = bench_pairs.parse_result(line(True, 1, 0.40, 42.9))
    pairs[2]["change"] = bench_pairs.parse_result(line(True, 1, 0.32, 42.9))
    assert bench_pairs.workload_summary(pairs, END_TO_END)["metrics"]["cmd_p50_s"]["gain"] is True
    pairs[1]["change"] = bench_pairs.parse_result(line(True, 1, 0.31, 42.9))
    got = bench_pairs.workload_summary(pairs, END_TO_END)["metrics"]
    assert [m["gain"] for m in got.values()] == [False, False]


@pytest.mark.parametrize("stdout", ["", "report only\n", '{"correct": true}\n', "[1, 2]\n"])
def test_parse_result_refuses(stdout):
    with pytest.raises(ValueError):
        bench_pairs.parse_result(stdout)


def test_smoke_pair(tmp_path):
    trees = []
    for name in ("parent", "change"):
        tree = tmp_path / name
        shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copytree(ROOT / "perfbench", tree / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__", ".perfbench_work", "tests"))
        shutil.copy(ROOT / "BENCHMARK.json", tree)
        trees.append(tree)
    out = tmp_path / "BENCH_smoke.json"
    proc = subprocess.run([sys.executable, str(TOOL), *map(str, trees), "--workload", "constants",
                           "--seed", "1", "--pairs", "1", "--smoke",
                           "--out", str(out)], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(out.read_text())
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert (report["seconds"], report["smoke"]) == (bench["run_seconds"], True)
    assert report["environment"]["parent"]["git_head"] is None
    w = report["workloads"]["constants"]
    assert [p["first"] for p in w["pairs"]] == ["parent"]
    assert w["all_correct"] is True
    names = [m["name"] for m in bench["end_to_end"]]
    assert list(w["metrics"]) == names
    assert {m["verdict"] for m in w["metrics"].values()} <= {"within bound", "unresolved",
                                                             "regressed"}
    assert "constants: all runs correct: True" in proc.stdout
