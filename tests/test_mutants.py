"""tools/mutants.py, run on this tree with one mutant a test kills and one
equivalent mutant that survives, each marked rightly and wrongly; and
tools/mutants.json, read against this tree without running a mutant."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "mutants.py"

SIGN = {"name": "sign", "path": "src/ramabel/ramanujan.py",
        "old": "- (r % pe1 == 0) * pe1)", "new": "+ (r % pe1 == 0) * pe1)",
        "tests": ["tests/test_ramanujan.py::TestCqInt::test_known_values"]}
EQUIVALENT = {"name": "bound", "path": "src/ramabel/ramanujan.py",
              "old": "if q >= 2**63:", "new": "if q > 2**63 - 1:",
              "tests": ["tests/test_ramanujan.py::TestCqInt::test_out_of_range_q"]}


def run_mutants(tmp_path, mutants):
    path = tmp_path / "mutants.json"
    path.write_text(json.dumps(mutants))
    return subprocess.run([sys.executable, str(TOOL), str(ROOT), str(path)],
                          capture_output=True, text=True, timeout=300)


def test_killed_and_expected_survivor(tmp_path):
    proc = run_mutants(tmp_path, [SIGN, {**EQUIVALENT, "expect": "survives", "why": "q is an int"}])
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["killed: sign",
                                        "survived (expected): bound  [q is an int]",
                                        "2 mutants, 1 killed, 0 not as expected"]


def test_unexpected_survivor_exit_one(tmp_path):
    proc = run_mutants(tmp_path, [EQUIVALENT])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["SURVIVED: bound",
                                        "1 mutants, 0 killed, 1 not as expected"]


def test_killed_marked_survives_exit_one(tmp_path):
    proc = run_mutants(tmp_path, [{**SIGN, "expect": "survives", "why": "no longer true"}])
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines() == ["KILLED (expected to survive): sign  [no longer true]",
                                        "1 mutants, 1 killed, 1 not as expected"]


def test_every_old_text_occurs_once():
    # A mutant whose old text the code no longer holds, or holds twice, would
    # stop the runner; this finds it without running a mutant.
    mutants = json.loads((ROOT / "tools" / "mutants.json").read_text(encoding="utf-8"))
    counts = {m["name"]: (ROOT / m["path"]).read_text(encoding="utf-8").count(m["old"])
              for m in mutants}
    assert len(counts) == len(mutants)
    assert {name: n for name, n in counts.items() if n != 1} == {}
