"""Run mutants of a source tree against the tests that should kill them.

    python3 tools/mutants.py TREE MUTANTS_JSON

MUTANTS_JSON holds a list of mutants, each an object with:

    "name"    a label for the report;
    "path"    the file to change, relative to TREE;
    "old"     a text that occurs exactly once in that file;
    "new"     the text put in its place;
    "tests"   the pytest node ids to run, relative to TREE;
    "expect"  optional, "survives" for a mutant no test is meant to kill,
              such as one equivalent to the code; "why" then says why.

First the union of every mutant's tests runs on an unchanged copy of TREE,
which must pass.  Then each mutant is applied to a fresh copy of TREE
(without ``.git`` and caches) in a temporary directory, and its tests run
there as ``python -m pytest -q -x`` with that copy's ``src`` on PYTHONPATH.
A mutant is killed when pytest reports a failed test or runs past
TIMEOUT seconds (a mutant may loop without end), and survives when every
test passes.  Prints one line per mutant and a summary.  Exits 1 if a
mutant's outcome is not the one expected: a survivor not marked
``"expect": "survives"``, or a killed mutant that is so marked.  Exits 2 if
the file is malformed, an old text does not occur exactly once, the
unchanged tree fails, or pytest ends in any other way (a node id not
found, a collection error).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench_work", ".bench_build")
FIELDS = ("name", "path", "old", "new", "tests")
TIMEOUT = 600.0


class MutantError(Exception):
    """A mutant file or a run that the report cannot count."""


def read_mutants(path: Path) -> list[dict]:
    mutants = json.loads(path.read_text(encoding="utf-8"))
    for m in mutants:
        missing = [f for f in FIELDS if f not in m]
        if missing or not m["tests"] or m.get("expect", "killed") not in ("killed", "survives"):
            raise MutantError(f"malformed mutant {m.get('name', m)!r}: needs {', '.join(FIELDS)}, "
                              f"a non-empty tests list and expect 'killed' or 'survives'")
    return mutants


def run_tests(tree: Path, tests: list[str]) -> str:
    """'passed', 'failed' or 'timeout' for pytest on ``tests`` in ``tree``."""
    env = {k: v for k, v in os.environ.items() if k != "RAMABEL_CACHE_DIR"}
    env["PYTHONPATH"] = str(tree / "src")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
            cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if proc.returncode not in (0, 1):
        tail = "\n".join((proc.stdout + proc.stderr).splitlines()[-5:])
        raise MutantError(f"pytest exited {proc.returncode} on {' '.join(tests)}:\n{tail}")
    return "passed" if proc.returncode == 0 else "failed"


def copy_tree(tree: Path, scratch: Path) -> Path:
    copy = Path(tempfile.mkdtemp(prefix="mutant_", dir=scratch)) / "tree"
    shutil.copytree(tree, copy, ignore=IGNORE)
    return copy


def apply(copy: Path, mutant: dict) -> None:
    path = copy / mutant["path"]
    text = path.read_text(encoding="utf-8")
    count = text.count(mutant["old"])
    if count != 1:
        raise MutantError(f"mutant {mutant['name']!r}: old text occurs {count} times "
                          f"in {mutant['path']}, not once")
    path.write_text(text.replace(mutant["old"], mutant["new"]), encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree", type=Path)
    ap.add_argument("mutants", type=Path)
    args = ap.parse_args(argv)
    tree = args.tree.resolve()
    killed = unexpected = 0
    try:
        mutants = read_mutants(args.mutants)
        with tempfile.TemporaryDirectory(prefix="mutants_") as scratch:
            tests = list(dict.fromkeys(t for m in mutants for t in m["tests"]))
            if run_tests(copy_tree(tree, Path(scratch)), tests) != "passed":
                raise MutantError("the unchanged tree fails the mutants' tests")
            for mutant in mutants:
                copy = copy_tree(tree, Path(scratch))
                apply(copy, mutant)
                outcome = run_tests(copy, mutant["tests"])
                shutil.rmtree(copy.parent)
                marked = mutant.get("expect") == "survives"
                unexpected += marked != (outcome == "passed")
                if outcome == "passed":
                    label = "survived (expected)" if marked else "SURVIVED"
                else:
                    killed += 1
                    label = "killed (timeout)" if outcome == "timeout" else "killed"
                    if marked:
                        label = label.upper() + " (expected to survive)"
                why = f"  [{mutant['why']}]" if marked and "why" in mutant else ""
                print(f"{label}: {mutant['name']}{why}", flush=True)
    except (MutantError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(f"{len(mutants)} mutants, {killed} killed, {unexpected} not as expected")
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main())
