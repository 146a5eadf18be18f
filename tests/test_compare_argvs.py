"""tools/compare_argvs.py, run on this tree against itself and against a
copy that differs in one manifest field."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_argvs.py"


def compare(tree_a, tree_b, argv_file):
    return subprocess.run([sys.executable, str(TOOL), str(tree_a), str(tree_b), str(argv_file)],
                          capture_output=True, text=True, timeout=120)


def test_same_tree_gives_no_difference(tmp_path):
    argvs = tmp_path / "argvs.txt"
    argvs.write_text("# a comment, then a blank line\n\n"
                     "ramabel csum --q 6 --n 3\n"
                     "--cache-dir {tmp}/cache sieve --n 1000\n"
                     "abel --x 2 --z 0.9  # abbreviated: exit 2 on both sides\n")
    proc = compare(ROOT, ROOT, argvs)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[:3] == ["same (exit 0): csum --q 6 --n 3",
                         "same (exit 0): --cache-dir '{tmp}/cache' sieve --n 1000",
                         "same (exit 2): abel --x 2 --z 0.9"]
    assert lines[3].startswith("3 argvs, 0 differ;")


def test_changed_version_is_a_difference(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tree / "src" / "ramabel" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "9'))
    argvs = tmp_path / "argvs.txt"
    argvs.write_text("csum --q 6 --n 3\n")
    proc = compare(ROOT, tree, argvs)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[0] == "DIFF out/csum_manifest.json: csum --q 6 --n 3"
