"""tools/compare_argvs.py, run on this tree against itself, against a
copy that differs in one manifest field, and with its time limit cut."""

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_argvs.py"
SLOW = "singular --form C2 --p 100000000"  # sieves the primes below 10^8


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


def load_tool():
    spec = importlib.util.spec_from_file_location("compare_argvs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_timeout_on_both_sides_is_the_same(tmp_path, monkeypatch, capsys):
    tool = load_tool()
    monkeypatch.setattr(tool, "TIMEOUT", 0.1)
    argvs = tmp_path / "argvs.txt"
    argvs.write_text(SLOW + "\n")
    assert tool.main([str(ROOT), str(ROOT), str(argvs)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"same (exit timeout): {SLOW}"
    assert lines[1].startswith("1 argvs, 0 differ;")


def test_timeout_on_one_side_is_a_difference(tmp_path, monkeypatch, capsys):
    # A tree whose package exits at import, well inside the limit that the
    # slow argv overruns on this tree.
    fast = tmp_path / "fast"
    (fast / "src" / "ramabel").mkdir(parents=True)
    (fast / "src" / "ramabel" / "__init__.py").write_text("raise SystemExit(0)\n")
    tool = load_tool()
    monkeypatch.setattr(tool, "TIMEOUT", 0.25)
    argvs = tmp_path / "argvs.txt"
    argvs.write_text(SLOW + "\n")
    assert tool.main([str(ROOT), str(fast), str(argvs)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == f"DIFF exit, stderr, stdout: {SLOW}"
    assert "  A exit: 'timeout'\n  B exit: 0\n" in out
