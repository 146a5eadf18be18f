"""tools/compare_argvs.py, run on this tree against itself, against a
copy that differs in one manifest field, on two copies that differ only
in their peak RSS, and with its time limit cut."""

import importlib.util
import re
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "compare_argvs.py"
SLOW = "singular --form C2 --p 100000000"  # sieves the primes below 10^8
PEAKS = r" \[peak A (\d+\.\d) MB, B (\d+\.\d) MB\]"
# The summary line: counts, walls, the largest peak rise and its argv, and
# the largest peak fall and its argv.
SUMMARY = (r"(\d+) argvs, (\d+) differ; wall A \S+ s, B \S+ s; "
           r"largest peak rise B - A ([+-]\d+\.\d) MB: (.+); "
           r"largest peak fall A - B ([+-]\d+\.\d) MB: (.+)")


def line(status, argv):
    """The pattern of one argv's line: its status, both peaks and the argv."""
    return re.escape(status) + PEAKS + re.escape(": " + argv)


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
    assert len(lines) == 4
    for got, want in zip(lines, [line("same (exit 0)", "csum --q 6 --n 3"),
                                 line("same (exit 0)", "--cache-dir '{tmp}/cache' sieve --n 1000"),
                                 line("same (exit 2)", "abel --x 2 --z 0.9")]):
        assert re.fullmatch(want, got)
    assert re.match(SUMMARY, lines[3]).groups()[:2] == ("3", "0")


def test_changed_version_is_a_difference(tmp_path):
    tree = tmp_path / "tree"
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tree / "src" / "ramabel" / "__init__.py"
    init.write_text(init.read_text().replace('__version__ = "', '__version__ = "9'))
    argvs = tmp_path / "argvs.txt"
    argvs.write_text("csum --q 6 --n 3\n")
    proc = compare(ROOT, tree, argvs)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert re.fullmatch(line("DIFF out/csum_manifest.json", "csum --q 6 --n 3"),
                        proc.stdout.splitlines()[0])


def ballasted(tmp_path, name, command):
    """A copy of this tree whose package holds 64 MiB more at import,
    written page by page, in a process for ``command`` alone."""
    tree = tmp_path / name
    shutil.copytree(ROOT / "src", tree / "src", ignore=shutil.ignore_patterns("__pycache__"))
    init = tree / "src" / "ramabel" / "__init__.py"
    init.write_text(init.read_text() + f"import sys\n_BALLAST = b'x' * (64 << 20) "
                                       f"if {command!r} in sys.argv else b''\n")
    return tree


def test_peak_rss_is_reported_not_a_difference(tmp_path):
    # Two copies that give the same outputs: A holds the ballast for abel,
    # B for csum.  Both argvs are the same, each line shows a peak at least
    # 50 MB above the other side's, and the summary names csum's rise and
    # abel's fall.
    argvs = tmp_path / "argvs.txt"
    argvs.write_text("csum --q 6 --n 3\nabel --x 2 --z 0.9\n")
    proc = compare(ballasted(tmp_path, "a", "abel"), ballasted(tmp_path, "b", "csum"), argvs)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    for got, sign in zip(lines[:2], (1, -1)):
        a, b = map(float, re.search(PEAKS, got).groups())
        assert got.startswith("same (exit ") and sign * (b - a) >= 50, got
    n, differ, rise, rise_argv, fall, fall_argv = re.fullmatch(SUMMARY, lines[2]).groups()
    assert (n, differ) == ("2", "0") and float(rise) >= 50 and float(fall) >= 50
    assert (rise_argv, fall_argv) == ("csum --q 6 --n 3", "abel --x 2 --z 0.9")


def test_a_large_file_does_not_raise_later_peaks(tmp_path):
    # A child's ru_maxrss takes in the tool's RSS when the child starts.
    # The 45 MB table dump of the first argv is hashed in chunks, so the
    # next argv's peaks stay below that size.
    argvs = tmp_path / "argvs.txt"
    argvs.write_text("--cache-dir {tmp}/cache sieve --n 5000000\ncsum --q 6 --n 3\n")
    proc = compare(ROOT, ROOT, argvs)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    peaks = re.search(PEAKS, proc.stdout.splitlines()[1]).groups()
    assert max(map(float, peaks)) < 45, proc.stdout


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
    assert re.fullmatch(line("same (exit timeout)", SLOW), lines[0])
    assert re.match(SUMMARY, lines[1]).groups()[:2] == ("1", "0")


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
    assert re.fullmatch(line("DIFF exit, stderr, stdout", SLOW), out.splitlines()[0])
    assert "  A exit: 'timeout'\n  B exit: 0\n" in out
