"""Compare two source trees of ramabel on a file of argvs.

    python3 tools/compare_argvs.py TREE_A TREE_B ARGV_FILE

Each line of ARGV_FILE is one argv, shell-quoted, with or without a leading
``ramabel``; blank lines and ``#`` comments are skipped.  Every argv runs
once per tree as a fresh ``python -m ramabel.cli`` process, with ``src`` of
that tree on PYTHONPATH and RAMABEL_CACHE_DIR unset, in a fresh temporary
directory D: ``--out D/out`` is put in front of the argv, and ``{tmp}`` in
the argv stands for D, so ``--cache-dir {tmp}/cache`` gives each run a cold
cache of its own.  Which tree runs first alternates from one argv to the next.

The two runs must give the same exit code, stdout, stderr, the same bytes in
every file left under D, and the same manifest but for ``duration_s``; D is
written as ``{tmp}`` before anything is compared.  A run still going after
TIMEOUT seconds is killed and leaves only the exit ``"timeout"``, so two
runs that time out are the same, and a timeout on one side only is a
difference.  Prints one line per argv, with the peak RSS of each run (the
child's ``ru_maxrss`` from ``os.wait4``), and exits 1 if any argv differs.
Peak RSS is reported, never counted as a difference; the summary line names
the argv whose peak rose most from A to B and the argv whose peak fell
most.  A child's ``ru_maxrss`` takes in the RSS of this process when the
child starts, so the files are hashed in chunks and never held whole.

A peak can move by about 2 MB with no change to the code it runs.  The
same files of one tree, run from two directories, peaked at 34.4 and 36.6 MB
on ``tuple --offsets 0,2,2000006 --n 300000 --p 3000000`` (``ru_maxrss``,
two runs each), while ``singular --form C2 --p 100000000`` and ``pnt --n
10000000`` moved by 0.2 MB at most; later runs of the same pairs all read
34.3-34.5 MB.  So compare two copies made the same way, at paths of equal
length, and run an argv whose peak rises that far again before reading it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

TIMEOUT = 600.0


def read_argvs(path: Path) -> list[list[str]]:
    argvs = []
    for line in path.read_text(encoding="utf-8").splitlines():
        argv = shlex.split(line, comments=True)
        if argv[:1] == ["ramabel"]:
            argv = argv[1:]
        if argv:
            argvs.append(argv)
    return argvs


def sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with path.open("rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def run(tree: Path, argv: list[str]) -> tuple[dict, float, float]:
    """What one fresh process of ``tree`` leaves for ``argv``, with its
    temporary directory written as {tmp}, or its timeout; its wall time;
    and its peak RSS in MB."""
    env = {k: v for k, v in os.environ.items() if k != "RAMABEL_CACHE_DIR"}
    env["PYTHONPATH"] = str(tree / "src")
    with (tempfile.TemporaryDirectory(prefix="compare_argvs_") as tmp,
          tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err):
        full = ["--out", f"{tmp}/out"] + [a.replace("{tmp}", tmp) for a in argv]
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "ramabel.cli", *full],
                                env=env, stdout=out, stderr=err)
        killed = threading.Event()
        timer = threading.Timer(TIMEOUT, lambda: (killed.set(), proc.kill()))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall, peak = time.perf_counter() - start, usage.ru_maxrss / 1024
        proc.returncode = os.waitstatus_to_exitcode(status)
        if killed.is_set():
            return {"exit": "timeout"}, wall, peak
        result = {"exit": proc.returncode}
        for name, f in (("stdout", out), ("stderr", err)):
            f.seek(0)
            result[name] = f.read().decode(errors="replace").replace(tmp, "{tmp}")
        for path in sorted(Path(tmp).rglob("*")):
            if not path.is_file():
                continue
            name = str(path.relative_to(tmp))
            if name.endswith("_manifest.json"):
                manifest = json.loads(path.read_text(encoding="utf-8").replace(tmp, "{tmp}"))
                manifest.pop("duration_s", None)
                result[name] = manifest
            else:
                result[name] = sha256(path)
    return result, wall, peak


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("tree_a", type=Path)
    ap.add_argument("tree_b", type=Path)
    ap.add_argument("argv_file", type=Path)
    args = ap.parse_args(argv)
    trees = (args.tree_a.resolve(), args.tree_b.resolve())
    walls = [0.0, 0.0]
    differ = 0
    rise = fall = None  # the largest (peak B - peak A, argv) and (peak A - peak B, argv)
    argvs = read_argvs(args.argv_file)
    for i, cmd in enumerate(argvs):
        results, peaks = [None, None], [0.0, 0.0]
        for side in ((0, 1) if i % 2 == 0 else (1, 0)):
            results[side], wall, peaks[side] = run(trees[side], cmd)
            walls[side] += wall
        a, b = results
        fields = [k for k in sorted(a.keys() | b.keys()) if a.get(k) != b.get(k)]
        differ += bool(fields)
        status = "DIFF " + ", ".join(fields) if fields else f"same (exit {a['exit']})"
        print(f"{status} [peak A {peaks[0]:.1f} MB, B {peaks[1]:.1f} MB]: {shlex.join(cmd)}")
        for k in fields:
            print(f"  A {k}: {a.get(k)!r}\n  B {k}: {b.get(k)!r}")
        if rise is None or peaks[1] - peaks[0] > rise[0]:
            rise = (peaks[1] - peaks[0], cmd)
        if fall is None or peaks[0] - peaks[1] > fall[0]:
            fall = (peaks[0] - peaks[1], cmd)
    summary = f"{len(argvs)} argvs, {differ} differ; wall A {walls[0]:.2f} s, B {walls[1]:.2f} s"
    if rise:
        summary += (f"; largest peak rise B - A {rise[0]:+.1f} MB: {shlex.join(rise[1])}"
                    f"; largest peak fall A - B {fall[0]:+.1f} MB: {shlex.join(fall[1])}")
    print(summary)
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
