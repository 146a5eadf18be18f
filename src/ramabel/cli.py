"""Command-line front end.

Every subcommand writes a CSV report (header row, 12 significant digits,
UTF-8, LF endings) plus a JSON manifest with the command line, library
version, sieve bound, parameters, wall-clock duration, and the CSV's
SHA-256.  Reruns with the same manifest parameters reproduce the CSV
byte for byte; only the duration field varies.  ``--threads`` is accepted
for compatibility with older command lines and has no effect: ramabel
starts no worker threads, and results do not depend on the flag.

``sieve`` prints the SHA-256 of the full-table dump for its bound, the same
with no cache, a cold cache or a warm one, and never holds the tables: it
streams the dump to the cache file, or with no cache to a temporary file in
--out that it removes, and it checksums a cached dump in one checked pass.
At 10^7 a process peaks at about 66 MB cold and 35 MB warm.

Exit codes: 0 success, 1 check failure (props), 2 usage, argument or
resource error (memory budget, I/O, an array allocation that failed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
import time
from pathlib import Path

from . import __version__, mean_values, ramanujan, rf_series, singular
from .errors import DamagedDumpError, ResourceLimitError
# load_tables is not called here: it keeps its name in cli for perfbench/tracer.py.
from .sieve import SieveTables, build_sieve, load_tables, save_tables, table_checksum

CACHE_ENV = "RAMABEL_CACHE_DIR"
REPORT_HEADER = ["label", "N", "mean", "predicted", "abs_gap"]
# The correlation commands: each reduces the prime powers up to its bound,
# so sieves only the primes (LambdaTables), and takes its N from --n.
LAMBDA_COMMANDS = ("pnt", "autocorr", "conjd", "tuple")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return "" if v is None else str(v)


def _field(v) -> str:
    s = _fmt(v)
    if "," in s or '"' in s:
        s = '"' + s.replace('"', '""') + '"'
    return s


def _write_csv(path: Path, header: list[str], rows: list[list]) -> str:
    text = "\n".join([",".join(header)] + [",".join(_field(v) for v in row) for row in rows])
    data = (text + "\n").encode("utf-8")
    path.write_bytes(data)
    return hashlib.sha256(data).hexdigest()


def _write_manifest(path: Path, args: argparse.Namespace, bound: int | None,
                    checksum: str, duration: float, params: dict) -> None:
    manifest = {
        "command_line": "ramabel " + " ".join(getattr(args, "effective_argv", [])),
        "command": args.command,
        "version": __version__,
        "sieve_bound": bound,
        "params": params,
        "duration_s": duration,
        "output_sha256": checksum,
    }
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _get_checksum(bound: int, cache_dir: str | None, path: str | None, scratch: Path) -> str:
    """The SHA-256 of the dump of the full tables for 1..bound, for ``sieve``,
    through one table cache file if there is one.  No other command reads or
    writes a cache file: the other full-table commands call ``build_sieve``
    (at their bounds a build costs about a load, and no damaged file reaches
    a result), and the correlation commands sieve their primes on every run.

    The file is ``path`` if given, else ``<cache_dir>/tables_N{bound}_v3.bin``:
    the suffix is the dump format version, so older formats are never opened.
    An existing file is checksummed in one checked pass and must hold
    ``bound``; a dump of the wrong length or failing its crc32 check is
    rebuilt and replaced with a warning.  A missing file is streamed to disk
    by ``save_tables``.  With no file, the dump goes to a temporary file in
    ``scratch`` that is removed before this returns.  The tables are never
    held in memory, and the checksum is the same in every case.
    """
    if path is None and cache_dir:
        path = str(Path(cache_dir) / f"tables_N{bound}_v{SieveTables.VERSION}.bin")
    if path and Path(path).exists():
        try:
            return table_checksum(path, bound)
        except DamagedDumpError as exc:
            print(f"warning: {exc}; rebuilding it", file=sys.stderr)
    if path:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        return save_tables(bound, path)
    fd, tmp = tempfile.mkstemp(prefix=f"tables_N{bound}_", suffix=".tmp", dir=scratch)
    os.close(fd)
    try:
        return save_tables(bound, tmp)
    finally:
        os.remove(tmp)


def _ints(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip() != ""]


def _floats(text: str) -> list[float]:
    return [float(t) for t in text.split(",") if t.strip() != ""]


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="ramabel", description=__doc__)
    ap.add_argument("--out", default=".", help="output directory for CSV/manifest")
    ap.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV),
                    help=f"cache directory for the full tables of sieve (default: ${CACHE_ENV})")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sieve", help="write or check the full-table dump, print its SHA-256")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cache", help="explicit table file to write/read, crc32-checked")

    p = sub.add_parser("csum", help="print one Ramanujan sum c_q(n)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("autocorr", help="shifted autocorrelation mean at a gap")
    p.add_argument("--gap", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", choices=("lambda", "lambda1"), default="lambda1")
    p.add_argument("--p", type=int, default=10**6, help="constant truncation prime")

    p = sub.add_parser("conjd", help="divisibility-restricted pair mean")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=10**6)

    p = sub.add_parser("tuple", help="offset-tuple correlation mean")
    p.add_argument("--offsets", required=True, help="comma list, e.g. 0,2,6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=10**6)

    p = sub.add_parser("pnt", help="mean of the weighted von Mangoldt function")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("polymean", help="mean of c_q over a polynomial argument")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--poly", required=True,
                   help="comma coefficients, constant term first (1,0,1 = 1 + n^2)")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("goldbach", help="exact finite Goldbach correlation sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)

    p = sub.add_parser("singular", help="Hardy-Littlewood constants")
    p.add_argument("--form", required=True,
                   choices=("C2", "pair", "conjD", "tuple", "series", "series_wk"))
    p.add_argument("--params", default="", help="comma integers for the chosen form")
    p.add_argument("--p", type=int, default=10**6, help="truncation bound")

    p = sub.add_parser("abel", help="power-series ladder toward z = 1")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--zs", default="0.9,0.99,0.999")
    p.add_argument("--eps", type=float, default=1e-8)

    p = sub.add_parser("props", help="run the Ramanujan-sum identity catalog")
    p.add_argument("--qmax", type=int, default=50)
    p.add_argument("--nmax", type=int, default=200)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    args.effective_argv = list(argv) if argv is not None else sys.argv[1:]
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    start = time.monotonic()
    try:
        return _dispatch(args, out, start)
    except (ValueError, ResourceLimitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _finish(args, out: Path, start: float, bound: int | None,
            header: list[str], rows: list[list], params: dict,
            summary: str, code: int = 0) -> int:
    checksum = _write_csv(out / f"{args.command}.csv", header, rows)
    _write_manifest(out / f"{args.command}_manifest.json", args, bound,
                    checksum, time.monotonic() - start, params)
    print(summary)
    return code


def _dispatch(args: argparse.Namespace, out: Path, start: float) -> int:
    cmd = args.command
    if cmd in LAMBDA_COMMANDS and args.n < 1:
        # Before a table bound is derived from N, so the error names N itself.
        raise ValueError(f"N must be >= 1, got N={args.n}")

    if cmd == "sieve":
        digest = _get_checksum(args.n, args.cache_dir, args.cache, out)
        return _finish(
            args, out, start, args.n,
            ["bound", "checksum"], [[args.n, digest]],
            {"n": args.n, "cache": args.cache},
            f"sieve N={args.n} checksum={digest}",
        )

    if cmd == "csum":
        bound = max(abs(args.q), 1)
        tables = build_sieve(bound)
        value = ramanujan.cq_int(tables, args.q, args.n)
        return _finish(
            args, out, start, bound,
            ["q", "n", "value"], [[args.q, args.n, value]],
            {"q": args.q, "n": args.n},
            f"c_{args.q}({args.n}) = {value}",
        )

    if cmd == "autocorr":
        bound = args.n + args.gap
        tables = build_sieve(bound, lambda_only=True)
        report = mean_values.pair_autocorrelation(
            tables, args.gap, args.n, P=args.p, weight=args.weights
        )
        return _finish(
            args, out, start, bound, REPORT_HEADER, report.csv_rows(),
            {"gap": args.gap, "n": args.n, "weights": args.weights, "p": args.p},
            f"{report.label}: empirical={report.empirical:.12g} "
            f"predicted={report.predicted:.12g}",
        )

    if cmd == "conjd":
        singular.validate_linear_pair(args.a, args.b, args.l)
        bound = max(args.n, (args.b * args.n + args.l) // args.a) + 1
        tables = build_sieve(bound, lambda_only=True)
        report = mean_values.conjecture_d_mean(
            tables, args.a, args.b, args.l, args.n, P=args.p
        )
        return _finish(
            args, out, start, bound, REPORT_HEADER, report.csv_rows(),
            {"a": args.a, "b": args.b, "l": args.l, "n": args.n, "p": args.p},
            f"{report.label}: empirical={report.empirical:.12g} "
            f"predicted={report.predicted:.12g}",
        )

    if cmd == "tuple":
        offsets = singular.validate_tuple(_ints(args.offsets))
        bound = args.n + offsets[-1]
        tables = build_sieve(bound, lambda_only=True)
        result = mean_values.tuple_mean(tables, offsets, args.n, P=args.p)
        rows = result.lambda_weighted.csv_rows() + result.lambda1_weighted.csv_rows()
        return _finish(
            args, out, start, bound, REPORT_HEADER, rows,
            {"offsets": list(offsets), "n": args.n, "p": args.p},
            f"tuple {offsets}: lambda={result.lambda_weighted.empirical:.12g} "
            f"lambda1={result.lambda1_weighted.empirical:.12g} "
            f"predicted={result.lambda1_weighted.predicted:.12g}",
        )

    if cmd == "pnt":
        tables = build_sieve(args.n, lambda_only=True)
        report = mean_values.pnt_mean(tables, args.n)
        return _finish(
            args, out, start, args.n, REPORT_HEADER, report.csv_rows(), {"n": args.n},
            f"pnt_mean: empirical={report.empirical:.12g} predicted=1",
        )

    if cmd == "polymean":
        tables = build_sieve(max(args.q, 1))
        report = mean_values.polynomial_cq_mean(tables, args.q, _ints(args.poly), args.n)
        return _finish(
            args, out, start, args.q, REPORT_HEADER, report.csv_rows(),
            {"q": args.q, "poly": _ints(args.poly), "n": args.n},
            f"{report.label}: empirical={report.empirical:.12g} "
            f"exact={report.exact_mean}",
        )

    if cmd == "goldbach":
        bound = max(args.q1, args.q2)
        tables = build_sieve(bound)
        value = mean_values.goldbach_correlation(tables, args.n, args.q1, args.q2)
        return _finish(
            args, out, start, bound,
            ["N", "q1", "q2", "value"], [[args.n, args.q1, args.q2, value]],
            {"n": args.n, "q1": args.q1, "q2": args.q2},
            f"goldbach_correlation(N={args.n}, q1={args.q1}, q2={args.q2}) = {value}",
        )

    if cmd == "singular":
        params = _ints(args.params)
        form = args.form
        needed = {"C2": 0, "pair": 1, "conjD": 3, "tuple": 2, "series": 1, "series_wk": 1}
        if len(params) < needed[form]:
            raise ValueError(
                f"form {form} needs {needed[form]} value(s) in --params, got {params}"
            )
        if form == "C2":
            const = singular.twin_constant(args.p)
        elif form == "pair":
            const = singular.pair_constant(params[0], args.p)
        elif form == "conjD":
            const = singular.conjecture_d_constant(*params[:3], args.p)
        elif form == "tuple":
            const = singular.tuple_constant(params, args.p)
        elif form == "series":
            const = singular.series_constant(params[0], args.p)
        else:  # series_wk: --p doubles as the q-sum truncation
            tables = build_sieve(args.p)
            const = singular.series_wk(tables, params[0], args.p)
        row = [const.form, const.value, const.truncation_prime, const.tail_estimate]
        return _finish(
            args, out, start, None,
            ["form", "value", "truncation", "tail_estimate"], [row],
            {"form": form, "params": params, "p": args.p},
            f"{const.form} = {const.value:.12g} (tail <= {const.tail_estimate:.3g})",
        )

    if cmd == "abel":
        zs = _floats(args.zs)
        max_q = max(rf_series.required_Q(z, args.eps) for z in zs)
        bound = max(args.x, max_q)
        tables = build_sieve(bound)
        trace = rf_series.abel_ladder(tables, args.x, tuple(zs), args.eps)
        rows = [
            [trace.x, z, q, v, trace.target,
             None if trace.target is None else abs(v - trace.target)]
            for z, q, v in trace.ladder
        ]
        return _finish(
            args, out, start, bound,
            ["x", "z", "Q", "value", "target", "gap"], rows,
            {"x": args.x, "zs": zs, "eps": args.eps},
            f"abel ladder at n={args.x}: target={trace.target}",
        )

    if cmd == "props":
        tables = build_sieve(args.qmax)
        report = ramanujan.check_property_catalog(tables, args.qmax, args.nmax)
        rows = [list(r) for r in report.rows()]
        failures = sum(1 for c in report.checks if not c.passed)
        summary = (
            f"property catalog q<={args.qmax}, n<={args.nmax}: "
            f"{len(report.checks) - failures}/{len(report.checks)} passed"
        )
        return _finish(
            args, out, start, args.qmax,
            ["property", "status", "witness", "note"], rows,
            {"qmax": args.qmax, "nmax": args.nmax},
            summary, code=0 if failures == 0 else 1,
        )

    raise ValueError(f"unknown command {cmd}")


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
