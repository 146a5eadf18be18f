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
streams the dump to the cache file, or with no cache into a temporary
directory in --out that it removes, and it checksums a cached dump in one
checked pass.
At 10^7 a process peaks at about 45 MB cold or with no cache and 34 MB warm.

Options must be spelled in full: an abbreviated option, like a malformed
comma list (--offsets, --poly, --params, --zs), is an argparse usage error
(exit 2).

Exit codes: 0 success, 1 check failure (props), 2 usage, argument or
resource error (memory budget, I/O, an array allocation that failed).
"""

from __future__ import annotations

import argparse
import functools
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
# The namespace entries every command has, left out of a manifest's params.
GLOBAL_OPTIONS = ("out", "cache_dir", "threads", "command")
# form -> (values in --params, constant at (params, --p)); series_wk's --p is its
# q-sum truncation.  Each kernel is looked up in singular when it is called.
SINGULAR_FORMS = {
    "C2": (0, lambda params, P: singular.twin_constant(P)),
    "pair": (1, lambda params, P: singular.pair_constant(params[0], P)),
    "conjD": (3, lambda params, P: singular.conjecture_d_constant(*params, P)),
    "tuple": (1, lambda params, P: singular.tuple_constant(params, P)),
    "series": (1, lambda params, P: singular.series_constant(params[0], P)),
    "series_wk": (1, lambda params, P: singular.series_wk(params[0], P)),
}


def _mean_rows(*reports: mean_values.MeanValueReport) -> list[list]:
    """The REPORT_HEADER rows of each report in turn, one per checkpoint."""
    return [[r.label, n, mean, r.predicted, abs(mean - r.predicted)]
            for r in reports for n, mean in r.trace]


def _write_csv(path: Path, header: list[str], rows: list[list]) -> str:
    import csv  # here, as hashlib is: a command loads it only to write its report
    import io
    text = io.StringIO()
    csv.writer(text, lineterminator="\n").writerows(
        [header] + [[f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows])
    data = text.getvalue().encode("utf-8")
    path.write_bytes(data)
    import hashlib  # here, not at start-up: OpenSSL adds 3.6 MB to a process
    return hashlib.sha256(data).hexdigest()


def _write_manifest(path: Path, argv: list[str], args: argparse.Namespace,
                    bound: int | None, checksum: str, duration: float) -> None:
    import shlex  # here, as json is: only the manifest quotes the argv
    manifest = {
        "command_line": "ramabel " + shlex.join(argv),
        "command": args.command,
        "version": __version__,
        "sieve_bound": bound,
        "params": {k: v for k, v in vars(args).items() if k not in GLOBAL_OPTIONS},
        "duration_s": duration,
        "output_sha256": checksum,
    }
    import json  # here too: the manifest is the last file written
    path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")


def _get_checksum(bound: int, cache_dir: str | None, path: str | None, scratch: Path) -> str:
    """The SHA-256 of the dump of the full tables for 1..bound, for ``sieve``,
    through one table cache file if there is one.  No other command reads or
    writes a cache file: ``props`` alone calls ``build_sieve`` (a build costs
    about a load at its bounds, and no damaged file reaches a result), csum,
    polymean and goldbach factor q, ``abel`` and ``series_wk`` stream the
    table segments, and the correlation commands sieve their own primes.

    The file is ``path`` if given, else ``<cache_dir>/tables_N{bound}_v3.bin``:
    the suffix is the dump format version, so older formats are never opened.
    An existing file is checksummed in one checked pass and must hold
    ``bound``; a dump of the wrong length or failing its crc32 check is
    rebuilt and replaced with a warning.  A missing file is streamed to disk
    by ``save_tables``.  With no file, the dump goes to a temporary directory
    in ``scratch`` that is removed before this returns.  The tables are never
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
        return save_tables(bound, path)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        return save_tables(bound, os.path.join(tmp, "tables.bin"))


def _comma_list(kind: type, what: str, text: str) -> list:
    try:
        return [kind(t) for t in text.split(",") if t.strip() != ""]
    except ValueError:  # a plain usage error, not argparse's "invalid <type name> value"
        raise argparse.ArgumentTypeError(f"expected comma-separated {what}, got {text!r}") from None


_ints = functools.partial(_comma_list, int, "integers")
_floats = functools.partial(_comma_list, float, "numbers")


def build_parser() -> argparse.ArgumentParser:
    """The parser.  Every default or choice a kernel also has is its module's:
    --p from singular, --zs and --eps from rf_series, --weights from mean_values."""
    ap = argparse.ArgumentParser(prog="ramabel", description=__doc__, allow_abbrev=False)
    ap.add_argument("--out", default=".", help="output directory for CSV/manifest")
    ap.add_argument("--cache-dir", default=os.environ.get(CACHE_ENV),
                    help=f"cache directory for the full tables of sieve (default: ${CACHE_ENV})")
    ap.add_argument("--threads", type=int, default=1,
                    help="accepted for compatibility; has no effect")
    sub = ap.add_subparsers(dest="command", required=True)
    # add_parser does not pass allow_abbrev down to the subparsers.
    command = functools.partial(sub.add_parser, allow_abbrev=False)

    p = command("sieve", help="write or check the full-table dump, print its SHA-256")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--cache", help="explicit table file to write/read, crc32-checked")

    p = command("csum", help="print one Ramanujan sum c_q(n)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = command("autocorr", help="shifted autocorrelation mean at a gap")
    p.add_argument("--gap", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--weights", choices=mean_values.WEIGHTS, default=mean_values.DEFAULT_WEIGHT)
    p.add_argument("--p", type=int, default=singular.DEFAULT_TRUNCATION,
                   help="constant truncation prime")

    p = command("conjd", help="divisibility-restricted pair mean")
    p.add_argument("--a", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=singular.DEFAULT_TRUNCATION)

    p = command("tuple", help="offset-tuple correlation mean")
    p.add_argument("--offsets", type=_ints, required=True, help="comma list, e.g. 0,2,6")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=int, default=singular.DEFAULT_TRUNCATION)

    p = command("pnt", help="mean of the weighted von Mangoldt function")
    p.add_argument("--n", type=int, required=True)

    p = command("polymean", help="mean of c_q over a polynomial argument")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--poly", type=_ints, required=True,
                   help="comma coefficients, constant term first (1,0,1 = 1 + n^2)")
    p.add_argument("--n", type=int, required=True)

    p = command("goldbach", help="exact finite Goldbach correlation sum")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--q1", type=int, required=True)
    p.add_argument("--q2", type=int, required=True)

    p = command("singular", help="Hardy-Littlewood constants")
    p.add_argument("--form", required=True, choices=SINGULAR_FORMS)
    p.add_argument("--params", type=_ints, default="", help="comma integers for the chosen form")
    p.add_argument("--p", type=int, default=singular.DEFAULT_TRUNCATION, help="truncation bound")

    p = command("abel", help="power-series ladder toward z = 1")
    p.add_argument("--x", type=int, required=True)
    p.add_argument("--zs", type=_floats, default=list(rf_series.DEFAULT_Z_LADDER))
    p.add_argument("--eps", type=float, default=rf_series.DEFAULT_LADDER_EPSILON)

    p = command("props", help="run the Ramanujan-sum identity catalog")
    p.add_argument("--qmax", type=int, default=50)
    p.add_argument("--nmax", type=int, default=200)
    return ap


def main(argv: list[str] | None = None) -> int:
    argv = list(argv) if argv is not None else sys.argv[1:]
    args = build_parser().parse_args(argv)
    out = Path(args.out)
    start = time.monotonic()
    try:
        out.mkdir(parents=True, exist_ok=True)
        bound, header, rows, summary, *code = _run(args, out)
        checksum = _write_csv(out / f"{args.command}.csv", header, rows)
        _write_manifest(out / f"{args.command}_manifest.json", argv, args, bound,
                        checksum, time.monotonic() - start)
        print(summary)
    except (ValueError, ResourceLimitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code[0] if code else 0


def _run(args: argparse.Namespace, out: Path) -> tuple:
    """One command's report: (sieve bound, CSV header, rows, summary[, exit code])."""
    cmd = args.command
    if cmd == "sieve":
        digest = _get_checksum(args.n, args.cache_dir, args.cache, out)
        return (args.n, ["bound", "checksum"], [[args.n, digest]],
                f"sieve N={args.n} checksum={digest}")

    if cmd == "csum":
        value = ramanujan.cq_int(args.q, args.n)
        return (max(abs(args.q), 1), ["q", "n", "value"], [[args.q, args.n, value]],
                f"c_{args.q}({args.n}) = {value}")

    if cmd in ("autocorr", "conjd", "pnt"):
        if cmd == "autocorr":
            report = mean_values.pair_autocorrelation(args.gap, args.n, P=args.p,
                                                      weight=args.weights)
            bound = args.n + args.gap
        elif cmd == "conjd":
            # The kernel checks (a, b, l) first, so a = 0 never reaches the bound.
            report = mean_values.conjecture_d_mean(args.a, args.b, args.l, args.n, P=args.p)
            bound = max(args.n, (args.b * args.n + args.l) // args.a) + 1
        else:
            report, bound = mean_values.pnt_mean(args.n), args.n
        return (bound, REPORT_HEADER, _mean_rows(report),
                f"{report.label}: empirical={report.empirical:.12g} "
                f"predicted={report.predicted:.12g}")

    if cmd == "tuple":
        lam, lam1 = mean_values.tuple_mean(args.offsets, args.n, P=args.p)
        offsets = tuple(args.offsets)
        return (args.n + offsets[-1], REPORT_HEADER, _mean_rows(lam, lam1),
                f"tuple {offsets}: lambda={lam.empirical:.12g} "
                f"lambda1={lam1.empirical:.12g} predicted={lam1.predicted:.12g}")

    if cmd == "polymean":
        report = mean_values.polynomial_cq_mean(args.q, args.poly, args.n)
        return (args.q, REPORT_HEADER, _mean_rows(report),
                f"{report.label}: empirical={report.empirical:.12g} "
                f"exact={report.exact_mean}")

    if cmd == "goldbach":
        value = mean_values.goldbach_correlation(args.n, args.q1, args.q2)
        return (max(args.q1, args.q2), ["N", "q1", "q2", "value"],
                [[args.n, args.q1, args.q2, value]],
                f"goldbach_correlation(N={args.n}, q1={args.q1}, q2={args.q2}) = {value}")

    if cmd == "singular":
        params, form = args.params, args.form
        arity, constant = SINGULAR_FORMS[form]
        # A tuple takes this many values or more; the other forms exactly this many.
        if len(params) < arity or (form != "tuple" and len(params) > arity):
            raise ValueError(f"form {form} needs {arity} value(s) in --params, got {params}")
        const = constant(params, args.p)
        return (None, ["form", "value", "truncation", "tail_estimate"],
                [[const.form, const.value, args.p, const.tail_estimate]],
                f"{const.form} = {const.value:.12g} (tail <= {const.tail_estimate:.3g})")

    if cmd == "abel":
        trace = rf_series.abel_ladder(args.x, tuple(args.zs), args.eps)
        rows = [[float(args.x), z, q, v, trace.target, abs(v - trace.target)]
                for z, q, v in trace.ladder]
        grows = "; at n = 1 the series sum mu(q)^2/phi(q) z^q grows like log 1/(1 - z)"
        return (max(args.x, *(q for _, q, _ in trace.ladder)),
                ["x", "z", "Q", "value", "target", "gap"], rows,
                f"abel ladder at n={args.x}: target={trace.target}{grows if args.x == 1 else ''}")

    # props
    report = ramanujan.check_property_catalog(
        build_sieve(max(args.qmax, 1)), args.qmax, args.nmax
    )
    failures = sum(1 for c in report.checks if not c.passed)
    return (args.qmax, ["property", "status", "witness", "note"],
            [[c.name, "pass" if c.passed else "FAIL", c.witness, c.note] for c in report.checks],
            f"property catalog q<={args.qmax}, n<={args.nmax}: "
            f"{len(report.checks) - failures}/{len(report.checks)} passed",
            0 if failures == 0 else 1)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
