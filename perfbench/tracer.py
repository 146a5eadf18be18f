"""Run one ramabel command in-process, with a span around each call that
crosses a module boundary.

    python3 tracer.py SPANS_JSON SPAWN_MONOTONIC RAMABEL_ARGS...

SPAWN_MONOTONIC is the parent's time.monotonic() just before it spawned
this process; the system-wide monotonic clock makes the start-up time
(spawn to entry into cli.main) comparable across processes.  Spans stay in
memory and are written to SPANS_JSON when the command ends.  The exit code
is the command's.

Only entry points are wrapped, never a function called per element, and
each name is patched where it is looked up: cli imports the table
functions by name, singular imports primes_up_to by name, and cli calls the
kernels through their modules.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import resource
import sys
import time


def _maxrss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Recorder:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Replace module.attr by a spanned call; count(arguments, result)
        gives the span's work count."""
        fn = getattr(module, attr)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            span = {"name": name, "parent": self._stack[-1] if self._stack else -1}
            self._stack.append(len(self.spans))
            self.spans.append(span)
            rss0 = _maxrss_kb()
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.monotonic()
                self._stack.pop()
            span["rss_growth_kb"] = _maxrss_kb() - rss0
            if count is not None:
                span["count"] = count(signature.bind(*args, **kwargs).arguments, result)
            return result

        setattr(module, attr, spanned)


def install(rec: Recorder) -> None:
    from ramabel import cli, mean_values, ramanujan, rf_series, singular

    def arg(name, factor=1):
        return lambda a, r: factor * a[name]

    def file_size(name):
        return lambda a, r: os.path.getsize(a[name])

    rec.wrap(cli, "main", "cli.main")
    rec.wrap(cli, "build_sieve", "sieve.build_sieve", lambda a, r: a["N"] + 1)
    rec.wrap(cli, "save_tables", "sieve.save_tables", file_size("path"))
    rec.wrap(cli, "load_tables", "sieve.load_tables", file_size("path"))
    rec.wrap(cli, "table_checksum", "sieve.table_checksum")
    rec.wrap(singular, "primes_up_to", "sieve.primes_up_to", lambda a, r: len(r))

    # Summands reduced per call, from the arguments.
    summands = {
        "pnt_mean": arg("N"),
        "pair_autocorrelation": arg("N"),
        "odd_gap_mean": arg("N"),
        "conjecture_d_mean": arg("N"),
        "tuple_mean": arg("N", 2),            # raw and weighted products
        "goldbach_correlation": arg("N", 2),  # n = 1..2N
        "polynomial_cq_mean": arg("q"),       # one period
    }
    for fn, count in summands.items():
        rec.wrap(mean_values, fn, f"mean_values.{fn}", count)
    for fn in ("twin_constant", "pair_constant", "conjecture_d_constant",
               "tuple_constant", "series_constant", "series_wk"):
        rec.wrap(singular, fn, f"singular.{fn}")
    rec.wrap(ramanujan, "check_property_catalog", "ramanujan.check_property_catalog",
             lambda a, r: len(r.checks))
    rec.wrap(rf_series, "abel_ladder", "rf_series.abel_ladder",
             lambda a, r: sum(q for _, q, _ in r.ladder))


def main() -> None:
    spans_path, spawn, argv = sys.argv[1], float(sys.argv[2]), sys.argv[3:]
    from ramabel import cli

    rec = Recorder()
    install(rec)
    startup = time.monotonic() - spawn
    try:
        code = cli.main(argv)
    finally:
        with open(spans_path, "w", encoding="utf-8") as f:
            json.dump({"startup_s": startup, "spans": rec.spans}, f)
    sys.exit(code)


if __name__ == "__main__":
    main()
