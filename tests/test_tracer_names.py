"""The benchmark's tracer finds its layers by patching names in ramabel.

A renamed kernel or table function would leave its span empty and zero the
per-layer metrics without any error, so each correlation command, which
builds no table, the `sieve` command, a cache save then checksum of the
full tables and every command kind of the `constants` workload are run
under perfbench/tracer.py and their spans are checked by name.  An Euler
product records one primes span per window of primes.  A renamed argument
that a span's count reads fails the traced command.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ramabel.rf_series import required_Q

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def trace_spans(tmp_path, *argv):
    """Run ``ramabel argv`` under the tracer; its spans, in call order."""
    spans_path = tmp_path / "spans.json"
    env = {k: v for k, v in os.environ.items() if k != "RAMABEL_CACHE_DIR"}
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(TRACER), str(spans_path), str(time.monotonic()),
         "--out", str(tmp_path), *argv],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(spans_path.read_text())["spans"]


def trace(tmp_path, *argv):
    """Run ``ramabel argv`` under the tracer; the set of span names."""
    return {span["name"] for span in trace_spans(tmp_path, *argv)}


@pytest.mark.parametrize(
    "argv, kernels",
    [
        (["autocorr", "--gap", "2", "--n", "500", "--p", "1000"],
         ["pair_autocorrelation"]),
        (["autocorr", "--gap", "3", "--n", "500"],
         ["pair_autocorrelation", "odd_gap_mean"]),
        (["conjd", "--a", "3", "--b", "4", "--l", "1", "--n", "500", "--p", "1000"],
         ["conjecture_d_mean"]),
        (["tuple", "--offsets", "0,2,6", "--n", "500", "--p", "1000"],
         ["tuple_mean"]),
        (["pnt", "--n", "500"], ["pnt_mean"]),
    ],
    ids=["autocorr-even", "autocorr-odd", "conjd", "tuple", "pnt"],
)
def test_tracer_records_kernel_spans(tmp_path, argv, kernels):
    # The correlation means sieve their own primes and build no table, so
    # their sieving counts inside the kernel span.
    names = trace(tmp_path, *argv)
    for kernel in kernels:
        assert f"mean_values.{kernel}" in names, names
    assert "sieve.build_sieve" not in names, names


# `sieve` streams its dump to a file, a temporary one with no cache, and
# never builds or loads the tables; a warm cache file is only checksummed.
def test_tracer_records_sieve_checksum(tmp_path):
    names = trace(tmp_path, "sieve", "--n", "500")
    assert "sieve.save_tables" in names, names
    assert not {"sieve.load_tables", "sieve.build_sieve"} & names, names


def test_tracer_records_full_cache_save_then_load(tmp_path):
    argv = ("sieve", "--n", "500", "--cache", str(tmp_path / "tables.bin"))
    first = trace(tmp_path, *argv)
    assert "sieve.save_tables" in first, first
    assert not {"sieve.load_tables", "sieve.build_sieve"} & first, first
    second = trace(tmp_path, *argv)
    assert "sieve.table_checksum" in second, second
    assert not {"sieve.save_tables", "sieve.build_sieve"} & second, second


def test_tracer_records_euler_product_primes(tmp_path):
    names = trace(tmp_path, "singular", "--form", "C2", "--p", "1000")
    assert {"singular.twin_constant", "sieve.primes_up_to"} <= names, names


def test_tracer_records_one_primes_span_per_window(tmp_path):
    # P = 5 * 10^6 spans three windows of 2^21 integers; their prime counts
    # add up to pi(5 * 10^6), the product's factors.
    spans = trace_spans(tmp_path, "singular", "--form", "C2", "--p", "5000000")
    (twin,) = [i for i, s in enumerate(spans) if s["name"] == "singular.twin_constant"]
    windows = [s for s in spans if s["name"] == "sieve.primes_up_to"]
    assert len(windows) == 3 and all(s["parent"] == twin for s in windows), spans
    assert sum(s["count"] for s in windows) == 348_513


# Each command kind of the `constants` workload at smoke size: the span it
# is named by, and the span whose counts add up to its work.  The
# tuple constant's primes include the two primes <= 3 of its admissibility
# check.  The q-sums of series_wk and abel stream the table segments, and
# csum, polymean and goldbach factor their q: only props builds a table.
@pytest.mark.parametrize(
    "argv, named, counted, count",
    [
        (["singular", "--form", "C2", "--p", "1000"],
         "singular.twin_constant", "sieve.primes_up_to", 168),
        (["singular", "--form", "pair", "--params", "6", "--p", "1000"],
         "singular.pair_constant", "sieve.primes_up_to", 168),
        (["singular", "--form", "conjD", "--params", "1,2,1", "--p", "1000"],
         "singular.conjecture_d_constant", "sieve.primes_up_to", 168),
        (["singular", "--form", "tuple", "--params", "0,2,6", "--p", "1000"],
         "singular.tuple_constant", "sieve.primes_up_to", 170),
        (["singular", "--form", "series", "--params", "6", "--p", "1000"],
         "singular.series_constant", "sieve.primes_up_to", 168),
        (["singular", "--form", "series_wk", "--params", "6", "--p", "1000"],
         "singular.series_wk", "sieve.build_sieve", 0),
        (["abel", "--x", "6"], "rf_series.abel_ladder", "rf_series.abel_ladder",
         sum(required_Q(z, 1e-8) for z in (0.9, 0.99, 0.999))),
        (["props", "--qmax", "10", "--nmax", "50"],
         "ramanujan.check_property_catalog", "ramanujan.check_property_catalog", 16),
        (["polymean", "--q", "5", "--poly=1,0,1", "--n", "100"],
         "mean_values.polynomial_cq_mean", "mean_values.polynomial_cq_mean", 5),
        (["goldbach", "--n", "3", "--q1", "2", "--q2", "2"],
         "mean_values.goldbach_correlation", "mean_values.goldbach_correlation", 6),
        (["csum", "--q", "6", "--n", "3"], "cli.main", "sieve.build_sieve", 0),
    ],
    ids=["C2", "pair", "conjD", "tuple", "series", "series_wk", "abel", "props",
         "polymean", "goldbach", "csum"],
)
def test_tracer_records_constants_deck_spans(tmp_path, argv, named, counted, count):
    spans = trace_spans(tmp_path, *argv)
    assert [s["name"] for s in spans].count(named) == 1, spans
    assert sum(s["count"] for s in spans if s["name"] == counted) == count, spans
    builds = [s for s in spans if s["name"] == "sieve.build_sieve"]
    assert len(builds) == (argv[0] == "props"), spans
