"""Arithmetic of the benchmark: percentiles, error rate and span self times.

Kept apart from run.py so that the tests can check it without running
a single command.
"""

from __future__ import annotations

import math
from collections import defaultdict

MIN_BEYOND = 10  # samples a reported tail percentile must have above it


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile with at least MIN_BEYOND samples above it.

    Uses the nearest-rank definition: percentile p is the sample of rank
    ceil(p n / 100).  With MIN_BEYOND samples or fewer no percentile
    qualifies, and the maximum is returned as percentile 100.
    """
    n = len(samples)
    if n == 0:
        raise ValueError("no samples")
    ordered = sorted(samples)
    if n <= MIN_BEYOND:
        return 100, ordered[-1]
    p = (100 * (n - MIN_BEYOND)) // n
    rank = max(1, math.ceil(p * n / 100))
    return p, ordered[rank - 1]


def error_rate(attempted: int, failed: int) -> float:
    """Failed over attempted measured commands.

    The base counts only commands of the measured loop: set-up, warm-up
    and cache priming are checked too, but a failure there makes the whole
    run incorrect instead of adding to this rate.
    """
    if attempted < 1:
        raise ValueError("no command attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted


def union_length(intervals: list[tuple[float, float]]) -> float:
    """Total length covered by a set of possibly overlapping intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(start: float, end: float, children: list[tuple[float, float]]) -> float:
    """A span's duration minus the part of it that its children cover."""
    clipped = [(max(lo, start), min(hi, end)) for lo, hi in children]
    return (end - start) - union_length([(lo, hi) for lo, hi in clipped if hi > lo])


def span_self_times(spans: list[dict]) -> list[float]:
    """Self time of each span of one process; spans name their parent's index."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    return [self_time(s["start"], s["end"], children[i]) for i, s in enumerate(spans)]


MEAN_VALUE_FNS = (
    "pnt_mean", "pair_autocorrelation", "odd_gap_mean", "tuple_mean",
    "conjecture_d_mean", "polynomial_cq_mean", "goldbach_correlation",
)
SINGULAR_FNS = (
    "twin_constant", "pair_constant", "conjecture_d_constant",
    "tuple_constant", "series_constant", "series_wk",
)
BUSY_SPANS = (
    ["sieve.build_sieve", "sieve.save_tables", "sieve.load_tables",
     "sieve.table_checksum", "sieve.primes_up_to"]
    + [f"mean_values.{f}" for f in MEAN_VALUE_FNS]
    + [f"singular.{f}" for f in SINGULAR_FNS]
    + ["ramanujan.check_property_catalog", "rf_series.abel_ladder"]
)


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    """num / den * scale, or 0 where the base is empty (layer not run)."""
    return num / den * scale if den else 0.0


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def layer_metrics(commands: list[dict]) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics of a traced run, and each layer's total self time.

    Each command is a dict with `wall` (spawn to exit, seconds), `key`
    (argv without thread count and paths), `threads` and `trace`, which
    is what tracer.py wrote.  Busy times are self times summed over the
    run; a metric whose base is empty reads 0.
    """
    busy: dict[str, float] = defaultdict(float)
    count: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    layers: dict[str, float] = defaultdict(float)
    rss_growth_kb = 0
    summands = euler_factors = 0
    mv_by_threads: dict[tuple[str, int], float] = defaultdict(float)

    for cmd in commands:
        spans = cmd["trace"]["spans"]
        selfs = span_self_times(spans)
        layers["cli"] += cmd["trace"]["startup_s"]
        mv_self = 0.0
        for s, own in zip(spans, selfs):
            name = s["name"]
            busy[name] += own
            calls[name] += 1
            layers[_layer(name)] += own
            parent = spans[s["parent"]]["name"] if s["parent"] >= 0 else ""
            if name == "sieve.build_sieve":
                rss_growth_kb = max(rss_growth_kb, s["rss_growth_kb"])
            if _layer(name) == "mean_values":
                mv_self += own
                if _layer(parent) != "mean_values":
                    summands += s.get("count", 0)
            if name == "sieve.primes_up_to" and _has_ancestor(spans, s, "singular"):
                euler_factors += s["count"]
            count[name] += s.get("count", 0)
        if cmd["threads"] is not None:
            mv_by_threads[(cmd["key"], cmd["threads"])] += mv_self

    paired = {k for k, t in mv_by_threads if t == 1} & {k for k, t in mv_by_threads if t == 2}
    t1 = sum(mv_by_threads[(k, 1)] for k in paired)
    t2 = sum(mv_by_threads[(k, 2)] for k in paired)
    mv_busy = sum(busy[f"mean_values.{f}"] for f in MEAN_VALUE_FNS)
    hits, misses = calls["sieve.load_tables"], calls["sieve.save_tables"]

    m: dict[str, float] = {f"{name}.s": busy[name] for name in BUSY_SPANS}
    m.update({
        "sieve.build_sieve.entries": count["sieve.build_sieve"],
        "sieve.build_sieve.ns_per_entry": _ratio(
            busy["sieve.build_sieve"], count["sieve.build_sieve"], 1e9),
        "sieve.build_sieve.rss_growth_mb": rss_growth_kb / 1024,
        "sieve.save_tables.mb": count["sieve.save_tables"] / 1e6,
        "sieve.load_tables.mb_per_s": _ratio(
            count["sieve.load_tables"] / 1e6, busy["sieve.load_tables"]),
        "sieve.primes_up_to.count": count["sieve.primes_up_to"],
        "mean_values.summands": summands,
        "mean_values.ns_per_summand": _ratio(mv_busy, summands, 1e9),
        "mean_values.threads1_s": t1,
        "mean_values.threads2_s": t2,
        "mean_values.threads2_over_threads1": _ratio(t2, t1),
        "singular.euler_factors": euler_factors,
        "ramanujan.checks": count["ramanujan.check_property_catalog"],
        "rf_series.terms": count["rf_series.abel_ladder"],
        "cli.startup_s": sum(c["trace"]["startup_s"] for c in commands),
        "cli.self_s": busy["cli.main"],
        "cli.table_cache.hits": hits,
        "cli.table_cache.misses": misses,
        "cli.table_cache.hit_ratio": _ratio(hits, hits + misses),
    })
    return m, dict(layers)


def _has_ancestor(spans: list[dict], span: dict, layer: str) -> bool:
    i = span["parent"]
    while i >= 0:
        if _layer(spans[i]["name"]) == layer:
            return True
        i = spans[i]["parent"]
    return False
