"""Tests of the benchmark's own arithmetic and input generation.

Run with:  python3 -m pytest perfbench/tests
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import stats  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_union_of_children():
    # (1, 3) and (2, 5) overlap: together they cover 4 s, plus 1 s of (7, 8).
    assert stats.self_time(0.0, 10.0, [(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)]) == pytest.approx(5.0)


def test_self_time_clips_children_to_the_span():
    assert stats.self_time(0.0, 10.0, [(9.0, 12.0), (-3.0, 1.0)]) == pytest.approx(8.0)
    assert stats.self_time(0.0, 10.0, [(11.0, 12.0)]) == pytest.approx(10.0)


def test_self_time_without_children_is_the_duration():
    assert stats.self_time(2.0, 5.5, []) == pytest.approx(3.5)


def test_span_self_times_nested():
    spans = [
        {"name": "cli.main", "parent": -1, "start": 0.0, "end": 10.0},
        {"name": "mean_values.pnt_mean", "parent": 0, "start": 1.0, "end": 4.0},
        {"name": "singular.twin_constant", "parent": 1, "start": 2.0, "end": 3.0},
        {"name": "sieve.build_sieve", "parent": 0, "start": 5.0, "end": 9.0},
    ]
    assert stats.span_self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_union_length():
    assert stats.union_length([]) == 0.0
    assert stats.union_length([(0, 1), (0.5, 2), (3, 4), (3.5, 3.75)]) == pytest.approx(3.0)


@pytest.mark.parametrize("n", [1, 5, 10])
def test_tail_percentile_falls_back_to_the_maximum(n):
    samples = [float(i) for i in range(n)]
    assert stats.tail_percentile(samples) == (100, float(n - 1))


def test_tail_percentile_at_100_samples_is_p90():
    samples = [float(i) for i in range(1, 101)]
    assert stats.tail_percentile(samples) == (90, 90.0)


@pytest.mark.parametrize("n", list(range(11, 260, 7)) + [11, 12, 20, 33, 52, 1000])
def test_tail_percentile_is_the_highest_with_ten_beyond(n):
    samples = [float(i) for i in range(n)]
    p, value = stats.tail_percentile(samples[::-1])
    assert sum(s > value for s in samples) >= stats.MIN_BEYOND
    next_rank = math.ceil((p + 1) * n / 100)
    assert n - next_rank < stats.MIN_BEYOND


def test_tail_percentile_rejects_no_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile([])


def test_error_rate_base_is_attempted():
    assert stats.error_rate(7, 0) == 0.0
    assert stats.error_rate(8, 2) == 0.25
    with pytest.raises(ValueError):
        stats.error_rate(0, 0)
    with pytest.raises(ValueError):
        stats.error_rate(3, 4)


def _cmd(spans, key="k", threads=None, startup=0.2, wall=1.0):
    return {"wall": wall, "key": key, "threads": threads,
            "trace": {"startup_s": startup, "spans": spans}}


def _span(name, parent, start, end, **extra):
    return {"name": name, "parent": parent, "start": start, "end": end,
            "rss_growth_kb": 0, **extra}


def test_layer_metrics_counts_and_ratios():
    cold = _cmd([
        _span("cli.main", -1, 0.0, 0.7),
        _span("sieve.build_sieve", 0, 0.0, 0.4, count=1001, rss_growth_kb=2048),
        _span("sieve.save_tables", 0, 0.4, 0.5, count=2_000_000),
        _span("mean_values.pair_autocorrelation", 0, 0.5, 0.6, count=500),
        _span("mean_values.odd_gap_mean", 3, 0.52, 0.56, count=500),
    ])
    warm1 = _cmd([
        _span("cli.main", -1, 0.0, 0.4),
        _span("sieve.load_tables", 0, 0.0, 0.1, count=3_000_000),
        _span("mean_values.pnt_mean", 0, 0.1, 0.3, count=100),
        _span("singular.twin_constant", 2, 0.1, 0.15),
        _span("sieve.primes_up_to", 3, 0.1, 0.12, count=25),
    ], key="pnt", threads=1)
    warm2 = _cmd([
        _span("cli.main", -1, 0.0, 0.5),
        _span("sieve.load_tables", 0, 0.0, 0.1, count=3_000_000),
        _span("mean_values.pnt_mean", 0, 0.1, 0.4, count=100),
    ], key="pnt", threads=2)
    m, layers = stats.layer_metrics([cold, warm1, warm2])

    assert m["cli.table_cache.hits"] == 2
    assert m["cli.table_cache.misses"] == 1
    assert m["cli.table_cache.hit_ratio"] == pytest.approx(2 / 3)
    assert m["sieve.build_sieve.entries"] == 1001
    assert m["sieve.build_sieve.ns_per_entry"] == pytest.approx(0.4 / 1001 * 1e9)
    assert m["sieve.build_sieve.rss_growth_mb"] == 2.0
    assert m["sieve.save_tables.mb"] == 2.0
    assert m["sieve.load_tables.mb_per_s"] == pytest.approx(6.0 / 0.2)
    # The odd-gap call inside pair_autocorrelation is not counted twice.
    assert m["mean_values.summands"] == 500 + 100 + 100
    assert m["mean_values.odd_gap_mean.s"] == pytest.approx(0.04)
    assert m["mean_values.pair_autocorrelation.s"] == pytest.approx(0.06)
    assert m["singular.euler_factors"] == 25
    assert m["sieve.primes_up_to.count"] == 25
    # threads 1: pnt_mean self 0.15; threads 2: 0.3.
    assert m["mean_values.threads1_s"] == pytest.approx(0.15)
    assert m["mean_values.threads2_s"] == pytest.approx(0.3)
    assert m["mean_values.threads2_over_threads1"] == pytest.approx(2.0)
    assert m["cli.startup_s"] == pytest.approx(0.6)
    assert m["cli.self_s"] == pytest.approx(0.1 + 0.1 + 0.1)
    assert sum(layers.values()) == pytest.approx(0.6 + 0.7 + 0.4 + 0.5)


def test_layer_metrics_without_the_layer_reads_zero():
    m, _ = stats.layer_metrics([_cmd([_span("cli.main", -1, 0.0, 0.1)])])
    assert m["cli.table_cache.hit_ratio"] == 0
    assert m["sieve.build_sieve.ns_per_entry"] == 0
    assert m["mean_values.threads2_over_threads1"] == 0


@pytest.mark.parametrize("make", list(workloads.WORKLOADS.values()))
def test_decks_depend_only_on_the_seed(make):
    a, b, c = (make(s, workloads.FULL) for s in (1, 1, 2))
    assert a.deck(0) == b.deck(0) and a.deck(3) == b.deck(3)
    assert a.prime == b.prime
    assert [x.args for x in a.deck(0)] != [x.args for x in c.deck(0)]


def test_corr_inputs_stay_in_range():
    lo, hi = workloads.FULL.corr_bounds
    for seed in range(20):
        for cmd in workloads.corr_cold(seed, workloads.FULL).deck(0):
            opts = dict(zip(cmd.args[1::2], cmd.args[2::2]))
            n = int(opts["--n"])
            kind = cmd.args[0]
            if kind == "conjd":
                a, b, l = (int(opts[k]) for k in ("--a", "--b", "--l"))
                bound = (b * n + l) // a + 1
            elif kind == "autocorr":
                bound = n + int(opts["--gap"])
            elif kind == "tuple":
                bound = n + int(opts["--offsets"].split(",")[-1])
            else:
                bound = n
            assert lo <= bound <= hi, cmd


def test_warm_commands_share_one_table_bound():
    bound = workloads.FULL.corr_bounds[1]
    w = workloads.corr_warm(5, workloads.FULL)
    deck = w.deck(0)
    for cmd in deck:
        opts = dict(zip(cmd.args[1::2], cmd.args[2::2]))
        if cmd.args[0] == "conjd":
            a, b, l, n = (int(opts[k]) for k in ("--a", "--b", "--l", "--n"))
            assert (b * n + l) // a + 1 == bound
        assert cmd.cache == workloads.SHARED
    assert [c.args for c in w.prime] == [("pnt", "--n", str(bound))]
    assert w.prime[0] in deck
    assert sorted(map(str, deck)) == sorted(map(str, w.deck(1)))
    assert len(deck) == 11


def test_admissible_triples():
    import random

    rng = random.Random(0)
    for _ in range(200):
        offsets = workloads.admissible_triple(rng)
        for p in (2, 3, 5, 7):
            assert len({o % p for o in offsets}) < p
