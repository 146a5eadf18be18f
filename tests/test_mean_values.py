"""Empirical means against their predicted limits: periodic summands with
exact period averages, weighted prime correlations, Goldbach sums."""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramabel import (
    conjecture_d_mean,
    cq_int,
    cq_orthogonality,
    goldbach_correlation,
    lambda1_at,
    odd_gap_mean,
    pair_autocorrelation,
    pnt_mean,
    polynomial_cq_mean,
    tuple_mean,
)
from ramabel import mean_values, sieve
from ramabel.errors import ResourceLimitError
from ramabel.mean_values import (
    _BLOCK, _CHUNK, _LEAF, _Weights, _array_trace, _block_sum, _checkpoint_ns)
from ramabel.singular import series_constant, tuple_constant, validate_linear_pair

from conftest import calls, forbid, traced_peak


def _valid_linear_pair(abl) -> bool:
    try:
        validate_linear_pair(*abl)
    except ValueError:
        return False
    return True


def _dense_array_trace(vals, ns, block=_BLOCK):
    """Reference for ``_array_trace``: checkpoint means of the dense summands
    vals[n - 1], n = 1..N, each block of ``block`` entries summed by np.sum."""
    assert len(vals) == ns[-1]
    trace = []
    sums = []
    prev = 0
    for n_i in ns:
        seg = vals[prev:n_i]
        sums.extend(float(np.sum(seg[s : s + block])) for s in range(0, len(seg), block))
        prev = n_i
        trace.append((n_i, math.fsum(sums) / n_i))
    return trace


def _python_int_mean(period, N):
    """Reference for the int64 period sums: the checkpoint trace and exact
    mean of a period held as Python ints, summed through a prefix list."""
    L = len(period)
    prefix = [0]
    for v in period:
        prefix.append(prefix[-1] + v)
    trace = [(n, ((n // L) * prefix[L] + prefix[n % L]) / n) for n in _checkpoint_ns(N)]
    return trace, Fraction(prefix[L], L)


def _direct_conjd_trace(dense, a, b, l, N, weight, block=_BLOCK):
    """Reference: the direct modular filter over n = 1..N of the dense
    (lam, lam1)."""
    w = dense[0] if weight == "lambda" else dense[1]
    ns = np.arange(1, N + 1, dtype=np.int64)
    t = b * ns + l
    hit = t % a == 0
    vals = np.zeros(N, dtype=np.float64)
    vals[hit] = w[ns[hit]] * w[t[hit] // a]
    return _dense_array_trace(vals, _checkpoint_ns(N), block)


class TestArrayTrace:
    # Every N below 8, where np.sum adds left to right; N in 8-128, its
    # eight-lane loop, at multiples of 8 and not; larger non-multiples of 8;
    # and 10 * 2^20, 10 * (2^20 + 1) and 11 * 2^20 + 3, whose checkpoints
    # fall every 2^20, 2^20 + 1 and about 1.1 * 2^20 positions: whole
    # blocks, and blocks split by a checkpoint into a partial last block.
    # Density 0 is the empty support; density 1 is dense, at the smaller N.
    SMALL = [*range(1, 8), 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 1003, 99_999]
    LARGE = [10 * _BLOCK, 10 * (_BLOCK + 1), 11 * _BLOCK + 3]

    @pytest.mark.parametrize("N, density", [
        *[(N, d) for N in SMALL for d in (0.0, 0.005, 0.07, 1.0)],
        *[(N, d) for N in LARGE for d in (0.0, 0.005, 0.07)],
    ])
    def test_matches_dense_reference(self, N, density):
        rng = np.random.default_rng(N)
        if density == 1.0:
            n = np.arange(1, N + 1)
        else:
            n = np.unique(rng.integers(1, N + 1, size=round(density * N)))
        # Magnitudes over twelve decades, so a change of summation order
        # changes the sum.
        vals = rng.random(n.size) * 10.0 ** rng.integers(-6, 7, n.size)
        dense = np.zeros(N)
        dense[n - 1] = vals
        ns = _checkpoint_ns(N)

        def blocks(lo, hi):  # two summands, each as its block's nonzeros
            for v in (dense[lo:hi], dense[::-1][lo:hi]):
                pos = np.flatnonzero(v)
                yield pos, v[pos]

        assert _array_trace(ns, blocks) == [
            _dense_array_trace(dense, ns), _dense_array_trace(dense[::-1], ns)]


class TestBlockSum:
    # np.sum adds below 8 entries left to right, up to 128 in eight lanes,
    # and splits a longer array in two.  Lengths at each of those edges, at
    # the leaf and its neighbours, at 2^20 and its neighbours, and the 1000
    # of the small blocks below; at a leaf of 128 every longer node splits.
    LENGTHS = [1, 2, 5, 7, 8, 128, 129, 1000, _LEAF - 1, _LEAF, _LEAF + 1,
               _BLOCK - 1, _BLOCK, _BLOCK + 1]

    @pytest.mark.parametrize("leaf", [128, _LEAF])
    @pytest.mark.parametrize("n", LENGTHS)
    def test_equals_np_sum_of_the_dense_block(self, monkeypatch, leaf, n):
        monkeypatch.setattr(mean_values, "_LEAF", leaf)
        rng = np.random.default_rng(n)
        buf = np.zeros(min(leaf, n))
        # Empty, one nonzero at the first or the last slot, sparse, dense.
        supports = [np.empty(0, dtype=np.int64), np.array([0]), np.array([n - 1]),
                    *[np.unique(rng.integers(0, n, size=round(d * n) + 1)) for d in (0.01, 0.3)],
                    np.arange(n)]
        for pos in supports:
            # Magnitudes over twelve decades, so a change of order shows.
            vals = rng.random(pos.size) * 10.0 ** rng.integers(-6, 7, pos.size)
            dense = np.zeros(n)
            dense[pos] = vals
            assert _block_sum(pos, vals, n, buf) == np.sum(dense)
            assert not buf.any()


class TestSparseMatchesDense:
    """Each correlation mean, over the support of Lambda up to its largest
    index, against the dense products of the full tables."""

    @pytest.mark.parametrize("N", [1, 2, 3, 10, 1000, 99_999])
    def test_means(self, tables, dense_lambda, N):
        for got, want in _streamed_means(N, dense_lambda(tables), [1, 2, 30],
                                         [(1, 2, 1), (3, 2, 1), (2, 5, 3)],
                                         [(0, 2), (0, 2, 6), (0, 4, 6, 10)]):
            assert got == want


def _streamed_means(N, dense, gaps, linear, tuples, block=_BLOCK):
    """(streamed, reference) trace pairs of every correlation mean at N:
    pnt, the gaps and the conjd triples in both weights, and the tuples in
    both, against the dense products of ``dense`` = (lam, lam1)."""
    ns = _checkpoint_ns(N)
    pairs = [(pnt_mean(N).trace, _dense_array_trace(dense[1][1 : N + 1], ns, block))]
    for a, b, l in [(1, 1, h) for h in gaps] + linear:
        for weight in ("lambda", "lambda1"):
            if a == b == 1:
                rep = pair_autocorrelation(l, N, P=10**3, weight=weight)
            else:
                rep = conjecture_d_mean(a, b, l, N, P=10**3, weight=weight)
            pairs.append((rep.trace, _direct_conjd_trace(dense, a, b, l, N, weight, block)))
    for offsets in tuples:
        for got, w in zip(tuple_mean(offsets, N, P=max(10**3, offsets[-1])), dense):
            vals = w[1 : N + 1].copy()
            for off in offsets[1:]:
                vals *= w[1 + off : N + 1 + off]
            pairs.append((got.trace, _dense_array_trace(vals, ns, block)))
    return pairs


class TestStreamedMeans:
    """The means stream over windows of primes, one block at a time: each
    trace is the dense reference's, == , at N on both sides of a block or
    checkpoint edge and with partners whose ranges cross block and window
    edges."""

    # N = 2^20 - 1, 2^20, 2^20 + 1: the block of 2^20 entries against the
    # checkpoints at N/10; a gap of 900,001 and the conjd partners of
    # (5, 2, 1) and (3, 4, 1) read ranges that cross block edges.
    @pytest.mark.parametrize("N", [_BLOCK - 1, _BLOCK, _BLOCK + 1])
    def test_block_edges(self, tables_big, dense_lambda, N):
        dense = dense_lambda(tables_big)
        for got, want in _streamed_means(N, dense, [2, 900_001], [(5, 2, 1), (3, 4, 1)],
                                         [(0, 2, 6)]):
            assert got == want

    # Blocks of 1000 entries and windows of 2048 integers, so that N up to
    # 3 * 10^4 crosses many of both edges.  Gaps and offsets of up to 1000
    # share their run's windows; 1001 and 1500 read their own.  The conjd
    # triples step their n (a > 1) or their partners (b > 1) across them.
    @pytest.mark.parametrize("N", [1, 2, 999, 1000, 1001, 2047, 2048, 2049, 10_000, 29_999])
    def test_small_blocks_and_windows(self, monkeypatch, tables, dense_lambda, N):
        monkeypatch.setattr(mean_values, "_BLOCK", 1000)
        monkeypatch.setattr(sieve, "PRIME_SEGMENT_ODDS", 1 << 10)
        dense = dense_lambda(tables)
        pairs = _streamed_means(
            N, dense, [1, 2, 30, 1000, 1001, 1500],
            [(1, 2, 1), (3, 4, 1), (2, 5, 3), (7, 30, 1), (5, 2, 1)],
            [(0, 2, 6), (0, 4, 6, 10), (0, 2, 1500), (0, 998, 1002, 2000)], block=1000)
        for got, want in pairs:
            assert got == want

    @pytest.mark.parametrize("mean", [pnt_mean, lambda N: pair_autocorrelation(2, N, P=10**3)],
                             ids=["pnt_mean", "pair_autocorrelation"])
    def test_memory_does_not_grow_with_N(self, mean):
        # Past one window, a mean holds one block buffer and at most two
        # windows, whatever N is; the whole support grew 4-fold here.
        def peak(N):
            tracemalloc.start()
            try:
                mean(N)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(8 * 10**6) <= peak(2 * 10**6) + 2**20

    @pytest.mark.parametrize("mean", [pnt_mean, lambda N: tuple_mean((0, 2, 6), N, P=10**3)],
                             ids=["pnt_mean", "tuple_mean"])
    def test_no_dense_block_buffer(self, mean):
        # A block is summed from its nonzeros: the peak was 7.8 MiB.  A
        # dense float64 buffer of one block, 8 MiB more, made it 15.3 MiB.
        mean(1000)
        assert traced_peak(lambda: mean(4 * 10**6)) < 9 * 2**20

    # The largest peak of a streamed mean, with one bound for each N: 12.15
    # and 16.07 MiB measured.
    @pytest.mark.parametrize("N, bound", [(4 * 10**6, 13 * 2**20), (16 * 10**6, 17 * 2**20)],
                             ids=["4e6", "1.6e7"])
    def test_conjecture_d_mean_peak(self, N, bound):
        conjecture_d_mean(1, 2, 1, 1000)
        assert traced_peak(lambda: conjecture_d_mean(1, 2, 1, N)) < bound

    # The other streamed kernels, each with one bound about 1 MiB over the
    # larger of its two peaks, in MiB: pnt_mean 7.78 and 7.86,
    # pair_autocorrelation and odd_gap_mean 7.78 and 9.09, tuple_mean 7.78
    # and 9.72, and the Euler products of the tuple and series constants
    # 1.70 and 3.40.
    MEAN_SIZES = {"4e6": 4 * 10**6, "1.6e7": 16 * 10**6}
    PRODUCT_SIZES = {"1e6": 10**6, "1e7": 10**7}
    KERNEL_PEAKS = [
        ("pnt_mean", pnt_mean, MEAN_SIZES, 9),
        ("pair_autocorrelation", lambda N: pair_autocorrelation(2, N, P=10**3), MEAN_SIZES, 10),
        ("odd_gap_mean", lambda N: odd_gap_mean(3, N), MEAN_SIZES, 10),
        ("tuple_mean", lambda N: tuple_mean((0, 2, 6), N, P=10**3), MEAN_SIZES, 11),
        ("tuple_constant", lambda P: tuple_constant((0, 2, 6, 8, 12), P), PRODUCT_SIZES, 4.5),
        ("series_constant", lambda P: series_constant(30, P), PRODUCT_SIZES, 4.5),
    ]

    @pytest.mark.parametrize("kernel, size, bound", [
        pytest.param(kernel, size, mib * 2**20, id=f"{name}-{label}")
        for name, kernel, sizes, mib in KERNEL_PEAKS for label, size in sizes.items()])
    def test_kernel_peak(self, kernel, size, bound):
        kernel(1000)
        assert traced_peak(lambda: kernel(size)) < bound

    @pytest.mark.parametrize("mean", [
        pnt_mean,
        lambda N: pair_autocorrelation(2, N),
        lambda N: conjecture_d_mean(1, 2, 1, N // 2),
        lambda N: tuple_mean((0, 2, 6), N),
    ], ids=["pnt_mean", "pair_autocorrelation", "conjecture_d_mean", "tuple_mean"])
    def test_refused_before_sieving(self, monkeypatch, mean):
        # pi_bound of 10^15 is over the limit of the Euler products, 10^9
        # primes; that of 10^10 is not, and there the windows are asked for.
        forbid(monkeypatch, sieve.lambda_windows)
        with pytest.raises(ResourceLimitError,
                           match="N=(1|5)0000000000000+ .* limit of 1000000000"):
            mean(10**15)
        with pytest.raises(AssertionError, match="lambda_windows"):
            mean(10**10)

    def test_far_gap_sieves_its_ranges_only(self):
        # The two ranges read, [1, 1000] and [10^9 + 1, 10^9 + 1000], not
        # the 10^9 integers between them; a far range counts as the primes
        # up to its end, so N = 10 at a gap of 10^15 is refused.
        start = time.perf_counter()
        rep = odd_gap_mean(10**9 + 1, 1000)
        assert time.perf_counter() - start < 1.0
        assert rep.trace[-1][0] == 1000
        with pytest.raises(ResourceLimitError, match="N=10 "):
            odd_gap_mean(10**15 + 1, 10)

    @pytest.mark.parametrize("gap, ranges", [
        (1000, [(1, 6000)]), (1002, [(1, 5000), (1003, 6002)])])
    def test_factors_share_windows_up_to_a_block(self, monkeypatch, gap, ranges):
        # A partner up to _BLOCK past n is read with n, over one range of
        # windows; one further on is read over a range of its own.
        monkeypatch.setattr(mean_values, "_BLOCK", 1000)
        asked = calls(monkeypatch, mean_values, "lambda_windows")
        pair_autocorrelation(gap, 5000, P=10**3)
        assert asked == ranges


class TestTwinPairs:
    # pi_2(x), the pairs (p, p + 2) of primes with p <= x (Brent, Math.
    # Comp. 29, 1975), counted on the windows that the means read: n > 1 is
    # a prime exactly when Lambda(n) = log n.
    @pytest.mark.parametrize("N, count", [(10**6, 8_169), (10**7, 58_980)])
    def test_literature_counts(self, N, count):
        weights = _Weights(1, N + 2, 2)
        twins = 0
        for lo in range(0, N, _BLOCK):
            L = min(_BLOCK, N - lo)
            t, (lam,) = weights.read(lo + 1, 1, L + 2, [0])
            n = (lo + 1 + t).astype(np.float64)
            p = t[(lam == np.log(n)) & (n > 1)]
            twins += np.count_nonzero(np.isin(p[p < L] + 2, p))
        assert twins == count


class TestOrthogonality:
    def test_diagonal_example(self):
        # r = s = 3, m = 1: limit is c_3(1) = -1
        rep = cq_orthogonality(3, 3, 1, 300)
        assert rep.predicted == -1.0
        assert rep.exact_mean == Fraction(-1)

    def test_off_diagonal_vanishes(self):
        rep = cq_orthogonality(4, 6, 2, 120)
        assert rep.predicted == 0.0
        assert rep.exact_mean == Fraction(0)

    @given(
        r=st.integers(min_value=1, max_value=20),
        s=st.integers(min_value=1, max_value=20),
        m=st.integers(min_value=-8, max_value=8),
    )
    @settings(max_examples=150, deadline=None)
    def test_exact_mean_matches_closed_form(self, r, s, m):
        rep = cq_orthogonality(r, s, m, 50)
        want = cq_int(r, m) if r == s else 0
        assert rep.exact_mean == want

    # Every checkpoint mean is the direct sum over n <= n_i, for m of any size.
    @pytest.mark.parametrize("r, s, m", [(6, 6, 4), (4, 6, -7), (12, 30, 10**20 + 3)])
    def test_trace_matches_direct_sum(self, r, s, m):
        rep = cq_orthogonality(r, s, m, 97)
        for n_i, mean in rep.trace:
            direct = sum(cq_int(r, n) * cq_int(s, n + m)
                         for n in range(1, n_i + 1))
            assert mean == direct / n_i

    # Long periods, whose sums reach about 10^12: a large prime, a power of
    # two and L = 999 * 1001 = 999,999, against Python-int products and sums.
    @pytest.mark.parametrize("r, s, m", [(999983, 999983, 0), (999983, 999983, 5),
                                         (2**20, 2**20, 2**19), (999, 1001, 7)])
    def test_long_period_equals_python_ints(self, r, s, m):
        L = math.lcm(r, s)
        n = np.arange(1, L + 1, dtype=np.int64)
        period = [a * b for a, b in zip(cq_int(r, n).tolist(), cq_int(s, n + m).tolist())]
        rep = cq_orthogonality(r, s, m, 3 * L + 12345)
        assert (rep.trace, rep.exact_mean) == _python_int_mean(period, 3 * L + 12345)

    # L = 65537 * 32768 and 2^31: refused, naming L, before any array is made.
    @pytest.mark.parametrize("r, s", [(65537, 32768), (2**31, 1)])
    def test_period_limit(self, monkeypatch, r, s):
        forbid(monkeypatch, np.arange)
        L = r * s
        with pytest.raises(ValueError, match=rf"^period L = {L} is over the limit 2\^31 - 1$"):
            cq_orthogonality(r, s, 1, 10)

    @pytest.mark.parametrize("r, s", [(0, 3), (3, 0), (-2, 3)])
    def test_r_and_s_at_least_one(self, r, s):
        with pytest.raises(ValueError, match=rf"^need r, s >= 1, got r={r}, s={s}$"):
            cq_orthogonality(r, s, 1, 10)

    def test_empirical_within_partial_period_bound(self, tables_small):
        N = 10**4
        for r, s, m in [(3, 3, 1), (4, 6, 2), (5, 7, 0), (12, 12, 5)]:
            rep = cq_orthogonality(r, s, m, N)
            L = math.lcm(r, s)
            bound = tables_small.phi[r] * tables_small.phi[s] * L / N
            assert abs(rep.empirical - float(rep.exact_mean)) <= bound


class TestPeriodSums:
    # Any m >= 0 is (m // L) whole periods and a rest: the summand is read
    # at n <= L only, and never past the largest m.
    @pytest.mark.parametrize("chunk", [3, 7, _CHUNK], ids=["chunk3", "chunk7", "default"])
    def test_any_m_equals_python_ints(self, monkeypatch, chunk):
        monkeypatch.setattr(mean_values, "_CHUNK", chunk)
        L, read = 7, []

        def summand(n):
            assert n[-1] <= L, f"summand read at n = {n[-1]} > L"
            read.extend(n.tolist())
            return (5 * n * n + 3) % L - 3

        period = [(5 * n * n + 3) % L - 3 for n in range(1, L + 1)]

        def want(m):
            return (m // L) * sum(period) + sum(period[: m % L])

        assert [want(m) for m in range(4 * L)] == [
            sum(period[(n - 1) % L] for n in range(1, m + 1)) for m in range(4 * L)]
        for ms, top in (([0, L - 1, L, L + 1, 3 * L, 3 * L + 2, 10**20 + 3], L),
                        ([L - 1, 2, 0], L - 1), ([0], 0)):
            read.clear()
            assert mean_values._period_sums(L, ms, summand) == [want(m) for m in ms]
            assert read == list(range(1, top + 1))

    # _period_sums alone holds the limit: every kernel that sums a period
    # refuses L = 2^31 before np.arange is called, and calls it at
    # L = 2^31 - 1 (a prime), here stopped at that call.  Goldbach's 2N < L
    # reads only n <= 2N.
    @pytest.mark.parametrize("kernel", [
        lambda L: cq_orthogonality(L, 1, 1, 10),
        lambda L: polynomial_cq_mean(L, [1, 0, 1], 10),
        lambda L: goldbach_correlation(3, L, 1),
    ], ids=["orthogonality", "polymean", "goldbach"])
    def test_one_limit_for_every_kernel(self, monkeypatch, kernel):
        class Through(Exception):
            pass

        def arange(*args, **kwargs):
            raise Through(args)

        monkeypatch.setattr(np, "arange", arange)
        with pytest.raises(ValueError, match=r"^period L = 2147483648 is over the limit 2\^31 - 1$"):
            kernel(2**31)
        with pytest.raises(Through) as through:
            kernel(2**31 - 1)
        assert through.value.args[0][0] == 1


class TestPolynomialMean:
    @pytest.mark.parametrize("q", [0, -5])
    def test_q_at_least_one(self, q):
        with pytest.raises(ValueError, match=rf"^q must be >= 1, got {q}$"):
            polynomial_cq_mean(q, [1], 10)

    def test_table_example(self):
        # q = 5, f(n) = n^2 + 1: residues of f mod 5 are 1,2,0,0,2 and
        # c_5 values are -1,-1,4,4,-1, so the period mean is 1
        rep = polynomial_cq_mean(5, [1, 0, 1], 10**4)
        assert rep.exact_mean == Fraction(1)
        assert rep.predicted == 1.0

    def test_brute_force_cross_check(self):
        for q in (2, 3, 7, 12, 30):
            for poly in ([1, 0, 1], [2, 0, 0, 1], [1, 3, 2]):
                rep = polynomial_cq_mean(q, poly, 100)
                want = Fraction(
                    sum(
                        cq_int(
                            q,
                            sum(c * r**k for k, c in enumerate(poly)) % q,
                        )
                        for r in range(q)
                    ),
                    q,
                )
                assert rep.exact_mean == want

    @pytest.mark.parametrize("q, poly", [(7, [1, 0, 1]), (12, [-3, 2, 3]), (30, [5, 10**20])])
    def test_trace_matches_direct_sum(self, q, poly):
        rep = polynomial_cq_mean(q, poly, 97)
        for n_i, mean in rep.trace:
            direct = sum(cq_int(q, sum(c * n**k for k, c in enumerate(poly)))
                         for n in range(1, n_i + 1))
            assert mean == direct / n_i

    # A large prime and a power of two, against c_q read at f(n) mod q with
    # f evaluated in Python ints, and summed in Python ints.
    @pytest.mark.parametrize("q, poly", [(999983, [0]), (999983, [3, -5, 7]),
                                         (2**20, [0, 0, 1]), (2**20, [1, 10**20, 6])])
    def test_long_period_equals_python_ints(self, q, poly):
        by_residue = cq_int(q, np.arange(q, dtype=np.int64)).tolist()
        period = []
        for n in range(1, q + 1):
            f = 0
            for c in reversed(poly):
                f = f * n + c
            period.append(by_residue[f % q])
        rep = polynomial_cq_mean(q, poly, 3 * q + 12345)
        assert (rep.trace, rep.exact_mean) == _python_int_mean(period, 3 * q + 12345)

    # Periods at the chunk edges of the exact sums, with checkpoints whose
    # n % q falls on a chunk boundary, beside one, or on 0 (whole periods).
    @pytest.mark.parametrize("q", [_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1],
                             ids=["chunk-1", "chunk", "chunk+1", "2chunk+1"])
    def test_chunk_edges_equal_python_ints(self, q):
        by_residue = cq_int(q, np.arange(q, dtype=np.int64)).tolist()
        period = [by_residue[(3 - 5 * n + 7 * n * n) % q] for n in range(1, q + 1)]
        rests = set()
        for t in (1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK, q, 10 * _CHUNK):
            N = 2 * q + t
            rep = polynomial_cq_mean(q, [3, -5, 7], N)
            assert (rep.trace, rep.exact_mean) == _python_int_mean(period, N)
            rests |= {n % q for n, _ in rep.trace}
        assert {0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK} & set(range(q)) <= rests

    def test_partial_period_bound(self, tables_small):
        N = 10**5
        rep = polynomial_cq_mean(4, [1, 0, 1], N)
        assert abs(rep.empirical - float(rep.exact_mean)) <= (
            tables_small.phi[4] * 4 / N
        )


class TestPairAutocorrelation:
    def test_tiny_hand_enumeration(self, tables_small):
        # N = 10, gap 2: nonzero products at (2,4),(3,5),(5,7),(7,9),(9,11)
        N, h = 10, 2
        want = sum(
            lambda1_at(n) * lambda1_at(n + h)
            for n in range(1, N + 1)
        ) / N
        rep = pair_autocorrelation(h, N)
        assert rep.empirical == pytest.approx(want, rel=1e-15)
        assert rep.predicted == pytest.approx(1.3203236, abs=1e-4)

    def test_odd_gap_routes_to_zero_limit(self):
        rep = pair_autocorrelation(3, 100)
        assert rep.predicted == 0.0
        assert "odd_gap" in rep.label

    def test_invalid_gap(self):
        with pytest.raises(ValueError):
            pair_autocorrelation(0, 100)

    def test_beyond_bound(self, tables, dense_lambda):
        # The support reaches N + 2, past N = 10^4.
        rep = pair_autocorrelation(2, 10**4, P=10**3)
        assert rep.trace == _direct_conjd_trace(dense_lambda(tables), 1, 1, 2, 10**4, "lambda1")


class TestOddGapMean:
    def test_small_enumeration(self, tables_small):
        N, h = 10, 1
        want = sum(
            lambda1_at(n) * lambda1_at(n + h)
            for n in range(1, N + 1)
        ) / N
        rep = odd_gap_mean(h, N)
        assert rep.empirical == pytest.approx(want, rel=1e-15)

    def test_rejects_even_gap(self):
        with pytest.raises(ValueError):
            odd_gap_mean(2, 100)


class TestWeightNames:
    @pytest.mark.parametrize(
        "mean",
        [
            lambda: pair_autocorrelation(2, 100, weight="lamda"),
            lambda: odd_gap_mean(3, 100, weight="lamda"),
            lambda: conjecture_d_mean(1, 1, 2, 100, weight="lamda"),
        ],
        ids=["pair_autocorrelation", "odd_gap_mean", "conjecture_d_mean"],
    )
    def test_unknown_weight_rejected(self, mean):
        with pytest.raises(ValueError, match="lamda"):
            mean()


class TestConstantBeforeTrace:
    """A bad truncation prime P is refused before any window of primes is
    asked for, and a bad N before a bad P."""

    @pytest.fixture(autouse=True)
    def no_windows(self, monkeypatch):
        forbid(monkeypatch, sieve.lambda_windows)

    @pytest.mark.parametrize("mean, P, error, match", [
        (lambda N, P: pair_autocorrelation(2, N, P=P), 2, ValueError, r"^P must be >= 3, got 2$"),
        (lambda N, P: conjecture_d_mean(1, 2, 1, N, P=P), 1, ValueError, r"^P must be >= 3, got 1$"),
        (lambda N, P: tuple_mean((0, 2, 6), N, P=P), 5, ValueError, r"^P=5 too small; need P >= 6$"),
        (lambda N, P: pair_autocorrelation(2, N, P=P), 10**16, ResourceLimitError,
         r"^an Euler product over the primes up to 10000000000000000 takes"),
        (lambda N, P: conjecture_d_mean(1, 2, 1, N, P=P), 10**16, ResourceLimitError,
         r"^an Euler product over the primes up to 10000000000000000 takes"),
        (lambda N, P: tuple_mean((0, 2, 6), N, P=P), 10**16, ResourceLimitError,
         r"^an Euler product over the primes up to 10000000000000000 takes"),
    ], ids=["autocorr-P2", "conjd-P1", "tuple-P5", "autocorr-P1e16", "conjd-P1e16", "tuple-P1e16"])
    def test_bad_P_before_any_window(self, mean, P, error, match):
        with pytest.raises(error, match=match):
            mean(10**8, P)
        with pytest.raises(ValueError, match=r"^N must be >= 1, got N=0$"):
            mean(0, P)

    # Each kernel takes its checkpoints first, so N is named before a bad
    # gap, (a, b, l) or offset tuple.
    @pytest.mark.parametrize("mean", [
        lambda: pair_autocorrelation(0, 0), lambda: odd_gap_mean(2, 0),
        lambda: conjecture_d_mean(2, 2, 1, 0), lambda: tuple_mean((0, 2, 4), 0),
    ], ids=["autocorr-gap0", "odd-gap-even", "conjd-not-coprime", "tuple-inadmissible"])
    def test_bad_N_before_every_other_value(self, mean):
        with pytest.raises(ValueError, match=r"^N must be >= 1, got N=0$"):
            mean()


class TestConjectureDMean:
    def test_twin_case_bit_identical_to_gap_two(self):
        a = conjecture_d_mean(1, 1, 2, 10**6)
        b = pair_autocorrelation(2, 10**6)
        assert a.empirical == b.empirical
        assert [v for _, v in a.trace] == [v for _, v in b.trace]

    def test_validates_hypotheses(self):
        with pytest.raises(ValueError):
            conjecture_d_mean(2, 4, 2, 100)

    # The support reaches the largest index: (2 N + 1)/a, or N itself when
    # a > b, where n runs past 10^4 before (2 n + 1)/a does.
    def test_bound_check(self, tables, dense_lambda):
        rep = conjecture_d_mean(1, 2, 1, 10**4, P=10**3)
        assert rep.trace == _direct_conjd_trace(dense_lambda(tables), 1, 2, 1, 10**4, "lambda1")

    @pytest.mark.parametrize("a", [3, 5])
    def test_bound_check_a_above_b(self, tables, dense_lambda, a):
        N = 10**4 + 1
        rep = conjecture_d_mean(a, 2, 1, N, P=10**3)
        assert rep.trace == _direct_conjd_trace(dense_lambda(tables), a, 2, 1, N, "lambda1")

    def test_modulus_beyond_int64(self, tables_small, dense_lambda):
        # a = 3^40 > 2^63 divides 4 n + l only for n = 2 mod a, and
        # (4 * 2 + l)/a = 7: one summand, w(2) w(7), from n = 2 on.
        a = 3**40
        rep = conjecture_d_mean(a, 4, 7 * a - 8, 10, P=10**3)
        w = dense_lambda(tables_small)[1]
        assert rep.trace == [(k, 0.0 if k < 2 else w[2] * w[7] / k) for k in range(1, 11)]

    @given(
        abl=st.tuples(
            st.integers(min_value=1, max_value=7),
            st.integers(min_value=1, max_value=30),
            st.integers(min_value=1, max_value=30),
        ).filter(_valid_linear_pair),
        weight=st.sampled_from(["lambda", "lambda1"]),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_direct_modular_filter(self, tables_small, dense_lambda, abl, weight,
                                           data):
        a, b, l = abl
        # Largest N whose indices n and (b N + l) // a stay in the dense reference.
        n_max = min(tables_small.bound, (a * (tables_small.bound + 1) - 1 - l) // b)
        # N in 1..a often falls below the first qualifying n, so no n counts.
        N = data.draw(st.one_of(st.integers(1, a), st.integers(1, n_max)), label="N")
        rep = conjecture_d_mean(a, b, l, N, P=10**3, weight=weight)
        assert rep.trace == _direct_conjd_trace(dense_lambda(tables_small), a, b, l, N, weight)

    def test_root_of_unity_indicator_identity(self):
        # (1/a) sum_{k=0}^{a-1} e^{2 pi i k t / a} is 1 when a | t else 0;
        # the modular filter used by the mean is the same indicator.
        for a in range(1, 13):
            for t in range(0, 3 * a):
                s = sum(
                    complex(math.cos(2 * math.pi * k * t / a),
                            math.sin(2 * math.pi * k * t / a))
                    for k in range(a)
                ) / a
                want = 1.0 if t % a == 0 else 0.0
                assert abs(s - want) < 1e-9


class TestTupleMean:
    def test_spec_validation(self):
        # The offsets are normalised to a tuple of ints: numpy ints would
        # print as np.int64(2) in the label.
        lam, lam1 = tuple_mean(np.array([0, 2, 6]), 100, P=10**3)
        assert lam.label == "tuple_mean(offsets=(0, 2, 6),w=lambda)"
        assert lam1.label == "tuple_mean(offsets=(0, 2, 6),w=lambda1)"
        for offsets, error in [((), "start with 0"), ((2, 4), "start with 0"),
                               ((0, 4, 2), "strictly increasing")]:
            with pytest.raises(ValueError, match=error):
                tuple_mean(offsets, 100)

    def test_single_gap_agrees_with_pair_autocorrelation(self):
        _, lam1 = tuple_mean((0, 2), 5000)
        pair = pair_autocorrelation(2, 5000)
        assert lam1.empirical == pair.empirical

    def test_raw_weights_dominate(self):
        lam, lam1 = tuple_mean((0, 2, 6), 5000)
        assert lam.empirical >= lam1.empirical

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError, match="prime 3 covers every residue"):
            tuple_mean((0, 2, 4), 100)


class TestPntMean:
    def test_hand_value_at_ten(self):
        want = (
            1.5 * math.log(2) + (4 / 3) * math.log(3) + 0.8 * math.log(5)
            + (6 / 7) * math.log(7)
        ) / 10
        rep = pnt_mean(10)
        assert rep.empirical == pytest.approx(want, rel=1e-14)
        assert rep.predicted == 1.0

    def test_converges(self):
        gap4 = abs(pnt_mean(10**4).empirical - 1.0)
        gap6 = abs(pnt_mean(10**6).empirical - 1.0)
        assert gap6 < gap4


class TestGoldbach:
    def test_trivial_weights(self):
        assert goldbach_correlation(7, 1, 1) == 14

    def test_alternating_weights(self):
        assert goldbach_correlation(3, 2, 2) == 6

    def test_brute_force(self):
        # Every q1, q2 <= 12 at every N <= 50, against the direct sum, with
        # c_q(k) for 0 <= k <= 100 from one table of Python ints.
        c = {q: [cq_int(q, k) for k in range(101)] for q in range(1, 13)}
        for q1 in range(1, 13):
            for q2 in range(1, 13):
                for N in range(1, 51):
                    want = sum(c[q1][n] * c[q2][2 * N - n] for n in range(1, 2 * N + 1))
                    assert goldbach_correlation(N, q1, q2) == want, (N, q1, q2)

    # N past 2^40, against the sum over one period of L = lcm(q1, q2) and
    # one partial period in Python ints, at c_{q2}(2N - n) itself.
    @pytest.mark.parametrize("N, q1, q2", [
        (2**41 + 3, 30, 12), (2**41 + 3, 97, 840), (10**12, 30, 12), (10**12, 7, 9),
        (10**12, 64, 1000), (10**30 + 1, 1, 1), (10**30 + 1, 97, 12)])
    def test_past_2_40_equals_python_int_period(self, N, q1, q2):
        L = math.lcm(q1, q2)
        whole, part = divmod(2 * N, L)
        terms = [cq_int(q1, n) * cq_int(q2, 2 * N - n) for n in range(1, L + 1)]
        assert goldbach_correlation(N, q1, q2) == whole * sum(terms) + sum(terms[:part])

    # 2N below one period reads only n <= 2N: at the prime L = 2^31 - 1, the
    # largest L let through, a whole period would take minutes.
    def test_short_of_one_period(self):
        q = 2**31 - 1
        assert goldbach_correlation(3, q, 1) == sum(cq_int(q, n) for n in range(1, 7)) == -6

    # L = lcm(q1, q2) >= 2^31 is refused, naming L, before any array is made:
    # past it the int64 sums could wrap (at q2 = 2^63 - 25, to -50 where the
    # sum is 18446744073709551566).
    @pytest.mark.parametrize("N, q1, q2", [(3, 6, 2**63 - 25), (3, 2**31, 1), (10**6, 65537, 32768),
                                           (3, 3 * 10**9, 2)])
    def test_period_limit(self, monkeypatch, N, q1, q2):
        forbid(monkeypatch, np.arange)
        L = math.lcm(q1, q2)
        with pytest.raises(ValueError, match=rf"^period L = {L} is over the limit 2\^31 - 1$"):
            goldbach_correlation(N, q1, q2)

    # The traced peak is one chunk's temporaries, whatever L: 16.32 MiB
    # measured at L = 999 * 1001 and 2048 * 2047 alike, where one period of
    # int64 alone takes 7.6 and 32 MiB.  One bound for both.
    @pytest.mark.parametrize("N, q1, q2", [(10**6, 999, 1001), (4 * 10**6, 2048, 2047)],
                             ids=["L1e6", "L4e6"])
    def test_peak(self, N, q1, q2):
        goldbach_correlation(10, 30, 12)
        assert traced_peak(lambda: goldbach_correlation(N, q1, q2)) < 17 * 2**20

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            goldbach_correlation(0, 1, 1)
