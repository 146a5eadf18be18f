"""Sieve table construction, the support of Lambda, and binary round-trips."""

import dataclasses
import hashlib
import math
import os
import random
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest
import ramabel
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ramabel import (
    LambdaTables,
    ResourceLimitError,
    SieveTables,
    build_sieve,
    lambda1_at,
    load_tables,
    save_tables,
)
from ramabel.errors import DamagedDumpError
from ramabel.sieve import (
    DEFAULT_SEGMENT_SIZE,
    PRIME_SEGMENT_ODDS,
    _prime_powers,
    _prime_segment,
    _spf_segment,
    lambda_support,
    primes_up_to,
    sigma_table,
    table_checksum,
)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def factorize(n):
    """Prime -> exponent by trial division."""
    f = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            f[d] = f.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        f[n] = f.get(n, 0) + 1
    return f


# Bounds at the session fixtures reuse them as the full build.
FIXTURES = {10_000: "tables_small", 300_000: "tables", 2_000_020: "tables_big"}


def full_tables(request, N):
    return request.getfixturevalue(FIXTURES[N]) if N in FIXTURES else build_sieve(N)


@st.composite
def sieve_windows(draw):
    """(N, lo, hi) with 1 <= lo <= hi <= N: any short window, a single
    entry, a window from lo = 1, a window that straddles the square of a
    base prime, or a window that holds a higher power of one."""
    N = draw(st.integers(1, 200_000))
    kind = draw(st.sampled_from(["any", "single", "first", "square", "power"]))
    if kind in ("square", "power") and N >= 4:
        p = draw(st.sampled_from(primes_up_to(math.isqrt(N)).tolist()))
        pk = p * p
        if kind == "power":
            pk = draw(st.sampled_from([p**k for k in range(2, 64) if p**k <= N]))
        lo = draw(st.integers(max(1, pk - 100), pk - 1 if kind == "square" else pk))
        hi = draw(st.integers(pk, min(N, pk + 100)))
    elif kind == "first":
        lo = 1
        hi = draw(st.integers(1, min(N, 300)))
    elif kind == "single":
        lo = hi = draw(st.integers(1, N))
    else:
        lo = draw(st.integers(1, N))
        hi = draw(st.integers(lo, min(N, lo + 200)))
    return N, lo, hi


@st.composite
def prime_windows(draw):
    """(n, lo) for ``primes_up_to(n, lo)``: n and lo near a segment start
    1 + k * 2 * PRIME_SEGMENT_ODDS up to the fourth, or anywhere below it;
    lo also 1, 2, 3, up to 3 either side of n, or anywhere up to n + 3."""
    span = 2 * PRIME_SEGMENT_ODDS
    near = st.sampled_from([1 + k * span for k in range(4)]).flatmap(
        lambda e: st.integers(max(0, e - 3), e + 3))
    n = draw(st.one_of(st.integers(0, 4 * span), near))
    lo = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(-3, n + 3), near,
                        st.integers(max(0, n - 3), n + 3)))
    return n, lo


class TestBuildSieve:
    def test_identity_case(self, dense_lambda):
        t = build_sieve(1)
        assert t.mu[1] == 1
        assert t.phi[1] == 1
        assert dense_lambda(t)[0][1] == 0.0

    def test_small_von_mangoldt(self, dense_lambda):
        lam, _ = dense_lambda(build_sieve(10))
        assert lam[8] == pytest.approx(math.log(2), rel=0, abs=1e-15)
        assert lam[9] == pytest.approx(math.log(3), rel=0, abs=1e-15)
        assert lam[10] == 0.0

    def test_lambda1_at_nine(self):
        t = build_sieve(10)
        assert lambda1_at(t, 9) == (6.0 / 9.0) * np.log(np.float64(3))
        assert lambda1_at(t, 9) == pytest.approx(0.7324082, abs=5e-8)

    def test_invalid_bound(self):
        with pytest.raises(ValueError):
            build_sieve(0)

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs VmHWM")
    def test_bytes_per_entry_covers_build(self):
        # The peak RSS rise of a full build in a fresh process, per entry,
        # is within the footprint the memory check assumes.  VmHWM starts
        # afresh at exec, where ru_maxrss keeps the peak of the forked parent.
        code = ("import re; from ramabel import build_sieve; "
                "hwm = lambda: int(re.search(r'VmHWM:\\s+(\\d+) kB', "
                "open('/proc/self/status').read())[1]); "
                "h0 = hwm(); build_sieve(4 * 10**6); print(hwm() - h0)")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(ramabel.__file__))}
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert int(out) * 1024 / (4 * 10**6 + 1) <= SieveTables.BYTES_PER_ENTRY

    def test_memory_budget_error_names_budget(self):
        # 64 * 10^15 bytes is over any machine's memory; the check raises
        # before anything is allocated.
        budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        with pytest.raises(ResourceLimitError) as exc:
            build_sieve(10**15)
        assert str(10**15) in str(exc.value)
        assert str(budget) in str(exc.value)

    def test_int32_bound_guard(self, monkeypatch):
        # With memory to spare, full tables past 2^31 - 1 still do not fit
        # int32; the guard raises before anything is allocated.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**40}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="int32"):
                build_sieve(2**31)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_primes_agree_with_trial_division(self, tables_small, dense_lambda):
        def is_prime(n):
            return n > 1 and all(n % d for d in range(2, int(n**0.5) + 1))

        lam, _ = dense_lambda(tables_small)
        for p in range(2, 200):
            if is_prime(p):
                assert tables_small.spf[p] == p
                assert tables_small.mu[p] == -1
                assert tables_small.phi[p] == p - 1
                assert lam[p] == pytest.approx(math.log(p))

    def test_totient_divisor_sum(self, tables_small):
        rng = random.Random(1)
        for n in [1, 2, 12, 360] + [rng.randrange(1, 10_000) for _ in range(50)]:
            assert sum(tables_small.phi[d] for d in divisors(n)) == n

    def test_multiplicativity_on_coprime_pairs(self, tables_small):
        rng = random.Random(2)
        checked = 0
        while checked < 1000:
            a = rng.randrange(1, 100)
            b = rng.randrange(1, 100)
            if math.gcd(a, b) != 1:
                continue
            assert tables_small.phi[a * b] == tables_small.phi[a] * tables_small.phi[b]
            assert tables_small.mu[a * b] == tables_small.mu[a] * tables_small.mu[b]
            checked += 1

    def test_mertens_sanity(self, tables_small):
        mu = tables_small.mu
        for N in (10, 100, 1000, 10_000):
            assert abs(int(mu[1 : N + 1].sum())) <= N / 2

    def test_chebyshev_sanity(self, tables_big, dense_lambda):
        N = 10**6
        mean = float(dense_lambda(tables_big)[0][1 : N + 1].mean())
        assert 0.9 <= mean <= 1.1

    # SHA-256 of the RMBL dump of format 3: header, spf, mu, phi and crc32,
    # as save_tables returns it and table_checksum reads it back from the
    # file.  Any changed byte of any table fails.
    DIGESTS = {
        1: "e2b37c04f530bce2e438ec72696189862debb590815bbb6c87b88858cbca82a4",
        2: "38564ea035c3a3b64d375a1717b4bc24b6823888a50df8586c98ea54105005e0",
        10: "48574363537c9139482a979980e59a4b7f81e92c3739524a90b8df5ffd081318",
        10_000: "29f0a89842c2a054da8581fc4feaaeb47f24bfde78ea90ef2562944bb696c428",
        300_000: "960c301e8228ed55a39d0fcaddc04b14272c1ba87737e253a3d17808ec2b4329",
        2_000_020: "3918eed310312880e5a395feac38b3635726cd83b582c5ac01ff05737954b294",
    }

    @pytest.mark.parametrize("N", sorted(DIGESTS))
    def test_pinned_digest(self, tmp_path, N):
        path = str(tmp_path / "tables.bin")
        assert save_tables(N, path) == self.DIGESTS[N]
        assert table_checksum(path, N) == self.DIGESTS[N]

    # SHA-256 of spf as <i8, mu as <i1 and phi as <i8, one after another:
    # the values alone, in a form no dump format change touches.
    VALUE_DIGESTS = {
        1: "385e7f1062b621eeaca74138d55f55e940a0002f37f32c587fe7c406c44b9cf9",
        2: "75d1c976f595f9fd52b883a9b2f2e919382a8f4053c1d31d5d79b9722c7b7892",
        10: "d963675a7882b0b2088709100aa0cbfb2d61d2b07d3943c3c02f02acadbd493b",
        10_000: "62f799926286b1cd49b8df5afe22a2f1d3c6cd60bb02b693ef4b653f53c15a4a",
        300_000: "bf68b8be703493ee931678f1463abb90051a113c1f82d736f30d641b5588d69a",
        2_000_020: "7937f41cfc1528a958045349d85c865725078b833caf69f4d7b5a948fd20d28b",
    }

    @pytest.mark.parametrize("N", sorted(VALUE_DIGESTS))
    def test_pinned_values(self, request, N):
        t = full_tables(request, N)
        h = hashlib.sha256()
        for arr in (t.spf.astype("<i8"), t.mu.astype("<i1"), t.phi.astype("<i8")):
            h.update(arr)
        assert h.hexdigest() == self.VALUE_DIGESTS[N]

    def test_tables_are_read_only(self, tables_small):
        with pytest.raises(ValueError):
            tables_small.mu[1] = 0

    def test_dtypes_built_and_loaded(self, tmp_path, tables_small):
        path = tmp_path / "tables.bin"
        save_tables(tables_small.bound, str(path))
        for t in (tables_small, load_tables(str(path))):
            arrays = (t.spf, t.mu, t.phi)
            assert [a.dtype for a in arrays] == [np.int32, np.int8, np.int32]
            assert not any(a.flags.writeable for a in arrays)

    @pytest.mark.parametrize("N", [10_000, 2_000_020])
    def test_primes_match_primes_up_to(self, request, N):
        # A copy has its primes still unmade.  Comparing spf with an arange
        # in spf's dtype peaks near 5 bytes an entry; an int64 one near 9.
        t = dataclasses.replace(full_tables(request, N))
        tracemalloc.start()
        try:
            primes = t.primes
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 7 * (N + 1)
        assert primes.dtype == np.int64 and not primes.flags.writeable
        assert np.array_equal(primes, primes_up_to(N))


class TestSegmentKernel:
    @given(sieve_windows())
    @settings(max_examples=200, deadline=None)
    def test_matches_trial_division(self, window):
        N, lo, hi = window
        spf = _spf_segment(lo, hi, primes_up_to(math.isqrt(N)))
        assert spf.size == hi - lo + 1
        for i, n in enumerate(range(lo, hi + 1)):
            assert spf[i] == min(factorize(n), default=0)


class TestPrimeSegment:
    @given(sieve_windows(), st.sampled_from(["drawn", "next", 1, 2, 3]))
    @settings(max_examples=300, deadline=None)
    def test_matches_trial_division(self, window, start):
        # The drawn window, the same one from lo + 1 (the other parity of
        # lo), or its first 300 entries moved to start at lo = 1, 2 or 3.
        N, lo, hi = window
        if start == "next":
            lo = min(lo + 1, hi)
        elif start != "drawn":
            lo, hi = start, max(start, min(hi, start + 300))
        primes = _prime_segment(lo, hi, primes_up_to(math.isqrt(max(N, hi))))
        assert primes.dtype == np.int64
        assert primes.tolist() == [n for n in range(lo, hi + 1) if factorize(n) == {n: 1}]


class TestMuPhiRecurrence:
    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_matches_trial_division(self, data):
        # Bounds up to about 600,000 span several segments and several
        # recurrence chunks; n is drawn anywhere, or next to a chunk start
        # (a power of two or a multiple of the segment size).
        N = data.draw(st.integers(1, 600_000))
        t = build_sieve(N)
        starts = [2**k for k in range(1, N.bit_length())]
        starts += list(range(DEFAULT_SEGMENT_SIZE, N + 1, DEFAULT_SEGMENT_SIZE))
        near = st.sampled_from(starts).flatmap(
            lambda s: st.integers(max(1, s - 3), min(N, s + 3))
        ) if starts else st.just(1)
        for n in data.draw(st.lists(st.one_of(st.integers(1, N), near), max_size=40)):
            f = factorize(n)
            assert t.mu[n] == (0 if any(k > 1 for k in f.values()) else (-1) ** len(f))
            assert t.phi[n] == math.prod(p ** (k - 1) * (p - 1) for p, k in f.items())


class TestLambdaKernel:
    """``lambda_support``, the one code that computes Lambda."""

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_matches_trial_division(self, data):
        # N anywhere up to 600,000, or next to a segment edge k * 2^18 or a
        # square p^2.  Every n in a window around each edge and square below
        # N, and n drawn anywhere, is checked by trial division: in the
        # support exactly when a prime power, with its Lambda and Lambda_1.
        edges = [k * DEFAULT_SEGMENT_SIZE for k in (1, 2)]
        squares = [p * p for p in primes_up_to(math.isqrt(600_000)).tolist()]
        near = st.sampled_from(edges + squares).flatmap(
            lambda c: st.integers(c - 3, c + 3))
        N = data.draw(st.one_of(st.integers(1, 600_000), near))
        primes = primes_up_to(N)
        n, lam, lam1 = lambda_support(primes, N)
        assert n.dtype == np.int64 and n.size == lam.size == lam1.size
        assert np.all(np.diff(n) > 0)
        powers = sum(1 for p in primes[primes * primes <= N].tolist()
                     for k in range(2, 64) if p**k <= N)
        assert n.size == primes.size + powers
        at = dict(zip(n.tolist(), range(n.size)))
        checks = [m for c in edges + squares for m in range(c - 3, c + 4) if 1 <= m <= N]
        checks += data.draw(st.lists(st.integers(1, N), max_size=40))
        for m in checks:
            f = factorize(m)
            if len(f) != 1:
                assert m not in at
                continue
            (p,) = f
            i = at[m]
            assert lam[i] == np.log(np.float64(p))
            phi = math.prod(p ** (k - 1) * (p - 1) for p, k in f.items())
            assert lam1[i] == np.divide(phi, m) * lam[i]

    @pytest.mark.parametrize("primes, N", [
        ([2, 3, 46_349], 46_349**2),  # p^2 past 2^31 once it is squared
        (primes_up_to(10_000).tolist(), 10**8),
    ])
    def test_int32_primes_widen(self, primes, N):
        # An int32 spf slice, as lambda1_at passes, gives the int64 result.
        got = lambda_support(np.array(primes, dtype=np.int32), N)
        want = lambda_support(np.array(primes, dtype=np.int64), N)
        assert got[0].dtype == np.int64
        for g, w in zip(got, want):
            assert np.array_equal(g, w)

    def test_prime_powers(self):
        pk, p = _prime_powers(primes_up_to(10), 100)
        assert pk.tolist() == [4, 8, 9, 16, 25, 27, 32, 49, 64, 81]
        assert p.tolist() == [2, 2, 3, 2, 5, 3, 2, 7, 2, 3]


def assert_lambda_identical(tables, dense):
    """The support of Lambda from ``tables``' primes, scattered into zeros,
    is ``dense``, the reference (lam, lam1) from a full build's spf, byte
    for byte."""
    assert tables.bound + 1 == dense[0].size
    n, lam_n, lam1_n = lambda_support(tables.primes, tables.bound)
    lam = np.zeros(tables.bound + 1)
    lam1 = np.zeros(tables.bound + 1)
    lam[n] = lam_n
    lam1[n] = lam1_n
    assert lam.tobytes() == dense[0].tobytes()
    assert lam1.tobytes() == dense[1].tobytes()


class TestLambdaTables:
    @pytest.mark.parametrize("N", [1, 2, 3, 4, 10, 100, 10_000, 300_000, 2_000_020])
    def test_byte_identical_to_full_build(self, request, dense_lambda, N):
        dense = dense_lambda(full_tables(request, N))
        t = build_sieve(N, lambda_only=True)
        assert type(t) is LambdaTables
        assert_lambda_identical(t, dense)
        with pytest.raises(ValueError):
            t.primes[:] = 0

    def test_memory_budget(self):
        with pytest.raises(ResourceLimitError, match=str(10**15)):
            build_sieve(10**15, lambda_only=True)


class TestLambda1At:
    def test_examples(self, tables_small):
        assert lambda1_at(tables_small, 1) == 0.0
        assert lambda1_at(tables_small, 2) == pytest.approx(0.5 * math.log(2))
        assert lambda1_at(tables_small, 6) == 0.0

    def test_out_of_range(self, tables_small):
        with pytest.raises(ValueError):
            lambda1_at(tables_small, 0)
        with pytest.raises(ValueError):
            lambda1_at(tables_small, tables_small.bound + 1)

    def test_matches_dense_reference(self, tables_small, dense_lambda):
        lam1 = dense_lambda(tables_small)[1]
        for n in range(1, tables_small.bound + 1):
            assert lambda1_at(tables_small, n) == lam1[n], n

    def test_prime_power_formula(self, tables_small):
        for p, k in [(2, 5), (3, 3), (7, 2), (101, 1)]:
            n = p**k
            want = ((p - 1) / p) * math.log(p)
            assert lambda1_at(tables_small, n) == pytest.approx(want, rel=1e-15)


def dump_bytes(t):
    """The RMBL dump of format 3 of tables ``t``, built in memory: header,
    spf <i4, mu <i1, phi <i4 over 0..bound, crc32 of all before it as <u4."""
    data = (b"RMBL" + (3).to_bytes(4, "little") + t.bound.to_bytes(8, "little")
            + t.spf.astype("<i4").tobytes() + t.mu.astype("<i1").tobytes()
            + t.phi.astype("<i4").tobytes())
    return data + zlib.crc32(data).to_bytes(4, "little")


def fail_second_segment(monkeypatch):
    """Make the spf kernel raise on the second segment it is asked for."""
    calls = []

    def kernel(lo, hi, base):
        calls.append(lo)
        if len(calls) == 2:
            raise OSError("no space left in the second segment")
        return _spf_segment(lo, hi, base)

    monkeypatch.setattr(ramabel.sieve, "_spf_segment", kernel)


class TestDumpRestore:
    def test_roundtrip(self, tmp_path, tables_small):
        path = tmp_path / "tables.bin"
        digest = save_tables(tables_small.bound, str(path))
        back = load_tables(str(path))
        assert back.bound == tables_small.bound
        assert np.array_equal(back.mu, tables_small.mu)
        assert np.array_equal(back.phi, tables_small.phi)
        assert np.array_equal(back.spf, tables_small.spf)
        assert table_checksum(str(path), tables_small.bound) == digest
        with pytest.raises(ValueError, match="holds bound 10000, wanted 9999"):
            table_checksum(str(path), 9999)

    # One segment or less, the last N of one segment, one entry into the
    # second, and a few into the fourth; at 2^17 the first segment ends
    # with a one-entry recurrence chunk.
    @pytest.mark.parametrize("N", [1, 2, 100, 2**17, 2**18 - 1, 2**18, 2**18 + 1,
                                   3 * 2**18 + 5])
    def test_streamed_dump_is_the_built_tables(self, tmp_path, N):
        path = tmp_path / "tables.bin"
        digest = save_tables(N, str(path))
        data = dump_bytes(build_sieve(N))
        assert path.read_bytes() == data
        assert digest == hashlib.sha256(data).hexdigest()

    def test_streamed_dump_memory(self, tmp_path):
        # save_tables holds mu and phi up to N/2 (2.5 bytes an entry of N)
        # and one segment, table_checksum one chunk; the full tables would
        # take 9 bytes an entry.
        N, path = 2 * 10**6, str(tmp_path / "tables.bin")
        tracemalloc.start()
        try:
            save_tables(N, path)
            save_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            table_checksum(path, N)
            check_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert save_peak < 3 * N + 8 * 2**20
        assert check_peak < 8 * 2**20

    def test_save_memory_budget(self, tmp_path, monkeypatch):
        # The check counts what a save holds, mu and phi up to N/2 and one
        # segment of 8 MiB, and refuses one byte over before any file is made.
        N, path = 10**6, str(tmp_path / "tables.bin")
        need = 5 * (N // 2 + 1) + 8 * 2**20
        for budget in (need - 1, need):
            monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": budget}.get)
            if budget < need:
                with pytest.raises(ResourceLimitError, match=f"sieve bound {N} needs about {need}"):
                    save_tables(N, path)
                assert list(tmp_path.iterdir()) == []
            else:
                save_tables(N, path)

    def test_failed_save_leaves_no_file(self, tmp_path, monkeypatch):
        fail_second_segment(monkeypatch)
        path = tmp_path / "tables.bin"
        with pytest.raises(OSError, match="second segment"):
            save_tables(2**18 + 1, str(path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_save_keeps_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "tables.bin"
        digest = save_tables(2**18 + 1, str(path))
        before = path.read_bytes()
        fail_second_segment(monkeypatch)
        with pytest.raises(OSError, match="second segment"):
            save_tables(2**18 + 1, str(path))
        assert list(tmp_path.iterdir()) == [path]
        assert path.read_bytes() == before
        assert table_checksum(str(path), 2**18 + 1) == digest

    def test_full_layout(self, tmp_path):
        # Header, spf <i4, mu <i1, phi <i4 over 0..100, crc32 of all as <u4.
        t = build_sieve(100)
        path = tmp_path / "tables.bin"
        digest = save_tables(100, str(path))
        data = path.read_bytes()
        assert len(data) == 16 + 9 * 101 + 4
        assert data[:16] == b"RMBL" + (3).to_bytes(4, "little") + (100).to_bytes(8, "little")
        assert data[16:-4] == (t.spf.astype("<i4").tobytes() + t.mu.astype("<i1").tobytes()
                               + t.phi.astype("<i4").tobytes())
        assert data[-4:] == zlib.crc32(data[:-4]).to_bytes(4, "little")
        assert digest == table_checksum(str(path), 100) == hashlib.sha256(data).hexdigest()
        back = load_tables(str(path))
        assert type(back) is SieveTables
        assert all(not getattr(back, name).flags.writeable for name in ("spf", "mu", "phi"))
        data = bytearray(data)
        data[16 + 4 * 101 + 30] ^= 1  # mu(30)
        path.write_bytes(data)
        for read in (load_tables, lambda p: table_checksum(p, 100)):
            with pytest.raises(DamagedDumpError, match="crc32"):
                read(str(path))
        path.write_bytes(bytes(data) + b"\0")
        for read in (load_tables, lambda p: table_checksum(p, 100)):
            with pytest.raises(DamagedDumpError, match="overlong"):
                read(str(path))

    def test_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"not a table dump")
        for read in (load_tables, lambda p: table_checksum(p, 100)):
            with pytest.raises(ValueError, match="bad magic"):
                read(str(path))

    def test_length_checked_before_reading(self, tmp_path):
        # A header whose bound is far past the file's length is refused by
        # the length check before any array is allocated or byte read.
        path = tmp_path / "tables.bin"
        path.write_bytes(b"RMBL" + (3).to_bytes(4, "little") + (2**40).to_bytes(8, "little")
                         + bytes(100))
        tracemalloc.start()
        try:
            for read in (load_tables, lambda p: table_checksum(p, 2**40)):
                with pytest.raises(DamagedDumpError, match="truncated"):
                    read(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    # Dump prefixes: empty, cut inside the header, the header alone, cut
    # inside the first and inside the last array of the 360,029-byte dump at
    # N = 40,000 (spf ends at byte 160,020, mu at 200,021, phi at 360,025).
    # The reader and the checksum raise alike.
    @pytest.mark.parametrize("keep, message", [
        (0, "bad magic"), (6, "truncated"), (16, "truncated"),
        (40_000, "truncated"), (330_000, "truncated"),
    ])
    def test_rejects_truncated(self, tmp_path, keep, message):
        path = tmp_path / "tables.bin"
        save_tables(40_000, str(path))
        path.write_bytes(path.read_bytes()[:keep])
        for read in (load_tables, lambda p: table_checksum(p, 40_000)):
            with pytest.raises(ValueError, match=message):
                read(str(path))


class TestHelpers:
    def test_primes_up_to(self):
        assert list(primes_up_to(20)) == [2, 3, 5, 7, 11, 13, 17, 19]
        assert list(primes_up_to(1)) == []

    def test_primes_up_to_memory_budget(self):
        # The primes up to 10^15 need about 2.9 * 10^14 bytes: the check
        # raises before anything is allocated.
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=str(10**15)):
                primes_up_to(10**15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_primes_up_to_memory_check_scale(self, monkeypatch):
        # With 1 MiB of memory, the primes up to 10^5 (about 87 kB by the
        # estimate) fit and those up to 2 * 10^6 (about 1.39 MB) do not.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 256}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        assert primes_up_to(10**5).size == 9_592
        with pytest.raises(ResourceLimitError, match="memory budget of 1048576 bytes"):
            primes_up_to(2 * 10**6)

    # SHA-256 of the little-endian int64 primes; any changed prime fails.
    PRIME_DIGESTS = {
        10: (4, "0e37d337015d595e2cb60f8d4519a6d98b6b6fabb1dc3d329966c2297bbc70c7"),
        10**4: (1_229, "ed1b13e85f736ccfaf0919e82e7e5efebe1000b71388ed6ff365c27a615f95b8"),
        3 * 10**5: (25_997, "8a7f4b1cbea613a29405e8c2285b60ebd988e034eb9a5805c9f628d31df01d52"),
        10**6: (78_498, "9a175956bcc0270ceaaf56af1b9f8fa19762597a1286b5124ca6d86284f60b40"),
        10**7: (664_579, "2ad296d1337aaafbb800643fa0cf7a36badb424747f4b9a112d353f8b6631993"),
        10**8: (5_761_455, "a7eead5377c738f5ecdd62fd01a0cedbcecee527cbf31739d4ecc1f3fae07766"),
    }

    @pytest.mark.parametrize("N", sorted(PRIME_DIGESTS))
    def test_primes_up_to_pinned_digest(self, N):
        primes = primes_up_to(N)
        assert primes.dtype == np.int64
        count, digest = self.PRIME_DIGESTS[N]
        assert primes.size == count
        assert hashlib.sha256(np.ascontiguousarray(primes, dtype="<i8")).hexdigest() == digest

    @given(prime_windows())
    @settings(max_examples=60, deadline=None)
    @example((2, 2))
    @example((2, 3))
    @example((3, 2))  # two primes in a window of two integers
    @example((10, 11))
    @example((10, 0))
    @example((10, -3))
    @example((2 * PRIME_SEGMENT_ODDS + 1, 2 * PRIME_SEGMENT_ODDS + 1))
    @example((4 * PRIME_SEGMENT_ODDS + 1, 2 * PRIME_SEGMENT_ODDS + 1))
    def test_primes_up_to_window_is_a_slice(self, window):
        n, lo = window
        full = primes_up_to(n)
        got = primes_up_to(n, lo)
        assert got.dtype == np.int64
        assert got.tolist() == full[full >= lo].tolist()

    def test_primes_up_to_matches_spf(self):
        # The spf kernel is another algorithm: n >= 2 is prime iff spf[n] == n.
        # Bounds at and next to each edge k * 2 * PRIME_SEGMENT_ODDS of the
        # prime segments and k * 2^18 of the spf segments, and p^2 and
        # p^2 +- 1 for the base primes whose squares lie nearest each edge.
        span = 2 * PRIME_SEGMENT_ODDS
        edges = [k * DEFAULT_SEGMENT_SIZE for k in range(1, 8)] + [span, 2 * span]
        ns = [1, 2, 3, 4] + [e + d for e in edges for d in (-1, 0, 1)]
        small = primes_up_to(math.isqrt(2 * span) + 100).tolist()
        for e in edges:
            below = max(p for p in small if p * p <= e)
            above = min(p for p in small if p * p > e)
            ns += [p * p + d for p in (below, above) for d in (-1, 0, 1)]
        t = build_sieve(max(ns))
        n_all = np.arange(t.bound + 1)
        prime = (t.spf == n_all) & (n_all >= 2)
        for n in ns:
            assert primes_up_to(n).tolist() == np.flatnonzero(prime[: n + 1]).tolist(), n

    def test_sigma_table(self):
        sig = sigma_table(12)
        assert sig[1] == 1
        assert sig[6] == 12
        assert sig[12] == 28
