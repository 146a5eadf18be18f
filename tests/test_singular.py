"""Hardy-Littlewood style Euler products: twin constant, pair/tuple
constants, linear-pair (conjecture D) constant, and the series route."""

import math
import re
import time
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ramabel import (
    ResourceLimitError,
    conjecture_d_constant,
    lambda1_series,
    pair_constant,
    required_Q,
    series_constant,
    series_wk,
    sigma_rf,
    tuple_constant,
    twin_constant,
)
from ramabel import sieve, singular
from ramabel.ramanujan import cq_int
from ramabel.singular import (
    _residue_counts,
    check_admissible,
    series_naive_product,
    validate_linear_pair,
    validate_tuple,
)
from ramabel.sieve import PRIME_SEGMENT_ODDS, _prime_factors, primes_up_to

from conftest import factorize, fresh_python, traced_peak, vmhwm_rise


class TestTwinConstant:
    def test_tiny_truncation(self):
        # only odd prime <= 3 is 3: product is 1 - 1/(3-1)^2 = 0.75
        assert twin_constant(3).value == pytest.approx(0.75, abs=1e-15)

    def test_reference_value(self):
        got = twin_constant(10**6)
        assert got.value == pytest.approx(0.6601618158, abs=1e-6)  # C2 to ten digits

    def test_monotone_decreasing_in_P(self):
        vals = [twin_constant(P).value for P in (10**2, 10**3, 10**4, 10**5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_tail_estimate_shrinks(self):
        tails = [twin_constant(P).tail_estimate for P in (10**2, 10**4, 10**6)]
        assert tails[0] > tails[1] > tails[2] > 0

    # Bit-exact: fsum is correctly rounded over the same float64 logs.
    @pytest.mark.parametrize("P, value", [
        (10**3, 0.6602457439708007),
        (10**6, 0.6601618605898408),
        (10**7, 0.6601618197154555),
    ])
    def test_pinned_values(self, P, value):
        assert twin_constant(P).value == value

    def test_invalid_truncation(self):
        with pytest.raises(ValueError):
            twin_constant(2)


class TestPairConstant:
    def test_gap_two_is_twice_twin(self):
        P = 10**5
        assert pair_constant(2, P).value == pytest.approx(
            2 * twin_constant(P).value, rel=1e-14
        )

    def test_gap_six_is_double_gap_two(self):
        P = 10**5
        assert pair_constant(6, P).value == pytest.approx(
            2 * pair_constant(2, P).value, rel=1e-14
        )

    def test_odd_prime_factors_scale(self):
        P = 10**4
        base = pair_constant(2, P).value
        # h = 2*5: extra factor (5-1)/(5-2) = 4/3
        assert pair_constant(10, P).value == pytest.approx(base * 4 / 3, rel=1e-12)

    def test_rejects_odd_gap(self):
        with pytest.raises(ValueError):
            pair_constant(3, 100)


def _next_prime(n):
    """The least prime >= n, for 2 <= n < 10^10."""
    small = primes_up_to(10**5)
    while (n % small[small < n] == 0).any():
        n += 1
    return n


class TestPrimeFactors:
    @given(st.integers(-10**7, 10**7).filter(bool))
    @settings(max_examples=500, deadline=None)
    @example(1)
    @example(2**23)
    @example(1021 * 1031)  # the primes either side of the trial cutoff 2^10
    @example(1031**2)
    @example(1031 * 1039)  # rho's first batch reaches both factors: retraced
    @example(9_999_991)
    def test_matches_trial_division(self, n):
        assert _prime_factors(n) == sorted(factorize(abs(n)).items())

    # Two primes near 10^9, or one squared: the cofactor after trial
    # division is composite, split by rho.
    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    @settings(max_examples=60, deadline=None)
    @example(0, 0)
    def test_products_of_primes_near_1e9(self, dp, dq):
        p, q = sorted((_next_prime(10**9 + dp), _next_prime(10**9 + dq)))
        assert _prime_factors(p * q) == ([(p, 2)] if p == q else [(p, 1), (q, 1)])

    @pytest.mark.parametrize("n, factors", [
        (10**16 + 61, [(10**16 + 61, 1)]),
        (2**64 - 1, [(3, 1), (5, 1), (17, 1), (257, 1), (641, 1), (65537, 1), (6700417, 1)]),
        (4294967279 * 4294967291, [(4294967279, 1), (4294967291, 1)]),
        # A strong pseudoprime to the bases 2 to 23 (Jaeschke, 1993).
        (3825123056546413051, [(149491, 1), (747451, 1), (34233211, 1)]),
    ])
    def test_large_n_is_fast(self, n, factors):
        start = time.perf_counter()
        assert _prime_factors(n) == factors
        assert time.perf_counter() - start < 0.5

    def test_pseudoprime_beyond_the_proven_range(self, monkeypatch):
        # 25326001 = 2251 * 11251 is the least strong pseudoprime to the
        # bases 2, 3 and 5, so Miller-Rabin to those bases is proven only
        # below it; at and above the limit a cofactor that passes, composite
        # or prime, is refused.
        monkeypatch.setattr(sieve, "_MR_BASES", (2, 3, 5))
        monkeypatch.setattr(sieve, "_MR_LIMIT", 25326001)
        for n in (25326001, 25326023):
            with pytest.raises(ResourceLimitError, match=f"factor {n} prime: .* below 25326001$"):
                _prime_factors(n)
        assert _prime_factors(25325981) == [(25325981, 1)]  # the prime below it

    def test_rho_gives_up_past_its_step_cap(self, monkeypatch):
        # 4294967279 * 4294967291 takes 131,070 steps, the rounds r = 1 to
        # 2^15: refused, naming the cofactor, under a cap one step short of
        # that, and split at it.
        n = 4294967279 * 4294967291
        monkeypatch.setattr(sieve, "_RHO_STEPS", 131069)
        with pytest.raises(ResourceLimitError, match=f"no factor of {n} in 131069 steps$"):
            _prime_factors(3 * n)
        monkeypatch.setattr(sieve, "_RHO_STEPS", 131070)
        assert _prime_factors(3 * n) == [(3, 1), (4294967279, 1), (4294967291, 1)]


class TestLinearPairValidation:
    def test_accepts_paper_special_cases(self):
        validate_linear_pair(1, 1, 2)  # twin primes
        validate_linear_pair(1, 2, 1)  # Sophie Germain
        validate_linear_pair(3, 2, 1)

    @pytest.mark.parametrize("abl", [(0, 1, 2), (2, 4, 2), (1, 3, 5), (2, 2, 3)])
    def test_rejects_bad_hypotheses(self, abl):
        with pytest.raises(ValueError):
            validate_linear_pair(*abl)


class TestConjectureDConstant:
    def test_twin_case_matches_pair_constant(self):
        P = 10**5
        assert conjecture_d_constant(1, 1, 2, P).value == pair_constant(2, P).value

    def test_sophie_germain_case(self):
        # (a,b,l) = (1,2,1): n and 2n+1 both prime; constant is 2 C_2
        P = 10**5
        assert conjecture_d_constant(1, 2, 1, P).value == pytest.approx(
            2 * twin_constant(P).value, rel=1e-12
        )

    # Bit-exact: the odd prime factors of a, b and l multiply in ascending order.
    @pytest.mark.parametrize("abl, value", [
        ((105, 4, 11), 0.04470940752367316),
        ((2, 9, 35), 2.112519505493557),
    ])
    def test_pinned_values(self, abl, value):
        assert conjecture_d_constant(*abl, 10**5).value == value


class TestAdmissibility:
    def test_residue_counts(self):
        ps = np.array([2, 3, 5, 7])
        assert _residue_counts(np.array([0, 2, 6]), ps).tolist() == [1, 2, 3, 3]
        assert _residue_counts(np.array([0, 2, 4]), ps).tolist() == [1, 3, 3, 3]
        assert _residue_counts(np.array([0, 2]), ps).tolist() == [1, 2, 2, 2]
        # Offsets past int64 are reduced exactly, in Python ints:
        # 2^64 + 4 is 2 mod 3, 0 mod 5 and 6 mod 7.
        big = np.array([0, 2, 2**64 + 4])
        assert big.dtype == object
        assert _residue_counts(big, ps).tolist() == [1, 2, 2, 3]

    def test_check_admissible(self):
        assert check_admissible((0, 2, 6)) is None
        assert check_admissible((0, 2, 4)) == 3
        assert check_admissible((0,)) is None
        assert check_admissible((0, 2, 6, 8, 14)) == 5

    # Offsets are multiples of a scale in {1, 2, 6, 30}, so the first
    # obstructing prime is often above 2, 3 or 5.
    @given(st.sampled_from([1, 2, 6, 30]).flatmap(lambda scale: st.lists(
        st.integers(0, 300 // scale).map(lambda o: o * scale), max_size=40, unique=True)))
    @settings(max_examples=300, deadline=None)
    def test_check_admissible_matches_all_primes_to_max_offset(self, offsets):
        # The reference counts the residues of every prime up to
        # max(offsets) + 1 as a set.
        offsets = (0, *sorted(o for o in offsets if o))
        want = next((p for p in map(int, primes_up_to(max(max(offsets) + 1, 2)))
                     if len({o % p for o in offsets}) == p), None)
        assert check_admissible(offsets) == want

    @pytest.mark.parametrize("offsets, error", [
        ((), "must start with 0, got ()"),
        ((2, 4), "must start with 0, got (2, 4)"),
        ((0, 4, 2), "must be strictly increasing, got (0, 4, 2)"),
        ((0, 2, 2), "must be strictly increasing, got (0, 2, 2)"),
        ((0, 2, 4), "offsets (0, 2, 4) are inadmissible: prime 3 covers every residue"),
        ((0, 2, 6, 8, 14),
         "offsets (0, 2, 6, 8, 14) are inadmissible: prime 5 covers every residue"),
        ((0, 1), "offsets (0, 1) are inadmissible: prime 2 covers every residue"),
    ])
    def test_validate_tuple_rejects(self, offsets, error):
        with pytest.raises(ValueError) as info:
            validate_tuple(offsets)
        assert str(info.value).endswith(error)

    def test_validate_tuple_returns_ints(self):
        got = validate_tuple(np.array([0, 2, 6]))
        assert got == (0, 2, 6) and all(type(o) is int for o in got)
        assert validate_tuple([0]) == (0,)
        assert validate_tuple((0, 2, 2**64 + 4)) == (0, 2, 2**64 + 4)


class TestTupleConstant:
    def test_single_gap_matches_pair(self):
        P = 10**5
        assert tuple_constant((0, 2), P).value == pytest.approx(
            pair_constant(2, P).value, abs=1e-8
        )

    # Admissible tuples of offsets below 300, at P from the largest offset
    # up.  Their nu(p) fit in one block; the 13-offset pinned value below
    # spans many.  Offsets are drawn even, since with 0 an odd one covers
    # both residues mod 2, so that few draws are filtered out.
    @given(st.lists(st.integers(1, 149).map(lambda k: 2 * k), min_size=1, max_size=5,
                    unique=True),
           st.integers(0, 2000))
    @example([2, 6], 10**4 - 6)
    @settings(max_examples=150, deadline=None)
    def test_independent_direct_product(self, rest, extra_p):
        # recompute the constant with a plain per-prime loop
        offsets = (0, *sorted(rest))
        assume(check_admissible(offsets) is None)
        m = len(offsets) - 1
        P = max(offsets[-1], m + 1) + extra_p
        prod = 1.0
        for p in map(int, primes_up_to(P)):
            nu = len({a % p for a in offsets})
            prod *= (p / (p - 1)) ** m * (p - nu) / (p - 1)
        got = tuple_constant(offsets, P).value
        assert got == pytest.approx(prod, rel=1e-12)

    # Bit-exact: fsum is correctly rounded, so these hold while every log
    # term keeps its float.
    @pytest.mark.parametrize("offsets, value", [
        ((0, 2), 1.320323639431023),
        ((0, 2, 6), 2.8582486459680605),
        ((0, 4, 6, 10, 12), 10.131795543727534),
        ((0, 2, 6000002), 4.293638455914987),
        # 13 offsets up to 9,699,690: nu(p) is counted over many blocks.
        ((0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 9699690), 54782.79623962369),
    ])
    def test_pinned_values(self, offsets, value):
        assert tuple_constant(offsets, 10**7).value == value

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            tuple_constant((0, 2, 4), 100)

    # The 1-tuple's constant is 1 at every P >= 1, and its P is checked as
    # every tuple's is: small_cut = max(0, 1) = 1.
    @pytest.mark.parametrize("P", [0, -5])
    def test_one_tuple_checks_P(self, P):
        with pytest.raises(ValueError, match=rf"^P={P} too small; need P >= 1$"):
            tuple_constant((0,), P)
        assert tuple_constant((0,), 1).value == 1.0

    def test_unsorted_rejected(self):
        with pytest.raises(ValueError):
            tuple_constant((0, 6, 2), 100)


class TestSeriesConstant:
    @pytest.mark.parametrize("h", [2, 4, 6, 8, 10, 12])
    def test_agrees_with_pair_constant(self, h):
        P = 10**6
        got = series_constant(h, P).value
        want = pair_constant(h, P).value
        assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("P", [1, 0, -5])
    def test_invalid_truncation(self, P):
        with pytest.raises(ValueError, match="P must be >= 2"):
            series_constant(2, P)

    @pytest.mark.parametrize("h", [0, -6])
    def test_invalid_gap(self, h):
        with pytest.raises(ValueError, match=rf"^h must be >= 1, got {h}$"):
            series_constant(h, 1000)

    # The naive product takes the same checks: P through _euler_product, h of
    # its own, where a P < 2 once failed in pi_bound and an h < 1 gave 0.0.
    @pytest.mark.parametrize("P", [1, 0])
    def test_naive_product_invalid_truncation(self, P):
        with pytest.raises(ValueError, match=rf"^P must be >= 2, got {P}$"):
            series_naive_product(6, P)

    @pytest.mark.parametrize("h", [0, -1, -(2**64)])
    def test_naive_product_invalid_gap(self, h):
        with pytest.raises(ValueError, match=rf"^h must be >= 1, got {h}$"):
            series_naive_product(h, 1000)

    def test_odd_gap_vanishes(self):
        for h in (1, 3, 9):
            assert series_constant(h, 10**4).value == 0.0

    # Bit-exact value and naive product, as for the tuple constant; h
    # beyond int64 is reduced mod each p in Python ints.
    @pytest.mark.parametrize("h, P, value, naive", [
        (1, 10**3, 0.0, 12.350975673851657),
        (2, 10**3, 1.3204914879416014, 0.0),
        (3, 10**3, 0.0, 0.0),
        (6, 10**3, 2.640982975883203, 0.0),
        (30, 10**3, 3.521310634510937, 0.0),
        (60, 10**3, 3.521310634510937, 0.0),
        (1, 10**6, 0.0, 24.607382947629816),
        (2, 10**6, 1.3203237211796743, 0.0),
        (3, 10**6, 0.0, 0.0),
        (6, 10**6, 2.6406474423593487, 0.0),
        (30, 10**6, 3.5208632564791316, 0.0),
        (60, 10**6, 3.5208632564791316, 0.0),
        (1, 10**7, 0.0, 28.70777036091289),
        (2, 10**7, 1.320323639430981, 0.0),
        (3, 10**7, 0.0, 0.0),
        (6, 10**7, 2.640647278861962, 0.0),
        (30, 10**7, 3.5208630384826165, 0.0),
        (60, 10**7, 3.5208630384826165, 0.0),
        (3 * 2**64, 10**3, 2.640982975883203, 0.0),
        (10**20 + 7, 10**3, 0.0, 0.0),
    ])
    def test_pinned_values(self, h, P, value, naive):
        assert (series_constant(h, P).value, series_naive_product(h, P)) == (value, naive)

    def test_naive_rearrangement_is_degenerate(self):
        # the term-by-term product (1 + mu(p) c_p(h) / phi(p)) collapses
        # to zero at even h because the p=2 factor is 1 + (-1)(-1)/1 ... = 0
        assert series_naive_product(2, 10**4) == 0.0

    def test_series_wk_route(self, tables):
        # the direct q-sum converges to the same constant, slowly
        for h in (2, 6):
            got = series_wk(h, tables.bound)
            want = pair_constant(h, 10**6).value
            assert got.value == pytest.approx(want, abs=5e-2)
            assert got.tail_estimate > 0

    # Bit-exact: the fsum of the same float terms, computed before the sum
    # was restricted to the squarefree q.
    @pytest.mark.parametrize("h, Q, value", [
        (1, 300_000, 7.153406499174436e-09),
        (2, 300_000, 1.3203236318733198),
        (7, 300_000, -2.046473097236952e-08),
        (30, 300_000, 3.520862997752856),
        (10**8, 300_000, 1.7604315150531697),
        (1, 99_991, -2.7192915449070753e-08),
        (6, 99_991, 2.6406472255535927),
    ])
    def test_series_wk_pinned_values(self, h, Q, value):
        assert series_wk(h, Q).value == value

    # h past int64 is reduced mod each q in Python ints: the sum is the fsum
    # of the scalar int path's terms.
    @pytest.mark.parametrize("h", [2**63, 2**64 + 6, 3 * 2**70])
    def test_series_wk_beyond_int64(self, tables_small, h):
        Q = tables_small.bound
        want = math.fsum(1.0 / float(tables_small.phi[q]) ** 2 * cq_int(q, h)
                         for q in range(1, Q + 1) if tables_small.mu[q])
        assert series_wk(h, Q).value == want

    def test_series_wk_odd_gap_small(self, tables):
        got = series_wk(3, tables.bound)
        assert abs(got.value) < 5e-2

    @given(st.integers(1, 2000))
    @settings(max_examples=200, deadline=None)
    def test_series_wk_sigma_matches_divisor_sum(self, h):
        # The tail estimate is sigma(h) * 4.4 / Q, sigma(h) from the divisors.
        sigma = sum(d for d in range(1, h + 1) if h % d == 0)
        assert series_wk(h, 10).tail_estimate == sigma * 4.4 / 10

    def test_series_wk_large_gap_is_fast(self):
        # sigma(10^8) from the factorisation 2^8 5^8, not from 10^8 trial
        # divisors; the tail estimate is the one pinned before the change.
        start = time.perf_counter()
        got = series_wk(10**8, 1000)
        assert time.perf_counter() - start < 1.0
        assert got.tail_estimate == 1097851.0004

    def test_series_wk_large_prime_gap_is_fast(self):
        # h = 10^16 + 61 is prime, so sigma(h) = h + 1, from Miller-Rabin
        # rather than 10^8 trial divisors.
        h = 10**16 + 61
        start = time.perf_counter()
        got = series_wk(h, 1000)
        assert time.perf_counter() - start < 1.0
        assert got.tail_estimate == (h + 1) * 4.4 / 1000


# The products stream over windows of 2 * PRIME_SEGMENT_ODDS = 2^21 integers.
WINDOW = 2 * PRIME_SEGMENT_ODDS
H0 = 3_000_017  # the least prime above 3 * 10^6, in the second window
TUPLE13 = (0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 1_999_998)


class TestWindowedProducts:
    """Every product is bit-identical to the one over the whole array of
    primes <= P: fsum depends only on the multiset of terms."""

    # Computed at each P over one array of all the primes <= P.  2^21 - 1,
    # 2^21 and 2^21 + 1 share their primes; the first ends the first window,
    # the others open the second.
    PINS = {
        WINDOW - 1: (0.66016183615218, 3.52086312614496, 0.04470937303041218,
                     2.858248859462158, 51748.967094940526),
        WINDOW: (0.66016183615218, 3.52086312614496, 0.04470937303041218,
                 2.858248859462158, 51748.967094940526),
        WINDOW + 1: (0.66016183615218, 3.52086312614496, 0.04470937303041218,
                     2.858248859462158, 51748.967094940526),
        2 * WINDOW + 1: (0.6601618255642252, 3.5208630696758676, 0.04470937231334435,
                         2.858248721936943, 51748.90235703125),
        10**7: (0.6601618197154555, 3.520863038482429, 0.044709371917237194,
                2.8582486459680605, 51748.8665959813),
    }

    @pytest.mark.parametrize("P", sorted(PINS))
    def test_pinned_values(self, P):
        got = (twin_constant(P).value, pair_constant(30, P).value,
               conjecture_d_constant(105, 4, 11, P).value,
               tuple_constant((0, 2, 6), P).value, tuple_constant(TUPLE13, P).value)
        assert got == self.PINS[P]

    # small_cut = 3,000,002 lies in the second window, so nu(p) < m + 1 is
    # counted for primes of two windows.
    @pytest.mark.parametrize("P, value", [
        (2 * WINDOW + 1, 4.296708719407788),
        (10**7, 4.296708605206334),
    ])
    def test_tuple_small_cut_beyond_first_window(self, P, value):
        assert tuple_constant((0, 2, 3_000_002), P).value == value

    # (value, naive product) at h = 1, 2, 30, the prime H0 and 2 * H0.  At
    # odd h the diagonal factor at p = 2 is 0, in the first window; at H0 the
    # raw factor at p = H0 is 0, in the second, and before it the raw
    # product is the one at h = 1.
    SERIES_PINS = {
        WINDOW - 1: [(0.0, 25.926658975346125), (1.3203236723043732, 0.0),
                     (3.520863126144995, 0.0), (0.0, 25.926658975346125),
                     (1.3203236723043732, 0.0)],
        WINDOW + 1: [(0.0, 25.926658975346125), (1.3203236723043732, 0.0),
                     (3.520863126144995, 0.0), (0.0, 25.926658975346125),
                     (1.3203236723043732, 0.0)],
        2 * WINDOW + 1: [(0.0, 27.16087131842328), (1.320323651128458, 0.0),
                         (3.520863069675888, 0.0), (0.0, 0.0),
                         (1.3203240912341412, 0.0)],
        10**7: [(0.0, 28.70777036091289), (1.320323639430981, 0.0),
                (3.5208630384826165, 0.0), (0.0, 0.0),
                (1.3203240795366602, 0.0)],
    }

    @pytest.mark.parametrize("P", sorted(SERIES_PINS))
    def test_series_pinned_values(self, P):
        got = [(series_constant(h, P).value, series_naive_product(h, P))
               for h in (1, 2, 30, H0, 2 * H0)]
        assert got == self.SERIES_PINS[P]

    def test_one_window_of_memory(self):
        # One window: the 1 MiB mask of its odd numbers, its primes as
        # sieved (about 1 MiB) and the terms of one run of its primes.
        # Over one array of the primes <= 2 * 10^7 the peak was 29.1 MiB.
        twin_constant(10**6)
        assert traced_peak(lambda: twin_constant(2 * 10**7)) < 16 * 2**20

    # No window edge k * 2^21 + 1 up to 10^7 is prime, so the pins above
    # would not see a prime read twice or skipped there.  Windows of a few
    # integers put edges at primes, at the small cut and at p | h.
    @pytest.mark.parametrize("odds", [1, 2, 5, 64, 1000])
    def test_window_size_does_not_change_values(self, monkeypatch, odds):
        P = 3_001

        def values():
            consts = [twin_constant(P), pair_constant(30, P),
                      tuple_constant((0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 2310), P)]
            return [c.value for c in consts] + [
                (series_constant(h, P).value, series_naive_product(h, P))
                for h in (1, 2, 30, 1499, 2 * 1499)]

        want = values()
        monkeypatch.setattr(sieve, "PRIME_SEGMENT_ODDS", odds)
        assert values() == want

    def test_windows_follow_the_sieve_segment_size(self, monkeypatch):
        # The window size is read from sieve when a product runs, so windows
        # of 2^11 integers put four more edges below 10^4.
        starts = []

        def recorded(n, lo=1):
            starts.append(lo)
            return primes_up_to(n, lo)

        monkeypatch.setattr(sieve, "PRIME_SEGMENT_ODDS", 1 << 10)
        monkeypatch.setattr(singular, "primes_up_to", recorded)
        twin_constant(10**4)
        assert starts == [1, 2049, 4097, 6145, 8193]

    def test_every_walk_takes_the_windows_of_window_bounds(self, monkeypatch):
        # lambda_windows, primes_up_to and the Euler products all sieve the
        # windows of sieve.window_bounds, at the size patched into sieve.
        windows = [(1, 10), (11, 20), (21, 30), (31, 37)]
        twin = twin_constant(37).value
        segments, calls = [], []
        prime_segment = sieve._prime_segment

        def recorded_segment(lo, hi, base):
            segments.append((lo, hi))
            return prime_segment(lo, hi, base)

        def recorded_primes(n, lo=1):
            calls.append((lo, n))
            return primes_up_to(n, lo)

        monkeypatch.setattr(sieve, "PRIME_SEGMENT_ODDS", 5)
        monkeypatch.setattr(sieve, "_prime_segment", recorded_segment)
        monkeypatch.setattr(singular, "primes_up_to", recorded_primes)
        assert list(sieve.window_bounds(1, 37)) == windows
        assert [end for end, *_ in sieve.lambda_windows(1, 37)] == [end for _, end in windows]
        assert segments[-4:] == windows
        assert primes_up_to(37).tolist() == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
        assert segments[-4:] == windows
        assert twin_constant(37).value == twin
        assert calls == windows

    def test_zero_factor_raises_no_warning(self):
        # log 0 = -inf is the zero-factor rule of _euler_product, not a fault.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert series_constant(1, 5000).value == 0.0
            assert series_naive_product(30, 5000) == 0.0

    def test_zero_factor_stops_the_windows(self, monkeypatch):
        # At h = 1 the diagonal factor at p = 2 is 0, so that product reads
        # the first window alone; the raw product reads all three.
        starts = []

        def recorded(n, lo=1):
            starts.append(lo)
            return primes_up_to(n, lo)

        monkeypatch.setattr(singular, "primes_up_to", recorded)
        got = (series_constant(1, 2 * WINDOW + 1).value, series_naive_product(1, 2 * WINDOW + 1))
        assert got == (0.0, 27.16087131842328)
        assert starts == [1, 1, WINDOW + 1, 2 * WINDOW + 1]

    @pytest.mark.parametrize("product", [
        lambda P: twin_constant(P),
        lambda P: tuple_constant((0, 2, 6), P),
        lambda P: series_constant(2, P),
    ], ids=["twin", "tuple", "series"])
    def test_refused_before_sieving(self, monkeypatch, product):
        # pi(10^15) is far over the 10^9 factors a product takes: the check
        # raises before anything is sieved or allocated.
        def small_only(n, lo=1):  # the tuple's admissibility check sieves to 3
            assert n < 100, f"the primes up to {n} were sieved"
            return primes_up_to(n, lo)

        def refused():
            with pytest.raises(ResourceLimitError, match="over the limit of 1000000000"):
                product(10**15)

        monkeypatch.setattr(singular, "primes_up_to", small_only)
        assert traced_peak(refused) < 100_000


class TestFsumChunks:
    """Every Euler product and q-sum computes its terms, and hands them to
    fsum, in chunks of _FSUM_CHUNK: fsum is correctly rounded whatever the
    chunks are."""

    # Chunks of 1, 2 and 7 put edges at every term, at p = 2 and p = 1499,
    # whose zero factors stop the naive products, and at the small cut.
    @pytest.mark.parametrize("chunk", [1, 2, 7, 4096])
    def test_chunk_size_does_not_change_values(self, monkeypatch, chunk):
        P = 3_001

        def values():
            consts = [twin_constant(P), pair_constant(30, P),
                      tuple_constant((0, 2, 6, 8, 12, 18, 20, 26, 30, 32, 36, 42, 2310), P)]
            return [c.value for c in consts] + [
                (series_constant(h, P).value, series_naive_product(h, P))
                for h in (1, 2, 30, 1499, 2 * 1499)] + [
                series_wk(h, 5_000).value for h in (1, 2, 30)] + [
                lambda1_series(0.99, 3_000, x) for x in (7, 7.3)] + [
                sigma_rf(n, 5_000) for n in (1, 12, 360)]

        want = values()
        monkeypatch.setattr(singular, "_FSUM_CHUNK", chunk)
        assert values() == want

    # Traced peaks before the terms were chunked, and after: a product held
    # a window's log terms while it sieved the next, 5.47 and 3.38 MiB; a
    # q-sum turned a segment into one list of Python floats, and held the
    # segment while the next was built, 7.75 and 5.48 MiB, 11.59 and 8.72
    # MiB.  Chunked terms with the last window or segment kept while the
    # next is drawn gave 4.37, 6.94 and 10.17 MiB.
    @pytest.mark.parametrize("call, bound", [
        (lambda: twin_constant(5 * 10**6), 4 * 2**20),
        (lambda: series_wk(20, 288_065), 6.5 * 2**20),
        (lambda: lambda1_series(0.99999, required_Q(0.99999, 1e-8), 5), 9.5 * 2**20),
    ], ids=["twin_constant", "series_wk", "lambda1_series"])
    def test_traced_peak_within_budget(self, call, bound):
        call()
        assert traced_peak(call) < bound


def summed(values, chunk, monkeypatch):
    """``_fsum_chunks`` over ``values`` as one part, _FSUM_CHUNK set to chunk."""
    monkeypatch.setattr(singular, "_FSUM_CHUNK", chunk)
    return singular._fsum_chunks([(np.array(values, dtype=np.float64),)], lambda t: t)


class TestExactSum:
    """``_fsum_chunks`` sums its terms exactly in integer bins, and returns
    the float math.fsum returns: compared by ``hex()``, which shows the sign
    of a zero and every bit."""

    @pytest.mark.parametrize("chunk", [1, 2, 7, 4096])
    def test_every_exponent_subnormals_included(self, monkeypatch, chunk):
        # Random bits give every exponent; below 2^1009 the 5,000 terms
        # cannot overflow a float, where fsum would raise.
        bits = np.random.default_rng(chunk).integers(-2**63, 2**63, 5_000, dtype=np.int64)
        x = bits.view(np.float64)
        x = x[np.abs(x) < 2.0**1009]
        x[:40] = np.ldexp(np.arange(1.0, 41.0), -1074)  # subnormals, of both signs
        x[:40:3] *= -1
        assert summed(x, chunk, monkeypatch).hex() == math.fsum(x.tolist()).hex()
        assert summed(x[:40], chunk, monkeypatch).hex() == math.fsum(x[:40].tolist()).hex()

    @pytest.mark.parametrize("values", [
        [], [0.0], [-0.0], [-0.0, -0.0], [0.0, -0.0], [1.5, -1.5], [-2.0**-1074, 2.0**-1074],
        [1e308, 1e-308, -1e308, -1e-308], [3.0, -1e-300, -3.0],
    ], ids=["empty", "zero", "neg-zero", "neg-zeros", "zeros", "x-beside-minus-x",
            "subnormal-pair", "far-pairs", "left-over"])
    def test_zeros_and_cancellation(self, monkeypatch, values):
        for chunk in (1, 2, 7, 4096):
            assert summed(values, chunk, monkeypatch).hex() == math.fsum(values).hex()

    def test_x_beside_minus_x(self, monkeypatch):
        x = np.random.default_rng(7).standard_normal(9_000) * 10.0 ** np.arange(-150, 150, 1 / 30)
        both = np.stack([x, -x], axis=1).ravel()
        assert summed(both, 4096, monkeypatch).hex() == (0.0).hex()
        both[1] = np.nextafter(both[1], 0.0)
        assert summed(both, 7, monkeypatch).hex() == math.fsum(both.tolist()).hex()

    @pytest.mark.parametrize("values", [
        [1.0, 2.0**-53], [1.0 + 2.0**-52, 2.0**-53], [1.0, 2.0**-53, 2.0**-1074],
        [1.0, 2.0**-53, -2.0**-1074], [2.0**53, 1.0], [2.0**53 + 2.0, 1.0],
        [-(2.0**53 + 2.0), -1.0], [2.0**-1022, 2.0**-1074, -2.0**-1022 * 2.0**-53],
    ], ids=["tie-down", "tie-up", "over-tie", "under-tie", "tie-at-2^53", "tie-up-at-2^53",
            "negative-tie", "subnormal-unit"])
    def test_rounding_ties(self, monkeypatch, values):
        for chunk in (1, 2, 4096):
            assert summed(values, chunk, monkeypatch).hex() == math.fsum(values).hex()

    @pytest.mark.parametrize("values, want", [
        ([1.0, math.nan, 2.0], "nan"), ([math.inf, math.nan], "nan"),
        ([1.0, math.inf, -5.0], "inf"), ([-1.0, -math.inf], "-inf"),
    ], ids=["nan", "inf-nan", "inf", "neg-inf"])
    def test_non_finite_terms(self, monkeypatch, values, want):
        assert math.fsum(values).hex() == want
        for chunk in (1, 4096):
            assert summed(values, chunk, monkeypatch).hex() == want

    def test_inf_then_neg_inf_raises_fsums_error(self, monkeypatch):
        with pytest.raises(ValueError) as fsum_error:
            math.fsum([math.inf, -math.inf])
        with pytest.raises(ValueError, match=re.escape(str(fsum_error.value))):
            summed([math.inf, 1.0, -math.inf], 1, monkeypatch)

    def test_a_neg_inf_chunk_ends_the_sum(self, monkeypatch):
        # The chunk after it would raise, +inf with -inf, and the next part
        # would fail the test; neither is drawn.
        monkeypatch.setattr(singular, "_FSUM_CHUNK", 2)
        seen = []

        def parts():
            yield (np.array([1.0, -math.inf, math.inf, 5.0]),)
            pytest.fail("a part drawn after a -inf chunk")

        assert singular._fsum_chunks(parts(), lambda t: seen.append(t.tolist()) or t) == -math.inf
        assert seen == [[1.0, -math.inf]]

    @pytest.mark.parametrize("flush", [1, 3, 4096])
    def test_flush_keeps_the_sum(self, monkeypatch, flush):
        # Flushing the bins into the int every few terms changes nothing.
        x = np.random.default_rng(flush).standard_normal(10_000) * 2.0 ** np.arange(-500, 500, 0.1)
        want = twin_constant(3_001).value
        monkeypatch.setattr(singular, "_FLUSH_TERMS", flush)
        assert summed(x, 7, monkeypatch).hex() == math.fsum(x.tolist()).hex()
        assert twin_constant(3_001).value == want


class TestEulerProductFootprint:
    """An Euler product leaves no window-sized temporary to glibc: the
    primes of a window are extracted in place, and no term becomes a Python
    float.  Before, the VmHWM rise of a fresh twin_constant(10^8) was
    5,520 kB, and two repeat calls at 10^7 took 8,898 minor faults; since,
    about 4,000 kB and 1,660 faults."""

    def test_peak_rise_over_import(self):
        rise = vmhwm_rise("from ramabel import twin_constant", "twin_constant(10**8)")
        assert rise <= 4.5 * 2**20

    def test_repeat_calls_do_not_refault(self):
        code = ("import resource; from ramabel import twin_constant; "
                "faults = lambda: resource.getrusage(resource.RUSAGE_SELF).ru_minflt; "
                "twin_constant(10**7); f0 = faults(); "
                "twin_constant(10**7); twin_constant(10**7); print(faults() - f0)")
        assert int(fresh_python("-c", code).stdout) < 4_000
