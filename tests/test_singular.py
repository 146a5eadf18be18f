"""Hardy-Littlewood style Euler products: twin constant, pair/tuple
constants, linear-pair (conjecture D) constant, and the series route."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramabel import (
    conjecture_d_constant,
    pair_constant,
    series_constant,
    series_wk,
    tuple_constant,
    twin_constant,
)
from ramabel.singular import (
    TWIN_CONSTANT_REFERENCE,
    check_admissible,
    distinct_residues,
    validate_linear_pair,
)
from ramabel.sieve import primes_up_to


class TestTwinConstant:
    def test_tiny_truncation(self):
        # only odd prime <= 3 is 3: product is 1 - 1/(3-1)^2 = 0.75
        assert twin_constant(3).value == pytest.approx(0.75, abs=1e-15)

    def test_reference_value(self):
        got = twin_constant(10**6)
        assert got.value == pytest.approx(TWIN_CONSTANT_REFERENCE, abs=1e-6)

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


class TestAdmissibility:
    def test_distinct_residues(self):
        assert distinct_residues((0, 2, 6), 3) == 2
        assert distinct_residues((0, 2, 4), 3) == 3
        assert distinct_residues((0, 2), 2) == 1

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
        # The reference tries every prime up to max(offsets) + 1.
        offsets = (0, *sorted(o for o in offsets if o))
        want = next((p for p in map(int, primes_up_to(max(max(offsets) + 1, 2)))
                     if distinct_residues(offsets, p) == p), None)
        assert check_admissible(offsets) == want


class TestTupleConstant:
    def test_single_gap_matches_pair(self):
        P = 10**5
        assert tuple_constant((0, 2), P).value == pytest.approx(
            pair_constant(2, P).value, abs=1e-8
        )

    def test_independent_direct_product(self):
        # recompute the (0, 2, 6) constant with a plain per-prime loop
        offsets = (0, 2, 6)
        P = 10**4
        m = len(offsets) - 1
        prod = 1.0
        for p in map(int, primes_up_to(P)):
            nu = len({a % p for a in offsets})
            prod *= (p / (p - 1)) ** m * (p - nu) / (p - 1)
        got = tuple_constant(offsets, P).value
        assert got == pytest.approx(prod, rel=1e-12)

    def test_inadmissible_rejected(self):
        with pytest.raises(ValueError):
            tuple_constant((0, 2, 4), 100)

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

    def test_odd_gap_vanishes(self):
        for h in (1, 3, 9):
            assert series_constant(h, 10**4).value == 0.0

    def test_naive_rearrangement_is_degenerate(self):
        # the term-by-term product (1 + mu(p) c_p(h) / phi(p)) collapses
        # to zero at even h because the p=2 factor is 1 + (-1)(-1)/1 ... = 0
        got = series_constant(2, 10**4)
        assert got.extra["naive_product"] == 0.0

    def test_series_wk_route(self, tables):
        # the direct q-sum converges to the same constant, slowly
        for h in (2, 6):
            got = series_wk(tables, h, tables.bound)
            want = pair_constant(h, 10**6).value
            assert got.value == pytest.approx(want, abs=5e-2)
            assert got.tail_estimate > 0

    def test_series_wk_odd_gap_small(self, tables):
        got = series_wk(tables, 3, tables.bound)
        assert abs(got.value) < 5e-2
