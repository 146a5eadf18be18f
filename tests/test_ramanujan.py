"""Ramanujan sums: closed form vs. exponential-sum oracle, and the
property catalog."""

import csv
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ramabel import (InternalConsistencyError, check_property_catalog, cli, cq_int, cq_real,
                     ramanujan)
from ramabel.ramanujan import DIRECT_MAX_Q, direct_oracle, squarefree_cq
from ramabel.sieve import build_sieve, sigma_table

# The n of every size that the table-free kernel is checked at.
SIZES = [0, 1, -1, 2, -2, 30, -30, 2**31 - 1, 2**53 + 1,
         2**63 - 25, 2**63, 2**64 + 6, 3 * 2**70, 10**30 + 6]


def holder_reference(tables, q, n):
    """c_q(n) by Hoelder's form mu(q/g) * phi(q) / phi(q/g), g = gcd(q, n),
    read from sieve tables: q an int64 array of 1 <= q <= tables.bound, and n
    an int of any size, reduced mod each q, or an int64 array that
    broadcasts with q.  A second code of the kernel, for reference."""
    q = np.asarray(q, dtype=np.int64)
    if isinstance(n, int) and not -(2**63) <= n < 2**63:
        n = n % q.astype(object)  # c_q(n) = c_q(n mod q), exact in Python ints
    qg = q // np.gcd(q, np.asarray(n, dtype=np.int64))
    return tables.mu[qg].astype(np.int64) * tables.phi[q] // tables.phi[qg]


class TestCqInt:
    @pytest.mark.parametrize(
        "q,n,want",
        [
            (1, 7, 1),  # c_1 is identically 1
            (2, 3, -1),
            (2, 4, 1),
            (3, 3, 2),
            (4, 2, -2),
            (5, 0, 4),  # c_q(0) = phi(q)
            (6, 1, 1),  # c_q(1) = mu(q)
            (6, 3, -2),
            (10, 5, -4),
            (12, 12, 4),
        ],
    )
    def test_known_values(self, q, n, want):
        assert cq_int(q, n) == want

    def test_q_zero_convention(self):
        assert cq_int(0, 0) == 1
        assert cq_int(0, 5) == 1

    def test_negative_arguments(self):
        for q in range(1, 30):
            for n in range(-20, 20):
                assert cq_int(q, n) == cq_int(q, -n)
                assert cq_int(-q, n) == cq_int(q, n)

    # q is taken up to 2^63 - 1 in absolute value, for an int n or an array.
    def test_out_of_range_q(self):
        for q in (2**63, -(2**63), 2**64 + 6, 10**30):
            for n in (1, np.arange(3)):
                with pytest.raises(ValueError, match=f"^q={abs(q)} outside 1..2\\^63 - 1$"):
                    cq_int(q, n)

    def test_matches_oracle_sample(self):
        for q in (1, 2, 6, 30, 97, 128, 210):
            ns = np.arange(-2 * q, 2 * q + 1)
            assert np.array_equal(
                cq_int(q, ns), direct_oracle(q, ns)
            )

    # An array n against the scalar form, entry by entry with ==, over
    # q = -30..200 (0 included) and n = -500..500; a 2-d n keeps its shape.
    @pytest.mark.parametrize("form", ["array n", "2-d array n"])
    def test_array_forms_match_scalar(self, form):
        qs, ns = np.arange(-30, 201), np.arange(-500, 501)
        want = [[cq_int(q, n) for n in ns.tolist()] for q in qs.tolist()]
        assert all(type(v) is int for v in want[0])
        if form == "array n":
            got = np.array([cq_int(q, ns) for q in qs.tolist()])
        else:
            got = np.array([cq_int(q, ns.reshape(7, 143)).ravel() for q in qs.tolist()])
        assert got.dtype == np.int64
        assert np.array_equal(got, np.array(want))

    def test_numpy_integers_give_int(self):
        got = cq_int(np.int64(6), np.int32(3))
        assert type(got) is int and got == -2
        with pytest.raises(ValueError, match="^q=9223372036854775808 outside"):
            cq_int(np.uint64(2**63), 1)

    # The factoring kernel against the table reference at every q <= 10^4,
    # at each n of SIZES and on an int64 array n.
    def test_equals_table_reference_at_every_small_q(self, tables_small):
        qs = np.arange(1, tables_small.bound + 1)
        for n in SIZES:
            got = [cq_int(q, n) for q in qs.tolist()]
            assert all(type(v) is int for v in got)
            assert np.array_equal(got, holder_reference(tables_small, qs, n)), n
        ns = np.arange(-1000, 1001)
        for q in qs.tolist():
            assert np.array_equal(cq_int(q, ns), holder_reference(tables_small, q, ns)), q

    # Past any table: q = 2^63 - 25 (prime), 2^62 and the product of the two
    # primes either side of sqrt(2^63), against Hoelder's prime-power values.
    @pytest.mark.parametrize("q, factors", [
        (2**63 - 25, [(2**63 - 25, 1)]),
        (2**62, [(2, 62)]),
        (3037000453 * 3037000493, [(3037000453, 1), (3037000493, 1)]),
    ], ids=["prime", "power-of-two", "two-primes"])
    def test_closed_form_near_2_63(self, q, factors):
        def closed(n):
            c = 1
            for p, e in factors:
                c *= (p**e - p ** (e - 1) if n % p**e == 0
                      else -p ** (e - 1) if n % p ** (e - 1) == 0 else 0)
            return c

        ns = [0, 1, -1, q, -q, 2 * q, q + 1, q // 2, q // 4, 3037000453, 2**61, 2**62,
              10**30 * q, 10**30 * q + 2**61] + SIZES
        for n in ns:
            got = cq_int(q, n)
            assert type(got) is int and got == closed(n), n
        small = np.array([n for n in ns if -(2**63) <= n < 2**63], dtype=np.int64)
        assert cq_int(q, small).tolist() == [closed(n) for n in small.tolist()]
        assert cq_int(-q, 1) == closed(1)

    def test_divisor_sum_identity(self):
        # sum over d | q of c_d(n) is q when q | n, else 0
        for q in range(1, 60):
            divs = [d for d in range(1, q + 1) if q % d == 0]
            for n in range(0, 60):
                s = sum(cq_int(d, n) for d in divs)
                assert s == (q if n % q == 0 else 0)

    def test_sigma_bound(self):
        sig = sigma_table(200)
        for n in range(1, 201):
            for q in range(1, 100):
                assert abs(cq_int(q, n)) <= sig[n]

    @given(
        q=st.integers(min_value=1, max_value=400),
        n=st.integers(min_value=-1000, max_value=1000),
    )
    @settings(max_examples=200, deadline=None)
    def test_periodicity_and_oracle(self, q, n):
        assert cq_int(q, n) == cq_int(q, n + q)
        assert cq_int(q, n) == direct_oracle(q, n)

    @given(
        r=st.integers(min_value=1, max_value=30),
        s=st.integers(min_value=1, max_value=30),
        n=st.integers(min_value=-50, max_value=50),
    )
    @settings(max_examples=200, deadline=None)
    def test_multiplicativity(self, r, s, n):
        if math.gcd(r, s) == 1:
            got = cq_int(r * s, n)
            assert got == cq_int(r, n) * cq_int(s, n)


class TestSquarefreeCq:
    # Q = 2^17 + 1 reaches past the first segment, [1, 2^17], into the second.
    Q = 2**17 + 1

    @pytest.fixture(scope="class")
    def tables_q(self):
        return build_sieve(self.Q)

    @pytest.mark.parametrize("n", SIZES)
    def test_equals_cq_int_at_every_squarefree_q(self, tables_q, n):
        segments = list(squarefree_cq(self.Q, n))
        q, mu, phi, c = (np.concatenate(parts) for parts in zip(*segments))
        assert len(segments) == 2 and q[-1] == self.Q  # 2^17 + 1 = 3 * 43691
        assert np.array_equal(q, np.flatnonzero(tables_q.mu))
        assert np.array_equal(mu, tables_q.mu[q]) and np.array_equal(phi, tables_q.phi[q])
        assert np.array_equal(c, holder_reference(tables_q, q, n))


class TestDirectOracle:
    def test_small_values(self):
        assert direct_oracle(1, 5) == 1
        assert direct_oracle(3, 3) == 2
        assert direct_oracle(4, 2) == -2

    def test_residue_gate(self, monkeypatch):
        # with a zero gate the inevitable floating residue must raise
        from ramabel import ramanujan as mod

        monkeypatch.setattr(mod, "_RESIDUE_TOL", 0.0)
        with pytest.raises(InternalConsistencyError):
            direct_oracle(7, 3)

    def test_threshold_guard(self):
        assert DIRECT_MAX_Q == 5000
        for q in (0, -3, DIRECT_MAX_Q + 1):
            with pytest.raises(ValueError, match="1 <= q <= 5000"):
                direct_oracle(q, 1)

    def test_matches_unreduced_sum_on_criterion_2_grid(self):
        # The reference sums exp(2 pi i k n / q) at n itself, not at n mod q.
        ns = np.arange(-500, 501)
        for q in range(1, 201):
            k = np.arange(1, q + 1)
            k = k[np.gcd(k, q) == 1]
            z = np.exp(np.multiply.outer(ns, k) * (2j * math.pi / q)).sum(axis=1)
            got = direct_oracle(q, ns)
            assert got.dtype == np.int64
            assert np.array_equal(got, np.rint(z.real).astype(np.int64))

    @pytest.mark.parametrize("q", [1, 4, 7, 12, 30, 97, 210, 5000])
    def test_int_of_any_size_reduced_mod_q(self, q):
        for n in (-7, 0, 1, 6, 1000):
            got = direct_oracle(q, n)
            assert type(got) is int
            assert direct_oracle(q, n + q * 10**30) == got
            assert direct_oracle(q, np.array([n]))[0] == got


class TestCqReal:
    def test_four_cases(self):
        assert cq_real(0, 2.7) == 1.0
        assert cq_real(1, 0.25) == pytest.approx(math.cos(math.pi / 2), abs=1e-15)
        assert cq_real(2, 0.5) == pytest.approx(math.cos(math.pi / 2), abs=1e-15)
        # q=5: 2(cos(2 pi x/5) + cos(4 pi x/5))
        x = 2.0
        want = 2 * (math.cos(2 * math.pi * x / 5) + math.cos(4 * math.pi * x / 5))
        assert cq_real(5, x) == pytest.approx(want, abs=1e-12)

    def test_agrees_with_integer_values(self):
        for q in range(1, 40):
            for n in range(-10, 11):
                assert cq_real(q, float(n)) == pytest.approx(
                    cq_int(q, n), abs=1e-9
                )

    def test_even_in_x(self):
        for q in (1, 2, 3, 8, 15):
            for x in (0.3, 1.7, 5.5):
                assert cq_real(q, x) == pytest.approx(cq_real(q, -x), abs=1e-12)

    def test_phi_bound(self, tables_small):
        for q in range(3, 50):
            for x in (0.1, 0.9, 2.5, 7.3):
                assert abs(cq_real(q, x)) <= tables_small.phi[q] + 1e-9

    # An array x gives, entry by entry, the float of the scalar call.
    @pytest.mark.parametrize("xs", [
        np.arange(-200, 201, dtype=np.float64),
        np.array([0.5, 1.25, 2.75, 3.1, 7.9, -0.3, 12345.678]),
    ], ids=["integer", "non-integer"])
    def test_array_matches_scalar(self, xs):
        for q in range(-2, 401):
            got = cq_real(q, xs)
            assert got.shape == xs.shape
            assert got.tolist() == [cq_real(q, x) for x in xs.tolist()], q
        grid = xs.reshape(1, -1)
        assert np.array_equal(cq_real(30, grid), cq_real(30, xs)[None, :])

    def test_array_must_be_finite(self):
        with pytest.raises(ValueError):
            cq_real(5, np.array([1.0, np.nan]))


class TestPropertyCatalog:
    def test_all_pass(self, tables_small):
        report = check_property_catalog(tables_small, q_max=30, n_max=100)
        failed = [c.name for c in report.checks if not c.passed]
        assert failed == []

    def test_witnesses_of_a_damaged_table(self, tables_small):
        # phi(7) = 5 in place of 6.  cq_int reads no table, so the damage
        # shows in each check that holds c_q against the table's phi, each
        # at its first counterexample, and in no other.
        phi = tables_small.phi.copy()
        phi[7] = 5
        bad = dataclasses.replace(tables_small, phi=phi)
        checks = check_property_catalog(bad, q_max=30, n_max=100).checks
        failed = {c.name: c.witness for c in checks if not c.passed}
        assert failed == {
            "int b) c_q(0) = phi(q)": "q=7",
            "int d) c_p(n) = phi(p) if p|n else -1 (prime q only)": "p=7",
            "int f) |c_q(n)| <= phi(q)": "q=7",
            "real b) c_q(0) = phi(q)": "q=7",
        }
        good = check_property_catalog(tables_small, q_max=30, n_max=100).checks
        assert [c.name for c in checks] == [c.name for c in good]
        assert [c.note for c in checks] == [c.note for c in good]
        assert len(checks) == 16

    def test_witnesses_of_a_damaged_cq_int(self, monkeypatch, tables_small):
        # c_7(3) = -1 read as 100 in every array that cq_int returns.  Each
        # check reading the shared arrays at (7, 3) names that point, at its
        # first counterexample, and the scalar checks all pass.
        exact = ramanujan.cq_int

        def damaged(q, n):
            c = exact(q, n)
            return c if isinstance(n, int) or q != 7 else np.where(np.asarray(n) == 3, 100, c)

        monkeypatch.setattr(ramanujan, "cq_int", damaged)
        checks = check_property_catalog(tables_small, q_max=30, n_max=100).checks
        failed = {c.name: c.witness for c in checks if not c.passed}
        assert failed == {
            "int d) c_p(n) = phi(p) if p|n else -1 (prime q only)": "p=7",
            "int e) c_rs(n) = c_r(n) c_s(n), (r,s)=1": "r=2, s=7",
            "int f) |c_q(n)| <= phi(q)": "q=7",
            "int g) |c_q(n)| <= sigma(n), n >= 1": "q=7, n=3",
            "int h) c_q(n) = c_q(-n)": "q=7",
            "real a) c_q(x) = c_q(n) at integer x": "q=7, n=3",
        }

    def test_composite_modulus_breaks_naive_mu_formula(self):
        # c_q(n) = mu(q/(q,n)) only when q is prime; q=4, n=2 is the
        # standard counterexample (value -2, but mu never leaves {-1,0,1}).
        assert cq_int(4, 2) == -2

    def test_rows_are_renderable(self, tmp_path):
        # `props` writes one CSV row per check: name, status, witness, note.
        assert cli.main(["--out", str(tmp_path), "props", "--qmax", "10", "--nmax", "30"]) == 0
        with open(tmp_path / "props.csv", newline="", encoding="utf-8") as f:
            header, *rows = csv.reader(f)
        assert header == ["property", "status", "witness", "note"]
        assert len(rows) == 16 and all(len(r) == 4 for r in rows)
        assert {r[1] for r in rows} == {"pass"}
