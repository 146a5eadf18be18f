"""Abel-regularized series for Lambda_1 and the truncated
Ramanujan-Fourier expansion of sigma."""

import math

import numpy as np
import pytest

from ramabel import (
    ResourceLimitError,
    abel_ladder,
    cq_int,
    lambda1_series,
    required_Q,
    sigma_rf,
    tail_bound,
)


class TestTailBound:
    def test_formula(self):
        assert tail_bound(0.5, 10) == pytest.approx(0.5**10 * 1.0)
        assert tail_bound(0.9, 3) == pytest.approx(0.9**3 * 9.0)

    def test_required_Q_example(self):
        # z=0.5, eps=0.5: Q=1 leaves tail 0.5 (not < 0.5), Q=2 leaves 0.25
        assert required_Q(0.5, 0.5) == 2

    def test_required_Q_achieves_epsilon(self):
        for z in (0.3, 0.5, 0.9, 0.99):
            for eps in (1e-3, 1e-9, 1e-14):
                Q = required_Q(z, eps)
                assert tail_bound(z, Q) < eps
                assert Q == 1 or tail_bound(z, Q - 1) >= eps

    def test_invalid_args(self):
        for z in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                required_Q(z, 1e-6)
        with pytest.raises(ValueError):
            required_Q(0.5, 0.0)
        with pytest.raises(ValueError, match="^epsilon must be positive, got nan$"):
            required_Q(0.5, math.nan)

    def test_unreachable_accuracy(self):
        with pytest.raises(ResourceLimitError):
            required_Q(0.9999999999, 1e-300)

    @pytest.mark.parametrize("z, epsilon, Q", [
        (0.5, 0.6, 1), (0.9, 8.2, 1), (0.9, 8.1, 2),    # z * z/(1-z) = 0.5 and 8.1
        (0.5, 1.0, 1), (0.99, 1.0, 458), (0.999, 1e300, 1), (0.999, math.inf, 1),
    ])
    def test_required_Q_edges(self, z, epsilon, Q):
        assert required_Q(z, epsilon) == Q

    def test_required_Q_at_the_term_limit(self):
        # Q = 10^9 terms is the most required_Q gives; one more is refused.
        z = 1 - 1e-8
        assert required_Q(z, tail_bound(z, 10**9 - 1)) == 10**9
        with pytest.raises(ResourceLimitError, match="needs more than 1000000000 terms"):
            required_Q(z, tail_bound(z, 10**9))


class TestLambda1Series:
    def test_invalid_args(self):
        for z in (0.0, 1.0, 1.5):
            with pytest.raises(ValueError, match=rf"^z must lie in the open interval \(0, 1\), got {z}$"):
                lambda1_series(z, 10, 3)
        for Q in (0, -1):
            with pytest.raises(ValueError, match=f"^Q must be >= 1, got {Q}$"):
                lambda1_series(0.5, Q, 3)

    def test_single_term_is_z(self):
        # Q=1 keeps only q=1: mu(1)/phi(1) c_1(x) z = z at integer x
        for z in (0.25, 0.5, 0.9):
            for x in (1.0, 2.0, 7.0):
                got = lambda1_series(z, 1, x)
                assert got == pytest.approx(z, abs=1e-15)

    def test_truncation_within_tail_bound(self):
        z = 0.5
        ref = lambda1_series(z, required_Q(z, 1e-14), 6.0)
        for Q in (5, 20, 60):
            got = lambda1_series(z, Q, 6.0)
            assert abs(got - ref) <= tail_bound(z, Q) + 1e-12

    def test_integer_and_real_paths_agree(self):
        for n in (1, 2, 9, 30):
            by_int = lambda1_series(0.7, 300, float(n))
            # nudge off the integer detection without moving the cosines:
            # evaluate the real path explicitly via a non-integral float type
            by_real = lambda1_series(0.7, 300, n + 0.0 + 1e-13)
            assert by_real == pytest.approx(by_int, abs=1e-7)

    def test_abel_values_decrease_toward_target(self):
        trace = abel_ladder(2)
        zs = [z for z, _, _ in trace.ladder]
        vals = [v for _, _, v in trace.ladder]
        assert zs == [0.9, 0.99, 0.999]
        gaps = [abs(v - trace.target) for v in vals]
        assert gaps[0] > gaps[1] > gaps[2]
        assert trace.target == pytest.approx(0.5 * math.log(2))

    def test_abel_ladder_nonprime_power_target_zero(self):
        trace = abel_ladder(6)
        assert trace.target == 0.0
        assert abs(trace.ladder[-1][2]) < abs(trace.ladder[0][2])

    def test_n_one_grows_like_log(self):
        # Hardy's identity holds for n >= 2.  At n = 1, c_q(1) = mu(q), so the
        # series is sum mu(q)^2/phi(q) z^q ~ log 1/(1 - z): each decade of
        # 1 - z adds about ln 10, while the target stays 0.
        trace = abel_ladder(1, (0.99, 0.999, 0.9999, 0.99999))
        vals = [v for *_, v in trace.ladder]
        steps = [b - a for a, b in zip(vals, vals[1:])]
        assert steps == pytest.approx([math.log(10)] * 3, abs=0.05)
        assert trace.target == 0.0

    def test_abel_ladder_exact_past_2_53(self, tables):
        # 2^53 + 1 is no float: the series is summed at the int itself, the
        # n of its target, and not at the float 2^53, where c_3 differs.
        n = 2**53 + 1
        trace = abel_ladder(n, (0.9, 0.99))
        for z, Q, value in trace.ladder:
            zq = z ** np.arange(1.0, Q + 1)  # numpy's array power, as the series takes it
            assert value == math.fsum(int(tables.mu[q]) / int(tables.phi[q])
                                      * cq_int(q, n) * zq[q - 1] for q in range(1, Q + 1))
        assert cq_int(3, n) != cq_int(3, n - 1)
        below = abel_ladder(n - 1, (0.9, 0.99))
        assert [v for *_, v in trace.ladder] != [v for *_, v in below.ladder]
        assert trace.target == 0.0

    def test_integer_x_takes_exact_path(self):
        z, Q = 0.9, 196
        n = 2**53 + 1
        by_int = lambda1_series(z, Q, n)
        assert lambda1_series(z, Q, np.int64(n)) == by_int
        assert by_int != lambda1_series(z, Q, float(n))
        assert lambda1_series(z, Q, 10**400) == lambda1_series(
            z, Q, 10**400 % math.lcm(*range(1, 197)))


class TestSigmaExpansion:
    def test_n_one_is_zeta_two(self):
        # sigma(1)=1 and the q=1 partial sum is pi^2/6 * 1 * 1/1
        got = sigma_rf(1, 1)
        assert got == pytest.approx(math.pi**2 / 6)

    @pytest.mark.parametrize("n, Q", [(0, 10), (5, 0), (-1, -1)])
    def test_n_and_Q_at_least_one(self, n, Q):
        with pytest.raises(ValueError, match=rf"^need n >= 1 and Q >= 1, got n={n}, Q={Q}$"):
            sigma_rf(n, Q)

    @pytest.mark.parametrize("n", [1, 2, 12, 30, 50])
    def test_close_to_exact(self, n):
        exact = sum(d for d in range(1, n + 1) if n % d == 0)
        got = sigma_rf(n, 10_000)
        assert got == pytest.approx(exact, rel=5e-2)

    def test_equals_fsum_of_cq_int(self):
        # Kluyver's divisor scatter gives the integers of the factoring
        # kernel, so the sum is the same fsum, bit for bit.  Q = 2^17 + 2
        # reads mu from two table segments, the second of which overwrites
        # mu(2) = -1 in the generator's buffer with mu(2^17 + 2) = 1.
        for n, Q in [(n, 2000) for n in range(1, 61)] + [(30, 2**17 + 2)]:
            want = math.fsum(float(cq_int(q, n)) / float(q) ** 2 for q in range(1, Q + 1))
            assert sigma_rf(n, Q) == (math.pi**2 * n / 6.0) * want, n
