"""Empirical means and exact period averages for the sieve correlations.

Every report carries a ten-checkpoint convergence trace, and periodic
summands additionally carry the exact one-period average computed in
integer/rational arithmetic, which is the finite-N-free value of the
corresponding limit.  All float reductions run over fixed-size contiguous
blocks combined in ascending order.  The weighted prime correlations take
N and no tables: each sieves the primes up to its largest index n and reads
only the prime powers up to it, from ``sieve.lambda_support``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import singular
from .ramanujan import cq_int
from .sieve import SieveTables, lambda_support, primes_up_to

_BLOCK = 1 << 20


@dataclass
class MeanValueReport:
    label: str
    N: int
    empirical: float
    predicted: float | None
    abs_gap: float | None
    rel_gap: float | None
    trace: list[tuple[int, float]]
    exact_mean: Fraction | None = None

    def csv_rows(self) -> list[list]:
        rows = []
        for n_i, mean_i in self.trace:
            rows.append(
                [
                    self.label,
                    n_i,
                    mean_i,
                    "" if self.predicted is None else self.predicted,
                    "" if self.predicted is None else abs(mean_i - self.predicted),
                ]
            )
        return rows


def _checkpoint_ns(N: int) -> list[int]:
    if N < 1:
        raise ValueError(f"N must be >= 1, got N={N}")
    return sorted({max(1, (k * N) // 10) for k in range(1, 10)} | {N})


def _report(
    label: str,
    N: int,
    trace: list[tuple[int, float]],
    predicted: float | None,
    exact: Fraction | None = None,
) -> MeanValueReport:
    """The one place a trace becomes a report with its gap to ``predicted``."""
    empirical = trace[-1][1]
    abs_gap = None if predicted is None else abs(empirical - predicted)
    rel_gap = (
        abs_gap / abs(predicted)
        if predicted is not None and predicted != 0.0
        else None
    )
    return MeanValueReport(
        label=label,
        N=N,
        empirical=empirical,
        predicted=predicted,
        abs_gap=abs_gap,
        rel_gap=rel_gap,
        trace=trace,
        exact_mean=exact,
    )


def _array_trace(n: np.ndarray, vals: np.ndarray, ns: list[int]) -> list[tuple[int, float]]:
    """Checkpoint means at ns = _checkpoint_ns(N) of the summands for n = 1..N,
    given as vals[i] at the ascending positions n[i] and zero elsewhere;
    callers take ns first, so a bad N fails before anything is built.

    Blocks of _BLOCK positions restart at each checkpoint and their sums are
    combined in ascending order, so every checkpoint mean is a fixed
    function of the summands.  Each block's summands are scattered into one
    reused zeroed buffer of the block's length, and np.sum of that buffer is
    the sum of the dense block: the same values at the same places.
    """
    buf = np.zeros(min(_BLOCK, ns[-1]), dtype=np.float64)
    trace = []
    sums: list[float] = []
    prev = 0
    for n_i in ns:
        for lo in range(prev, n_i, _BLOCK):
            hi = min(lo + _BLOCK, n_i)
            i, j = np.searchsorted(n, (lo + 1, hi + 1))
            at = n[i:j] - (lo + 1)
            buf[at] = vals[i:j]
            sums.append(float(np.sum(buf[: hi - lo])))
            buf[at] = 0.0
        prev = n_i
        trace.append((n_i, math.fsum(sums) / n_i))
    return trace


def _periodic_trace(period_vals: Sequence[int], N: int) -> list[tuple[int, float]]:
    """Checkpoint means of a summand periodic in n with period len(period_vals).

    period_vals[i] is the summand at n = i + 1.  All partial sums are exact
    integers; only the final division is floating point.
    """
    L = len(period_vals)
    period_sum = sum(period_vals)
    prefix = [0]
    for v in period_vals:
        prefix.append(prefix[-1] + v)

    def total(n: int) -> int:
        return (n // L) * period_sum + prefix[n % L]

    return [(n_i, total(n_i) / n_i) for n_i in _checkpoint_ns(N)]


def cq_mean(tables: SieveTables, q: int, N: int) -> MeanValueReport:
    """Mean of c_q(n) over n <= N; the limit is 1 for q = 1, else 0.

    exact_mean is the one-period average, which equals the limit exactly.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    period = cq_int(tables, q, np.arange(1, q + 1)).tolist()
    exact = Fraction(sum(period), q)
    predicted = 1.0 if q == 1 else 0.0
    return _report(f"cq_mean(q={q})", N, _periodic_trace(period, N), predicted, exact)


def cq_orthogonality(
    tables: SieveTables, r: int, s: int, m: int, N: int
) -> MeanValueReport:
    """Mean of c_r(n) c_s(n+m); the limit is c_r(m) when r = s, else 0."""
    if r < 1 or s < 1:
        raise ValueError(f"need r, s >= 1, got r={r}, s={s}")
    L = math.lcm(r, s)
    n = np.arange(1, L + 1)
    # c_s has period s, so m % s keeps n + m in int64 for any integer m.
    period = (cq_int(tables, r, n) * cq_int(tables, s, n + m % s)).tolist()
    exact = Fraction(sum(period), L)
    predicted = float(cq_int(tables, r, m)) if r == s else 0.0
    return _report(
        f"cq_orthogonality(r={r},s={s},m={m})",
        N,
        _periodic_trace(period, N),
        predicted,
        exact,
    )


def polynomial_cq_mean(
    tables: SieveTables, q: int, poly: Sequence[int], N: int
) -> MeanValueReport:
    """Mean of c_q(f(n)) for integer-coefficient f; poly lists coefficients
    from the constant term upward.

    The summand is q-periodic, so the exact one-period average is the limit
    and doubles as the predicted value.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    if q > tables.bound:
        raise ValueError(f"q={q} beyond table bound {tables.bound}")
    coeffs = list(poly)
    # f(r) mod q for every residue r by Horner's rule; each step stays below q^2.
    r = np.arange(q, dtype=np.int64)
    f_mod = np.zeros(q, dtype=np.int64)
    for c in reversed(coeffs):
        f_mod = (f_mod * r + c % q) % q
    by_residue = cq_int(tables, q, f_mod).tolist()
    period = by_residue[1:] + by_residue[:1]  # n = 1..q
    exact = Fraction(sum(by_residue), q)
    return _report(
        f"polynomial_cq_mean(q={q},poly={coeffs})",
        N,
        _periodic_trace(period, N),
        float(exact),
        exact,
    )


def _lookup(n: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hit, j): which entries of m are in the ascending array n, and for
    each m[hit] its index j in n."""
    j = np.minimum(np.searchsorted(n, m), n.size - 1)
    hit = n[j] == m
    return hit, j[hit]


def _linear_pairs(n: np.ndarray, a: int, b: int, l: int, N: int) -> tuple[np.ndarray, np.ndarray]:
    """(i, j): the indices into the ascending support n of every n[i] <= N with
    a | b n[i] + l and (b n[i] + l)/a in n, and of that partner n[j].  The
    support must reach max(N, (b N + l) // a)."""
    n0 = (-l * pow(b, -1, a)) % a or a  # a | b n + l exactly for n = n0 mod a
    if n0 > N:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)
    m0 = (b * n0 + l) // a
    if n0 + a > N:  # n0 is alone in its class, so a and b may overflow int64
        a, b = N, 0
    i = np.flatnonzero((n[: np.searchsorted(n, N, "right")] - n0) % a == 0)
    hit, j = _lookup(n, m0 + b * ((n[i] - n0) // a))
    return i[hit], j


def _linear_pair_trace(weight: str, a: int, b: int, l: int, N: int) -> list[tuple[int, float]]:
    """Trace of w(n) w((b n + l)/a) over n = 1..N, with 0 where a does not
    divide b n + l or either point is not a prime power.  For gcd(a, b) = 1
    the other n are one class n0 mod a, along which (b n + l)/a steps by b.
    The support reaches the largest index, max(N, (b N + l) // a).
    """
    ns = _checkpoint_ns(N)
    if weight not in ("lambda", "lambda1"):
        raise ValueError(f"weight must be 'lambda' or 'lambda1', got {weight!r}")
    top = max(N, (b * N + l) // a)
    n, lam, lam1 = lambda_support(primes_up_to(top), top)
    w = lam if weight == "lambda" else lam1
    i, j = _linear_pairs(n, a, b, l, N)
    return _array_trace(n[i], w[i] * w[j], ns)


def pair_autocorrelation(h2: int, N: int, P: int = 10**6,
                         weight: str = "lambda1") -> MeanValueReport:
    """Shifted autocorrelation mean at an even gap against the pair constant.

    Odd gaps are not an error; they route to the zero-limit variant.
    """
    if h2 < 1:
        raise ValueError(f"gap must be >= 1, got {h2}")
    if h2 % 2 == 1:
        return odd_gap_mean(h2, N, weight=weight)
    trace = _linear_pair_trace(weight, 1, 1, h2, N)
    predicted = singular.pair_constant(h2, P).value
    return _report(f"pair_autocorrelation(h={h2},w={weight})", N, trace, predicted)


def odd_gap_mean(h: int, N: int, weight: str = "lambda1") -> MeanValueReport:
    """Autocorrelation mean at an odd gap; the limit is zero."""
    if h < 1 or h % 2 == 0:
        raise ValueError(f"gap must be a positive odd integer, got {h}")
    trace = _linear_pair_trace(weight, 1, 1, h, N)
    return _report(f"odd_gap_mean(h={h},w={weight})", N, trace, 0.0)


def conjecture_d_mean(a: int, b: int, l: int, N: int, P: int = 10**6,
                      weight: str = "lambda1") -> MeanValueReport:
    """Mean over n <= N, restricted to a | (b n + l), of the product of
    weights at n and (b n + l)/a.

    The kept n are one residue class mod a, read as strided slices; keeping
    it is weighting n by the root-of-unity indicator average
    (1/a) sum_k e^{2 pi i k (b n + l)/a}, 1 when a | b n + l and else 0.
    """
    singular.validate_linear_pair(a, b, l)
    trace = _linear_pair_trace(weight, a, b, l, N)
    predicted = singular.conjecture_d_constant(a, b, l, P).value
    return _report(f"conjecture_d_mean(a={a},b={b},l={l},w={weight})", N, trace, predicted)


@dataclass
class TupleMeanReport:
    """Both weightings of the tuple correlation against one predicted constant."""

    offsets: tuple[int, ...]
    lambda_weighted: MeanValueReport
    lambda1_weighted: MeanValueReport


def tuple_mean(offsets: Sequence[int], N: int, P: int = 10**6) -> TupleMeanReport:
    """Mean of the product of von Mangoldt weights over the offset tuple.

    The raw and phi(n)/n-weighted products are both reported; the raw one
    dominates the weighted one term by term, which makes the lower-bound
    chain checkable.  ``offsets`` must pass ``singular.validate_tuple``.
    The support reaches the largest index, N + the largest offset.
    """
    offsets = singular.validate_tuple(offsets)
    ns = _checkpoint_ns(N)
    top = N + offsets[-1]
    n, lam, lam1 = lambda_support(primes_up_to(top), top)
    predicted = singular.tuple_constant(offsets, P).value
    # The n <= N with every n + offset in the support, as indices into it
    # per offset; the products multiply in offset order.
    idx = [np.arange(np.searchsorted(n, N, "right"))]
    for off in offsets[1:]:
        hit, j = _lookup(n, n[idx[0]] + off)
        idx = [k[hit] for k in idx] + [j]
    reports = {}
    for weight, w in (("lambda", lam), ("lambda1", lam1)):
        vals = w[idx[0]]
        for k in idx[1:]:
            vals *= w[k]
        reports[weight] = _report(
            f"tuple_mean(offsets={offsets},w={weight})",
            N,
            _array_trace(n[idx[0]], vals, ns),
            predicted,
        )
    return TupleMeanReport(
        offsets=offsets,
        lambda_weighted=reports["lambda"],
        lambda1_weighted=reports["lambda1"],
    )


def pnt_mean(N: int) -> MeanValueReport:
    """Mean of the weighted von Mangoldt function; the limit is 1."""
    ns = _checkpoint_ns(N)
    n, _, lam1 = lambda_support(primes_up_to(N), N)
    return _report("pnt_mean", N, _array_trace(n, lam1, ns), 1.0)


def goldbach_correlation(tables: SieveTables, N: int, q1: int, q2: int) -> int:
    """Exact finite sum over n = 1..2N of c_{q1}(n) * c_{q2}(2N - n)."""
    if N < 1 or q1 < 1 or q2 < 1:
        raise ValueError(f"need N, q1, q2 >= 1, got N={N}, q1={q1}, q2={q2}")
    ns = np.arange(1, 2 * N + 1, dtype=np.int64)
    c1 = cq_int(tables, q1, ns)
    c2 = cq_int(tables, q2, 2 * N - ns)
    return int(np.sum(c1 * c2))
