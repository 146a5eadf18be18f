"""Empirical means and exact period averages for the sieve correlations.

A ``MeanValueReport`` holds a label, a ten-checkpoint convergence trace and
the predicted limit; ``cli`` writes its CSV rows.  Periodic summands also
carry the exact one-period average, the limit.  Their sums and the
Goldbach sum are exact, in int64 over chunks of one period L < 2^31
(``_period_sums``), whatever q or N.  All float reductions run over
fixed-size contiguous blocks combined in ascending order.  The weighted
prime correlations take N and no tables, and stream: each block of n reads
Lambda from the windows of ``sieve.lambda_windows`` over the ranges its
factors read, n + gap, n + offset or (b n + l)/a, and is summed from its
nonzeros (``_block_sum``), so a mean holds a few windows of primes whatever
N is.  Each checks N before anything else (``_checkpoint_ns``), then takes
its predicted constant, so a bad truncation prime P is refused before any
window is sieved; an odd gap's limit is 0, so it reads no constant and no P.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from . import singular
from .errors import ResourceLimitError
from .ramanujan import cq_int
from .sieve import MAX_PRIMES, lambda_windows, pi_bound

if TYPE_CHECKING:  # fractions, and decimal with it, load only in _periodic_trace
    from fractions import Fraction

_BLOCK = 1 << 20
# The entries of the largest node of ``_block_sum``'s tree that np.sum adds.
_LEAF = 1 << 16
# The n of one chunk of an exact period sum, and the summand it takes (``_period_sums``).
_CHUNK = 1 << 18
_Summand = Callable[[np.ndarray], np.ndarray]
# Each weight's column in ``_Weights``, and the one the pair means take by default.
WEIGHTS = {"lambda": 0, "lambda1": 1}
DEFAULT_WEIGHT = "lambda1"


@dataclass
class MeanValueReport:
    label: str
    trace: list[tuple[int, float]]
    predicted: float
    exact_mean: Fraction | None = None

    @property
    def empirical(self) -> float:
        """The mean at the last checkpoint, N."""
        return self.trace[-1][1]


def _checkpoint_ns(N: int) -> list[int]:
    if N < 1:
        raise ValueError(f"N must be >= 1, got N={N}")
    return sorted({max(1, (k * N) // 10) for k in range(1, 10)} | {N})


def _block_sum(pos: np.ndarray, vals: np.ndarray, n: int, leaf: np.ndarray) -> float:
    """np.sum of the n entries of an array that is ``vals`` at the ascending
    positions ``pos`` and 0 elsewhere, as the same float, by numpy's fixed
    pairwise tree (Higham, SIAM J. Sci. Comput. 14, 1993): a node of n > 128
    entries adds its first n // 2 - (n // 2) % 8 to the rest.  A node with
    no nonzero is 0.0; one of at most _LEAF entries is np.sum of ``leaf``,
    all zero but for the node's entries while it is summed."""
    if not pos.size:
        return 0.0
    if n <= _LEAF:
        leaf[pos] = vals
        total = float(np.sum(leaf[:n]))
        leaf[pos] = 0.0
        return total
    n2 = n // 2 - (n // 2) % 8
    k = np.searchsorted(pos, n2)
    return (_block_sum(pos[:k], vals[:k], n2, leaf)
            + _block_sum(pos[k:] - n2, vals[k:], n - n2, leaf))


def _array_trace(ns: list[int],
                 blocks: Callable[[int, int], Iterator[tuple[np.ndarray, np.ndarray]]],
                 ) -> list[list[tuple[int, float]]]:
    """Checkpoint means at ns = _checkpoint_ns(N) of one or more summands for
    n = 1..N, one trace per summand; callers take ns first, so a bad N fails
    before anything is built.  ``blocks(lo, hi)`` yields each summand's
    nonzeros at n = lo + 1..hi, in the same order for every block, as
    (pos, vals): their ascending positions n - lo - 1 and their values.

    Blocks of _BLOCK positions restart at each checkpoint, are asked for in
    ascending order, and their ``_block_sum`` are combined in ascending
    order, so every checkpoint mean is a fixed function of the summands.
    """
    leaf = np.zeros(min(_LEAF, ns[-1]))
    sums: list[list[float]] = []
    means = []
    prev = 0
    for n_i in ns:
        for lo in range(prev, n_i, _BLOCK):
            hi = min(lo + _BLOCK, n_i)
            sums.append([_block_sum(pos, v, hi - lo, leaf) for pos, v in blocks(lo, hi)])
        prev = n_i
        means.append([math.fsum(col) / n_i for col in zip(*sums)])
    return [list(zip(ns, col)) for col in zip(*means)]


def _period_sums(L: int, ms: Sequence[int], summand: _Summand) -> list[int]:
    """Exact sums over n = 1..m, as ints, one for each m >= 0 in ms, of a
    summand of period L < 2^31 that maps an int64 array of n to its int64
    values: (m // L) S_L + S_{m mod L}, with S_k the sum over n = 1..k.  The
    summand is called on ascending chunks of _CHUNK n, for n <= min(max(ms), L)
    only, so the period is summed only when some m reaches it.
    Each int64 sum is over at most L consecutive n, so below L^2 < 2^62.  For
    c_q(f(n)), L = q and |c_q| <= phi(q) < q.  For c_r(n) c_s(n + m), L = lcm(r, s):
    c_r(n)^2 sums to r phi(r) over any r consecutive n, so to at most L phi(r) over
    at most L of them; by Cauchy-Schwarz |sum| <= L sqrt(phi(r) phi(s)) < L^2."""
    if L >= 2**31:
        raise ValueError(f"period L = {L} is over the limit 2^31 - 1")
    splits = [divmod(m, L) for m in ms]  # (whole periods, rest r)
    top, done, sums = max(min(m, L) for m in ms), 0, {0: 0}
    for lo in range(0, top, _CHUNK):
        v = summand(np.arange(lo + 1, min(lo + _CHUNK, top) + 1, dtype=np.int64))
        sums |= {r: done + int(v[: r - lo].sum()) for _, r in splits if lo < r <= lo + v.size}
        done += int(v.sum())
    return [k * done + sums[r] for k, r in splits]  # done is S_L when some k > 0


def _periodic_trace(L: int, N: int, summand: _Summand) -> tuple[list[tuple[int, float]], Fraction]:
    """Checkpoint means and exact mean of a summand as ``_period_sums`` takes it."""
    from fractions import Fraction
    ns = _checkpoint_ns(N)
    *sums, total = _period_sums(L, ns + [L], summand)
    return [(n, s / n) for n, s in zip(ns, sums)], Fraction(total, L)


def cq_orthogonality(r: int, s: int, m: int, N: int) -> MeanValueReport:
    """Mean of c_r(n) c_s(n+m), of period L = lcm(r, s) < 2^31; the limit
    is c_r(m) when r = s, else 0."""
    if r < 1 or s < 1:
        raise ValueError(f"need r, s >= 1, got r={r}, s={s}")
    L = math.lcm(r, s)
    # c_s has period s, so m % s keeps n + m in int64 for any integer m.
    trace, exact = _periodic_trace(L, N, lambda n: cq_int(r, n) * cq_int(s, n + m % s))
    predicted = float(cq_int(r, m)) if r == s else 0.0
    return MeanValueReport(f"cq_orthogonality(r={r},s={s},m={m})", trace, predicted, exact)


def polynomial_cq_mean(q: int, poly: Sequence[int], N: int) -> MeanValueReport:
    """Mean of c_q(f(n)) for integer-coefficient f; poly lists coefficients
    from the constant term upward.

    The summand is q-periodic, so the exact one-period average is the limit
    and doubles as the predicted value.
    """
    if q < 1:
        raise ValueError(f"q must be >= 1, got {q}")
    coeffs = list(poly)
    def summand(n: np.ndarray) -> np.ndarray:  # c_q(f(n) mod q), each Horner step below q^2
        f_mod = np.zeros_like(n)
        for c in reversed(coeffs):
            f_mod = (f_mod * n + c % q) % q
        return cq_int(q, f_mod)
    trace, exact = _periodic_trace(q, N, summand)
    return MeanValueReport(f"polynomial_cq_mean(q={q},poly={coeffs})", trace, float(exact), exact)


class _Weights:
    """Lambda (column 0) and Lambda_1 (column 1) at n in [lo, hi], read from
    the windows of ``sieve.lambda_windows`` in order.

    Each read starts ``spread`` below the n one stride past the end of the
    read before it, and ends past that end.  So a window is held after a
    read only while the next read reaches it, and each window is sieved
    once; with ``spread`` under a window's length, at most two are held.
    """

    def __init__(self, lo: int, hi: int, spread: int):
        self._windows = lambda_windows(lo, hi)
        self._held: list[tuple] = []
        self._spread = spread

    def read(self, start: int, stride: int, count: int,
             cols: Sequence[int]) -> tuple[np.ndarray, list[np.ndarray]]:
        """(t, [w(start + stride t) for each column in cols]) at the t < count
        where w is not 0, ascending."""
        end = start + stride * (count - 1)
        at, vals = [], []
        held, self._held = self._held, []
        while True:
            window = held.pop(0) if held else next(self._windows)
            n = window[1]
            i, j = np.searchsorted(n, (start, end + 1))
            pos, on = n[i:j] - start, np.s_[:]
            if stride > 1:
                pos, rem = np.divmod(pos, stride)
                on = np.flatnonzero(rem == 0)
                pos = pos[on]
            at.append(pos)
            vals.append([np.array(window[2 + col][i:j][on]) for col in cols])
            if window[0] >= end + stride - self._spread:
                self._held.append(window)
            if window[0] >= end:
                break
            window = n = None  # a passed window is freed before the next is sieved
        return np.concatenate(at), [np.concatenate(v) for v in zip(*vals)]


def _linear_traces(ns: list[int], cols: Sequence[int], a: int, n0: int,
                   factors: Sequence[tuple[int, int]]) -> list[list[tuple[int, float]]]:
    """Traces, one per column of ``_Weights`` in ``cols``, of the summand
    prod_k w(s_k + d_k t) at n = n0 + a t, t >= 0, and 0 at the other n, for
    the factors (s_k, d_k) multiplied in order.

    A factor of stride 1 that starts within _BLOCK of the first of a run of
    such factors is read with that run, one range a block; any other
    factor, a stride d > 1 or a range further on, is a run of its own, so
    the sieving follows the ranges read.  Each block's products are built
    sparse, at the t where every factor so far is not 0, and yielded at the
    block's positions of n = n0 + a t: the nonzeros the whole support gave,
    at the same places.

    Raises ResourceLimitError, before sieving, when pi_bound of the ends of
    the ranges adds up to more primes than an Euler product may take: so
    every n read is below about 1.9 * 10^10, and the base primes <= sqrt(n)
    of every window stay few.
    """
    N = ns[-1]
    count = (N - n0) // a + 1 if n0 <= N else 0
    runs: list[list[int]] = []  # [first s, last s, stride] of each run of factors
    run_of = []
    for s, d in factors:
        if d == 1 and runs and runs[-1][2] == 1 and s - runs[-1][0] <= _BLOCK:
            runs[-1][1] = s
        else:
            runs.append([s, s, d])
        run_of.append(len(runs) - 1)
    ranges = [(first, last + d * (count - 1)) for first, last, d in runs]
    primes = sum(pi_bound(max(hi, 2)) for _, hi in ranges)
    if count and primes > MAX_PRIMES:
        raise ResourceLimitError(f"the mean at N={N} sieves up to {primes} primes, "
                                 f"over the limit of {MAX_PRIMES}")
    weights = [_Weights(lo, hi, last - first) for (lo, hi), (first, last, _) in zip(ranges, runs)]

    def blocks(lo: int, hi: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        t0 = max(0, -(-(lo + 1 - n0) // a))
        c = max(0, (hi - n0) // a + 1 - t0)
        at, vals = np.empty(0, dtype=np.int64), [np.empty(0)] * len(cols)
        if c:
            reads = [w.read(first + d * t0, d, c + last - first, cols)
                     for w, (first, last, d) in zip(weights, runs)]
            for k, (s, _) in enumerate(factors):
                t, ws = reads[run_of[k]]
                first, last, _ = runs[run_of[k]]
                if last > first:  # the factor's c entries of its run's range
                    i, j = np.searchsorted(t, (s - first, s - first + c))
                    t, ws = t[i:j] - (s - first), [w[i:j] for w in ws]
                if k:
                    keep = np.flatnonzero(np.isin(t, at, kind="table"))
                    t, j = t[keep], np.searchsorted(at, t[keep])
                    ws = [v[j] * w[keep] for v, w in zip(vals, ws)]
                at, vals = t, ws
        pos = (n0 + a * t0 - lo - 1) + a * at
        for v in vals:
            yield pos, v

    return _array_trace(ns, blocks)


def _linear_pair_trace(weight: str, a: int, b: int, l: int,
                       ns: list[int]) -> list[tuple[int, float]]:
    """Trace at ns = _checkpoint_ns(N) of w(n) w((b n + l)/a) over n = 1..N,
    with 0 where a does not divide b n + l or either point is not a prime
    power.  For gcd(a, b) = 1 the other n are one class n0 mod a, along
    which (b n + l)/a steps by b.
    """
    if weight not in WEIGHTS:
        raise ValueError(f"weight must be {' or '.join(map(repr, WEIGHTS))}, got {weight!r}")
    N = ns[-1]
    n0 = (-l * pow(b, -1, a)) % a or a  # a | b n + l exactly for n = n0 mod a
    m0 = (b * n0 + l) // a
    if n0 + a > N:  # n0 is alone in its class, so a and b may overflow int64
        a, b = N, 1
    return _linear_traces(ns, [WEIGHTS[weight]], a, n0, [(n0, a), (m0, b)])[0]


def pair_autocorrelation(h2: int, N: int, P: int = singular.DEFAULT_TRUNCATION,
                         weight: str = DEFAULT_WEIGHT) -> MeanValueReport:
    """Shifted autocorrelation mean at an even gap against the pair constant.

    Odd gaps are not an error; they route to the zero-limit variant, which
    reads no constant, so P is then neither read nor checked.
    """
    ns = _checkpoint_ns(N)
    if h2 < 1:
        raise ValueError(f"gap must be >= 1, got {h2}")
    if h2 % 2 == 1:
        return odd_gap_mean(h2, N, weight=weight)
    predicted = singular.pair_constant(h2, P).value
    return MeanValueReport(f"pair_autocorrelation(h={h2},w={weight})",
                           _linear_pair_trace(weight, 1, 1, h2, ns), predicted)


def odd_gap_mean(h: int, N: int, weight: str = DEFAULT_WEIGHT) -> MeanValueReport:
    """Autocorrelation mean at an odd gap; the limit is zero."""
    ns = _checkpoint_ns(N)
    if h < 1 or h % 2 == 0:
        raise ValueError(f"gap must be a positive odd integer, got {h}")
    return MeanValueReport(f"odd_gap_mean(h={h},w={weight})",
                           _linear_pair_trace(weight, 1, 1, h, ns), 0.0)


def conjecture_d_mean(a: int, b: int, l: int, N: int, P: int = singular.DEFAULT_TRUNCATION,
                      weight: str = DEFAULT_WEIGHT) -> MeanValueReport:
    """Mean over n <= N, restricted to a | (b n + l), of the product of
    weights at n and (b n + l)/a.

    The kept n are one residue class mod a, read as strided slices; keeping
    it is weighting n by the root-of-unity indicator average
    (1/a) sum_k e^{2 pi i k (b n + l)/a}, 1 when a | b n + l and else 0.
    """
    ns = _checkpoint_ns(N)
    predicted = singular.conjecture_d_constant(a, b, l, P).value
    return MeanValueReport(f"conjecture_d_mean(a={a},b={b},l={l},w={weight})",
                           _linear_pair_trace(weight, a, b, l, ns), predicted)


def tuple_mean(offsets: Sequence[int], N: int,
               P: int = singular.DEFAULT_TRUNCATION) -> tuple[MeanValueReport, MeanValueReport]:
    """Means of the product of von Mangoldt weights over the offset tuple,
    (Lambda, Lambda_1), against one predicted constant.

    The raw one dominates the phi(n)/n-weighted one term by term, which
    makes the lower-bound chain checkable.  ``offsets`` must pass
    ``singular.validate_tuple``.  The support reaches the largest index,
    N + the largest offset.
    """
    ns = _checkpoint_ns(N)
    offsets = singular.validate_tuple(offsets)
    predicted = singular.tuple_constant(offsets, P).value
    traces = _linear_traces(ns, list(WEIGHTS.values()), 1, 1,
                            [(1 + off, 1) for off in offsets])
    return tuple(MeanValueReport(f"tuple_mean(offsets={offsets},w={weight})", trace, predicted)
                 for weight, trace in zip(WEIGHTS, traces))


def pnt_mean(N: int) -> MeanValueReport:
    """Mean of the weighted von Mangoldt function; the limit is 1."""
    ns = _checkpoint_ns(N)
    return MeanValueReport("pnt_mean", _linear_traces(ns, [1], 1, 1, [(1, 1)])[0], 1.0)


def goldbach_correlation(N: int, q1: int, q2: int) -> int:
    """Exact finite sum over n = 1..2N of c_{q1}(n) * c_{q2}(2N - n), N of any size:
    c_q is even, so it is the orthogonality summand at m = -2N, of period lcm(q1, q2)."""
    if N < 1 or q1 < 1 or q2 < 1:
        raise ValueError(f"need N, q1, q2 >= 1, got N={N}, q1={q1}, q2={q2}")
    return _period_sums(math.lcm(q1, q2), [2 * N],
                        lambda n: cq_int(q1, n) * cq_int(q2, n - 2 * N % q2))[0]
