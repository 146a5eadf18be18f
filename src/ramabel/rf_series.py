"""Abel-regularised Ramanujan expansions.

Centrepiece is the power series sum_q mu(q)/phi(q) * c_q(x) * z^q for
0 < z < 1, whose tail after Q terms is bounded by z^Q * z/(1-z).
``lambda1_series(z, Q, x)`` sums its first Q terms, and ``required_Q``
gives the least Q whose tail bound is below a tolerance.  The limit
z -> 1- recovers phi(n)/n * Lambda(n) point-wise for n >= 2, Hardy's
identity.  At n = 1, c_q(1) = mu(q): the series is the sum of
mu(q)^2/phi(q) * z^q, which grows like log 1/(1-z).  At finite z the ladder is
reported as a diagnostic only, beside its target from ``lambda1_at``, which
factors n.  The series sums over ``ramanujan.squarefree_cq``, with no table.
Also here: the truncated expansion of the sum-of-divisors function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ResourceLimitError
from .ramanujan import cq_real, squarefree_cq
from .sieve import _prime_factors, _table_segments, lambda_support, residues
from .singular import _fsum_chunks

_MAX_Q = 10**9


def tail_bound(z: float, Q: int) -> float:
    """Upper bound on the series tail beyond Q terms: z^Q * z/(1-z)."""
    _check_series(z, Q)
    return z**Q * (z / (1.0 - z))


def required_Q(z: float, epsilon: float) -> int:
    """Smallest Q with z^Q * z/(1-z) strictly below epsilon, at most _MAX_Q.

    Independent of the evaluation point; depends only on (z, epsilon).  The
    search starts 2 below the root of z^Q * z/(1-z) = epsilon in real Q.
    """
    _check_z(z)
    if not epsilon > 0:  # nan too
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    est = (math.log(epsilon) - math.log(z / (1.0 - z))) / math.log(z)
    Q = 1 if est < 3 else int(est) - 2  # est is -inf at epsilon = inf
    while Q <= _MAX_Q and tail_bound(z, Q) >= epsilon:
        Q += 1
    if Q > _MAX_Q:
        raise ResourceLimitError(f"epsilon={epsilon} at z={z} needs more than {_MAX_Q} terms")
    return Q


def lambda1_series(z: float, Q: int, x: float) -> float:
    """Partial sum over q <= Q of mu(q)/phi(q) * c_q(x) * z^q, 0 < z < 1.

    Within tail_bound(z, Q) of the full series.  An int or numpy integer x,
    or an integer-valued float, takes the exact integer c_q of
    ``squarefree_cq`` at the int itself, of any size; otherwise the cosine
    definition is used.  Only the squarefree q have a term, summed in
    ascending q, exactly and rounded once, by ``_fsum_chunks``.
    """
    _check_series(z, Q)
    exact = isinstance(x, (int, np.integer)) or float(x).is_integer()

    def term(q, mu, phi, c):
        # Off the integers, c_q(1) = mu(q) is drawn and the cosine sums read.
        if not exact:
            c = np.array([cq_real(k, float(x)) for k in q.tolist()])
        return mu.astype(np.float64) / phi * c * z ** q.astype(np.float64)

    return _fsum_chunks(squarefree_cq(Q, int(x) if exact else 1), term)


def lambda1_at(n: int) -> float:
    """phi(n)/n * log p at prime powers n = p^k, zero elsewhere, for
    1 <= n < 2^63: the ``lambda_support`` of the one prime p up to n, the
    smallest prime factor of n from ``_prime_factors``, whose last entry is
    n exactly when n is a power of p."""
    if not 1 <= n <= np.iinfo(np.int64).max:
        raise ValueError(f"n={n} outside 1..2^63 - 1")
    if n == 1:
        return 0.0
    pk, _, lam1 = lambda_support(np.array([_prime_factors(n)[0][0]]), n)
    return float(lam1[-1]) if pk[-1] == n else 0.0


@dataclass
class AbelTrace:
    """Ladder of power-series values at z values increasing toward 1."""

    ladder: list[tuple[float, int, float]]
    target: float


DEFAULT_Z_LADDER = (0.9, 0.99, 0.999)
DEFAULT_LADDER_EPSILON = 1e-8


def abel_ladder(n: int, z_list: tuple[float, ...] = DEFAULT_Z_LADDER,
                epsilon: float = DEFAULT_LADDER_EPSILON) -> AbelTrace:
    """Evaluate the series at each z with Q chosen from the tail bound.

    The ladder is a diagnostic: for n >= 2 the z -> 1- limit equals the
    weighted von Mangoldt value at n, the target, but no convergence rate is
    asserted; at n = 1 the series is sum mu(q)^2/phi(q) z^q, which grows
    like log 1/(1 - z).  No table is built: the target comes from factoring n, by
    ``lambda1_at``, and is taken before the ladder, so an n past 2^63 - 1
    is refused before any series is summed.  The series takes the int n,
    exact at every n.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not z_list:
        raise ValueError(f"z ladder must hold at least one z, got {z_list}")
    if any(b <= a for a, b in zip(z_list, z_list[1:])):
        raise ValueError(f"z ladder must be strictly increasing, got {z_list}")
    target = lambda1_at(n)
    ladder = []
    for z in z_list:
        Q = required_Q(z, epsilon)
        ladder.append((z, Q, lambda1_series(z, Q, n)))
    return AbelTrace(ladder=ladder, target=target)


def sigma_rf(n: int, Q: int) -> float:
    """Truncated sum-of-divisors expansion (pi^2 n / 6) * sum c_q(n)/q^2.

    Tail after Q terms is bounded by (pi^2 n / 6) * sigma(n) / Q.  c_q(n) is
    Kluyver's sum of d * mu(q/d) over the divisors d <= Q of n that divide q.
    """
    if n < 1 or Q < 1:
        raise ValueError(f"need n >= 1 and Q >= 1, got n={n}, Q={Q}")
    # mu(1..Q); each segment's is a view of a reused buffer, which astype copies.
    mu = np.concatenate([[0]] + [mu.astype(np.int64) for _, _, mu, _ in _table_segments(Q)])
    ds = np.arange(1, min(n, Q) + 1, dtype=np.int64)
    c = np.zeros(Q + 1, dtype=np.int64)
    for d in ds[residues(n, ds) == 0].tolist():
        c[d::d] += d * mu[1 : Q // d + 1]
    return (math.pi**2 * n / 6.0) * _fsum_chunks([(c[1:], np.arange(1.0, Q + 1))],
                                                 lambda cq, q: cq / q**2)


def _check_z(z: float) -> None:
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie in the open interval (0, 1), got {z}")


def _check_series(z: float, Q: int) -> None:
    _check_z(z)
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
