"""Abel-regularised Ramanujan expansions.

Centrepiece is the power series sum_q mu(q)/phi(q) * c_q(x) * z^q for
0 < z < 1, whose tail after Q terms is bounded by z^Q * z/(1-z).  The limit
z -> 1- recovers phi(n)/n * Lambda(n) point-wise; at finite z the ladder is
reported as a diagnostic only, beside its target from ``lambda1_at``, which
factors n.  Also here: the classical expansions of the divisor-sum
functions and the circle lattice count, used as convergence diagnostics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ResourceLimitError
from .mean_values import _checkpoint_ns
from .ramanujan import cq_int, cq_real
from .sieve import SieveTables, lambda_support
from .singular import _prime_factors

_MAX_Q = 10**9
# A fresh abel process's peak RSS rise per term of its largest Q: the tables,
# the series arrays and the list that fsum reads (81.1 from Q = 1.2e6 to 3.9e6).
LADDER_BYTES_PER_TERM = 82


def tail_bound(z: float, Q: int) -> float:
    """Upper bound on the series tail beyond Q terms: z^Q * z/(1-z)."""
    _check_z(z)
    if Q < 1:
        raise ValueError(f"Q must be >= 1, got {Q}")
    return z**Q * (z / (1.0 - z))


def required_Q(z: float, epsilon: float) -> int:
    """Smallest Q with z^Q * z/(1-z) strictly below epsilon.

    Independent of the evaluation point; depends only on (z, epsilon).
    """
    _check_z(z)
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    b = z / (1.0 - z)
    if z * b < epsilon:
        return 1
    est = (math.log(epsilon) - math.log(b)) / math.log(z)
    if est > _MAX_Q:
        raise ResourceLimitError(
            f"epsilon={epsilon} at z={z} needs more than {_MAX_Q} terms"
        )
    Q = max(1, int(est) - 2)
    while tail_bound(z, Q) >= epsilon:
        Q += 1
        if Q > _MAX_Q:
            raise ResourceLimitError(
                f"epsilon={epsilon} at z={z} needs more than {_MAX_Q} terms"
            )
    return Q


@dataclass(frozen=True)
class SeriesParams:
    """Truncation parameters for one power-series evaluation."""

    z: float
    Q: int

    def __post_init__(self):
        _check_z(self.z)
        if self.Q < 1:
            raise ValueError(f"Q must be >= 1, got {self.Q}")

    @classmethod
    def for_accuracy(cls, z: float, epsilon: float) -> "SeriesParams":
        return cls(z=z, Q=required_Q(z, epsilon))

    @property
    def tail(self) -> float:
        return tail_bound(self.z, self.Q)


def lambda1_series(tables: SieveTables, params: SeriesParams, x: float) -> float:
    """Partial sum over q <= Q of mu(q)/phi(q) * c_q(x) * z^q.

    Within params.tail of the full series.  An int or numpy integer x, or
    an integer-valued float, takes the exact integer path for c_q, an int
    with no float round trip; otherwise the cosine definition is used.
    Terms are accumulated in ascending q with exact (fsum) compensation.
    """
    z, Q = params.z, params.Q
    if Q > tables.bound:
        raise ValueError(f"Q={Q} beyond table bound {tables.bound}")
    qs = np.arange(1, Q + 1, dtype=np.int64)
    if isinstance(x, (int, np.integer)) or float(x).is_integer():
        c = cq_int(tables, qs, int(x)).astype(np.float64)
    else:
        c = np.array([cq_real(int(q), float(x)) for q in qs])
    coef = tables.mu[1 : Q + 1].astype(np.float64) / tables.phi[1 : Q + 1]
    terms = coef * c * z ** qs.astype(np.float64)
    return math.fsum(terms.tolist())


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

    x: float
    ladder: list[tuple[float, int, float]]
    target: float


DEFAULT_Z_LADDER = (0.9, 0.99, 0.999)
DEFAULT_LADDER_EPSILON = 1e-8


def abel_ladder(
    tables: SieveTables,
    n: int,
    z_list: tuple[float, ...] = DEFAULT_Z_LADDER,
    epsilon: float = DEFAULT_LADDER_EPSILON,
) -> AbelTrace:
    """Evaluate the series at each z with Q chosen from the tail bound.

    The ladder is a diagnostic: the z -> 1- limit equals the weighted
    von Mangoldt value at n, the target, but no convergence rate is
    asserted.  The tables need reach only the largest Q: the target comes
    from factoring n, by ``lambda1_at``, and is taken before the ladder, so
    an n past 2^63 - 1 is refused before any series is summed.  The series
    takes the int n, exact at every n.
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
        params = SeriesParams.for_accuracy(z, epsilon)
        ladder.append((z, params.Q, lambda1_series(tables, params, n)))
    return AbelTrace(x=float(n), ladder=ladder, target=target)


@dataclass
class ExpansionTrace:
    """Truncated expansion value with partial-sum checkpoints."""

    value: float
    target: float | None
    trace: list[tuple[int, float]] = field(default_factory=list)


def sigma_rf(tables: SieveTables, n: int, Q: int) -> float:
    """Truncated sum-of-divisors expansion (pi^2 n / 6) * sum c_q(n)/q^2.

    Tail after Q terms is bounded by (pi^2 n / 6) * sigma(n) / Q.
    """
    if n < 1 or Q < 1:
        raise ValueError(f"need n >= 1 and Q >= 1, got n={n}, Q={Q}")
    qs = np.arange(1, Q + 1, dtype=np.int64)
    c = cq_int(tables, qs, n).astype(np.float64)
    return (math.pi**2 * n / 6.0) * math.fsum((c / qs.astype(np.float64) ** 2).tolist())


def divisor_rf(tables: SieveTables, n: int, Q: int) -> ExpansionTrace:
    """Truncated divisor-count expansion -sum (log q / q) c_q(n).

    Diagnostic only; the series converges too slowly (conditionally) for
    tolerance assertions.  Target is the true divisor count.
    """
    if n < 1 or Q < 1:
        raise ValueError(f"need n >= 1 and Q >= 1, got n={n}, Q={Q}")
    qs = np.arange(1, Q + 1, dtype=np.int64)
    c = cq_int(tables, qs, n).astype(np.float64)
    terms = -(np.log(qs.astype(np.float64)) / qs) * c
    partial = np.cumsum(terms)
    trace = [(int(k), float(partial[k - 1])) for k in _checkpoint_ns(Q)]
    return ExpansionTrace(
        value=math.fsum(terms.tolist()), target=float(divisor_count(n)), trace=trace
    )


def circle_lattice_rf(tables: SieveTables, a: int, Q: int) -> ExpansionTrace:
    """Truncated lattice-point expansion pi * sum (-1)^(q-1)/(2q-1) c_{2q-1}(a).

    Diagnostic trace against the brute-force count of integer points in
    u^2 + v^2 <= a.
    """
    if a < 0 or Q < 1:
        raise ValueError(f"need a >= 0 and Q >= 1, got a={a}, Q={Q}")
    qs = np.arange(1, Q + 1, dtype=np.int64)
    odd = 2 * qs - 1
    c = cq_int(tables, odd, a).astype(np.float64)
    signs = np.where(qs % 2 == 1, 1.0, -1.0)
    terms = math.pi * signs / odd.astype(np.float64) * c
    partial = np.cumsum(terms)
    trace = [(int(k), float(partial[k - 1])) for k in _checkpoint_ns(Q)]
    return ExpansionTrace(
        value=math.fsum(terms.tolist()), target=float(lattice_count(a)), trace=trace
    )


def lattice_count(a: int) -> int:
    """Number of integer points (u, v) with u^2 + v^2 <= a."""
    if a < 0:
        raise ValueError(f"a must be >= 0, got {a}")
    r = math.isqrt(a)
    return sum(2 * math.isqrt(a - u * u) + 1 for u in range(-r, r + 1))


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def _check_z(z: float) -> None:
    if not 0.0 < z < 1.0:
        raise ValueError(f"z must lie in the open interval (0, 1), got {z}")
