"""Hardy-Littlewood singular-series constants via truncated Euler products.

Every product over the primes p <= P streams: ``_euler_product`` sieves the
primes one window at a time, turns each window into its per-prime log terms
and sums them all, so a product holds one window whatever P is.  Each
docstring says whether ``tail_estimate`` is a proven bound, on the log or on
the value, or an estimate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError
from .ramanujan import cq_int
from .sieve import PRIME_SEGMENT_ODDS, SieveTables, pi_bound, primes_up_to

TWIN_CONSTANT_REFERENCE = 0.6601618158


@dataclass(frozen=True)
class SingularConstant:
    value: float
    truncation_prime: int
    tail_estimate: float
    form: str
    extra: dict = field(default_factory=dict)


# The most factors a product takes: by pi_bound, P up to about 1.9 * 10^10.
_MAX_FACTORS = 10**9
# Log terms handed to fsum as one list of Python floats.
_FSUM_CHUNK = 4096


def _euler_product(P: int, log_terms: Callable[[np.ndarray], np.ndarray]) -> float:
    """exp of the fsum of the per-prime log terms over the primes p <= P, P >= 2.

    The primes come in windows of 2 * PRIME_SEGMENT_ODDS integers, from
    ``primes_up_to(hi, lo)``, and ``log_terms`` maps a window's primes to
    their float64 log terms; only one window is held at a time.  fsum is
    correctly rounded, so the value depends only on the multiset of terms,
    not on the windows.  A factor of exactly 0 has log -inf: the windows
    stop at the first that holds one, whose fsum is -inf and whose exp is
    0.0.  Raises ResourceLimitError, before sieving, when pi_bound(P)
    exceeds _MAX_FACTORS.
    """
    factors = pi_bound(P)
    if factors > _MAX_FACTORS:
        raise ResourceLimitError(f"an Euler product over the primes up to {P} takes up "
                                 f"to {factors} factors, over the limit of {_MAX_FACTORS}")
    span = 2 * PRIME_SEGMENT_ODDS

    def terms() -> Iterator[list[float]]:
        # fsum takes Python floats much faster than numpy scalars; chunks of
        # _FSUM_CHUNK terms bound the list that holds them.
        for lo in range(1, P + 1, span):
            logs = log_terms(primes_up_to(min(lo + span - 1, P), lo))
            for at in range(0, logs.size, _FSUM_CHUNK):
                yield logs[at : at + _FSUM_CHUNK].tolist()
            if np.isneginf(logs).any():
                return

    return math.exp(math.fsum(itertools.chain.from_iterable(terms())))


def twin_constant(P: int) -> SingularConstant:
    """prod over odd primes p <= P of (1 - 1/(p-1)^2).

    ``tail_estimate`` = 1/(P-1) is a proven bound on the log of the omitted
    factors: |log(1 - x)| <= x/(1 - x) = 1/((p-1)^2 - 1) at x = 1/(p-1)^2,
    and sum_{n>P} 1/((n-1)^2 - 1) = 1/2 (1/(P-1) + 1/P) < 1/(P-1).
    """
    if P < 3:
        raise ValueError(f"P must be >= 3, got {P}")

    def log_terms(ps: np.ndarray) -> np.ndarray:
        p = ps[np.searchsorted(ps, 3) :].astype(np.float64)  # drop p = 2
        return np.log1p(-1.0 / (p - 1.0) ** 2)

    return SingularConstant(value=_euler_product(P, log_terms), truncation_prime=P,
                            tail_estimate=1.0 / (P - 1), form="C2")


# Trial division removes the prime factors below _TRIAL.  Miller-Rabin to
# the first 13 prime bases decides primality for n < _MR_LIMIT (Sorenson &
# Webster, Math. Comp. 86, 2017).
_TRIAL = 1 << 10
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981


def _prime_factors(n: int) -> list[tuple[int, int]]:
    """(p, e) for each p^e exactly dividing |n| >= 1, p ascending.

    Trial division takes the primes below 2^10; the cofactor is settled by
    deterministic Miller-Rabin and a composite one split by Pollard-Brent
    rho.  Run time is bounded for n < 2^64: a composite cofactor then has a
    prime factor below 2^32, which rho finds in about 2^16 steps.  A cofactor
    at or above _MR_LIMIT that passes Miller-Rabin cannot be proven prime
    that way, and raises ResourceLimitError.
    """
    out, n, d = [], abs(n), 2
    while d < _TRIAL and d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    big = _large_factors(n) if n > 1 else []
    return out + [(p, big.count(p)) for p in sorted(set(big))]


def _large_factors(n: int) -> list[int]:
    """The prime factors of n > 1, with multiplicity, where n has none
    below _TRIAL."""
    if n < _TRIAL * _TRIAL or _is_prime(n):
        return [n]
    d = _rho_factor(n)
    return _large_factors(d) + _large_factors(n // d)


def _is_prime(n: int) -> bool:
    """Whether n is prime, for odd n > 41: strong probable prime to every
    base of _MR_BASES.  Raises ResourceLimitError for a probable prime
    n >= _MR_LIMIT, where the bases prove nothing."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    if n >= _MR_LIMIT:
        raise ResourceLimitError(f"cannot prove the factor {n} prime: "
                                 f"Miller-Rabin is proven only below {_MR_LIMIT}")
    return True


def _rho_factor(n: int) -> int:
    """A factor 1 < d < n of the odd composite n by Pollard-Brent rho
    (Brent, BIT 20, 1980): the products of |x - y| over batches of 128 steps
    of y -> y^2 + c share one gcd, retraced step by step when the batch
    overshoots to n; a c whose retrace also reaches n gives way to c + 1."""
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            for k in range(0, r, 128):
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                if g != 1:
                    break
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def pair_constant(h2: int, P: int) -> SingularConstant:
    """2 C2 * prod over odd primes p | h2 of (p-1)/(p-2); even gaps only.

    This is the Conjecture D constant with a = b = 1 and l = h2.
    """
    if h2 < 2 or h2 % 2 != 0:
        raise ValueError(f"pair constant is defined for even gaps, got {h2}")
    return replace(conjecture_d_constant(1, 1, h2, P), form=f"pair({h2})")


def validate_linear_pair(a: int, b: int, l: int) -> None:
    """Hypotheses for the a*p - b*p' = l prime-pair family.

    Positive, pairwise coprime, exactly one even.  Distinctness is not
    enforced: the classical twin (1, 1, 2) and Sophie Germain (1, 2, 1)
    special cases repeat a value.
    """
    if min(a, b, l) < 1:
        raise ValueError(f"(a, b, l) must be positive, got ({a}, {b}, {l})")
    for u, v, names in ((a, b, "(a, b)"), (a, l, "(a, l)"), (b, l, "(b, l)")):
        if math.gcd(u, v) != 1:
            raise ValueError(f"{names} must be coprime, got ({a}, {b}, {l})")
    evens = sum(1 for v in (a, b, l) if v % 2 == 0)
    if evens != 1:
        raise ValueError(
            f"exactly one of (a, b, l) must be even, got ({a}, {b}, {l})"
        )


def conjecture_d_constant(a: int, b: int, l: int, P: int) -> SingularConstant:
    """(2 C2 / a) * prod over odd primes p dividing a, b, or l of (p-1)/(p-2)."""
    validate_linear_pair(a, b, l)
    c2 = twin_constant(P)
    value = 2.0 * c2.value / a
    ps = sorted({p for n in (a, b, l) for p, _ in _prime_factors(n) if p > 2})
    for p in ps:
        value *= (p - 1.0) / (p - 2.0)
    return SingularConstant(
        value=value,
        truncation_prime=P,
        tail_estimate=c2.tail_estimate,
        form=f"conjD({a},{b},{l})",
    )


def _residue_counts(offsets: np.ndarray, ps: np.ndarray) -> np.ndarray:
    """nu(p) for each p of ``ps``: the number of distinct residues of the
    offsets mod p, one plus the steps of each sorted row of the offsets mod
    p, over blocks of rows of about 2^16 entries.  Offsets past int64 come
    as an object array of Python ints, which the same code reduces exactly."""
    nu = np.empty(ps.size, dtype=np.int64)
    step = max(1, (1 << 16) // offsets.size)
    for lo in range(0, ps.size, step):
        rows = offsets % ps[lo : lo + step, None]
        rows.sort(axis=1)
        nu[lo : lo + len(rows)] = 1 + np.count_nonzero(rows[:, 1:] != rows[:, :-1], axis=1)
    return nu


def check_admissible(offsets: Sequence[int]) -> int | None:
    """The least prime p whose every residue the offsets cover, else None."""
    # Only a prime p <= len(offsets) can be covered.
    ps = primes_up_to(len(offsets))
    bad = ps[_residue_counts(np.array(offsets), ps) == ps]
    return int(bad[0]) if bad.size else None


def validate_tuple(offsets: Sequence[int]) -> tuple[int, ...]:
    """The offsets as a tuple of ints, once checked: non-empty, starting at 0,
    strictly increasing, and admissible, so that no prime p has every residue
    mod p among them.  The error for an inadmissible tuple names that prime.
    """
    offsets = tuple(int(o) for o in offsets)
    if not offsets or offsets[0] != 0:
        raise ValueError(f"offsets must start with 0, got {offsets}")
    if any(b <= a for a, b in zip(offsets, offsets[1:])):
        raise ValueError(f"offsets must be strictly increasing, got {offsets}")
    bad = check_admissible(offsets)
    if bad is not None:
        raise ValueError(
            f"offsets {offsets} are inadmissible: prime {bad} covers every residue"
        )
    return offsets


def tuple_constant(offsets: Sequence[int], P: int) -> SingularConstant:
    """prod over p <= P of (p/(p-1))^m * (p - nu)/(p - 1) for an offset tuple.

    offsets must pass ``validate_tuple``; m counts the offsets beyond the
    leading 0.  nu is the number of distinct residues of the tuple mod p,
    which equals m + 1 once p exceeds every offset.  ``tail_estimate`` =
    2m(m+1)/(P-1) estimates the log of the omitted factors; it is not a
    proven bound.
    """
    offsets = validate_tuple(offsets)
    m = len(offsets) - 1
    if m == 0:
        return SingularConstant(
            value=1.0, truncation_prime=P, tail_estimate=0.0, form="tuple(0,)"
        )
    small_cut = max(offsets[-1], m + 1)
    if P < small_cut:
        raise ValueError(f"P={P} too small; need P >= {small_cut}")
    offs = np.array(offsets)

    def log_terms(ps: np.ndarray) -> np.ndarray:
        # nu(p) is counted for the window's p <= small_cut only.
        nu = np.full(ps.size, m + 1, dtype=np.int64)
        n_small = np.searchsorted(ps, small_cut, "right")
        nu[:n_small] = _residue_counts(offs, ps[:n_small])
        p = ps.astype(np.float64)
        return m * np.log(p / (p - 1.0)) + np.log((p - nu) / (p - 1.0))

    value = _euler_product(P, log_terms)
    return SingularConstant(
        value=value,
        truncation_prime=P,
        tail_estimate=2.0 * m * (m + 1) / (P - 1),
        form=f"tuple{offsets}",
    )


def series_constant(h: int, P: int) -> SingularConstant:
    """Value of the mu(q)/phi(q)-weighted Ramanujan series at gap h.

    The q-ordered series is only conditionally convergent, so the value is
    computed through the absolutely convergent diagonal rearrangement
        prod_p (1 + c_p(h) / (p-1)^2),
    which equals the pair constant at even h and vanishes at odd h.  The
    literal prime-by-prime product of the raw coefficients,
    prod_p (1 + mu(p) c_p(h) / phi(p)), does not converge to the series'
    value (its p = 2 factor vanishes at even h); it is reported in
    ``extra["naive_product"]`` as a finding.  h may exceed int64.
    ``tail_estimate`` = 2/(P-1) estimates the log of the omitted diagonal
    factors; it is not a proven bound.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")
    if P < 2:
        raise ValueError(f"P must be >= 2, got {P}")

    def coefficients(ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        # (c_p(h), p - 1) as float64: c_p(h) = p - 1 where p divides h, else
        # -1; Python ints beyond int64.
        rem = h % ps if h < 2**63 else h % ps.astype(object)
        p1 = ps.astype(np.float64) - 1.0
        return np.where(rem == 0, p1, -1.0), p1

    def diagonal(ps: np.ndarray) -> np.ndarray:
        cp, p1 = coefficients(ps)
        return np.log(1.0 + cp / p1**2)

    def raw(ps: np.ndarray) -> np.ndarray:
        cp, p1 = coefficients(ps)
        return np.log(1.0 - cp / p1)  # mu(p) = -1

    with np.errstate(divide="ignore"):  # a zero factor: log 0 = -inf
        value = _euler_product(P, diagonal)
        naive = _euler_product(P, raw)
    return SingularConstant(
        value=value,
        truncation_prime=P,
        tail_estimate=2.0 / (P - 1),
        form=f"series({h})",
        extra={"naive_product": naive},
    )


def series_wk(tables: SieveTables, h: int, Q: int) -> SingularConstant:
    """Direct q-sum of the squared-coefficient series sum mu(q)^2/phi(q)^2 c_q(h).

    Absolutely convergent, so the plain truncation is meaningful; the tail
    estimate scales sigma(h), from the factorisation of h, by an empirical
    bound on sum_{q>Q} 1/phi(q)^2.  It is an estimate, not a proven bound.
    """
    if h < 1 or Q < 1:
        raise ValueError(f"need h >= 1 and Q >= 1, got h={h}, Q={Q}")
    if Q > tables.bound:
        raise ValueError(f"Q={Q} beyond table bound {tables.bound}")
    # Only the squarefree q have a term: mu(q)^2 is 1 there and 0 elsewhere.
    q = np.flatnonzero(tables.mu[1 : Q + 1]) + 1
    c = cq_int(tables, q, h).astype(np.float64)
    value = math.fsum(1.0 / tables.phi[q].astype(np.float64) ** 2 * c)
    sigma_h = math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in _prime_factors(h))
    # sum_{q>Q} 1/phi(q)^2 ~ 2.2/Q; doubled for slack.
    tail = sigma_h * 4.4 / Q
    return SingularConstant(
        value=value,
        truncation_prime=Q,
        tail_estimate=tail,
        form=f"series_wk({h})",
    )
