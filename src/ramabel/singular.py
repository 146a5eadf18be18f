"""Hardy-Littlewood singular-series constants via truncated Euler products.

Every product over the primes p <= P streams: ``_euler_product`` sieves the
primes one window at a time and sums the per-prime log terms of each run of
_FSUM_CHUNK primes, so a product holds one window whatever P is.  Each
docstring says whether ``tail_estimate`` is a proven bound, on the log or on
the value, or an estimate.  DEFAULT_TRUNCATION is the P, or the Q of
``series_wk``, that the CLI and the correlation means take by default.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ResourceLimitError
from .ramanujan import squarefree_cq
from .sieve import MAX_PRIMES, _prime_factors, pi_bound, primes_up_to, residues, window_bounds

DEFAULT_TRUNCATION = 10**6


@dataclass(frozen=True)
class SingularConstant:
    value: float
    tail_estimate: float
    form: str


# Terms reach fsum _FSUM_CHUNK at a time, as Python floats: fsum takes those
# much faster than numpy scalars, and a chunk bounds the terms held.
_FSUM_CHUNK = 4096


def _fsum_chunks(parts: Iterable[tuple[np.ndarray, ...]], term: Callable[..., np.ndarray]) -> float:
    """fsum of ``term`` over each _FSUM_CHUNK-entry slice of each part's
    equal-length arrays, in order; a part is dropped before the next is
    drawn.  fsum is correctly rounded, so the chunks do not change the
    value.  A chunk with a -inf term ends the sum, whose fsum is -inf."""

    def terms() -> Iterator[list[float]]:
        for arrays in parts:
            for at in range(0, len(arrays[0]), _FSUM_CHUNK):
                t = term(*(a[at : at + _FSUM_CHUNK] for a in arrays))
                yield t.tolist()
                if np.isneginf(t).any():
                    return
            del arrays

    return math.fsum(itertools.chain.from_iterable(terms()))


def _euler_product(P: int, log_terms: Callable[[np.ndarray], np.ndarray]) -> float:
    """exp of the fsum of the per-prime log terms over the primes p <= P.

    Each window [start, end] of ``window_bounds(1, P)`` is sieved by one
    ``primes_up_to(end, start)``; ``log_terms`` maps each run of _FSUM_CHUNK
    of its primes to their float64 log terms, by ``_fsum_chunks``, so one
    window and one run's terms are held at a time.  A factor of exactly 0
    has log -inf, with no divide warning, and ends the sum at its run: fsum
    -inf, exp 0.0.  Raises ValueError for P < 2, then ResourceLimitError,
    before sieving, when pi_bound(P) exceeds MAX_PRIMES.
    """
    if P < 2:
        raise ValueError(f"P must be >= 2, got {P}")
    factors = pi_bound(P)
    if factors > MAX_PRIMES:
        raise ResourceLimitError(f"an Euler product over the primes up to {P} takes up "
                                 f"to {factors} factors, over the limit of {MAX_PRIMES}")
    windows = ((primes_up_to(end, start),) for start, end in window_bounds(1, P))
    with np.errstate(divide="ignore"):  # a zero factor: log 0 = -inf
        return math.exp(_fsum_chunks(windows, log_terms))


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

    return SingularConstant(value=_euler_product(P, log_terms), tail_estimate=1.0 / (P - 1),
                            form="C2")


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
    return SingularConstant(value=value, tail_estimate=c2.tail_estimate, form=f"conjD({a},{b},{l})")


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
    small_cut = max(offsets[-1], m + 1)
    if P < small_cut:
        raise ValueError(f"P={P} too small; need P >= {small_cut}")
    if m == 0:
        return SingularConstant(value=1.0, tail_estimate=0.0, form="tuple(0,)")
    offs = np.array(offsets)

    def log_terms(ps: np.ndarray) -> np.ndarray:
        # nu(p) is counted for the window's p <= small_cut only.
        nu = np.full(ps.size, m + 1, dtype=np.int64)
        n_small = np.searchsorted(ps, small_cut, "right")
        nu[:n_small] = _residue_counts(offs, ps[:n_small])
        p = ps.astype(np.float64)
        return m * np.log(p / (p - 1.0)) + np.log((p - nu) / (p - 1.0))

    return SingularConstant(value=_euler_product(P, log_terms),
                            tail_estimate=2.0 * m * (m + 1) / (P - 1), form=f"tuple{offsets}")


def _series_coefficients(h: int, ps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(c_p(h), p - 1) as float64 for the primes ``ps``: c_p(h) = p - 1 where
    p divides h, else -1, from the ``residues`` of h, an int of any size."""
    p1 = ps.astype(np.float64) - 1.0
    return np.where(residues(h, ps) == 0, p1, -1.0), p1


def series_constant(h: int, P: int) -> SingularConstant:
    """Value of the mu(q)/phi(q)-weighted Ramanujan series at gap h.

    The q-ordered series is only conditionally convergent, so the value is
    computed through the absolutely convergent diagonal rearrangement
        prod_p (1 + c_p(h) / (p-1)^2),
    which equals the pair constant at even h and vanishes at odd h.  h may
    exceed int64.  ``tail_estimate`` = 2/(P-1) estimates the log of the
    omitted diagonal factors; it is not a proven bound.
    """
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")

    def diagonal(ps: np.ndarray) -> np.ndarray:
        cp, p1 = _series_coefficients(h, ps)
        return np.log(1.0 + cp / p1**2)

    return SingularConstant(value=_euler_product(P, diagonal), tail_estimate=2.0 / (P - 1),
                            form=f"series({h})")


def series_naive_product(h: int, P: int) -> float:
    """The literal prime-by-prime product of the raw coefficients of
    ``series_constant``'s series, prod_p (1 + mu(p) c_p(h) / phi(p)) over
    p <= P, for h >= 1 and P >= 2, kept as a finding: it does not converge to
    the series' value, and its p = 2 factor vanishes at even h."""
    if h < 1:
        raise ValueError(f"h must be >= 1, got {h}")

    def raw(ps: np.ndarray) -> np.ndarray:
        cp, p1 = _series_coefficients(h, ps)
        return np.log(1.0 - cp / p1)  # mu(p) = -1

    return _euler_product(P, raw)


def series_wk(h: int, Q: int) -> SingularConstant:
    """Direct q-sum of the squared-coefficient series sum mu(q)^2/phi(q)^2 c_q(h).

    Absolutely convergent, so the plain truncation is meaningful; only the
    squarefree q of ``squarefree_cq`` have a term, fed to ``_fsum_chunks``.
    The tail estimate scales sigma(h), from factoring h of any size by
    ``_prime_factors`` (a cofactor it cannot prove prime raises
    ResourceLimitError), by an empirical bound on sum_{q>Q} 1/phi(q)^2.  It
    is an estimate, not a proven bound.
    """
    if h < 1 or Q < 1:
        raise ValueError(f"need h >= 1 and Q >= 1, got h={h}, Q={Q}")
    sigma_h = math.prod((p ** (e + 1) - 1) // (p - 1) for p, e in _prime_factors(h))
    value = _fsum_chunks(squarefree_cq(Q, h),
                         lambda q, mu, phi, c: 1.0 / phi.astype(np.float64) ** 2 * c)
    # sum_{q>Q} 1/phi(q)^2 ~ 2.2/Q; doubled for slack.
    return SingularConstant(value=value, tail_estimate=sigma_h * 4.4 / Q, form=f"series_wk({h})")
