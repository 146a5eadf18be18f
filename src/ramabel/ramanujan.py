"""Ramanujan sums c_q(n) and their real-argument extension c_q(x).

The integer path ``cq_int`` is Hoelder's closed form, taken one prime power
of q at a time over the factors of q from ``sieve._prime_factors``, so it
reads no table; ``squarefree_cq`` gives its squarefree form over the table
segments, for the q-sums.  The defining exponential
sum is kept as an independent oracle, and the full catalog of identities
the sums satisfy is executable via ``check_property_catalog``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import InternalConsistencyError
from .sieve import SieveTables, _prime_factors, _table_segments, sigma_table

# The largest q of the oracle, whose sum takes phi(q) terms per n.
DIRECT_MAX_Q = 5000
_RESIDUE_TOL = 1e-6


def cq_int(q: int, n: int | np.ndarray):
    """Exact c_q(n), |q| < 2^63, from the factors of q: c_q is multiplicative
    in q, and c_{p^e}(n) = p^e [p^e | n] - p^(e-1) [p^(e-1) | n] (Hoelder;
    Montgomery & Vaughan 4.1).  An int n of any size gives a Python int, an
    integer array n an int64 array of its shape.  c_0 = c_1 = 1, as in the
    real-argument convention, and c_{-q} = c_q; |q| >= 2^63 is a ValueError.
    """
    q = abs(int(q)) or 1
    if q >= 2**63:
        raise ValueError(f"q={q} outside 1..2^63 - 1")
    c = 1
    if not isinstance(n, int):
        n = np.asarray(n, dtype=np.int64)
        c = np.ones_like(n)
    for p, e in _prime_factors(q):
        pe1 = p ** (e - 1)
        r = n % (p * pe1)
        c = c * ((r == 0) * (p * pe1) - (r % pe1 == 0) * pe1)
    return c if np.ndim(c) else int(c)  # NumPy integer scalars, as Python ints


def squarefree_cq(Q: int, n: int) -> Iterator[tuple[np.ndarray, ...]]:
    """(q, mu, phi, c) for the squarefree q <= Q, ascending, one segment of
    ``sieve._table_segments(Q)`` at a time, as int64, int8, int32 and int64:
    c = c_q(n), exact for an int n of any size.  For squarefree q, Hoelder's
    form is mu(q) * prod over p | gcd(q, n) of (1 - p) (Montgomery & Vaughan,
    4.1), so c starts from mu(q) and takes one strided multiply by 1 - p for
    each prime p of n met so far: each segment's primes, where spf(q) = q,
    are tested against n, which is never factored.  c_q(0) = phi(q).
    """
    found: list[int] = []  # the primes of n met so far
    for lo, spf, mu, phi in _table_segments(Q):
        c = (mu if n else phi).astype(np.int64)
        if n:
            ps = np.flatnonzero(spf == np.arange(lo, lo + spf.size)) + lo
            found += ps[n % (ps if -(2**63) <= n < 2**63 else ps.astype(object)) == 0].tolist()
        for p in found:
            c[-lo % p :: p] *= 1 - p
        at = np.flatnonzero(mu)
        yield at + lo, mu[at], phi[at], c[at]


def cq_real(q: int, x: float | np.ndarray) -> float | np.ndarray:
    """Real-argument Ramanujan sum via the four-case cosine form.

    A float x gives a float; an array x gives an array whose every entry is
    the float the scalar call gives at that x.
    """
    scalar = not isinstance(x, np.ndarray)
    if not (math.isfinite(x) if scalar else np.isfinite(x).all()):
        raise ValueError(f"x must be finite, got {x}")
    q = abs(q)
    if q == 0:
        return 1.0 if scalar else np.ones(x.shape)
    # c_1(x) = cos 2 pi x and c_2(x) = cos pi x; for q >= 3 the k coprime
    # to q pair up as k and q - k, so c_q is twice the sum over k <= q/2.
    if q <= 2:
        k, twice = np.ones(1, dtype=np.int64), 1.0
    else:
        k = np.arange(1, q // 2 + 1, dtype=np.int64)
        k, twice = k[np.gcd(k, q) == 1], 2.0
    t = 2.0 * math.pi * x / q
    s = np.cos((t if scalar else t[..., None]) * k).sum(axis=-1)
    return twice * float(s) if scalar else twice * s


def direct_oracle(q: int, n: int | np.ndarray) -> int | np.ndarray:
    """c_q(n) straight from the defining exponential sum, for 1 <= q <= DIRECT_MAX_Q.

    n is an int, of any size, or an integer array, reduced mod q first,
    which is exact; the sum of exp(2 pi i k n / q) over the k coprime to q
    is rounded to an int, or to an int64 array for an array n.  Residues
    above the gate signal a bug, not an expected condition.
    """
    if not 1 <= q <= DIRECT_MAX_Q:
        raise ValueError(f"direct oracle needs 1 <= q <= {DIRECT_MAX_Q}, got q={q}")
    k = np.arange(1, q + 1, dtype=np.int64)
    k = k[np.gcd(k, q) == 1]
    r = n % q if isinstance(n, int) else np.asarray(n, dtype=np.int64) % q
    z = np.exp(np.multiply.outer(r, k) * (2j * math.pi / q)).sum(axis=-1)
    nearest = np.rint(z.real)
    if np.abs(z.imag).max() > _RESIDUE_TOL or np.abs(z.real - nearest).max() > _RESIDUE_TOL:
        raise InternalConsistencyError(f"exponential sums for c_{q}(n) left a residue "
                                       f"above {_RESIDUE_TOL}")
    return nearest.astype(np.int64) if z.ndim else int(nearest)


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    witness: str
    note: str


@dataclass
class PropertyReport:
    checks: list[PropertyCheck]


# Sample points for the real-argument checks; deterministic on purpose.
_REAL_XS = (0.5, 1.25, 2.75, 3.1, 7.9)
# The integer x of the real multiplicativity check.
_INT_XS = (0.0, 1.0, 2.0, 3.0, 7.0, 12.0)


def check_property_catalog(
    tables: SieveTables, q_max: int, n_max: int
) -> PropertyReport:
    """Run the full identity catalog over 1 <= q <= q_max, |n| <= n_max.

    Two deliberate restrictions apply: the "phi(q) if q | n else -1" rule
    is tested at prime q only (it is false at composite q, e.g. c_4(2) = -2),
    and the sigma bound for real arguments only at integer x, where sigma
    is defined.

    ``tables`` gives mu, phi and spf from the sieve, apart from ``cq_int``'s
    factoring, so the checks that read them hold one code against the other.

    Each check is a lazy generator of witnesses in a fixed order; the report
    holds one PropertyCheck per identity, in catalog order, with the first
    witness against it, or "" when it held.  ``for v in a[bad][:1]`` takes the
    first failing point of an array, if any.  Every sum over an array of
    points, c_q at |n| <= n_max and the cosine sums, is computed once per q
    and shared by the checks that read it: q_max (3 n_max + 12) values of 8
    bytes, 1 MB at q_max = n_max = 200 and 24 MB at 1000.
    """
    if q_max < 1 or n_max < 0:
        raise ValueError(f"need q_max >= 1 and n_max >= 0, got q_max={q_max}, n_max={n_max}")
    qs = range(1, q_max + 1)
    qs0 = range(0, q_max + 1)
    ns = np.arange(-n_max, n_max + 1, dtype=np.int64)
    pos = np.arange(1, n_max + 1, dtype=np.int64)
    sig = sigma_table(n_max)
    phi, mu = tables.phi, tables.mu
    coprime = [
        (r, s) for r in qs for s in range(1, q_max // r + 1) if math.gcd(r, s) == 1
    ]
    xs, ints = np.array(_REAL_XS), np.array(_INT_XS)
    real_at_pos = {q: cq_real(q, pos.astype(np.float64)) for q in qs}
    real_at_ints = {q: cq_real(q, ints) for q in qs}
    real_at_xs = {q: cq_real(q, xs) for q in qs0}
    at_ns = {q: cq_int(q, ns) for q in qs}

    # (name, witnesses, note)
    checks = [
        ("int a) c_1(n) = 1",
         (f"n={n}" for n in ns.tolist() if cq_int(1, n) != 1), ""),
        ("int b) c_q(0) = phi(q)",
         (f"q={q}" for q in qs if cq_int(q, 0) != int(phi[q])), ""),
        ("int c) c_q(1) = mu(q)",
         (f"q={q}" for q in qs if cq_int(q, 1) != int(mu[q])), ""),
        ("int d) c_p(n) = phi(p) if p|n else -1 (prime q only)",
         (f"p={p}" for p in qs if p >= 2 and int(tables.spf[p]) == p
          and not np.array_equal(at_ns[p], np.where(ns % p == 0, int(phi[p]), -1))),
         "restricted to prime q; false at composite q (c_4(2) = -2)"),
        ("int e) c_rs(n) = c_r(n) c_s(n), (r,s)=1",
         (f"r={r}, s={s}" for r, s in coprime
          if not np.array_equal(at_ns[r * s], at_ns[r] * at_ns[s])),
         "tested in the corrected c_r*c_s form; source prints c_s twice"),
        ("int f) |c_q(n)| <= phi(q)",
         (f"q={q}" for q in qs if np.abs(at_ns[q]).max() > int(phi[q])), ""),
        ("int g) |c_q(n)| <= sigma(n), n >= 1",
         (f"q={q}, n={n}" for q in qs for n in pos[np.abs(at_ns[q][n_max + 1 :]) > sig[pos]][:1]),
         ""),
        ("int h) c_q(n) = c_q(-n)",
         (f"q={q}" for q in qs if not np.array_equal(at_ns[q], cq_int(q, -ns))), ""),
        ("int i) c_q(n) = c_{-q}(n)",
         (f"({q}, {n})" for q in qs for n in (0, 1, 2, n_max)
          if cq_int(q, n) != cq_int(-q, n)), ""),
        ("real a) c_q(x) = c_q(n) at integer x",
         (f"q={q}, n={n}" for q in qs
          for n in pos[np.abs(real_at_pos[q] - at_ns[q][n_max + 1 :]) > 1e-9][:1]), ""),
        ("real b) c_q(0) = phi(q)",
         (f"q={q}" for q in qs0
          if abs(cq_real(q, 0.0) - (1.0 if q == 0 else float(phi[q]))) > 1e-9),
         "phi(0) taken as 1 by convention"),
        ("real c) c_q(1) = mu(q)",
         (f"q={q}" for q in qs0
          if abs(cq_real(q, 1.0) - (1.0 if q == 0 else float(mu[q]))) > 1e-9),
         "mu(0) taken as 1 by convention"),
        ("real d) c_rs(x) = c_r(x) c_s(x), (r,s)=1, integer x",
         (f"r={r}, s={s}, x={x}" for r, s in coprime
          for x in ints[np.abs(real_at_ints[r * s] - real_at_ints[r] * real_at_ints[s])
                        > 1e-9][:1]),
         "checked at integer x only; the cosine extension is not "
         "multiplicative off the integers (c_3(0.5) c_1(0.5) != c_3(0.5))"),
        ("real e) |c_q(x)| <= phi(q)",
         (f"q={q}, x={x}" for q in qs
          for x in xs[np.abs(real_at_xs[q]) > (float(phi[q]) if q > 1 else 1.0) + 1e-12][:1]),
         ""),
        ("real g) |c_q(x)| <= sigma(x), integer x only",
         (f"q={q}, n={n}" for q in qs
          for n in pos[np.abs(real_at_pos[q]) > sig[pos] + 1e-9][:1]),
         "sigma undefined off the integers; domain restricted"),
        ("real h) evenness in x and in q",
         (f"q={q}, x={x}{tag}" for q in qs0
          for x, v, flipped_x, flipped_q in zip(
              _REAL_XS, real_at_xs[q], cq_real(q, -xs), cq_real(-q, xs))
          for tag, other in (("", flipped_x), (" (sign of q)", flipped_q))
          if abs(v - other) > 1e-12),
         ""),
    ]
    return PropertyReport([PropertyCheck(name, (found := next(witnesses, None)) is None,
                                         found or "", note)
                           for name, witnesses, note in checks])
