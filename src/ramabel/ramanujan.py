"""Ramanujan sums c_q(n) and their real-argument extension c_q(x).

The production integer path is Hoelder's closed form
    c_q(n) = mu(q/g) * phi(q) / phi(q/g),  g = gcd(q, |n|),
which is exact and O(1) given the sieve tables.  The defining exponential
sum is kept as an independent oracle, and the full catalog of identities
the sums satisfy is executable via ``check_property_catalog``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterable

import numpy as np

from .errors import InternalConsistencyError
from .sieve import SieveTables, sigma_table

DEFAULT_DIRECT_THRESHOLD = 5000
_RESIDUE_TOL = 1e-6


def cq_int(tables: SieveTables, q: int, n: int) -> int:
    """Exact c_q(n) for integer n.

    q = 0 follows the real-argument convention and returns 1; negative q
    uses c_{-q} = c_q.
    """
    if q == 0:
        return 1
    q = abs(q)
    if q > tables.bound:
        raise ValueError(f"q={q} beyond table bound {tables.bound}")
    g = math.gcd(q, abs(n))
    qg = q // g
    m = int(tables.mu[qg])
    if m == 0:
        return 0
    return m * int(tables.phi[q]) // int(tables.phi[qg])


def cq_int_over_n(tables: SieveTables, q: int, ns: np.ndarray) -> np.ndarray:
    """Vectorised c_q(n) over an integer array ns (Hoelder path)."""
    if q == 0:
        return np.ones(len(ns), dtype=np.int64)
    q = abs(q)
    if q > tables.bound:
        raise ValueError(f"q={q} beyond table bound {tables.bound}")
    g = np.gcd(np.int64(q), np.abs(np.asarray(ns, dtype=np.int64)))
    qg = q // g
    return tables.mu[qg].astype(np.int64) * tables.phi[q] // tables.phi[qg]


def cq_int_over_q(tables: SieveTables, qs: np.ndarray, n: int) -> np.ndarray:
    """Vectorised c_q(n) over an array of positive moduli qs."""
    qs = np.asarray(qs, dtype=np.int64)
    if qs.size and int(qs.max()) > tables.bound:
        raise ValueError(f"q={int(qs.max())} beyond table bound {tables.bound}")
    g = np.gcd(qs, np.int64(abs(n)))
    qg = qs // g
    return tables.mu[qg].astype(np.int64) * tables.phi[qs] // tables.phi[qg]


def cq_real(q: int, x: float) -> float:
    """Real-argument Ramanujan sum via the four-case cosine form."""
    if not math.isfinite(x):
        raise ValueError(f"x must be finite, got {x}")
    q = abs(q)
    if q == 0:
        return 1.0
    if q == 1:
        return math.cos(2.0 * math.pi * x)
    if q == 2:
        return math.cos(math.pi * x)
    k = np.arange(1, q // 2 + 1, dtype=np.int64)
    k = k[np.gcd(k, np.int64(q)) == 1]
    return 2.0 * float(np.sum(np.cos((2.0 * math.pi * x / q) * k)))


def direct_oracle(
    q: int, n: int, direct_threshold: int = DEFAULT_DIRECT_THRESHOLD
) -> int:
    """c_q(n) straight from the defining exponential sum.

    Accumulates sum of exp(2 pi i k n / q) over k coprime to q and rounds;
    residues above the gate signal a bug, not an expected condition.
    """
    if q < 1:
        raise ValueError(f"direct oracle needs q >= 1, got {q}")
    if q > direct_threshold:
        raise ValueError(f"q={q} above direct-evaluation threshold {direct_threshold}")
    k = np.arange(1, q + 1, dtype=np.int64)
    k = k[np.gcd(k, np.int64(q)) == 1]
    z = complex(np.sum(np.exp((2j * math.pi * n / q) * k)))
    nearest = round(z.real)
    if abs(z.imag) > _RESIDUE_TOL or abs(z.real - nearest) > _RESIDUE_TOL:
        raise InternalConsistencyError(
            f"exponential sum for c_{q}({n}) left residue {z - nearest}"
        )
    return int(nearest)


def direct_oracle_over_n(
    q: int, ns: np.ndarray, direct_threshold: int = DEFAULT_DIRECT_THRESHOLD
) -> np.ndarray:
    """Oracle values for one q across many n (same definition, vectorised)."""
    if q < 1 or q > direct_threshold:
        raise ValueError(f"q={q} outside 1..{direct_threshold}")
    k = np.arange(1, q + 1, dtype=np.int64)
    k = k[np.gcd(k, np.int64(q)) == 1]
    ns = np.asarray(ns, dtype=np.int64)
    z = np.exp(np.multiply.outer(ns, k) * (2j * math.pi / q)).sum(axis=1)
    nearest = np.rint(z.real)
    if np.abs(z.imag).max() > _RESIDUE_TOL or np.abs(z.real - nearest).max() > _RESIDUE_TOL:
        raise InternalConsistencyError(f"exponential sums for q={q} left large residue")
    return nearest.astype(np.int64)


@dataclass
class PropertyCheck:
    name: str
    passed: bool
    witness: str = ""
    note: str = ""


@dataclass
class PropertyReport:
    q_max: int
    n_max: int
    checks: list[PropertyCheck] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def rows(self) -> list[tuple[str, str, str, str]]:
        return [
            (c.name, "pass" if c.passed else "FAIL", c.witness, c.note)
            for c in self.checks
        ]


# Sample points for the real-argument checks; deterministic on purpose.
_REAL_XS = (0.5, 1.25, 2.75, 3.1, 7.9)


def _first_counterexample(cases: Iterable, bad: Callable[..., bool], witness: str) -> str | None:
    """Witness for the first case on which ``bad`` holds, or None if none does.

    A tuple case is unpacked into the arguments of ``bad`` and the fields
    of the ``witness`` format.
    """
    for case in cases:
        args = case if isinstance(case, tuple) else (case,)
        if bad(*args):
            return witness.format(*args)
    return None


def check_property_catalog(
    tables: SieveTables, q_max: int, n_max: int
) -> PropertyReport:
    """Run the full identity catalog over 1 <= q <= q_max, |n| <= n_max.

    Two deliberate restrictions apply: the "phi(q) if q | n else -1" rule
    is tested at prime q only (it is false at composite q, e.g. c_4(2) = -2),
    and the sigma bound for real arguments only at integer x, where sigma
    is defined.
    """
    qs = range(1, q_max + 1)
    qs0 = range(0, q_max + 1)
    ns = np.arange(-n_max, n_max + 1, dtype=np.int64)
    pos = np.arange(1, n_max + 1, dtype=np.int64)
    sig = sigma_table(n_max)
    phi, mu = tables.phi, tables.mu
    coprime = [
        (r, s) for r in qs for s in range(1, q_max // r + 1) if math.gcd(r, s) == 1
    ]

    def cq(q: int, arg: np.ndarray) -> np.ndarray:
        return cq_int_over_n(tables, q, arg)

    # (name, cases, bad(case) at a counterexample, witness format, note)
    checks = [
        ("int a) c_1(n) = 1", ns.tolist(),
         lambda n: cq_int(tables, 1, n) != 1, "n={}", ""),
        ("int b) c_q(0) = phi(q)", qs,
         lambda q: cq_int(tables, q, 0) != int(phi[q]), "q={}", ""),
        ("int c) c_q(1) = mu(q)", qs,
         lambda q: cq_int(tables, q, 1) != int(mu[q]), "q={}", ""),
        ("int d) c_p(n) = phi(p) if p|n else -1 (prime q only)",
         (q for q in qs if q >= 2 and int(tables.spf[q]) == q),
         lambda p: not np.array_equal(cq(p, ns), np.where(ns % p == 0, int(phi[p]), -1)),
         "p={}", "restricted to prime q; false at composite q (c_4(2) = -2)"),
        ("int e) c_rs(n) = c_r(n) c_s(n), (r,s)=1", coprime,
         lambda r, s: not np.array_equal(cq(r * s, ns), cq(r, ns) * cq(s, ns)),
         "r={}, s={}", "tested in the corrected c_r*c_s form; source prints c_s twice"),
        ("int f) |c_q(n)| <= phi(q)", qs,
         lambda q: np.abs(cq(q, ns)).max() > int(phi[q]), "q={}", ""),
        ("int g) |c_q(n)| <= sigma(n), n >= 1",
         ((q, pos[np.abs(cq(q, pos)) > sig[pos]]) for q in qs),
         lambda q, excess: excess.size > 0, "q={0}, n={1[0]}", ""),
        ("int h) c_q(n) = c_q(-n)", qs,
         lambda q: not np.array_equal(cq(q, ns), cq(q, -ns)), "q={}", ""),
        ("int i) c_q(n) = c_{-q}(n)", ((q, n) for q in qs for n in (0, 1, 2, n_max)),
         lambda q, n: cq_int(tables, q, n) != cq_int(tables, -q, n), "({}, {})", ""),
        ("real a) c_q(x) = c_q(n) at integer x",
         ((q, n, v) for q in qs for n, v in zip(pos, cq(q, pos))),
         lambda q, n, v: abs(cq_real(q, float(n)) - float(v)) > 1e-9, "q={}, n={}", ""),
        ("real b) c_q(0) = phi(q)", qs0,
         lambda q: abs(cq_real(q, 0.0) - (1.0 if q == 0 else float(phi[q]))) > 1e-9,
         "q={}", "phi(0) taken as 1 by convention"),
        ("real c) c_q(1) = mu(q)", qs0,
         lambda q: abs(cq_real(q, 1.0) - (1.0 if q == 0 else float(mu[q]))) > 1e-9,
         "q={}", "mu(0) taken as 1 by convention"),
        ("real d) c_rs(x) = c_r(x) c_s(x), (r,s)=1, integer x",
         ((r, s, x) for r, s in coprime for x in (0.0, 1.0, 2.0, 3.0, 7.0, 12.0)),
         lambda r, s, x: abs(cq_real(r * s, x) - cq_real(r, x) * cq_real(s, x)) > 1e-9,
         "r={}, s={}, x={}",
         "checked at integer x only; the cosine extension is not "
         "multiplicative off the integers (c_3(0.5) c_1(0.5) != c_3(0.5))"),
        ("real e) |c_q(x)| <= phi(q)", ((q, x) for q in qs for x in _REAL_XS),
         lambda q, x: abs(cq_real(q, x)) > (float(phi[q]) if q > 1 else 1.0) + 1e-12,
         "q={}, x={}", ""),
        ("real g) |c_q(x)| <= sigma(x), integer x only",
         ((q, n) for q in qs for n in range(1, n_max + 1)),
         lambda q, n: abs(cq_real(q, float(n))) > float(sig[n]) + 1e-9,
         "q={}, n={}", "sigma undefined off the integers; domain restricted"),
        ("real h) evenness in x and in q",
         ((q, x, tag) for q in qs0 for x in _REAL_XS for tag in ("", " (sign of q)")),
         lambda q, x, tag: abs(cq_real(q, x) - (cq_real(-q, x) if tag else cq_real(q, -x)))
         > 1e-12,
         "q={}, x={}{}", ""),
    ]
    report = PropertyReport(q_max=q_max, n_max=n_max)
    for name, cases, bad, witness, note in checks:
        found = _first_counterexample(cases, bad, witness)
        report.checks.append(PropertyCheck(name, found is None, found or "", note))
    return report
