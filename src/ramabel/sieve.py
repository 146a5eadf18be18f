"""Tables of the classical arithmetic functions up to a bound N.

One boolean segment sieve, ``_prime_segment``, finds every prime, for
``primes_up_to`` and for the Lambda kernel, which adds the prime powers and
gives the von Mangoldt function and its phi(n)/n-weighted variant alone.
The spf kernel adds the smallest prime factor and takes its Lambda arrays
from the Lambda kernel; Moebius mu and Euler phi then follow from spf by the
recurrence over n = spf(n) * m.  Each kernel works on one segment at a time.

``build_sieve`` fills whole tables from either kernel, segment by segment:
``SieveTables`` from the spf kernel, ``LambdaTables`` (the two von Mangoldt
arrays) from the Lambda kernel.  Tables are immutable after construction.
``SegmentedLambdaStream`` yields the Lambda kernel's weighted values one
segment at a time, for bounds whose tables do not fit in memory at once.
Each kind has its own dump format, told apart by the header magic.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Callable, ClassVar, Iterator

import numpy as np

from .errors import ResourceLimitError, TruncatedDumpError

# Entries per sieve segment, for build_sieve and SegmentedLambdaStream alike.
DEFAULT_SEGMENT_SIZE = 1 << 18

_FORMAT_VERSION = 1


@dataclass(frozen=True)
class LambdaTables:
    """Immutable arrays indexed by n for 1 <= n <= bound (slot 0 unused).

    lam[n]  von Mangoldt function (nats)
    lam1[n] phi(n)/n * lam[n]
    """

    bound: int
    lam: np.ndarray
    lam1: np.ndarray

    # Dump magic; the arrays in dump order with their dtypes; the peak RSS of
    # build_sieve(10^7) per entry (194 MB) rounded up: tables plus scratch.
    MAGIC: ClassVar[bytes] = b"RMLA"
    FIELDS: ClassVar[tuple[tuple[str, str], ...]] = (("lam", "<f8"), ("lam1", "<f8"))
    BYTES_PER_ENTRY: ClassVar[int] = 20


@dataclass(frozen=True)
class SieveTables(LambdaTables):
    """LambdaTables plus, for 1 <= n <= bound:

    spf[n]  smallest prime factor of n (0 for n < 2)
    mu[n]   Moebius function, values in {-1, 0, 1}
    phi[n]  Euler totient
    """

    spf: np.ndarray
    mu: np.ndarray
    phi: np.ndarray

    MAGIC: ClassVar[bytes] = b"RMBL"
    FIELDS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("spf", "<i8"), ("mu", "<i1"), ("phi", "<i8"), ("lam", "<f8"), ("lam1", "<f8"),
    )
    BYTES_PER_ENTRY: ClassVar[int] = 40  # 359-362 MB at 10^7


def build_sieve(N: int, lambda_only: bool = False) -> LambdaTables:
    """Build the tables for 1..N: ``SieveTables``, or ``LambdaTables`` from
    the Lambda kernel alone when ``lambda_only``.

    Raises ValueError for N < 1 and ResourceLimitError when the kernel's
    measured footprint exceeds the machine's physical memory.
    """
    if N < 1:
        raise ValueError(f"sieve bound must be >= 1, got {N}")
    cls = LambdaTables if lambda_only else SieveTables
    need = cls.BYTES_PER_ENTRY * (N + 1)
    memory_budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory_budget:
        raise ResourceLimitError(f"sieve bound {N} needs about {need} bytes, over the "
                                 f"memory budget of {memory_budget} bytes")

    # Slot 0 keeps the zeros: every table is 0 at n = 0.
    arrays = {name: np.zeros(N + 1, dtype=dt) for name, dt in cls.FIELDS}
    # The kernel fills every table but mu and phi, which come from spf.
    filled = [arr for name, arr in arrays.items() if name not in ("mu", "phi")]
    kernel = _lambda_segment if lambda_only else _spf_segment
    for lo, segment in _segments(N, DEFAULT_SEGMENT_SIZE, kernel):
        for arr, part in zip(filled, segment):
            arr[lo : lo + part.size] = part
    if not lambda_only:
        _fill_mu_phi(arrays["spf"], arrays["mu"], arrays["phi"])
    for arr in arrays.values():
        arr.flags.writeable = False
    return cls(bound=N, **arrays)


def _segments(
    bound: int, segment_size: int, kernel: Callable[..., tuple[np.ndarray, ...]]
) -> Iterator[tuple[int, tuple[np.ndarray, ...]]]:
    """Yield (lo, kernel arrays for [lo, hi]) over consecutive segments of [1, bound]."""
    base = primes_up_to(math.isqrt(bound))
    powers = _prime_powers(base, bound)
    for lo in range(1, bound + 1, segment_size):
        yield lo, kernel(lo, min(lo + segment_size - 1, bound), base, powers)


def _prime_powers(base: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(p^k, p) for every p in ``base`` and k >= 2 with p^k <= bound, sorted by p^k."""
    p = base[base <= math.isqrt(bound)]
    pks, ps = [p * p], [p]
    while ps[-1].size:
        more = pks[-1] <= bound // ps[-1]
        p = ps[-1][more]
        pks.append(pks[-1][more] * p)
        ps.append(p)
    pk, p = np.concatenate(pks), np.concatenate(ps)
    order = np.argsort(pk)
    return pk[order], p[order]


def _prime_segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The primes in [lo, hi] as ascending int64, where 1 <= lo <= hi and
    ``base`` holds every prime p with p * p <= hi (larger ones are harmless).
    Each base prime marks its multiples from max(p^2, first multiple >= lo),
    so the unmarked n >= 2 are the primes (Bays & Hudson, BIT 17, 1977)."""
    composite = np.zeros(hi - lo + 1, dtype=bool)
    if lo == 1:
        composite[0] = True  # 1 is not a prime
    first = np.maximum(base * base, -(-lo // base) * base) - lo
    hit = first < composite.size
    for p, s in zip(base[hit].tolist(), first[hit].tolist()):
        composite[s::p] = True
    return np.flatnonzero(~composite) + lo


def _lambda_segment(
    lo: int, hi: int, base: np.ndarray, powers: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """lam and lam1 for n in [lo, hi], 1 <= lo <= hi, from ``_prime_segment``
    and ``powers``, the ``_prime_powers`` of ``base`` up to at least hi.  At
    n = p^k, lam is log p and lam1 is ((n - n // p) / n) * lam, phi(n)/n
    evaluated the same way at every n."""
    size = hi - lo + 1
    primes = _prime_segment(lo, hi, base)
    pk, pk_p = powers
    i, j = np.searchsorted(pk, (lo, hi + 1))
    n = np.concatenate((primes, pk[i:j]))
    p = np.concatenate((primes, pk_p[i:j]))
    lam = np.zeros(size, dtype=np.float64)
    lam1 = np.zeros(size, dtype=np.float64)
    at = n - lo
    lam[at] = np.log(p.astype(np.float64))
    lam1[at] = ((n - n // p) / n) * lam[at]
    return lam, lam1


def _spf_segment(
    lo: int, hi: int, base: np.ndarray, powers: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, ...]:
    """spf, lam and lam1 for n in [lo, hi], where 1 <= lo <= hi.

    ``base`` and ``powers`` are as for ``_lambda_segment``, which gives lam
    and lam1.  Each n starts as its own spf, right for the primes; the base
    primes then write p at their multiples in descending order, so the
    smallest prime factor of n writes last and no mask is needed.
    """
    spf = np.arange(lo, hi + 1, dtype=np.int64)
    if lo == 1:
        spf[0] = 0  # 1 has no prime factor
    for p, s in zip(base[::-1].tolist(), (-lo % base)[::-1].tolist()):
        spf[s::p] = p
    return (spf, *_lambda_segment(lo, hi, base, powers))


def _fill_mu_phi(spf: np.ndarray, mu: np.ndarray, phi: np.ndarray) -> None:
    """Fill mu and phi for n >= 1 from a whole spf table by the recurrence over
    n = p * m, p = spf[n] (Gries & Misra, CACM 21, 1978): mu(n) = 0 and phi(n) =
    p * phi(m) when p divides m, else mu(n) = -mu(m) and phi(n) = (p - 1) * phi(m).
    Chunks [lo, min(2 lo, lo + DEFAULT_SEGMENT_SIZE)) ascend, so every m <= n/2
    is filled before it is read."""
    mu[1] = phi[1] = 1
    lo = 2
    while lo < spf.size:
        hi = min(2 * lo, lo + DEFAULT_SEGMENT_SIZE, spf.size)
        p = spf[lo:hi]
        m = np.arange(lo, hi, dtype=np.int64) // p
        same = spf[m] == p
        mu[lo:hi] = np.where(same, 0, -mu[m])
        phi[lo:hi] = phi[m] * np.where(same, p, p - 1)
        lo = hi


def lambda1_at(tables: LambdaTables, n: int) -> float:
    """phi(n)/n * log p at prime powers n = p^k, zero elsewhere."""
    if not 1 <= n <= tables.bound:
        raise ValueError(f"n={n} outside table bound 1..{tables.bound}")
    return float(tables.lam1[n])


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n, ascending int64: ``_prime_segment`` over the segments of [1, n]."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    base = primes_up_to(math.isqrt(n))
    return np.concatenate([_prime_segment(lo, min(lo + DEFAULT_SEGMENT_SIZE - 1, n), base)
                           for lo in range(1, n + 1, DEFAULT_SEGMENT_SIZE)])


def sigma_table(n: int) -> np.ndarray:
    """Sum-of-divisors values for 0..n (slot 0 is 0)."""
    s = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, n + 1):
        s[d::d] += d
    return s


class SegmentedLambdaStream:
    """Stream of phi(n)/n-weighted von Mangoldt values over [1, bound].

    Yields (start, values) with values[i] = lam1[start + i].  The segments
    come from the Lambda kernel alone, which also gives ``build_sieve`` its
    lam1 table, and concatenate to that table bit-for-bit for any segment
    size.
    """

    def __init__(self, bound: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        if segment_size < 1:
            raise ValueError(f"segment size must be >= 1, got {segment_size}")
        self.bound = bound
        self.segment_size = segment_size

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for lo, (_, lam1) in _segments(self.bound, self.segment_size, _lambda_segment):
            yield lo, lam1


def _dump_parts(tables: LambdaTables) -> Iterator[bytes | np.ndarray]:
    """The dump in order: the 16-byte header (the kind's magic, format
    version, bound), then each array of the kind's fields, not copied when
    already in its dtype."""
    yield tables.MAGIC + struct.pack("<IQ", _FORMAT_VERSION, tables.bound)
    for name, dt in tables.FIELDS:
        yield np.ascontiguousarray(getattr(tables, name), dtype=dt)


def save_tables(tables: LambdaTables, path: str) -> None:
    """Write the binary dump of ``tables`` to ``path``.

    The dump goes to a temporary file beside ``path`` that is renamed onto
    it only when complete, so an interrupted save never leaves a truncated
    file at ``path``.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            for part in _dump_parts(tables):
                f.write(part)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_tables(path: str) -> LambdaTables:
    """Read a ``save_tables`` dump as the kind its magic names.  Raises
    TruncatedDumpError for a dump that ends early and ValueError for any
    other file that is not a dump."""
    with open(path, "rb") as f:
        header = f.read(16)
        cls = {c.MAGIC: c for c in (SieveTables, LambdaTables)}.get(header[:4])
        if cls is None:
            raise ValueError(f"{path}: not a sieve table dump (bad magic {header[:4]!r})")
        if len(header) != 16:
            raise TruncatedDumpError(f"{path}: truncated table dump")
        version, bound = struct.unpack("<IQ", header[4:])
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        arrays = {}
        for name, dt in cls.FIELDS:
            arr = np.fromfile(f, dtype=dt, count=bound + 1)
            if arr.size != bound + 1:
                raise TruncatedDumpError(f"{path}: truncated table dump")
            arr.flags.writeable = False
            arrays[name] = arr
    return cls(bound=int(bound), **arrays)


def table_checksum(tables: LambdaTables) -> str:
    """SHA-256 of the binary dump of ``tables``."""
    h = hashlib.sha256()
    for part in _dump_parts(tables):
        h.update(part)
    return h.hexdigest()
