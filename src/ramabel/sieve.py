"""Tables of the classical arithmetic functions up to a bound N.

One segmented multiplicative sieve kernel produces smallest prime factor,
Moebius mu, Euler phi, the von Mangoldt function, and its phi(n)/n-weighted
variant for one segment of n at a time, from the base primes up to sqrt(N).
``build_sieve`` fills whole tables from it segment by segment; tables are
immutable after construction.  ``SegmentedLambdaStream`` yields the kernel's
weighted von Mangoldt values one segment at a time, for bounds whose tables
do not fit in memory at once.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ResourceLimitError, TruncatedDumpError

# Rough per-entry footprint of the finished tables plus build scratch.
BYTES_PER_ENTRY = 64

# Entries per sieve segment, for build_sieve and SegmentedLambdaStream alike.
DEFAULT_SEGMENT_SIZE = 1 << 18

_MAGIC = b"RMBL"
_FORMAT_VERSION = 1


@dataclass(frozen=True)
class SieveTables:
    """Immutable arrays indexed by n for 1 <= n <= bound (slot 0 unused).

    spf[n]  smallest prime factor of n (0 for n < 2)
    mu[n]   Moebius function, values in {-1, 0, 1}
    phi[n]  Euler totient
    lam[n]  von Mangoldt function (nats)
    lam1[n] phi(n)/n * lam[n]
    """

    bound: int
    spf: np.ndarray
    mu: np.ndarray
    phi: np.ndarray
    lam: np.ndarray
    lam1: np.ndarray


def build_sieve(N: int) -> SieveTables:
    """Build all tables for 1..N.

    Raises ValueError for N < 1 and ResourceLimitError when the estimated
    footprint exceeds the machine's physical memory.
    """
    if N < 1:
        raise ValueError(f"sieve bound must be >= 1, got {N}")
    need = BYTES_PER_ENTRY * (N + 1)
    memory_budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > memory_budget:
        raise ResourceLimitError(
            f"sieve bound {N} needs about {need} bytes, over the "
            f"memory budget of {memory_budget} bytes"
        )

    # Slot 0 keeps the zeros: spf, mu, phi, lam and lam1 are all 0 at n = 0.
    arrays = [
        np.zeros(N + 1, dtype=dt)
        for dt in (np.int64, np.int8, np.int64, np.float64, np.float64)
    ]
    for lo, segment in _segments(N, DEFAULT_SEGMENT_SIZE):
        for arr, part in zip(arrays, segment):
            arr[lo : lo + part.size] = part
    for arr in arrays:
        arr.flags.writeable = False
    return SieveTables(N, *arrays)


def _segments(
    bound: int, segment_size: int
) -> Iterator[tuple[int, tuple[np.ndarray, ...]]]:
    """Yield (lo, kernel arrays for [lo, hi]) over consecutive segments of [1, bound]."""
    base = primes_up_to(math.isqrt(bound))
    for lo in range(1, bound + 1, segment_size):
        yield lo, _sieve_segment(lo, min(lo + segment_size - 1, bound), base)


def _sieve_segment(lo: int, hi: int, base: np.ndarray) -> tuple[np.ndarray, ...]:
    """spf, mu, phi, lam and lam1 for n in [lo, hi], where 1 <= lo <= hi.

    ``base`` must hold every prime p with p * p <= hi; larger primes are
    allowed and change nothing.  Every entry is an exact integer operation
    or the same float expression at every n, so the values do not depend on
    where the segment boundaries fall.
    """
    n = np.arange(lo, hi + 1, dtype=np.int64)
    size = n.size
    spf = np.zeros(size, dtype=np.int64)
    mu = np.ones(size, dtype=np.int8)
    phi = n.copy()
    rem = n.copy()  # cofactor left after dividing out the base primes
    lam = np.zeros(size, dtype=np.float64)

    starts = -lo % base  # offset of the first multiple of p in the segment
    hit = starts < size
    for p, s in zip(base[hit].tolist(), starts[hit].tolist()):
        sl = spf[s::p]
        sl[sl == 0] = p
        phi[s::p] -= phi[s::p] // p
        mu[s::p] = -mu[s::p]
        mu[-lo % (p * p) :: p * p] = 0
        # Divide rem by p once for every p^k that divides n.
        pk = p
        while s < size:
            rem[s::pk] //= p
            pk *= p
            s = -lo % pk
            if lo <= pk <= hi:
                lam[pk - lo] = np.log(np.float64(p))

    # Since n <= hi, what is left above 1 is a single prime above sqrt(hi).
    big = rem > 1
    r = rem[big]
    phi[big] = phi[big] // r * (r - 1)
    mu[big] = -mu[big]
    untouched = (spf == 0) & (n >= 2)
    spf[untouched] = n[untouched]

    primes = (spf == n) & (n >= 2)
    lam[primes] = np.log(n[primes].astype(np.float64))
    lam1 = np.zeros(size, dtype=np.float64)
    nz = lam != 0.0
    lam1[nz] = (phi[nz] / n[nz]) * lam[nz]
    return spf, mu, phi, lam, lam1


def lambda1_at(tables: SieveTables, n: int) -> float:
    """phi(n)/n * log p at prime powers n = p^k, zero elsewhere."""
    if not 1 <= n <= tables.bound:
        raise ValueError(f"n={n} outside table bound 1..{tables.bound}")
    return float(tables.lam1[n])


def primes_up_to(n: int) -> np.ndarray:
    """All primes <= n as an int64 array (plain boolean sieve)."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    is_p = np.ones(n + 1, dtype=bool)
    is_p[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if is_p[p]:
            is_p[p * p :: p] = False
    return np.nonzero(is_p)[0].astype(np.int64)


def sigma_table(n: int) -> np.ndarray:
    """Sum-of-divisors values for 0..n (slot 0 is 0)."""
    s = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, n + 1):
        s[d::d] += d
    return s


class SegmentedLambdaStream:
    """Stream of phi(n)/n-weighted von Mangoldt values over [1, bound].

    Yields (start, values) with values[i] = lam1[start + i].  The segments
    come from the same kernel as ``build_sieve`` and concatenate to its
    lam1 table bit-for-bit for any segment size.
    """

    def __init__(self, bound: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        if segment_size < 1:
            raise ValueError(f"segment size must be >= 1, got {segment_size}")
        self.bound = bound
        self.segment_size = segment_size

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for lo, (_, _, _, _, lam1) in _segments(self.bound, self.segment_size):
            yield lo, lam1


# Field order and on-disk dtype of every table in the binary dump.
_DUMP_FIELDS = (
    ("spf", "<i8"),
    ("mu", "<i1"),
    ("phi", "<i8"),
    ("lam", "<f8"),
    ("lam1", "<f8"),
)


def _dump_parts(tables: SieveTables) -> Iterator[bytes | np.ndarray]:
    """The dump in order: the 16-byte header (magic, format version, bound),
    then each ``_DUMP_FIELDS`` array, not copied when already in its dtype."""
    yield _MAGIC + struct.pack("<IQ", _FORMAT_VERSION, tables.bound)
    for name, dt in _DUMP_FIELDS:
        yield np.ascontiguousarray(getattr(tables, name), dtype=dt)


def save_tables(tables: SieveTables, path: str) -> None:
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


def load_tables(path: str) -> SieveTables:
    """Read a ``save_tables`` dump.  Raises TruncatedDumpError for a dump
    that ends early and ValueError for any other file that is not a dump."""
    with open(path, "rb") as f:
        header = f.read(16)
        if header[:4] != _MAGIC:
            raise ValueError(f"{path}: not a sieve table dump (bad magic {header[:4]!r})")
        if len(header) != 16:
            raise TruncatedDumpError(f"{path}: truncated table dump")
        version, bound = struct.unpack("<IQ", header[4:])
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        arrays = {}
        for name, dt in _DUMP_FIELDS:
            arr = np.fromfile(f, dtype=dt, count=bound + 1)
            if arr.size != bound + 1:
                raise TruncatedDumpError(f"{path}: truncated table dump")
            arr.flags.writeable = False
            arrays[name] = arr
    return SieveTables(bound=int(bound), **arrays)


def table_checksum(tables: SieveTables) -> str:
    """SHA-256 of the binary dump of ``tables``."""
    h = hashlib.sha256()
    for part in _dump_parts(tables):
        h.update(part)
    return h.hexdigest()
