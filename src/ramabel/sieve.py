"""Tables of the classical arithmetic functions up to a bound N.

A single vectorised multiplicative sieve produces smallest prime factor,
Moebius mu, Euler phi, the von Mangoldt function, and its phi(n)/n-weighted
variant in one pass.  Tables are immutable after construction and safe to
share across threads.  A segmented stream reproduces the weighted von
Mangoldt values bit-for-bit for bounds that do not fit in memory at once.
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

from .errors import ResourceLimitError

# Rough per-entry footprint of the finished tables plus build scratch.
BYTES_PER_ENTRY = 64
DEFAULT_MEMORY_BUDGET = 16 * 1024**3

DEFAULT_SEGMENT_SIZE = 1 << 22

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


def build_sieve(N: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> SieveTables:
    """Build all tables for 1..N.

    Raises ValueError for N < 1 and ResourceLimitError when the estimated
    footprint exceeds ``memory_budget`` bytes.
    """
    if N < 1:
        raise ValueError(f"sieve bound must be >= 1, got {N}")
    need = BYTES_PER_ENTRY * (N + 1)
    if need > memory_budget:
        raise ResourceLimitError(
            f"sieve bound {N} needs about {need} bytes, over the "
            f"memory budget of {memory_budget} bytes"
        )

    size = N + 1
    idx = np.arange(size, dtype=np.int64)
    spf = np.zeros(size, dtype=np.int64)
    phi = idx.copy()
    mu = np.ones(size, dtype=np.int8)
    rem = idx.copy()  # cofactor left after dividing out primes <= sqrt(N)

    root = math.isqrt(N)
    for p in range(2, root + 1):
        if spf[p] != 0:
            continue
        sl = spf[p::p]
        sl[sl == 0] = p
        phi[p::p] -= phi[p::p] // p
        mu[p::p] = -mu[p::p]
        mu[p * p :: p * p] = 0
        s = rem[p::p]
        while True:
            div = s % p == 0
            if not div.any():
                break
            s[div] //= p

    # Entries whose remaining cofactor is a single prime > sqrt(N).
    big = rem > 1
    big[:2] = False
    r = rem[big]
    phi[big] = phi[big] // r * (r - 1)
    mu[big] = -mu[big]
    untouched = (spf == 0) & (idx >= 2)
    spf[untouched] = idx[untouched]

    mu[0] = 0
    phi[0] = 0
    phi[1] = 1

    lam = np.zeros(size, dtype=np.float64)
    primes = idx[(spf == idx) & (idx >= 2)]
    lam[primes] = np.log(primes.astype(np.float64))
    for p in primes[primes <= root]:
        p = int(p)
        logp = lam[p]
        pk = p * p
        while pk <= N:
            lam[pk] = logp
            pk *= p

    lam1 = np.zeros(size, dtype=np.float64)
    nz = lam != 0.0
    lam1[nz] = (phi[nz] / idx[nz]) * lam[nz]

    for arr in (spf, mu, phi, lam, lam1):
        arr.flags.writeable = False
    return SieveTables(bound=N, spf=spf, mu=mu, phi=phi, lam=lam, lam1=lam1)


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

    Segments concatenate to the monolithic lam1 table bit-for-bit for any
    segment size.  Each segment may be consumed by a different worker as
    long as every segment is processed exactly once.
    """

    def __init__(self, bound: int, segment_size: int = DEFAULT_SEGMENT_SIZE):
        if bound < 1:
            raise ValueError(f"bound must be >= 1, got {bound}")
        if segment_size < 1:
            raise ValueError(f"segment size must be >= 1, got {segment_size}")
        self.bound = bound
        self.segment_size = segment_size
        self.cursor = 0
        self._base = primes_up_to(math.isqrt(bound))
        # Every prime power p^k <= bound with k >= 2, sorted, with its value.
        powers: list[tuple[int, float]] = []
        for p in self._base.tolist():
            logp = float(np.log(np.float64(p)))
            pk = p * p
            while pk <= bound:
                phi_pk = (pk // p) * (p - 1)
                powers.append((pk, np.divide(np.int64(phi_pk), np.int64(pk)) * logp))
                pk *= p
        powers.sort()
        self._pk = np.array([pk for pk, _ in powers], dtype=np.int64)
        self._pk_val = np.array([v for _, v in powers], dtype=np.float64)

    def __iter__(self) -> Iterator[tuple[int, np.ndarray]]:
        for start in range(1, self.bound + 1, self.segment_size):
            self.cursor = (start - 1) // self.segment_size
            yield start, self._segment(start)

    def _segment(self, lo: int) -> np.ndarray:
        hi = min(lo + self.segment_size - 1, self.bound)
        length = hi - lo + 1
        out = np.zeros(length, dtype=np.float64)
        comp = np.zeros(length, dtype=bool)
        base = self._base
        starts = np.maximum(base * base, (lo + base - 1) // base * base)
        hit = starts <= hi
        for p, start in zip(base[hit].tolist(), starts[hit].tolist()):
            comp[start - lo :: p] = True
        ns = np.arange(lo, hi + 1, dtype=np.int64)
        is_prime = ~comp & (ns >= 2)
        ps = ns[is_prime]
        if ps.size:
            # Same float operations as the monolithic phi/n * log path.
            out[is_prime] = ((ps - 1) / ps) * np.log(ps.astype(np.float64))
        i, j = np.searchsorted(self._pk, (lo, hi + 1))
        out[self._pk[i:j] - lo] = self._pk_val[i:j]
        return out


# Field order and on-disk dtype of every table in the binary dump.
_DUMP_FIELDS = (
    ("spf", "<i8"),
    ("mu", "<i1"),
    ("phi", "<i8"),
    ("lam", "<f8"),
    ("lam1", "<f8"),
)


def _array_specs(t: SieveTables) -> list[tuple[np.ndarray, str]]:
    return [(getattr(t, name), dt) for name, dt in _DUMP_FIELDS]


def save_tables(tables: SieveTables, path: str) -> None:
    """Binary dump: magic, format version, bound, then raw little-endian arrays.

    The dump goes to a temporary file beside ``path`` that is renamed onto
    it only when complete, so an interrupted save never leaves a truncated
    file at ``path``.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as f:
            f.write(_MAGIC)
            f.write(struct.pack("<IQ", _FORMAT_VERSION, tables.bound))
            for arr, dt in _array_specs(tables):
                f.write(np.ascontiguousarray(arr, dtype=dt).tobytes())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


def load_tables(path: str) -> SieveTables:
    with open(path, "rb") as f:
        magic = f.read(4)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a sieve table dump (bad magic {magic!r})")
        version, bound = struct.unpack("<IQ", f.read(12))
        if version != _FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        size = bound + 1
        arrays = {}
        for name, dt in _DUMP_FIELDS:
            nbytes = size * np.dtype(dt).itemsize
            buf = f.read(nbytes)
            if len(buf) != nbytes:
                raise ValueError(f"{path}: truncated table dump")
            arr = np.frombuffer(buf, dtype=dt).copy()
            arr.flags.writeable = False
            arrays[name] = arr
    return SieveTables(bound=int(bound), **arrays)


def table_checksum(tables: SieveTables) -> str:
    """SHA-256 over the same byte layout as the binary dump."""
    h = hashlib.sha256()
    h.update(_MAGIC)
    h.update(struct.pack("<IQ", _FORMAT_VERSION, tables.bound))
    for arr, dt in _array_specs(tables):
        h.update(np.ascontiguousarray(arr, dtype=dt).tobytes())
    return h.hexdigest()
