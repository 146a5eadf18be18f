"""Tables of the classical arithmetic functions up to a bound N.

One boolean segment sieve over the odd numbers, ``_prime_segment``, finds
every prime, for ``primes_up_to`` and so for the spf kernel's base primes.
``primes_up_to(n, lo)`` gives the primes of a window [lo, n], so that the
Euler products stream over windows and never hold every prime <= P.
One producer, ``lambda_support``, turns the primes up to N into the support
of the von Mangoldt function: the prime powers n <= N with Lambda(n) and its
phi(n)/n-weighted variant.  It is the only representation of Lambda: no table
holds Lambda densely.  The spf kernel gives the smallest prime factor; Moebius
mu and Euler phi then follow from spf by the recurrence over n = spf(n) * m.

``build_sieve`` makes ``SieveTables``, three dense arrays of 9 bytes an entry:
int32 spf segment by segment from the base primes <= sqrt(N), then int8 mu and
int32 phi.  ``LambdaTables`` hold only the primes, from ``primes_up_to`` on
every build, and ``SieveTables`` take theirs from it on first use; the
correlation means reduce ``lambda_support`` of either kind.
Tables are immutable.  Only ``SieveTables`` have a dump format, and every
dump ends in a crc32 of the bytes before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import math
import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterator

import numpy as np

from .errors import DamagedDumpError, ResourceLimitError

# Entries per spf segment of build_sieve and per chunk of the mu/phi fill.
DEFAULT_SEGMENT_SIZE = 1 << 18
# Odd n per segment of primes_up_to, measured fastest of 2^18 to 2^21.
PRIME_SEGMENT_ODDS = 1 << 20


@dataclass(frozen=True)
class LambdaTables:
    """The primes <= bound, ascending and read-only: all that the
    correlation means read, through ``lambda_support``."""

    bound: int
    primes: np.ndarray


@dataclass(frozen=True)
class SieveTables:
    """Immutable arrays indexed by n for 1 <= n <= bound < 2^31 (slot 0 unused):

    spf[n]  smallest prime factor of n (0 for n < 2), int32
    mu[n]   Moebius function, values in {-1, 0, 1}, int8
    phi[n]  Euler totient, int32; readers widen it before integer products

    Lambda is not a table: ``lambda_support`` gives it on the prime powers,
    and ``lambda1_at`` at one n.
    """

    bound: int
    spf: np.ndarray
    mu: np.ndarray
    phi: np.ndarray

    # Dump magic, format version, and the arrays in dump order with dtypes.
    MAGIC: ClassVar[bytes] = b"RMBL"
    VERSION: ClassVar[int] = 3
    FIELDS: ClassVar[tuple[tuple[str, str], ...]] = (
        ("spf", "<i4"), ("mu", "<i1"), ("phi", "<i4"),
    )
    BYTES_PER_ENTRY: ClassVar[int] = 11  # build's peak RSS rise: 10.9 at 4*10^6, 9.8 at 10^7

    @cached_property
    def primes(self) -> np.ndarray:
        """The primes <= bound, ascending and read-only, from ``primes_up_to``
        as for ``LambdaTables``.  Made on first use."""
        primes = primes_up_to(self.bound)
        primes.flags.writeable = False
        return primes


def build_sieve(N: int, lambda_only: bool = False) -> LambdaTables | SieveTables:
    """Build the tables for 1..N: ``SieveTables``, or ``LambdaTables`` from
    ``primes_up_to`` alone when ``lambda_only``.

    Raises ValueError for N < 1, ResourceLimitError when the tables exceed
    physical memory (``SieveTables`` by their measured footprint, ``LambdaTables``
    by ``primes_up_to``), then ValueError for ``SieveTables`` past 2^31 - 1.
    """
    if N < 1:
        raise ValueError(f"sieve bound must be >= 1, got {N}")
    if lambda_only:
        primes = primes_up_to(N)
        primes.flags.writeable = False
        return LambdaTables(bound=N, primes=primes)

    _check_memory(SieveTables.BYTES_PER_ENTRY * (N + 1), f"sieve bound {N}")
    if N > np.iinfo(np.int32).max:
        raise ValueError(f"sieve bound {N} is over the int32 table limit 2^31 - 1")
    # Slot 0 keeps the zeros: every table is 0 at n = 0.
    arrays = {name: np.zeros(N + 1, dtype=dt) for name, dt in SieveTables.FIELDS}
    base = primes_up_to(math.isqrt(N))
    for lo in range(1, N + 1, DEFAULT_SEGMENT_SIZE):
        hi = min(lo + DEFAULT_SEGMENT_SIZE - 1, N)
        arrays["spf"][lo : hi + 1] = _spf_segment(lo, hi, base)
    _fill_mu_phi(arrays["spf"], arrays["mu"], arrays["phi"])
    for arr in arrays.values():
        arr.flags.writeable = False
    return SieveTables(bound=N, **arrays)


def _check_memory(need: int, what: str) -> None:
    """Raise ResourceLimitError when ``need`` bytes exceed physical memory."""
    budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > budget:
        raise ResourceLimitError(f"{what} needs about {need} bytes, over the "
                                 f"memory budget of {budget} bytes")


def lambda_support(primes: np.ndarray, N: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, lam, lam1): every power n <= N of the given primes ascending, with
    the von Mangoldt function lam(n) = log p and lam1(n) = phi(n)/n * lam(n).
    ``primes`` is ascending and holds every prime <= N for the whole support
    (larger ones are ignored).

    This is the only code that computes Lambda.  lam1 is ((n - n // p) / n)
    * log p at every n = p^k; at n = p that is ((p - 1) / p) * log p, the
    same float, since p - 1 is exact in float64.
    """
    primes = np.asarray(primes, dtype=np.int64)
    primes = primes[: np.searchsorted(primes, N, "right")]
    pk, p_of = _prime_powers(primes[: np.searchsorted(primes, math.isqrt(N), "right")], N)
    at = np.searchsorted(primes, pk)
    n, p = np.insert(primes, at, pk), np.insert(primes, at, p_of)
    lam = np.log(p.astype(np.float64))
    return n, lam, ((n - n // p) / n) * lam


def _prime_powers(base: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(p^k, p) for every p in ``base`` and k >= 2 with p^k <= bound, sorted by p^k.
    ``base`` holds at least the primes <= isqrt(bound), ascending."""
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

    Only the odd n are sieved (the mod-2 wheel: Pritchard, CACM 24, 1981):
    index i stands for odd + 2i, odd = lo | 1.  Each odd base prime marks its
    odd multiples from the first one >= max(p^2, lo), with stride p in index
    space, so the unmarked odd n >= 3 are the primes (Bays & Hudson, BIT 17,
    1977); 2 is added where the segment holds it."""
    odd = lo | 1
    composite = np.zeros((hi - odd) // 2 + 1, dtype=bool)
    if odd == 1:
        composite[0] = True  # 1 is not a prime
    p = base[base > 2]
    first = np.maximum(p * p, -(-odd // p) * p)
    first = (first + (first % 2 == 0) * p - odd) // 2
    hit = first < composite.size
    for q, s in zip(p[hit].tolist(), first[hit].tolist()):
        composite[s::q] = True
    primes = 2 * np.flatnonzero(~composite) + odd
    return np.concatenate(([2], primes)) if lo <= 2 <= hi else primes


def _spf_segment(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """spf for n in [lo, hi] as int32, where 1 <= lo <= hi < 2^31 and
    ``base`` holds every prime p with p * p <= hi.

    Each n starts as its own spf, right for the primes; the base primes then
    write p at their multiples in descending order, so the smallest prime
    factor of n writes last and no mask is needed.
    """
    spf = np.arange(lo, hi + 1, dtype=np.int32)
    if lo == 1:
        spf[0] = 0  # 1 has no prime factor
    for p, s in zip(base[::-1].tolist(), (-lo % base)[::-1].tolist()):
        spf[s::p] = p
    return spf


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


def lambda1_at(tables: SieveTables, n: int) -> float:
    """phi(n)/n * log p at prime powers n = p^k, zero elsewhere: the
    ``lambda_support`` of the one prime spf(n) up to n, whose last entry is
    n exactly when n is a power of spf(n)."""
    if not 1 <= n <= tables.bound:
        raise ValueError(f"n={n} outside table bound 1..{tables.bound}")
    if n == 1:
        return 0.0
    pk, _, lam1 = lambda_support(tables.spf[n : n + 1], n)
    return float(lam1[-1]) if pk[-1] == n else 0.0


def pi_bound(n: int) -> int:
    """An upper bound on pi(n) for n >= 2: pi(n) < 1.25506 n / ln n
    (Rosser & Schoenfeld, Illinois J. Math. 6, 1962)."""
    return math.ceil(1.25506 * n / math.log(n))


def primes_up_to(n: int, lo: int = 1) -> np.ndarray:
    """The primes in [lo, n], ascending int64: ``_prime_segment`` over the
    segments of [max(lo, 1), n], each written into one array whose filled
    prefix is returned; the rest is never written.  The array has
    min(pi_bound(n), (n - lo) // 2 + 2) entries, the second a count of
    the odd numbers in [lo, n] and 2, so a window of one segment costs one
    segment's memory whatever n is.  lo = 1 gives every prime <= n.  Raises
    ResourceLimitError, before sieving, when that array exceeds the
    machine's physical memory."""
    lo = max(lo, 1)
    if n < max(lo, 2):
        return np.empty(0, dtype=np.int64)
    size = min(pi_bound(n), (n - lo) // 2 + 2)
    _check_memory(8 * size, f"sieving the primes up to {n}")
    base, out, count = primes_up_to(math.isqrt(n)), np.empty(size, dtype=np.int64), 0
    for start in range(lo, n + 1, 2 * PRIME_SEGMENT_ODDS):
        primes = _prime_segment(start, min(start + 2 * PRIME_SEGMENT_ODDS - 1, n), base)
        out[count : count + primes.size] = primes
        count += primes.size
    return out[:count]


def sigma_table(n: int) -> np.ndarray:
    """Sum-of-divisors values for 0..n (slot 0 is 0)."""
    s = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, n + 1):
        s[d::d] += d
    return s


def _dump_parts(tables: SieveTables) -> Iterator[bytes | np.ndarray]:
    """The dump in order: the 16-byte header (magic, format version, bound),
    then each array of ``FIELDS``, not copied when already in its dtype, then
    the <u4 crc32 of all the bytes before it."""
    header = tables.MAGIC + struct.pack("<IQ", tables.VERSION, tables.bound)
    crc = zlib.crc32(header)
    yield header
    for name, dt in tables.FIELDS:
        arr = np.ascontiguousarray(getattr(tables, name), dtype=dt)
        crc = zlib.crc32(arr, crc)
        yield arr
    yield struct.pack("<I", crc)


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
    """Read a ``save_tables`` dump once its length and crc32 are checked: each
    field has bound + 1 entries.
    Raises DamagedDumpError for a dump of the wrong length or one that fails
    its crc32 check, and ValueError for any other file that is not a dump of
    this version."""
    with open(path, "rb") as f:
        header = f.read(16)
        if header[:4] != SieveTables.MAGIC:
            raise ValueError(f"{path}: not a sieve table dump (bad magic {header[:4]!r})")
        if len(header) != 16:
            raise DamagedDumpError(f"{path}: truncated table dump")
        version, bound = struct.unpack("<IQ", header[4:])
        if version != SieveTables.VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        rest = os.fstat(f.fileno()).st_size - 16 - 4
        need = (bound + 1) * sum(np.dtype(dt).itemsize for _, dt in SieveTables.FIELDS)
        if rest != need:
            flaw = "truncated" if rest < need else "overlong"
            raise DamagedDumpError(f"{path}: {flaw} table dump")
        crc, arrays = zlib.crc32(header), {}
        for name, dt in SieveTables.FIELDS:
            arr = np.fromfile(f, dtype=dt, count=bound + 1)
            crc = zlib.crc32(arr, crc)
            arr.flags.writeable = False
            arrays[name] = arr
        if f.read(4) != struct.pack("<I", crc):
            raise DamagedDumpError(f"{path}: table dump fails its crc32 check")
    return SieveTables(bound=int(bound), **arrays)


def table_checksum(tables: SieveTables) -> str:
    """SHA-256 of the binary dump of ``tables``."""
    h = hashlib.sha256()
    for part in _dump_parts(tables):
        h.update(part)
    return h.hexdigest()
