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

``_table_segments`` gives the full tables one segment at a time: int32 spf
from the base primes <= sqrt(N), then int8 mu and int32 phi by the recurrence,
which reads mu(m) and phi(m) only for m <= n/2.  ``build_sieve`` collects
them into ``SieveTables``, three dense arrays of 9 bytes an entry.
``save_tables`` writes their dump to a file segment by segment and never
holds them: it keeps mu and phi up to N/2 and one segment, 2.5 bytes an
entry and about 8 MiB.  ``table_checksum`` and ``load_tables`` read a dump in
one chunked pass that checks it as it goes.  ``LambdaTables`` hold only the
primes, from ``primes_up_to`` on every build, and ``SieveTables`` take theirs
from it on first use; the correlation means reduce ``lambda_support`` of
either kind.  Tables are immutable.  Only ``SieveTables`` have a dump format,
and every dump ends in a crc32 of the bytes before it.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import math
import os
import struct
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, Iterator

import numpy as np

from .errors import DamagedDumpError, ResourceLimitError

# Entries per segment of _table_segments, for build_sieve and save_tables.
DEFAULT_SEGMENT_SIZE = 1 << 18
# Odd n per segment of primes_up_to, measured fastest of 2^18 to 2^21.
PRIME_SEGMENT_ODDS = 1 << 20
# Bytes a dump is read in at a time, and the most one segment of
# _table_segments holds at once, its temporaries included.
_CHUNK = 1 << 20
_SEGMENT_BYTES = 32 * DEFAULT_SEGMENT_SIZE


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
    if lambda_only:
        if N < 1:
            raise ValueError(f"sieve bound must be >= 1, got {N}")
        primes = primes_up_to(N)
        primes.flags.writeable = False
        return LambdaTables(bound=N, primes=primes)

    _check_bound(N, SieveTables.BYTES_PER_ENTRY * (N + 1))
    # Slot 0 keeps the zeros: every table is 0 at n = 0.
    arrays = {name: np.zeros(N + 1, dtype=dt) for name, dt in SieveTables.FIELDS}
    for lo, spf, _, _ in _table_segments(N, arrays["mu"], arrays["phi"]):
        arrays["spf"][lo : lo + spf.size] = spf
    for arr in arrays.values():
        arr.flags.writeable = False
    return SieveTables(bound=N, **arrays)


def _check_bound(N: int, need: int) -> None:
    """Refuse full tables for 1..N that would need ``need`` bytes: ValueError
    for N < 1, ResourceLimitError past physical memory, then ValueError past
    the int32 limit 2^31 - 1."""
    if N < 1:
        raise ValueError(f"sieve bound must be >= 1, got {N}")
    _check_memory(need, f"sieve bound {N}")
    if N > np.iinfo(np.int32).max:
        raise ValueError(f"sieve bound {N} is over the int32 table limit 2^31 - 1")


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


def _table_segments(N: int, mu: np.ndarray,
                    phi: np.ndarray) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(lo, spf, mu, phi) for n in [lo, lo + DEFAULT_SEGMENT_SIZE) up to N,
    lo = 1, 1 + DEFAULT_SEGMENT_SIZE, ...: spf from ``_spf_segment`` as int32,
    mu as int8 and phi as int32.  spf is new; mu and phi are views of the
    arrays passed in, or of two buffers reused by the segments past them,
    good until the next segment.

    mu and phi follow from the recurrence over n = p * m, p = spf(n) (Gries &
    Misra, CACM 21, 1978): mu(n) = 0 and phi(n) = p * phi(m) when p divides m,
    else mu(n) = -mu(m) and phi(n) = (p - 1) * phi(m).  It reads mu(m) and
    phi(m) for m <= n/2 from the arrays ``mu`` and ``phi``, at least N // 2 + 1
    long, and writes mu(n) and phi(n) into them for every n they hold.  So
    they need hold no more than N // 2 + 1 entries; the first segment goes
    in chunks [a, 2a), whose m < a are filled before they are read.
    """
    base = primes_up_to(math.isqrt(N))
    size, spare = min(DEFAULT_SEGMENT_SIZE, N), None
    for lo in range(1, N + 1, size):
        hi = min(lo + size, N + 1)
        spf = _spf_segment(lo, hi - 1, base)
        if hi <= mu.size:
            seg_mu, seg_phi = mu[lo:hi], phi[lo:hi]
        else:
            spare = spare or (np.empty(size, dtype=np.int8), np.empty(size, dtype=np.int32))
            seg_mu, seg_phi = spare[0][: hi - lo], spare[1][: hi - lo]
        a = lo
        if lo == 1:
            seg_mu[0] = seg_phi[0] = 1
            mu[1:2] = phi[1:2] = 1  # an empty slice when N = 1
            a = 2
        while a < hi:
            b = min(2 * a, hi)
            p = spf[a - lo : b - lo]
            m = np.arange(a, b, dtype=np.int32) // p
            once = m % p != 0  # p divides n exactly once
            m = m.astype(np.intp)
            np.negative(mu[m] * once, out=seg_mu[a - lo : b - lo])
            np.multiply(phi[m], p - once, out=seg_phi[a - lo : b - lo])
            if hi > mu.size and a < mu.size:
                held = min(b, mu.size)
                mu[a:held], phi[a:held] = seg_mu[a - lo : held - lo], seg_phi[a - lo : held - lo]
            a = b
        yield lo, spf, seg_mu, seg_phi


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


def save_tables(bound: int, path: str) -> str:
    """Write the binary dump of the full tables for 1..bound to ``path`` and
    return its SHA-256, never holding the tables: the 16-byte header (magic,
    format version, bound), then each array of ``FIELDS`` over 0..bound, then
    the <u4 crc32 of all the bytes before it.

    Each segment of ``_table_segments`` is written into its place in the
    spf, mu and phi regions of a temporary file beside ``path``; the file is
    then read back in chunks for the crc32 and the SHA-256, and renamed onto
    ``path`` only when complete, so a failed save never leaves a file or
    changes the one at ``path``.  It holds mu and phi for n <= bound // 2,
    5 bytes an entry, and one segment.  Raises as ``build_sieve`` does, for
    that footprint, before anything is written.
    """
    _check_bound(bound, 5 * (bound // 2 + 1) + _SEGMENT_BYTES)
    mu, phi = np.zeros(bound // 2 + 1, dtype=np.int8), np.zeros(bound // 2 + 1, dtype=np.int32)
    *starts, end = itertools.accumulate([16] + _field_sizes(bound))
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w+b") as f:  # slot 0 of each array is never written: it reads 0
            f.write(SieveTables.MAGIC + struct.pack("<IQ", SieveTables.VERSION, bound))
            for lo, *arrays in _table_segments(bound, mu, phi):
                for start, (_, dt), arr in zip(starts, SieveTables.FIELDS, arrays):
                    f.seek(start + lo * arr.itemsize)
                    f.write(arr.astype(dt, copy=False))
            f.seek(0)
            crc, digest = 0, hashlib.sha256()
            for chunk in _read_chunks(f, end):
                crc = zlib.crc32(chunk, crc)
                digest.update(chunk)
            trailer = struct.pack("<I", crc)
            f.write(trailer)  # at byte end, where the read stopped
            digest.update(trailer)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise
    return digest.hexdigest()


def _field_sizes(bound: int) -> list[int]:
    """Bytes of each array of ``FIELDS`` in a dump of the given bound."""
    return [np.dtype(dt).itemsize * (bound + 1) for _, dt in SieveTables.FIELDS]


def _read_chunks(f, size: int) -> Iterator[memoryview]:
    """The next ``size`` bytes of the file ``f`` in chunks of at most _CHUNK
    bytes, each a view of one reused buffer that is good until the next.
    Raises DamagedDumpError where the file ends first."""
    buf = memoryview(bytearray(min(size, _CHUNK)))
    while size:
        n = f.readinto(buf[: min(size, _CHUNK)])
        if not n:
            raise DamagedDumpError(f"{f.name}: truncated table dump")
        size -= n
        yield buf[:n]


def _dump_chunks(path: str) -> Iterator[bytes | memoryview]:
    """The bytes of the dump at ``path`` in one pass: the 16-byte header, once
    its magic, version and the file's length are checked; then each array
    of ``FIELDS`` in chunks from ``_read_chunks``, none of which spans two
    arrays; then the 4-byte trailer, once the crc32 of all before it is.

    Raises DamagedDumpError for a dump of the wrong length or one that fails
    its crc32 check, and ValueError for any other file that is not a dump
    of this version."""
    with open(path, "rb", buffering=0) as f:
        header = f.read(16)
        if header[:4] != SieveTables.MAGIC:
            raise ValueError(f"{path}: not a sieve table dump (bad magic {header[:4]!r})")
        if len(header) != 16:
            raise DamagedDumpError(f"{path}: truncated table dump")
        version, bound = struct.unpack("<IQ", header[4:])
        if version != SieveTables.VERSION:
            raise ValueError(f"{path}: unsupported format version {version}")
        sizes = _field_sizes(bound)
        rest = os.fstat(f.fileno()).st_size - 16 - 4
        if rest != sum(sizes):
            flaw = "truncated" if rest < sum(sizes) else "overlong"
            raise DamagedDumpError(f"{path}: {flaw} table dump")
        crc = zlib.crc32(header)
        yield header
        for size in sizes:
            for chunk in _read_chunks(f, size):
                crc = zlib.crc32(chunk, crc)
                yield chunk
        if f.read(4) != struct.pack("<I", crc):
            raise DamagedDumpError(f"{path}: table dump fails its crc32 check")
        yield struct.pack("<I", crc)


def load_tables(path: str) -> SieveTables:
    """Read a ``save_tables`` dump in the one checked pass of ``_dump_chunks``:
    each field has bound + 1 entries.  Raises what ``_dump_chunks`` raises."""
    with contextlib.closing(_dump_chunks(path)) as chunks:
        bound = struct.unpack("<Q", next(chunks)[8:])[0]
        arrays = {name: np.empty(bound + 1, dtype=dt) for name, dt in SieveTables.FIELDS}
        for arr in arrays.values():
            raw, at = arr.view(np.uint8), 0
            while at < raw.size:
                chunk = np.frombuffer(next(chunks), dtype=np.uint8)
                raw[at : at + chunk.size] = chunk
                at += chunk.size
            arr.flags.writeable = False
        next(chunks)  # the trailer, once the crc32 check has passed
    return SieveTables(bound=int(bound), **arrays)


def table_checksum(path: str, bound: int) -> str:
    """SHA-256 of the dump at ``path``, hashed in the one checked pass of
    ``_dump_chunks``.  Raises what that raises, then ValueError when the
    dump holds another bound than ``bound``."""
    chunks = _dump_chunks(path)
    header = next(chunks)
    digest = hashlib.sha256(header)
    for chunk in chunks:
        digest.update(chunk)
    held = struct.unpack("<Q", header[8:])[0]
    if held != bound:
        raise ValueError(f"cache {path} holds bound {held}, wanted {bound}")
    return digest.hexdigest()
