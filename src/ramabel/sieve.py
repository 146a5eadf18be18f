"""Tables of the classical arithmetic functions up to a bound N.

One boolean segment sieve over the odd numbers, ``_prime_segment``, finds
every prime, for ``primes_up_to`` and so for the spf kernel's base primes.
``primes_up_to(n, lo)`` gives the primes of a window [lo, n], so that the
Euler products stream over windows and never hold every prime <= P.
One producer, ``lambda_support``, turns the primes of a window [lo, N] into
the support of the von Mangoldt function there: the prime powers with
Lambda(n) and its phi(n)/n-weighted variant.  It is the only representation
of Lambda: no table holds Lambda densely.  ``lambda_windows`` gives that
support window by window over a range, one window built at a time, and
``rf_series.lambda1_at`` reads it at one n from n's smallest prime factor,
found by ``_prime_factors``, which factors q for ``cq_int`` too.  The
spf kernel gives the smallest prime factor; Moebius mu and Euler phi then
follow from spf by the recurrence over n = spf(n) * m.

``_table_segments`` gives the full tables one segment of 2^17 entries at a
time: int32 spf from the base primes <= sqrt(N), then int8 mu and int32 phi
by the recurrence, from mu(m) and phi(m) that it holds only at odd m <= N/2,
1.25 bytes an entry of N, and it checks that footprint before it starts.
``build_sieve`` copies them into ``SieveTables``, three dense arrays of 9
bytes an entry, for ``props`` and the tests.  ``save_tables`` writes their
dump segment by segment, and the q-sums of ``ramanujan.squarefree_cq`` read
them: neither holds the tables, nor anything of its own, so the footprint
is the generator's, 1.25 bytes an entry and one segment of at most 4 MiB.
``table_checksum`` and ``load_tables`` read a dump in one chunked pass
that checks it as it goes.  Tables are immutable, and every dump ends in
a crc32 of the bytes before it.  The correlation means need no table:
they stream ``lambda_windows`` over the ranges they read.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import os
import struct
import zlib
from dataclasses import dataclass
from typing import ClassVar, Iterator

import numpy as np

from .errors import DamagedDumpError, ResourceLimitError

# Entries per segment of _table_segments.
DEFAULT_SEGMENT_SIZE = 1 << 17
# Odd n per window of window_bounds, measured fastest of 2^18 to 2^21.
PRIME_SEGMENT_ODDS = 1 << 20
# The most primes one Euler product or correlation mean sieves: by
# pi_bound, every prime up to about 1.9 * 10^10.
MAX_PRIMES = 10**9
# Bytes a dump is read in at a time, and the most one segment of
# _table_segments holds at once, its temporaries included.
_CHUNK = 1 << 20
_SEGMENT_BYTES = 32 * DEFAULT_SEGMENT_SIZE


@dataclass(frozen=True)
class SieveTables:
    """Immutable arrays indexed by n for 1 <= n <= bound < 2^31 (slot 0 unused):

    spf[n]  smallest prime factor of n (0 for n < 2), int32
    mu[n]   Moebius function, values in {-1, 0, 1}, int8
    phi[n]  Euler totient, int32; readers widen it before integer products

    Lambda is not a table: ``lambda_support`` gives it on the prime powers,
    and ``rf_series.lambda1_at`` at one n, for any n < 2^63.
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
    BYTES_PER_ENTRY: ClassVar[int] = 12  # build's peak RSS rise: 11.2 at 4*10^6, 10.6 at 10^7


def build_sieve(N: int) -> SieveTables:
    """Build the full tables for 1..N.

    Raises ValueError for N < 1, ResourceLimitError when their measured
    footprint exceeds physical memory, then ValueError past 2^31 - 1.
    """
    _check_bound(N, SieveTables.BYTES_PER_ENTRY * (N + 1))
    # Slot 0 keeps the zeros: every table is 0 at n = 0.
    arrays = {name: np.zeros(N + 1, dtype=dt) for name, dt in SieveTables.FIELDS}
    for lo, *segment in _table_segments(N):
        for arr, seg in zip(arrays.values(), segment):
            arr[lo : lo + seg.size] = seg
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


def lambda_support(primes: np.ndarray, N: int, lo: int = 1,
                   powers: tuple[np.ndarray, np.ndarray] | None = None,
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(n, lam, lam1): every prime power n in [lo, N] ascending, with the von
    Mangoldt function lam(n) = log p and lam1(n) = phi(n)/n * lam(n).
    ``primes`` is ascending and holds every prime in [lo, N] (others are
    ignored).  The powers p^k, k >= 2, are ``powers``, the (p^k, p) of
    ``_prime_powers`` for every prime <= sqrt(N) (others are ignored), or by
    default those of ``primes``, which then holds every prime <= sqrt(N) too.

    This is the only code that computes Lambda.  lam1 is ((n - n // p) / n)
    * log p at every n = p^k; at n = p that is ((p - 1) / p) * log p, the
    same float, since p - 1 is exact in float64.  Each value depends only
    on n, so a window [lo, N] gives the entries of [1, N] that lie in it.
    """
    primes = np.asarray(primes, dtype=np.int64)
    primes = primes[np.searchsorted(primes, lo) : np.searchsorted(primes, N, "right")]
    if powers is None:
        powers = _prime_powers(primes[: np.searchsorted(primes, math.isqrt(N), "right")], N)
    i, j = np.searchsorted(powers[0], (lo, N + 1))
    pk, p_of = powers[0][i:j], powers[1][i:j]
    at = np.searchsorted(primes, pk)
    n, p = np.insert(primes, at, pk), np.insert(primes, at, p_of)
    lam = np.log(p.astype(np.float64))
    return n, lam, ((n - n // p) / n) * lam


def window_bounds(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """(start, end) of each window of 2 * PRIME_SEGMENT_ODDS integers from lo
    to hi, in order, the last ending at hi; PRIME_SEGMENT_ODDS is read at each call."""
    span = 2 * PRIME_SEGMENT_ODDS
    return ((start, min(start + span - 1, hi)) for start in range(lo, hi + 1, span))


def lambda_windows(lo: int, hi: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(end, n, lam, lam1) for each window [start, end] of ``window_bounds(lo, hi)``:
    its ``lambda_support``, from its primes, one ``_prime_segment``, and the
    prime powers of the primes <= sqrt(hi), found once.  One window is built
    at a time, whatever hi is."""
    base = primes_up_to(math.isqrt(hi))
    powers = _prime_powers(base, hi)
    for start, end in window_bounds(lo, hi):
        yield end, *lambda_support(_prime_segment(start, end, base), end, start, powers)


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
    1977); 2 is added where the segment holds it.  They are read out in place,
    so no window-sized temporary is left for glibc to trim and fault in again."""
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
    primes = np.flatnonzero(np.logical_not(composite, out=composite))
    primes *= 2
    primes += odd
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


def _table_segments(N: int) -> Iterator[tuple[int, np.ndarray, np.ndarray, np.ndarray]]:
    """(lo, spf, mu, phi) for n in [lo, lo + DEFAULT_SEGMENT_SIZE) up to N,
    lo = 1, 1 + DEFAULT_SEGMENT_SIZE, ...: spf from ``_spf_segment`` as int32,
    mu as int8 and phi as int32.  spf is new; mu and phi are views of two
    buffers reused by every segment, good until the next.  Raises as
    ``_check_bound`` does, for the footprint below, before the first.

    mu and phi follow from the recurrence over n = p * m, p = spf(n) (Gries &
    Misra, CACM 21, 1978): mu(n) = 0 and phi(n) = p * phi(m) when p divides m,
    else mu(n) = -mu(m) and phi(n) = (p - 1) * phi(m).  The generator holds
    mu(m) and phi(m) only at odd m <= N/2, at index m // 2: N // 4 + 1
    entries, 1.25 bytes an entry of N.  An odd n >= 3 has p >= 3 and an odd
    m <= n/3, so the first segment goes over its odd n in chunks [a, 3a),
    whose m < a are held before they are read; every lo is odd, 1 plus a
    multiple of the even segment size.  An even n = 2^k * r, r odd, has
    r <= N/2, held by the time the segment's odd n are done: mu(n) = -mu(r)
    for k = 1, else 0, and phi(n) = 2^(k - 1) * phi(r), one strided slice
    per k.
    """
    _check_bound(N, 5 * (N // 4 + 1) + _SEGMENT_BYTES)
    base = primes_up_to(math.isqrt(N))
    size = min(DEFAULT_SEGMENT_SIZE, N)
    held_mu, held_phi = np.zeros(N // 4 + 1, dtype=np.int8), np.zeros(N // 4 + 1, dtype=np.int32)
    held_mu[0] = held_phi[0] = 1  # m = 1
    buf_mu, buf_phi = np.empty(size, dtype=np.int8), np.empty(size, dtype=np.int32)
    for lo in range(1, N + 1, size):
        hi = min(lo + size, N + 1)
        spf = _spf_segment(lo, hi - 1, base)
        mu, phi = buf_mu[: hi - lo], buf_phi[: hi - lo]
        a = lo
        if lo == 1:
            mu[0] = phi[0] = 1
            a = 3
        while a < hi:
            b = min(3 * a, hi)  # hi, past the first segment
            p = spf[a - lo : b - lo : 2]
            m = np.arange(a, b, 2, dtype=np.int32) // p
            once = m % p != 0  # p divides n exactly once
            m = (m >> 1).astype(np.intp)
            np.negative(held_mu[m] * once, out=mu[a - lo : b - lo : 2])
            np.multiply(held_phi[m], p - once, out=phi[a - lo : b - lo : 2])
            c = max(a, min(b, N // 2 + 1))  # the odd n in [a, c) are held
            held_mu[a // 2 : c // 2] = mu[a - lo : c - lo : 2]
            held_phi[a // 2 : c // 2] = phi[a - lo : c - lo : 2]
            a = b
        for k in range(1, hi.bit_length()):
            step = 2 << k
            n = lo + ((1 << k) - lo) % step  # the first n = 2^k * odd >= lo
            r = slice((n >> k) // 2, (n >> k) // 2 + len(range(n, hi, step)))
            if k == 1:
                np.negative(held_mu[r], out=mu[n - lo :: step])
            else:
                mu[n - lo :: step] = 0
            np.left_shift(held_phi[r], k - 1, out=phi[n - lo :: step])
        yield lo, spf, mu, phi


def pi_bound(n: int) -> int:
    """An upper bound on pi(n) for n >= 2: pi(n) < 1.25506 n / ln n
    (Rosser & Schoenfeld, Illinois J. Math. 6, 1962)."""
    return math.ceil(1.25506 * n / math.log(n))


def primes_up_to(n: int, lo: int = 1) -> np.ndarray:
    """The primes in [lo, n], ascending int64; lo = 1 gives every prime <= n.
    One window of ``window_bounds`` is one ``_prime_segment``, so it costs
    one segment's memory whatever n is; more are sieved into one array of
    min(pi_bound(n), (n - lo) // 2 + 2) entries, the second a count of the
    odd numbers in [lo, n] and 2, whose filled prefix is returned.  Raises
    ResourceLimitError, before sieving, when that array would exceed the
    machine's physical memory."""
    lo = max(lo, 1)
    if n < max(lo, 2):
        return np.empty(0, dtype=np.int64)
    size = min(pi_bound(n), (n - lo) // 2 + 2)
    _check_memory(8 * size, f"sieving the primes up to {n}")
    base = primes_up_to(math.isqrt(n))
    windows = list(window_bounds(lo, n))
    if len(windows) == 1:
        return _prime_segment(lo, n, base)
    out, count = np.empty(size, dtype=np.int64), 0
    for start, end in windows:
        primes = _prime_segment(start, end, base)
        out[count : count + primes.size] = primes
        count += primes.size
    return out[:count]


def residues(n: int, m: np.ndarray) -> np.ndarray:
    """n mod each entry of the int64 array ``m``, exact for an int n of any
    size and sign: in Python ints, as an object array, past int64."""
    return n % (m if -(2**63) <= n < 2**63 else m.astype(object))


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
    changes the one at ``path``.  It allocates no array of its own: what it
    holds is the generator's mu and phi at the bound // 4 + 1 odd m <= bound
    / 2, 5 bytes each, and one segment.  Raises as the generator does, before
    it makes the parent directory of ``path``, the file or its header.
    """
    *starts, end = itertools.accumulate([16] + _field_sizes(bound))
    segments = _table_segments(bound)
    # The first draw runs the generator's checks; through iter(), chain drops it once written.
    segments = itertools.chain(iter([next(segments)]), segments)
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w+b") as f:  # slot 0 of each array is never written: it reads 0
            f.write(SieveTables.MAGIC + struct.pack("<IQ", SieveTables.VERSION, bound))
            for lo, *arrays in segments:
                for start, (_, dt), arr in zip(starts, SieveTables.FIELDS, arrays):
                    f.seek(start + lo * arr.itemsize)
                    f.write(arr.astype(dt, copy=False))
            import hashlib  # only now, so OpenSSL never loads beside the generator's mu and phi
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
    import hashlib  # here, not at start-up: OpenSSL adds 3.6 MB to a process
    chunks = _dump_chunks(path)
    header = next(chunks)
    digest = hashlib.sha256(header)
    for chunk in chunks:
        digest.update(chunk)
    held = struct.unpack("<Q", header[8:])[0]
    if held != bound:
        raise ValueError(f"cache {path} holds bound {held}, wanted {bound}")
    return digest.hexdigest()


# Trial division removes the prime factors below _TRIAL.  Miller-Rabin to
# the first 13 prime bases decides primality for n < _MR_LIMIT (Sorenson &
# Webster, Math. Comp. 86, 2017).
_TRIAL = 1 << 10
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981
# Steps of _rho_factor before it gives up: 8 times the most of 200 n = p*q near 2^64.
_RHO_STEPS = 1 << 21


def _prime_factors(n: int) -> list[tuple[int, int]]:
    """(p, e) for each p^e exactly dividing |n| >= 1, p ascending.

    Trial division takes the primes below 2^10; the cofactor is settled by
    deterministic Miller-Rabin and a composite one split by Pollard-Brent
    rho.  For n < 2^64 a composite cofactor has a prime factor below 2^32,
    which rho finds in about 2^16 steps.  ResourceLimitError is raised for a
    cofactor that rho cannot split in _RHO_STEPS steps, or one at or above
    _MR_LIMIT that passes Miller-Rabin, which cannot prove it prime.
    """
    out, n, d = [], abs(n), 2
    while d < _TRIAL and d * d <= n:
        e = 0
        while n % d == 0:
            n, e = n // d, e + 1
        if e:
            out.append((d, e))
        d += 1 if d == 2 else 2
    big, rest = [], [n] if n > 1 else []
    while rest:  # cofactors with no prime factor below _TRIAL
        m = rest.pop()
        if m < _TRIAL * _TRIAL or _is_prime(m):
            big.append(m)
        else:
            d = _rho_factor(m)
            rest += [d, m // d]
    return out + [(p, big.count(p)) for p in sorted(set(big))]


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
    overshoots to n; a c whose retrace also reaches n gives way to c + 1.
    Past _RHO_STEPS steps over all c it raises ResourceLimitError naming n:
    about 1 s near 2^64, 2.6 s at 65 digits (Python 3.11, 2-core x86-64)."""
    steps = 0
    for c in itertools.count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r  # r steps to move x on, then up to r in batches
            if steps > _RHO_STEPS:
                raise ResourceLimitError(f"rho found no factor of {n} in {_RHO_STEPS} steps")
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
