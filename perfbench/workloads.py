"""Seeded inputs for the benchmark workloads.

A workload is a sequence of decks.  A deck is one pass over every command
kind of the workload, in an order drawn from the seed.  A run executes a
number of whole decks fixed by `--seconds` and the workload's nominal deck
time, so every run of a seed does the same work on every commit.  Sizes that
the seed draws are spread over their range: within a deck by strata, and
across decks by a golden-ratio sequence.  That keeps two seeds' runs close
in cost while still giving each seed its own argv.

The program sees only the argv built here; `--out`, `--cache-dir`,
`--threads` and the `sieve --cache` file are added by run.py.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

GOLDEN = 0.6180339887498949

# Cache modes of a command: a fresh empty directory per command, the one
# directory that set-up primed, or no cache at all.
FRESH, SHARED = "fresh", "shared"


@dataclass(frozen=True)
class Cmd:
    """One `ramabel` invocation, without the options run.py adds."""

    args: tuple[str, ...]
    threads: int | None = None
    cache: str | None = None

    @property
    def key(self) -> str:
        """The argv that determines the CSV; thread count and paths excluded."""
        return " ".join(self.args)


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark scale."""

    corr_bounds: tuple[int, int]    # table bounds of the correlation commands
    corr_p: tuple[int, int]         # constant truncation prime of those commands
    c2_p: tuple[int, int]           # P of the drawn `singular --form C2`
    c2_baseline: int
    singular_p: tuple[int, int]     # P of the other Euler products
    wk_q: tuple[int, int]           # Q of `singular --form series_wk`
    props_qmax: tuple[int, int]
    props_nmax: int
    props_baseline: tuple[int, int]  # (qmax, nmax)
    polymean_n: tuple[int, int]


FULL = Scale(
    corr_bounds=(8_000_000, 10_000_000),
    corr_p=(10**5, 10**6),
    c2_p=(10**6, 10**8),
    c2_baseline=10**8,
    singular_p=(10**5, 10**6),
    wk_q=(10**5, 3 * 10**5),
    props_qmax=(50, 200),
    props_nmax=200,
    props_baseline=(50, 200),
    polymean_n=(10**4, 10**5),
)

SMOKE = Scale(
    corr_bounds=(8_000, 10_000),
    corr_p=(10**3, 10**4),
    c2_p=(10**3, 10**5),
    c2_baseline=10**5,
    singular_p=(10**3, 10**4),
    wk_q=(10**3, 3 * 10**3),
    props_qmax=(10, 20),
    props_nmax=50,
    props_baseline=(10, 50),
    polymean_n=(10**2, 10**3),
)


@dataclass
class Workload:
    deck: Callable[[int], list[Cmd]]  # deck index -> commands, in run order
    prime: list[Cmd]                  # commands set-up runs once, in order
    deck_s: float                     # nominal deck time on 2 cores, 8 GB
    trace_decks: int                  # decks a traced run executes

    def decks(self, seconds: float) -> int:
        """Whole decks a run of about `seconds` executes at nominal speed."""
        return max(1, math.ceil(seconds / self.deck_s))


def log_uniform(u: float, lo: int, hi: int) -> int:
    return int(round(lo * (hi / lo) ** u))


def weyl(u0: float, d: int) -> float:
    """Golden-ratio sequence: any prefix of it covers [0, 1) evenly."""
    return (u0 + d * GOLDEN) % 1.0


def strata(rng: random.Random, k: int, lo: int, hi: int) -> list[int]:
    """k integers in [lo, hi], one from each of k equal strata, shuffled."""
    width = (hi - lo) / k
    values = [int(lo + (i + rng.random()) * width) for i in range(k)]
    rng.shuffle(values)
    return values


def admissible_triple(rng: random.Random, max_offset: int = 30) -> tuple[int, int, int]:
    """(0, a, b) with even offsets that no prime covers.

    Even offsets never cover both classes mod 2, and three offsets cannot
    cover a prime >= 5, so only p = 3 needs a test.
    """
    while True:
        a, b = sorted(rng.sample(range(2, max_offset + 1, 2), 2))
        if len({0, a % 3, b % 3}) < 3:
            return 0, a, b


def conjd_n(a: int, b: int, l: int, bound: int) -> int | None:
    """N whose conjd table bound (b N + l) // a + 1 is exactly `bound`."""
    lo = -(-(a * (bound - 1) - l) // b)
    hi = (a * bound - 1 - l) // b
    return lo if lo <= hi and lo >= 1 else None


def linear_triple(rng: random.Random, bound: int) -> tuple[int, int, int, int]:
    """A valid (a, b, l) with b >= 3a, and the N that fills `bound`.

    b >= 3a keeps N at or below bound / 3, so the arrays conjd allocates
    stay below those of `tuple` on the same table and the workload's peak
    RSS does not hinge on the draw.
    """
    while True:
        a = rng.randint(1, 3)
        b = rng.randint(3 * a, 3 * a + 5)
        l = rng.randint(1, 9)
        coprime = math.gcd(a, b) == math.gcd(a, l) == math.gcd(b, l) == 1
        one_even = sum(v % 2 == 0 for v in (a, b, l)) == 1
        n = conjd_n(a, b, l, bound)
        if coprime and one_even and n is not None:
            return a, b, l, n


def _corr_kinds(rng: random.Random, scale: Scale, bounds: list[int]) -> list[tuple[str, ...]]:
    """The six drawn correlation commands, the i-th filling table bound bounds[i]."""
    def trunc() -> str:
        return str(log_uniform(rng.random(), *scale.corr_p))

    even = 2 * rng.randint(1, 15)
    odd = 2 * rng.randint(0, 14) + 1
    offsets = admissible_triple(rng)
    a, b, l, n = linear_triple(rng, bounds[4])
    return [
        ("pnt", "--n", str(bounds[0])),
        ("autocorr", "--gap", str(even), "--n", str(bounds[1] - even), "--p", trunc()),
        ("autocorr", "--gap", str(odd), "--n", str(bounds[2] - odd), "--p", trunc()),
        ("tuple", "--offsets", ",".join(map(str, offsets)),
         "--n", str(bounds[3] - offsets[-1]), "--p", trunc()),
        ("conjd", "--a", str(a), "--b", str(b), "--l", str(l), "--n", str(n), "--p", trunc()),
        ("sieve", "--n", str(bounds[5])),
    ]


def corr_cold(seed: int, scale: Scale) -> Workload:
    """Every command builds and saves its own tables in a fresh cache."""
    lo, hi = scale.corr_bounds

    def deck(d: int) -> list[Cmd]:
        rng = random.Random(f"corr-cold/{seed}/{d}")
        kinds = _corr_kinds(rng, scale, strata(rng, 6, lo, hi))
        kinds.append(("pnt", "--n", str(hi)))
        rng.shuffle(kinds)
        return [Cmd(args, cache=FRESH) for args in kinds]

    return Workload(deck, prime=[], deck_s=35.0, trace_decks=1)


def corr_warm(seed: int, scale: Scale) -> Workload:
    """The corr-cold kinds on one shared table of bound `hi`, all cache hits.

    One table bound lets set-up build a single table, in about 5 s, instead
    of one per command; the drawn gaps, tuple, (a, b, l) and truncation
    primes still come from the seed.
    """
    bound = scale.corr_bounds[1]
    rng = random.Random(f"corr-warm/{seed}")
    cmds: list[Cmd] = []
    for args in _corr_kinds(rng, scale, [bound] * 6):
        if args[0] == "sieve":
            cmds.append(Cmd(args, cache=SHARED))
        else:
            cmds += [Cmd(args, threads=t, cache=SHARED) for t in (1, 2)]

    def deck(d: int) -> list[Cmd]:
        order = list(cmds)
        random.Random(f"corr-warm/{seed}/{d}").shuffle(order)
        return order

    # Priming runs the one command that builds and saves the table (pnt at
    # the full bound); every command after it, that argv included, loads it.
    prime = [c for c in cmds if c.args[0] == "pnt" and c.threads == 1]
    return Workload(deck, prime=prime, deck_s=9.0, trace_decks=2)


def constants(seed: int, scale: Scale) -> Workload:
    """Commands whose tables stay small; no cache directory."""
    base = random.Random(f"constants/{seed}")
    u_c2, u_props = base.random(), base.random()
    qlo, qhi = scale.props_qmax

    def deck(d: int) -> list[Cmd]:
        rng = random.Random(f"constants/{seed}/{d}")

        def p() -> str:
            return str(log_uniform(rng.random(), *scale.singular_p))

        a, b, l, _ = linear_triple(rng, 1000)
        offsets = ",".join(map(str, admissible_triple(rng)))
        poly = [rng.randint(-3, 3) for _ in range(2)] + [rng.randint(1, 3)]
        qmax = qlo + int(weyl(u_props, d) * (qhi - qlo + 1))
        kinds = [
            ("singular", "--form", "C2", "--p", str(log_uniform(weyl(u_c2, d), *scale.c2_p))),
            ("singular", "--form", "pair", "--params", str(2 * rng.randint(1, 30)), "--p", p()),
            ("singular", "--form", "conjD", "--params", f"{a},{b},{l}", "--p", p()),
            ("singular", "--form", "tuple", "--params", offsets, "--p", p()),
            ("singular", "--form", "series", "--params", str(rng.randint(1, 60)), "--p", p()),
            ("singular", "--form", "series_wk", "--params", str(rng.randint(1, 30)),
             "--p", str(rng.randint(*scale.wk_q))),
            ("abel", "--x", str(rng.randint(1, 50))),
            ("props", "--qmax", str(qmax), "--nmax", str(scale.props_nmax)),
            ("polymean", "--q", str(rng.randint(2, 30)), "--poly=" + ",".join(map(str, poly)),
             "--n", str(rng.randint(*scale.polymean_n))),
            ("goldbach", "--n", str(rng.randint(1, 1000)),
             "--q1", str(rng.randint(1, 30)), "--q2", str(rng.randint(1, 30))),
            ("csum", "--q", str(rng.randint(1, 1000)), "--n", str(rng.randint(-1000, 1000))),
            ("singular", "--form", "C2", "--p", str(scale.c2_baseline)),
            ("props", "--qmax", str(scale.props_baseline[0]),
             "--nmax", str(scale.props_baseline[1])),
        ]
        rng.shuffle(kinds)
        return [Cmd(args) for args in kinds]

    return Workload(deck, prime=[], deck_s=7.0, trace_decks=2)


WORKLOADS = {"corr-cold": corr_cold, "corr-warm": corr_warm, "constants": constants}

# The one process each set-up runs before timing starts, so that the
# interpreter, numpy and the bytecode cache are warm.
WARM_UP = Cmd(("csum", "--q", "6", "--n", "3"))
