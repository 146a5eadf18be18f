"""Shared sieve fixtures, built once per session."""

import numpy as np
import pytest

from ramabel import build_sieve


@pytest.fixture(scope="session")
def tables_small():
    return build_sieve(10_000)


@pytest.fixture(scope="session")
def tables():
    return build_sieve(300_000)


@pytest.fixture(scope="session")
def tables_big():
    # The largest full build that the sieve tests compare against.
    return build_sieve(2_000_020)


def _dense_lambda(tables):
    """(lam, lam1): dense Lambda and Lambda_1 over 0..bound of full tables,
    from spf alone.  n >= 2 is a prime power exactly when dividing out
    p = spf(n) leaves 1; there lam = log p and lam1 = ((n - n // p) / n) * lam,
    the float formulas of ``lambda_support``; elsewhere both are 0."""
    spf = tables.spf
    rest = np.arange(tables.bound + 1)
    live = rest[2:]
    while live.size:
        live = live[rest[live] % spf[live] == 0]
        rest[live] //= spf[live]
    n = np.flatnonzero(rest == 1)[1:]  # drop n = 1
    lam, lam1 = np.zeros(tables.bound + 1), np.zeros(tables.bound + 1)
    lam[n] = np.log(spf[n].astype(np.float64))
    lam1[n] = ((n - n // spf[n]) / n) * lam[n]
    return lam, lam1


@pytest.fixture(scope="session")
def dense_lambda():
    """The dense-reference function: ``dense_lambda(tables) -> (lam, lam1)``."""
    return _dense_lambda
