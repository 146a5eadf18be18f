"""Shared sieve fixtures, built once per session, and the probes, call
seams and references that test modules import from here."""

import inspect
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ramabel
from ramabel import build_sieve
from ramabel.cli import CACHE_ENV


def traced_peak(call):
    """The tracemalloc peak, in bytes, of ``call()``; tracing stops even when it raises."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fresh_python(*argv, check=True):
    """``python *argv`` run in a fresh interpreter that imports this tree's
    ramabel, with no $RAMABEL_CACHE_DIR, output captured as text; 60 s at most."""
    env = {k: v for k, v in os.environ.items() if k != CACHE_ENV}
    env["PYTHONPATH"] = str(Path(ramabel.__file__).parents[1])
    return subprocess.run([sys.executable, *argv], env=env, check=check,
                          capture_output=True, text=True, timeout=60)


def vmhwm_rise(setup, stmt, *argv):
    """The VmHWM rise, in bytes, over ``stmt`` in a fresh interpreter after
    ``setup``, with re and sys imported and ``argv`` as sys.argv[1:].  VmHWM
    starts afresh at exec, where ru_maxrss keeps the forked parent's peak."""
    if not os.path.exists("/proc/self/status"):
        pytest.skip("needs VmHWM")
    hwm = "int(re.search(r'VmHWM:\\s+(\\d+) kB', open('/proc/self/status').read())[1])"
    code = f"import re, sys\n{setup}\nh0 = {hwm}\n{stmt}\nprint({hwm} - h0)"
    return int(fresh_python("-c", code, *argv).stdout) * 1024


def forbid(monkeypatch, fn):
    """Stub out every binding of the function ``fn``, in each loaded ramabel
    module, the package and fn's own module (as numpy for np.arange), with
    one that raises AssertionError naming fn and its arguments.  A module
    that imported fn by name reads its own binding, so a patch of one name
    alone would miss it.  The test modules' own imports are left alone."""
    label = f"{fn.__module__}.{fn.__qualname__}"

    def refused(*args, **kwargs):
        shown = [*map(repr, args), *(f"{k}={v!r}" for k, v in kwargs.items())]
        raise AssertionError(f"{label}({', '.join(shown)}) called")

    modules = {m for name, m in sys.modules.items() if name.split(".")[0] == "ramabel"}
    for module in modules | {sys.modules[fn.__module__]}:
        for name, value in list(vars(module).items()):
            if value is fn:
                monkeypatch.setattr(module, name, refused)


def calls(monkeypatch, module, name):
    """Wrap the one binding ``module.name``: each call appends its arguments,
    defaults filled in, as a tuple to the list returned, then runs the
    original.  Calls through another module's binding of the function, as
    sieve's own in the base-prime recursion of primes_up_to, are not."""
    original = getattr(module, name)
    signature = inspect.signature(original)
    seen = []

    def recorded(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        seen.append(tuple(bound.arguments.values()))
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, recorded)
    return seen


def factorize(n):
    """Prime -> exponent by trial division over every d >= 2."""
    f = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            f[d] = f.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        f[n] = f.get(n, 0) + 1
    return f


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
