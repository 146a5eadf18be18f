"""CLI subcommands, exercised in-process through main(argv)."""

import hashlib
import json
import math
import os
import re
import shlex
import time
import zlib
from pathlib import Path

import numpy as np
import pytest

from ramabel import (SieveTables, cli, load_tables, mean_values, ramanujan, rf_series,
                     save_tables, sieve, singular)
from ramabel.cli import main
from ramabel.sieve import build_sieve, primes_up_to, table_checksum

from conftest import calls, forbid, fresh_python, vmhwm_rise


def run(tmp_path, *argv):
    return main(["--out", str(tmp_path), "--cache-dir", str(tmp_path / "cache"),
                 *argv])


def rmla_v2(bound, primes):
    """A Lambda dump of format 2, the kind the correlation commands once
    cached: header, ``primes`` as <i8, crc32 of both."""
    data = (b"RMLA" + (2).to_bytes(4, "little") + bound.to_bytes(8, "little")
            + primes.astype("<i8").tobytes())
    return data + zlib.crc32(data).to_bytes(4, "little")


def read_manifest(tmp_path, command):
    return json.loads((tmp_path / f"{command}_manifest.json").read_text())


class TestBasics:
    def test_csum(self, tmp_path, capsys):
        assert run(tmp_path, "csum", "--q", "6", "--n", "3") == 0
        assert "c_6(3) = -2" in capsys.readouterr().out
        csv = (tmp_path / "csum.csv").read_text()
        assert csv.splitlines()[0] == "q,n,value"
        assert csv.splitlines()[1] == "6,3,-2"
        man = read_manifest(tmp_path, "csum")
        assert man["output_sha256"]
        assert man["params"] == {"q": 6, "n": 3}

    def test_sieve_checksum_deterministic(self, tmp_path, capsys):
        assert run(tmp_path, "sieve", "--n", "20000") == 0
        first = capsys.readouterr().out
        assert run(tmp_path, "sieve", "--n", "20000") == 0
        assert capsys.readouterr().out == first

    def test_singular_c2(self, tmp_path, capsys):
        assert run(tmp_path, "singular", "--form", "C2", "--p", "1000000") == 0
        out = capsys.readouterr().out
        value = float(out.split(" = ")[1].split()[0])
        assert abs(value - 0.6601618158) < 1e-6

    def test_props_all_pass(self, tmp_path):
        assert run(tmp_path, "props", "--qmax", "20", "--nmax", "60") == 0
        csv = (tmp_path / "props.csv").read_text()
        assert "FAIL" not in csv

    def test_abel(self, tmp_path):
        assert run(tmp_path, "abel", "--x", "2", "--zs", "0.5,0.9") == 0
        lines = (tmp_path / "abel.csv").read_text().splitlines()
        assert lines[0] == "x,z,Q,value,target,gap"
        assert len(lines) == 3

    def test_abel_at_one_says_the_series_grows(self, tmp_path, capsys):
        # Hardy's identity needs n >= 2; at n = 1 the summary says that the
        # ladder grows without bound, and the CSV is as for any n.
        assert run(tmp_path, "abel", "--x", "1", "--zs", "0.9") == 0
        assert capsys.readouterr().out == (
            "abel ladder at n=1: target=0.0; at n = 1 the series "
            "sum mu(q)^2/phi(q) z^q grows like log 1/(1 - z)\n")
        assert (tmp_path / "abel.csv").read_text().splitlines()[1] == (
            "1,0.9,196,2.83514296655,0,2.83514296655")
        assert run(tmp_path, "abel", "--x", "2", "--zs", "0.9") == 0
        assert capsys.readouterr().out == "abel ladder at n=2: target=0.34657359027997264\n"

    def test_abel_builds_no_table(self, tmp_path, monkeypatch):
        # The series streams the table segments up to Q = 196; the target
        # at the prime x = 2^31 - 1 comes from factoring x, with no table.
        built = calls(monkeypatch, cli, "build_sieve")
        x = 2**31 - 1
        assert run(tmp_path, "abel", "--x", str(x), "--zs", "0.9") == 0
        assert built == []
        row = (tmp_path / "abel.csv").read_text().splitlines()[1].split(",")
        assert row[:3] == [str(x), "0.9", "196"]
        assert row[4] == f"{((x - 1) / x) * math.log(x):.12g}"
        assert read_manifest(tmp_path, "abel")["sieve_bound"] == x

    def test_abel_x_column_is_a_float(self, tmp_path):
        # x is written as the float it was, 12 digits, at every size.
        assert run(tmp_path, "abel", "--x", "9007199254740993", "--zs", "0.9") == 0
        assert (tmp_path / "abel.csv").read_text().splitlines()[1] == (
            "9.00719925474e+15,0.9,196,0.813449423763,0,0.813449423763")

    def test_goldbach(self, tmp_path, capsys):
        assert run(tmp_path, "goldbach", "--n", "3", "--q1", "2", "--q2", "2") == 0
        assert "6" in capsys.readouterr().out

    # N past any array of 2N entries: the sum over whole periods of
    # L = lcm(q1, q2) and one partial period, against Python ints.
    @pytest.mark.parametrize("n, q1, q2", [(10**17, 3, 5), (10**18, 3, 5), (10**8, 30, 12)])
    def test_goldbach_past_any_array(self, tmp_path, capsys, n, q1, q2):
        L = math.lcm(q1, q2)
        whole, part = divmod(2 * n, L)
        terms = [ramanujan.cq_int(q1, k) * ramanujan.cq_int(q2, 2 * n - k) for k in range(1, L + 1)]
        want = whole * sum(terms) + sum(terms[:part])
        assert run(tmp_path, "goldbach", "--n", str(n), "--q1", str(q1), "--q2", str(q2)) == 0
        assert capsys.readouterr().out == (
            f"goldbach_correlation(N={n}, q1={q1}, q2={q2}) = {want}\n")
        assert (tmp_path / "goldbach.csv").read_text().splitlines()[1] == f"{n},{q1},{q2},{want}"

    # c_q from the factors of q: a q past any table, up to 2^63 - 1.
    @pytest.mark.parametrize("q, n, line", [
        ("3000000000", "6", "c_3000000000(6) = 0"),
        ("9223372036854775783", "1", "c_9223372036854775783(1) = -1"),
        ("-9223372036854775783", "0", "c_-9223372036854775783(0) = 9223372036854775782"),
    ], ids=["3e9", "prime-below-2^63", "negative-q"])
    def test_csum_past_table_limits(self, tmp_path, capsys, q, n, line):
        assert run(tmp_path, "csum", "--q", q, "--n", n) == 0
        assert capsys.readouterr().out == line + "\n"
        assert read_manifest(tmp_path, "csum")["sieve_bound"] == abs(int(q))


class TestErrors:
    def test_usage_error_exit_two(self, tmp_path):
        assert run(tmp_path, "sieve", "--n", "0") == 2

    def test_singular_missing_params(self, tmp_path):
        assert run(tmp_path, "singular", "--form", "pair") == 2

    def test_bad_tuple(self, tmp_path):
        assert run(tmp_path, "tuple", "--offsets", "0,2,4", "--n", "100") == 2

    # Both tuple commands check their offsets with one validator, before
    # anything is sieved.
    @pytest.mark.parametrize("argv, error", [
        (("tuple", "--offsets", "", "--n", "100"), "offsets must start with 0, got ()"),
        (("tuple", "--offsets", "2,4", "--n", "100"), "offsets must start with 0, got (2, 4)"),
        (("tuple", "--offsets", "0,4,2", "--n", "100"),
         "offsets must be strictly increasing, got (0, 4, 2)"),
        (("tuple", "--offsets", "0,2,4", "--n", "100"),
         "offsets (0, 2, 4) are inadmissible: prime 3 covers every residue"),
        (("tuple", "--offsets", "0,2,6,8,14", "--n", "100"),
         "offsets (0, 2, 6, 8, 14) are inadmissible: prime 5 covers every residue"),
        (("singular", "--form", "tuple", "--params", "2,4"),
         "offsets must start with 0, got (2, 4)"),
        (("singular", "--form", "tuple", "--params", "0,4,2"),
         "offsets must be strictly increasing, got (0, 4, 2)"),
        (("singular", "--form", "tuple", "--params", "0,2,4"),
         "offsets (0, 2, 4) are inadmissible: prime 3 covers every residue"),
        (("singular", "--form", "tuple", "--params", "0,2,6,8,14", "--p", "1000"),
         "offsets (0, 2, 6, 8, 14) are inadmissible: prime 5 covers every residue"),
    ])
    def test_bad_tuple_one_error_line(self, tmp_path, capsys, argv, error):
        assert run(tmp_path, *argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    def test_unprovable_prime_factor_exit_two(self, tmp_path, capsys):
        # a = 10^25 + 13 is prime, beyond the range where Miller-Rabin to the
        # 13 bases proves primality: refused at once, not trial-divided.
        start = time.perf_counter()
        assert run(tmp_path, "singular", "--form", "conjD", "--params",
                   "10000000000000000000000013,2,1", "--p", "1000") == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: cannot prove the factor 10000000000000000000000013 prime: "
            "Miller-Rabin is proven only below 3317044064679887385961981\n")
        assert not (tmp_path / "singular.csv").exists()

    @pytest.mark.parametrize("argv", [
        ("autocorr", "--gap", "2", "--n", "0"),
        ("autocorr", "--gap", "4", "--n", "-1"),
        ("conjd", "--a", "1", "--b", "2", "--l", "1", "--n", "0"),
        ("polymean", "--q", "3", "--poly", "1", "--n", "0"),
        ("polymean", "--q", "3", "--poly", "1", "--n", "-4"),
        ("tuple", "--offsets", "0,2,6", "--n", "-2"),
    ])
    def test_n_below_one_rejected(self, tmp_path, capsys, argv):
        assert run(tmp_path, *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "N=" in err, err
        assert not (tmp_path / f"{argv[0]}.csv").exists()


    @pytest.mark.parametrize("argv, n", [
        (("autocorr", "--gap", "2", "--n", "-5"), -5),
        (("conjd", "--a", "1", "--b", "2", "--l", "1", "--n", "-4"), -4),
        (("pnt", "--n", "0"), 0),
        (("tuple", "--offsets", "0,2,6", "--n", "-10"), -10),
    ])
    def test_n_below_one_named_before_table_bound(self, tmp_path, capsys, argv, n):
        # The table bound derived from these N is below 1 (or 0 for pnt);
        # the error names the N that was given, not that bound.
        assert run(tmp_path, *argv) == 2
        assert capsys.readouterr().err == f"error: N must be >= 1, got N={n}\n"
        assert not (tmp_path / "cache").exists()

    # An allocation that fails in a kernel, here goldbach's at N = 10^17
    # and 10^18, exits 2 with one error line and no CSV.
    @pytest.mark.parametrize("n", ["100000000000000000", "1000000000000000000"])
    def test_failed_allocation_exit_two(self, tmp_path, capsys, monkeypatch, n):
        def fail(*args):
            raise MemoryError("Unable to allocate 1.42 EiB for an array")

        monkeypatch.setattr(cli.mean_values, "goldbach_correlation", fail)
        assert run(tmp_path, "goldbach", "--n", n, "--q1", "3", "--q2", "5") == 2
        err = capsys.readouterr().err
        assert err == "error: Unable to allocate 1.42 EiB for an array\n", err
        assert not (tmp_path / "goldbach.csv").exists()

    def test_full_tables_past_int32_exit_two(self, tmp_path, capsys, monkeypatch):
        # With memory to spare, sieve tables past 2^31 - 1 do not fit int32:
        # the guard refuses them before anything is allocated.
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**40}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        assert run(tmp_path, "sieve", "--n", str(2**31)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: sieve bound {2**31} ") and "int32" in err, err
        assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())

    # 3 * 10^9 is past the int32 limit, or past this machine's memory for
    # the mu and phi that a save holds: refused before any file is made,
    # with a cache directory and with none (where the dump would go to a
    # temporary directory in --out).
    @pytest.mark.parametrize("cache", [True, False], ids=["cache-dir", "no-cache"])
    def test_sieve_past_int32_leaves_no_file(self, tmp_path, capsys, cache):
        out = tmp_path / "out"
        argv = ["--out", str(out)] + (["--cache-dir", str(tmp_path / "cache")] if cache else [])
        assert main([*argv, "sieve", "--n", "3000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sieve bound 3000000000 ") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []
        assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())

    # A bound the dump header cannot hold, below 1 or past 2^64 - 1, is
    # refused by the segment generator's checks, which save_tables runs
    # before it makes the cache file's directories, the file or the header.
    @pytest.mark.parametrize("n", [-5, 2**64])
    @pytest.mark.parametrize("argv", ["sieve --n {n}", "sieve --n {n} --cache {tmp}/a/b/t.bin",
                                      "--cache-dir {tmp}/cd/x sieve --n {n}"],
                             ids=["no-cache", "cache", "cache-dir"])
    def test_sieve_bound_outside_header_leaves_nothing(self, tmp_path, capsys, monkeypatch,
                                                       n, argv):
        monkeypatch.delenv(cli.CACHE_ENV, raising=False)
        budget = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        need = 5 * (n // 4 + 1) + sieve._SEGMENT_BYTES
        error = (f"sieve bound must be >= 1, got {n}" if n < 1 else f"sieve bound {n} needs "
                 f"about {need} bytes, over the memory budget of {budget} bytes")
        assert main(["--out", str(tmp_path), *argv.format(n=n, tmp=tmp_path).split()]) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert list(tmp_path.iterdir()) == []

    def test_euler_product_over_memory_exit_two(self, tmp_path, capsys):
        # The primes up to 10^15 are far more than the 10^9 factors a
        # product takes; the product says so before it sieves.
        assert run(tmp_path, "singular", "--form", "C2", "--p", str(10**15)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: an Euler product over the primes up to {10**15} takes ")
        assert "over the limit of 1000000000" in err and err.count("\n") == 1, err
        assert not (tmp_path / "singular.csv").exists()

    def test_tuple_constant_p_too_small(self, tmp_path, capsys):
        assert run(tmp_path, "singular", "--form", "tuple", "--params", "0,2,100000002",
                   "--p", "1000") == 2
        assert "P=1000 too small" in capsys.readouterr().err
        assert not (tmp_path / "singular.csv").exists()

    @pytest.mark.parametrize("p", ["1", "0", "-5"])
    def test_series_constant_p_below_two(self, tmp_path, capsys, p):
        assert run(tmp_path, "singular", "--form", "series", "--params", "2", "--p", p) == 2
        assert capsys.readouterr().err == f"error: P must be >= 2, got {p}\n"
        assert not (tmp_path / "singular.csv").exists()

    # Each bad value is named in the one error line, not a numpy or
    # builtin message, or the sieve bound derived from it; the fixed-arity
    # singular forms refuse values they would ignore.
    @pytest.mark.parametrize("argv, error", [
        (("props", "--qmax", "5", "--nmax", "-3"),
         "need q_max >= 1 and n_max >= 0, got q_max=5, n_max=-3"),
        (("props", "--qmax", "0"), "need q_max >= 1 and n_max >= 0, got q_max=0, n_max=200"),
        (("singular", "--form", "series_wk", "--params", "6", "--p", "0"),
         "need h >= 1 and Q >= 1, got h=6, Q=0"),
        (("abel", "--x", "3", "--zs", ","), "z ladder must hold at least one z, got ()"),
        (("singular", "--form", "C2", "--params", "5"),
         "form C2 needs 0 value(s) in --params, got [5]"),
        (("singular", "--form", "pair", "--params", "2,4"),
         "form pair needs 1 value(s) in --params, got [2, 4]"),
        (("singular", "--form", "conjD", "--params", "1,2,1,4"),
         "form conjD needs 3 value(s) in --params, got [1, 2, 1, 4]"),
        (("singular", "--form", "series", "--params", "6,1"),
         "form series needs 1 value(s) in --params, got [6, 1]"),
        (("singular", "--form", "series_wk", "--params", "6,1"),
         "form series_wk needs 1 value(s) in --params, got [6, 1]"),
        (("abel", "--x", str(2**63), "--zs", "0.9"), f"n={2**63} outside 1..2^63 - 1"),
        (("abel", "--x", str(10**400), "--zs", "0.9"), f"n={10**400} outside 1..2^63 - 1"),
        (("abel", "--x", "5", "--eps", "nan"), "epsilon must be positive, got nan"),
        (("goldbach", "--n", "3", "--q1", "0", "--q2", "0"),
         "need N, q1, q2 >= 1, got N=3, q1=0, q2=0"),
        (("goldbach", "--n", "3", "--q1", "-2", "--q2", "-3"),
         "need N, q1, q2 >= 1, got N=3, q1=-2, q2=-3"),
        (("goldbach", "--n", "3", "--q1", "6", "--q2", "9223372036854775783"),
         "period L = 55340232221128654698 is over the limit 2^31 - 1"),
        (("goldbach", "--n", "3", "--q1", "3000000000", "--q2", "2"),
         "period L = 3000000000 is over the limit 2^31 - 1"),
        (("singular", "--form", "tuple", "--params", "0", "--p", "-5"),
         "P=-5 too small; need P >= 1"),
        (("tuple", "--offsets", "0", "--n", "100", "--p", "-3"), "P=-3 too small; need P >= 1"),
    ], ids=["props-nmax", "props-qmax", "series_wk-p", "abel-zs", "C2-extra", "pair-extra",
            "conjD-extra", "series-extra", "series_wk-extra", "abel-x-2^63", "abel-x-huge",
            "abel-eps-nan", "goldbach-q0", "goldbach-qneg", "goldbach-L-overflow",
            "goldbach-L-3e9", "tuple-form-1-tuple-P", "tuple-1-tuple-P"])
    def test_bad_value_named(self, tmp_path, capsys, argv, error):
        assert run(tmp_path, *argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    # Options are spelled in full, and the comma lists are parsed by the
    # parser: both are argparse usage errors, exit 2 before anything runs.
    @pytest.mark.parametrize("argv, error", [
        (("abel", "--x", "2", "--z", "0.9"), "ramabel: error: unrecognized arguments: --z 0.9"),
        (("sieve", "--n", "1000", "--cach", "t.bin"),
         "ramabel: error: unrecognized arguments: --cach t.bin"),
        (("tuple", "--offsets", "0,a", "--n", "0"),
         "ramabel tuple: error: argument --offsets: expected comma-separated integers, got '0,a'"),
        (("abel", "--x", "2", "--zs", "0.9,x"),
         "ramabel abel: error: argument --zs: expected comma-separated numbers, got '0.9,x'"),
        (("singular", "--form", "pair", "--params", "6,b"),
         "ramabel singular: error: argument --params: expected comma-separated integers, got '6,b'"),
        (("polymean", "--q", "3", "--poly", "1,x", "--n", "10"),
         "ramabel polymean: error: argument --poly: expected comma-separated integers, got '1,x'"),
    ], ids=["abel-abbrev", "sieve-abbrev", "tuple-offsets", "abel-zs-list", "singular-params",
            "polymean-poly"])
    def test_argparse_usage_error(self, tmp_path, capsys, argv, error):
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, *argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"\n{error}\n")
        assert not (tmp_path / f"{argv[0]}.csv").exists()

    def test_abel_ladder_over_memory_exit_two(self, tmp_path, capsys, monkeypatch):
        # Q = 345,387,746 at z = 1 - 10^-7: the segment generator's check
        # counts 5 * (Q // 4 + 1) bytes and one segment, about 436 MB, and
        # refuses it against a 256 MiB budget; no table is built.
        forbid(monkeypatch, build_sieve)
        monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**16}.get)
        assert run(tmp_path, "abel", "--x", "5", "--zs", "0.9,0.9999999") == 2
        need = 5 * (345_387_746 // 4 + 1) + sieve._SEGMENT_BYTES
        assert capsys.readouterr().err == (
            f"error: sieve bound 345387746 needs about {need} bytes, "
            f"over the memory budget of {2**28} bytes\n")
        assert not (tmp_path / "abel.csv").exists()

    def test_csum_q_from_2_63_exit_two(self, tmp_path, capsys):
        assert run(tmp_path, "csum", "--q", str(2**63), "--n", "1") == 2
        assert capsys.readouterr().err == f"error: q={2**63} outside 1..2^63 - 1\n"
        assert not (tmp_path / "csum.csv").exists()

    def test_polymean_memory_budget(self):
        # polymean sums its period in chunks, so its peak does not grow with
        # q: in a fresh process, VmHWM rises over the import by less than
        # one period of int64 at q = 4 * 10^6, 30.5 MiB (about 15 MiB with
        # numpy 2.4).
        assert vmhwm_rise("from ramabel import polynomial_cq_mean",
                          "polynomial_cq_mean(4 * 10**6, [1, 0, 1], 5)") < 8 * 4 * 10**6

    def test_polymean_q_limit(self, tmp_path, capsys):
        # Past 2^31 - 1, Horner's rule would leave int64; refused before any
        # allocation, whatever the machine's memory.
        assert run(tmp_path, "polymean", "--q", str(2**31), "--poly", "1,0,1", "--n", "10") == 2
        assert capsys.readouterr().err == f"error: period L = {2**31} is over the limit 2^31 - 1\n"

    def test_rho_step_cap_exit_two(self, tmp_path):
        # 10^400 mod lcm(1..196): its 65-digit cofactor is composite and has
        # no factor that Pollard-Brent rho finds in its step cap.
        h = 10**400 % math.lcm(*range(1, 197))
        proc = fresh_python("-m", "ramabel.cli", "--out", str(tmp_path), "singular",
                            "--form", "series_wk", "--params", str(h), "--p", "1000", check=False)
        assert proc.returncode == 2
        assert re.fullmatch(r"error: rho found no factor of \d{65} "
                            r"in 2097152 steps\n", proc.stderr), proc.stderr
        assert not (tmp_path / "singular.csv").exists()

    def test_abel_ladder_memory_budget(self, tmp_path, capsys, monkeypatch):
        # The check counts the generator's mu and phi at the Q // 4 + 1 odd
        # m <= Q/2, 5 bytes each, and one segment of 4 MiB, for the Q = 2,291
        # terms at z = 0.99, and refuses one byte over.
        need = 5 * (2291 // 4 + 1) + 4 * 2**20
        for budget in (need - 1, need):
            monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": budget}.get)
            code = run(tmp_path, "abel", "--x", "5", "--zs", "0.99")
            assert code == (2 if budget < need else 0)
            assert (tmp_path / "abel.csv").exists() == (budget == need)
        assert capsys.readouterr().err == (
            f"error: sieve bound 2291 needs about {need} bytes, "
            f"over the memory budget of {need - 1} bytes\n")

    def test_props_catalog_memory_budget(self, tmp_path, capsys, monkeypatch):
        # The catalog counts its q_max (3 n_max + 12) values and the 4 n_max + 2
        # of ns, pos and sigma, 8 bytes each, 5.2 MiB here, past the 4 MiB and
        # more that the table of q <= 10 needs, and refuses one byte over.
        need = 8 * (10 * (3 * 20_000 + 12) + 4 * 20_000 + 2)
        for budget in (need - 1, need):
            monkeypatch.setattr(os, "sysconf", {"SC_PAGE_SIZE": 1, "SC_PHYS_PAGES": budget}.get)
            code = run(tmp_path, "props", "--qmax", "10", "--nmax", "20000")
            assert code == (2 if budget < need else 0)
            assert (tmp_path / "props.csv").exists() == (budget == need)
        assert capsys.readouterr().err == (
            f"error: property catalog q<=10, n<=20000 needs about {need} bytes, "
            f"over the memory budget of {need - 1} bytes\n")

    # A ladder that fails its checks, or an x below 1, exits 2 before any
    # table segment is drawn: none is built for the Q = 2,993,345 of
    # z = 0.99999.
    @pytest.mark.parametrize("argv, error", [
        (("--x", "5", "--zs", "0.99999,0.9"),
         "z ladder must be strictly increasing, got (0.99999, 0.9)"),
        (("--x", "0", "--zs", "0.99999"), "n must be >= 1, got 0"),
    ], ids=["decreasing", "x-zero"])
    def test_abel_refused_before_any_segment(self, tmp_path, capsys, monkeypatch, argv, error):
        forbid(monkeypatch, sieve._table_segments)
        assert run(tmp_path, "abel", *argv) == 2
        assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "abel.csv").exists()

    # An --out that mkdir cannot make, a file or a path under one (as
    # /dev/null/x), is an I/O error like any other: exit 2, one line.
    @pytest.mark.parametrize("under", ["", "x"], ids=["a-file", "under-a-file"])
    def test_unusable_out_exit_two(self, tmp_path, capsys, under):
        afile = tmp_path / "afile"
        afile.write_text("kept\n")
        assert main(["--out", str(afile / under), "csum", "--q", "6", "--n", "3"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno ") and err.count("\n") == 1, err
        assert afile.read_text() == "kept\n"

    def test_conjd_zero_a_rejected(self, tmp_path, capsys):
        assert run(tmp_path, "conjd", "--a", "0", "--b", "1", "--l", "1",
                   "--n", "10") == 2
        assert "must be positive" in capsys.readouterr().err


class TestDeterminism:
    def test_rerun_byte_identical(self, tmp_path):
        args = ("autocorr", "--gap", "2", "--n", "20000")
        assert run(tmp_path, *args) == 0
        first = (tmp_path / "autocorr.csv").read_bytes()
        assert run(tmp_path, *args) == 0
        assert (tmp_path / "autocorr.csv").read_bytes() == first

    def test_threads_do_not_change_output(self, tmp_path):
        base = ("autocorr", "--gap", "6", "--n", "50000")
        assert run(tmp_path, "--threads", "1", *base) == 0
        one = (tmp_path / "autocorr.csv").read_bytes()
        assert run(tmp_path, "--threads", "8", *base) == 0
        assert (tmp_path / "autocorr.csv").read_bytes() == one

    def test_manifest_records_command_line(self, tmp_path):
        # Each argument is shell-quoted, so a space or a quote splits back as it was.
        out = tmp_path / "a b'c"
        argv = ["--out", str(out), "pnt", "--n", "10000"]
        assert main(argv) == 0
        man = read_manifest(out, "pnt")
        assert man["command"] == "pnt"
        assert shlex.split(man["command_line"]) == ["ramabel", *argv]
        assert man["sieve_bound"] == 10000


class TestSubcommandCoverage:
    def test_conjd(self, tmp_path, capsys):
        assert run(tmp_path, "conjd", "--a", "1", "--b", "2", "--l", "1",
                   "--n", "20000") == 0
        assert "conjecture_d_mean" in capsys.readouterr().out

    def test_series_wk_gap_beyond_int64(self, tmp_path):
        assert run(tmp_path, "singular", "--form", "series_wk", "--params",
                   str(2**63), "--p", "1000") == 0
        assert (tmp_path / "singular.csv").read_text().splitlines()[1] == (
            "series_wk(9223372036854775808),1.32029693531,1000,8.11656739243e+16")

    def test_conjd_a_above_b(self, tmp_path):
        # n itself, not (b n + l)/a, is the largest table index when a > b.
        assert run(tmp_path, "conjd", "--a", "3", "--b", "2", "--l", "1",
                   "--n", "1000") == 0
        assert read_manifest(tmp_path, "conjd")["sieve_bound"] == 1001

    def test_conjd_large_prime_a(self, tmp_path, capsys):
        # a = 10^16 + 61 is prime: its factoring takes milliseconds, not the
        # 10^8 steps of trial division.
        start = time.perf_counter()
        assert run(tmp_path, "conjd", "--a", "10000000000000061", "--b", "2", "--l", "1",
                   "--n", "10") == 0
        assert time.perf_counter() - start < 0.5
        assert capsys.readouterr().out == (
            "conjecture_d_mean(a=10000000000000061,b=2,l=1,w=lambda1): "
            "empirical=0 predicted=1.32032372118e-16\n")

    def test_singular_tuple_of_one_offset(self, tmp_path):
        # (0,) is a valid tuple, as for `tuple --offsets 0`: its constant is 1.
        assert run(tmp_path, "singular", "--form", "tuple", "--params", "0") == 0
        assert (tmp_path / "singular.csv").read_text().splitlines()[1] == (
            '"tuple(0,)",1,1000000,0')

    def test_tuple(self, tmp_path):
        assert run(tmp_path, "tuple", "--offsets", "0,2,6", "--n", "20000") == 0
        lines = (tmp_path / "tuple.csv").read_text().splitlines()
        # both weightings, ten checkpoints each, plus header
        assert len(lines) == 21

    def test_polymean(self, tmp_path, capsys):
        assert run(tmp_path, "polymean", "--q", "5", "--poly", "1,0,1",
                   "--n", "100000") == 0
        out = capsys.readouterr().out
        assert "exact" in out or "1" in out


class TestTableCache:
    def test_sieve_uses_cache_dir(self, tmp_path, capsys):
        assert main(["--out", str(tmp_path), "sieve", "--n", "1000"]) == 0
        fresh = capsys.readouterr().out
        assert run(tmp_path, "sieve", "--n", "1000") == 0
        assert capsys.readouterr().out == fresh
        cached = str(tmp_path / "cache" / "tables_N1000_v3.bin")
        assert f"checksum={table_checksum(cached, 1000)}" in fresh
        # With no cache the dump went to a temporary directory in --out, now gone.
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "cache", "sieve.csv", "sieve_manifest.json"]

    def test_old_lambda_dump_is_ignored(self, tmp_path, dense_lambda):
        # The Lambda cache files of older versions: a dense dump of format 1,
        # and a prime-list dump of format 2 whose primes are wrong, so a
        # read of either would change the CSV or exit 2 on its magic.
        fresh = tmp_path / "fresh"
        assert main(["--out", str(fresh), "pnt", "--n", "1000"]) == 0
        cache = tmp_path / "cache"
        cache.mkdir()
        lam, lam1 = dense_lambda(build_sieve(1000))
        old = {
            cache / "lambda_N1000_v1.bin": b"RMLA" + (1).to_bytes(4, "little")
            + (1000).to_bytes(8, "little") + lam.tobytes() + lam1.tobytes(),
            cache / "lambda_N1000_v2.bin": rmla_v2(1000, primes_up_to(500)),
        }
        for path, data in old.items():
            path.write_bytes(data)
        assert run(tmp_path, "pnt", "--n", "1000") == 0
        assert (tmp_path / "pnt.csv").read_bytes() == (fresh / "pnt.csv").read_bytes()
        assert all(path.read_bytes() == data for path, data in old.items())
        assert sorted(p.name for p in cache.iterdir()) == [
            "lambda_N1000_v1.bin", "lambda_N1000_v2.bin"]

    # The 9,029-byte dump at N = 1000: header, spf from byte 16, mu from
    # 4,020, phi from 5,021, crc32 from 9,025.  Bit 0 of the bound (1000 ->
    # 1001) makes the length wrong; a bit of spf(97), of mu(30) and of
    # phi(100), the top bit of the trailer and a cut in half are each found
    # by the length or the crc32 check.
    @pytest.mark.parametrize("byte, bit", [
        (8, 0), (16 + 4 * 97, 1), (4020 + 30, 0), (5021 + 4 * 100 + 1, 3), (-1, 7), (None, None),
    ], ids=["header", "spf", "mu", "phi", "trailer", "truncated"])
    def test_damaged_full_dump_is_rebuilt(self, tmp_path, capsys, byte, bit):
        assert main(["--out", str(tmp_path / "fresh"), "sieve", "--n", "1000"]) == 0
        fresh = capsys.readouterr().out
        path = tmp_path / "cache" / "tables_N1000_v3.bin"
        assert run(tmp_path, "sieve", "--n", "1000") == 0
        data = bytearray(path.read_bytes())
        assert len(data) == 9_029
        if byte is None:
            del data[len(data) // 2 :]
        else:
            data[byte] ^= 1 << bit
        path.write_bytes(data)
        capsys.readouterr()
        assert run(tmp_path, "sieve", "--n", "1000") == 0
        out, err = capsys.readouterr()
        assert err.startswith("warning:") and "rebuilding it" in err
        assert out == fresh
        assert f"checksum={table_checksum(str(path), 1000)}" in fresh

    # The magic and the version name the file's format, so a flip there
    # makes a file of another format: left alone, exit 2.
    @pytest.mark.parametrize("byte", [0, 4])
    def test_flipped_bit_in_full_magic_or_version_is_kept(self, tmp_path, byte):
        assert run(tmp_path, "sieve", "--n", "1000") == 0
        path = tmp_path / "cache" / "tables_N1000_v3.bin"
        data = bytearray(path.read_bytes())
        data[byte] ^= 1
        path.write_bytes(data)
        assert run(tmp_path, "sieve", "--n", "1000") == 2
        assert path.read_bytes() == data

    def test_old_full_dump_is_ignored(self, tmp_path, capsys):
        # Full dumps of formats 1 and 2 in the cache directory are never
        # opened; the v2 file is a whole format-2 dump with int64 spf and phi.
        assert main(["--out", str(tmp_path / "fresh"), "sieve", "--n", "1000"]) == 0
        fresh = capsys.readouterr().out
        cache = tmp_path / "cache"
        cache.mkdir()
        old = {cache / "tables_N1000_v1.bin":
               b"RMBL" + (1).to_bytes(4, "little") + (1000).to_bytes(8, "little")}
        t = build_sieve(1000)
        v2 = (b"RMBL" + (2).to_bytes(4, "little") + (1000).to_bytes(8, "little")
              + t.spf.astype("<i8").tobytes() + t.mu.tobytes() + t.phi.astype("<i8").tobytes())
        old[cache / "tables_N1000_v2.bin"] = v2 + zlib.crc32(v2).to_bytes(4, "little")
        for path, data in old.items():
            path.write_bytes(data)
        assert run(tmp_path, "sieve", "--n", "1000") == 0
        assert capsys.readouterr().out == fresh
        assert all(path.read_bytes() == data for path, data in old.items())
        assert sorted(p.name for p in cache.iterdir()) == [
            "tables_N1000_v1.bin", "tables_N1000_v2.bin", "tables_N1000_v3.bin"]

    @pytest.mark.parametrize("content", [
        b"not a table dump",
        b"RMBL\x01\x00\x00\x00" + bytes(8),
        None,  # a good dump of another bound
        pytest.param(rmla_v2(100, primes_up_to(100)), id="RMLA v2"),
    ])
    def test_foreign_cache_file_is_kept(self, tmp_path, capsys, content):
        path = tmp_path / "tables.bin"
        if content is None:
            save_tables(50, str(path))
        else:
            path.write_bytes(content)
        before = path.read_bytes()
        argv = ["--out", str(tmp_path), "sieve", "--n", "100", "--cache", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert path.read_bytes() == before

    def test_sieve_caches_full_tables(self, tmp_path):
        assert run(tmp_path, "sieve", "--n", "1000") == 0
        path = tmp_path / "cache" / "tables_N1000_v3.bin"
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [path.name]
        assert type(load_tables(str(path))) is SieveTables

    # Their tables are built every time, the primes of the correlation
    # commands among them: a cache directory stays absent or empty.
    @pytest.mark.parametrize("argv", [
        ("pnt", "--n", "3000"),
        ("autocorr", "--gap", "2", "--n", "3000", "--p", "1000"),
        ("conjd", "--a", "1", "--b", "2", "--l", "1", "--n", "3000", "--p", "1000"),
        ("tuple", "--offsets", "0,2,6", "--n", "3000", "--p", "1000"),
        ("csum", "--q", "1000", "--n", "12"),
        ("polymean", "--q", "30", "--poly", "1,0,1", "--n", "1000"),
        ("goldbach", "--n", "50", "--q1", "12", "--q2", "30"),
        ("props", "--qmax", "10", "--nmax", "20"),
        ("abel", "--x", "6", "--zs", "0.5,0.9"),
        ("singular", "--form", "series_wk", "--params", "6", "--p", "2000"),
    ], ids=lambda argv: argv[0])
    def test_full_table_commands_leave_no_cache(self, tmp_path, argv):
        cache = tmp_path / "cache"
        for _ in range(2):
            assert run(tmp_path, *argv) == 0
            assert not cache.exists() or not any(cache.iterdir())
        assert read_manifest(tmp_path, argv[0])["output_sha256"]


def same_csv_without_tables(tmp_path, monkeypatch, argv):
    """``argv`` writes the same CSV bytes with build_sieve refused as without."""
    assert run(tmp_path / "plain", *argv) == 0
    want = (tmp_path / "plain" / f"{argv[0]}.csv").read_bytes()
    forbid(monkeypatch, build_sieve)
    assert run(tmp_path / "patched", *argv) == 0
    assert (tmp_path / "patched" / f"{argv[0]}.csv").read_bytes() == want


# The correlation means take N and sieve their own primes: with build_sieve
# refused, each command gives the CSV bytes it gives unpatched.
@pytest.mark.parametrize("argv", [
    ("pnt", "--n", "3000"),
    ("autocorr", "--gap", "2", "--n", "3000", "--p", "1000"),
    ("autocorr", "--gap", "3", "--n", "3000", "--weights", "lambda"),
    ("conjd", "--a", "3", "--b", "2", "--l", "1", "--n", "3000", "--p", "1000"),
    ("tuple", "--offsets", "0,2,6", "--n", "3000", "--p", "1000"),
], ids=["pnt", "autocorr-even", "autocorr-odd", "conjd", "tuple"])
def test_correlation_commands_build_no_table(tmp_path, monkeypatch, argv):
    same_csv_without_tables(tmp_path, monkeypatch, argv)


# c_q at one or two q comes from the factors of q: with build_sieve refused,
# each command gives the CSV bytes it gives unpatched.
@pytest.mark.parametrize("argv", [
    ("csum", "--q", "1000", "--n", "12"),
    ("polymean", "--q", "30", "--poly", "1,0,1", "--n", "1000"),
    ("goldbach", "--n", "50", "--q1", "12", "--q2", "30"),
], ids=["csum", "polymean", "goldbach"])
def test_single_q_commands_build_no_table(tmp_path, monkeypatch, argv):
    same_csv_without_tables(tmp_path, monkeypatch, argv)


def test_write_csv_quotes_and_formats(tmp_path):
    # One csv.writer writes every report: a field with a comma or a quote is
    # quoted, None is empty, and a float (np.float64 too) takes 12 digits.
    rows = [["a,b", 'say "hi"', None, np.float64(2) / 3, np.int64(-7)],
            ["x", 2.0, 10**20, 1e-30, ""]]
    digest = cli._write_csv(tmp_path / "t.csv", ["label", "N", "mean", "predicted", "gap"], rows)
    data = (tmp_path / "t.csv").read_bytes()
    assert data == (b'label,N,mean,predicted,gap\n"a,b","say ""hi""",,0.666666666667,-7\n'
                    b"x,2,100000000000000000000,1e-30,\n")
    assert digest == hashlib.sha256(data).hexdigest()


# CSV SHA-256 and manifest sieve_bound of correlation argvs, recorded on the
# means that held the whole support of Lambda: the streamed means must give
# the same bytes.  N = 2^20 + 1 and 3 * 2^20 - 1 put a block edge next to N;
# a gap and a tuple offset of 2-3 * 10^6 read a range beyond the block.
@pytest.mark.parametrize("argv, sha256, bound", [
    ("pnt --n 1048577",
     "1d52fcb7f6d604ae7a2e06a76f12fd1418ea2bb8fd4501cbf2e7c80efcbd1c70", 1048577),
    ("pnt --n 3145727",
     "1e5439d593307ef7966c641f80c027d95678ff7d2117305d992597fa71e1bae3", 3145727),
    ("autocorr --gap 2 --n 1048577",
     "ee95de1183ce8e18cf10c96f4d6043a69f44a2e211e6fd1fe7107101a44fafe7", 1048579),
    ("autocorr --gap 7 --n 3145727",
     "01eb33355f371a6cc7842a7ed45d1edaea1ccfad63757f67687a6c21a6335842", 3145734),
    ("autocorr --gap 6 --n 500000 --weights lambda",
     "1ff60848b24fb3f9c4dc0f70c76ce00ccea09d42c86249ab308b13d069494e92", 500006),
    ("autocorr --gap 3000000 --n 200000",
     "7cd232272915ec2af1e7484f4545615f97721add7d28b2a3e8410733836116a5", 3200000),
    ("conjd --a 1 --b 2 --l 1 --n 1000000",
     "81833f4191959782be46664c640e31d227cf3f3051a36b082844d3feeca80b7b", 2000002),
    ("conjd --a 5 --b 2 --l 1 --n 1048577",
     "8af34c93ac55609b67428fc06cceef889efb0cf91953136b42e33bba820d1cba", 1048578),
    ("conjd --a 3 --b 10 --l 7 --n 2000000",
     "f8897c4a06f264f364246328f36baa37502036fa11edb2fdac3a31ba0e4df76c", 6666670),
    ("tuple --offsets 0,2,6 --n 3145727",
     "9499ff91d0600a41ea0ff8dd072117b0faad468ce2c5f0459e8f0a1d2b89c4b6", 3145733),
    ("tuple --offsets 0,2,2000006 --n 300000 --p 3000000",
     "da1b38e0b8086d7dca3e0fae156ad353d4fb56cc86c4c117bb5b3507fc2303ad", 2300006),
], ids=["pnt-edge", "pnt-3edge", "autocorr-even", "autocorr-odd", "autocorr-lambda",
        "autocorr-far", "conjd-a-below-b", "conjd-a-above-b", "conjd-stride", "tuple",
        "tuple-far"])
def test_correlation_csv_bytes_pinned(tmp_path, argv, sha256, bound):
    assert run(tmp_path, *argv.split()) == 0
    command = argv.split()[0]
    data = (tmp_path / f"{command}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha256
    assert read_manifest(tmp_path, command)["sieve_bound"] == bound


# Manifest params, sieve_bound and CSV SHA-256 of one argv per command and
# per singular form, recorded before the parser declared the manifest's
# params: the report path must keep them, key order included.  {tmp} is the
# test's directory; sieve runs with no cache directory.
@pytest.mark.parametrize("argv, params, bound, sha256", [
    ("sieve --n 1000", {"n": 1000, "cache": None}, 1000,
     "e7be522c1ef215b0bf791db32e7b78d64d66f2fd180175c9638836375cb7eb8b"),
    ("sieve --n 1000 --cache {tmp}/t.bin", {"n": 1000, "cache": "{tmp}/t.bin"}, 1000,
     "e7be522c1ef215b0bf791db32e7b78d64d66f2fd180175c9638836375cb7eb8b"),
    ("csum --q 6 --n 3", {"q": 6, "n": 3}, 6,
     "9ddbe73abdaa461b84610a61c23dfe1a055d3849aa3a582b7e4372f88d359d03"),
    ("autocorr --gap 2 --n 20000", {"gap": 2, "n": 20000, "weights": "lambda1", "p": 10**6},
     20002, "1aabfaf32f8563969309ff1504bbf52bd95a8ad4963e41896ef1bebf5b1ba6e5"),
    ("autocorr --gap 3 --n 20000 --weights lambda --p 1000",
     {"gap": 3, "n": 20000, "weights": "lambda", "p": 1000}, 20003,
     "8199ec02b57ad80d4006e144ea4a42a2b980a35f6dc173813acbf66882fdafe9"),
    ("conjd --a 1 --b 2 --l 1 --n 20000", {"a": 1, "b": 2, "l": 1, "n": 20000, "p": 10**6},
     40002, "a2be2d58b2a7690dc1be00819e9e4f3a691d42b6293b3df34370915f1c27ae07"),
    ("tuple --offsets 0,2,6 --n 20000 --p 10000", {"offsets": [0, 2, 6], "n": 20000, "p": 10000},
     20006, "fe1e995ab394daa0e12352e27ac7b80efbbf0e2ed7cedb8fccba250f0b1d608e"),
    ("pnt --n 10000", {"n": 10000}, 10000,
     "96be89923fa4fa16480b6519569a831f3d838c2ace9898bc1f2972fe2571c26a"),
    ("polymean --q 5 --poly 1 --n 1000", {"q": 5, "poly": [1], "n": 1000}, 5,
     "c6cc13bdf0efe6557eaa6c24b82f04b2e22f910f50880ea61b0338a22ce074e1"),
    ("polymean --q 7 --poly=-3,2,3 --n 1000", {"q": 7, "poly": [-3, 2, 3], "n": 1000}, 7,
     "26aa96a17374a66fac567a0ac46347991fd8e9f2d2445d8b5d19edc60e51c75f"),
    ("goldbach --n 50 --q1 12 --q2 30", {"n": 50, "q1": 12, "q2": 30}, 30,
     "b2311828c864444befa715d0670657859f73cbdc8cf417c81794d10c069e4c87"),
    ("singular --form C2 --p 10000", {"form": "C2", "params": [], "p": 10000}, None,
     "4b26f968e68da256eb922bc4e4782005a9496ed7dd3e1397792f51aacf48745c"),
    ("singular --form pair --params 6 --p 10000", {"form": "pair", "params": [6], "p": 10000},
     None, "53d23b4d874c37745158764755a4823c9361fbb237e4df643142d1d5b2f53050"),
    ("singular --form conjD --params 1,2,1 --p 10000",
     {"form": "conjD", "params": [1, 2, 1], "p": 10000}, None,
     "13f931d35d67f3e6c59e5b1a467cd05f338fe17c42abd5c791ba8b3efb9dbc4b"),
    ("singular --form tuple --params 0,2,6 --p 10000",
     {"form": "tuple", "params": [0, 2, 6], "p": 10000}, None,
     "db9fa889009b64b59fd06edcad750618f72656745b3a7e838ef0d7244f5d888e"),
    ("singular --form series --params 6 --p 10000",
     {"form": "series", "params": [6], "p": 10000}, None,
     "483f9dd61562886e9dea02b93c5a0e05e6f23be2937be6e8d1ec0155054ce674"),
    ("singular --form series_wk --params 6 --p 2000",
     {"form": "series_wk", "params": [6], "p": 2000}, None,
     "eb97a6fdc83e2c509eb5f9cee6cf103fa10082ca9a5399a5615a2d8f694e1163"),
    ("abel --x 6", {"x": 6, "zs": [0.9, 0.99, 0.999], "eps": 1e-08}, 25315,
     "48e394478e00e264128e9d5284e1dc5644c557dab4cd9eb9e17c156a2ba5ebe0"),
    ("abel --x 6 --zs 0.9,0.99 --eps 1e-6", {"x": 6, "zs": [0.9, 0.99], "eps": 1e-06}, 1832,
     "869f4a11a588cd6c96710a40b6e98ec31e90cae6a0a8989585a78d507c5a6119"),
    ("props --qmax 10 --nmax 20", {"qmax": 10, "nmax": 20}, 10,
     "70676261ab3d80bb123357e6b76513964212234fe5d41c83afa719c5f3b15330"),
], ids=["sieve", "sieve-cache", "csum", "autocorr", "autocorr-lambda", "conjd", "tuple", "pnt",
        "polymean", "polymean-eq", "goldbach", "C2", "pair", "conjD", "tuple-form", "series",
        "series_wk", "abel", "abel-zs", "props"])
def test_manifest_params_pinned(tmp_path, monkeypatch, argv, params, bound, sha256):
    monkeypatch.delenv(cli.CACHE_ENV, raising=False)
    assert main(["--out", str(tmp_path), *argv.format(tmp=tmp_path).split()]) == 0
    command = argv.split()[0]
    man = read_manifest(tmp_path, command)
    want = json.loads(json.dumps(params).replace("{tmp}", str(tmp_path)))
    assert list(man["params"].items()) == list(want.items())
    assert man["sieve_bound"] == bound
    data = (tmp_path / f"{command}.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == sha256 == man["output_sha256"]


def test_defaults_are_the_kernel_constants(monkeypatch):
    # Each default and choice the parser gives a kernel is read from the
    # kernel's module when the parser is built, so new values there show.
    monkeypatch.setattr(singular, "DEFAULT_TRUNCATION", 12_345)
    monkeypatch.setattr(rf_series, "DEFAULT_Z_LADDER", (0.5, 0.75))
    monkeypatch.setattr(rf_series, "DEFAULT_LADDER_EPSILON", 1e-3)
    monkeypatch.setattr(mean_values, "WEIGHTS", {"w0": 0, "w1": 1})
    monkeypatch.setattr(mean_values, "DEFAULT_WEIGHT", "w0")
    parse = cli.build_parser().parse_args
    for argv in ("autocorr --gap 2 --n 5", "conjd --a 1 --b 2 --l 1 --n 5",
                 "tuple --offsets 0,2 --n 5", "singular --form C2"):
        assert parse(argv.split()).p == 12_345, argv
    abel = parse(["abel", "--x", "2"])
    assert (tuple(abel.zs), abel.eps) == ((0.5, 0.75), 1e-3)
    assert parse("autocorr --gap 2 --n 5".split()).weights == "w0"
    assert parse("autocorr --gap 2 --n 5 --weights w1".split()).weights == "w1"
    with pytest.raises(SystemExit):
        parse("autocorr --gap 2 --n 5 --weights lambda".split())


def test_readme_examples_parse():
    # Each `ramabel` line of the README's sh blocks, without `ramabel` and
    # the trailing comment, is parsed, never run: an option renamed or
    # dropped shows here.
    text = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    examples = [shlex.split(line.split("#")[0])[1:]
                for block in re.findall(r"```sh\n(.*?)```", text, re.S)
                for line in block.splitlines() if line.startswith("ramabel ")]
    assert len(examples) >= 10
    for argv in examples:
        assert cli.build_parser().parse_args(argv).command == argv[0], argv


def test_argv_file_parses():
    # Each argv of tools/argvs.txt, the file a parent-against-change run of
    # tools/compare_argvs.py reads, is parsed, never run; a line whose
    # comment says "usage error" must be refused by the parser.
    text = (Path(__file__).parents[1] / "tools" / "argvs.txt").read_text(encoding="utf-8")
    parsed = 0
    for line in text.splitlines():
        argv = shlex.split(line.removeprefix("ramabel "), comments=True)
        if not argv:
            continue
        if "# usage error" in line:
            with pytest.raises(SystemExit):
                cli.build_parser().parse_args(argv)
        else:
            head = 2 if argv[0] == "--out" else 0  # the command follows a global --out
            assert cli.build_parser().parse_args(argv).command == argv[head], argv
            parsed += 1
    assert parsed >= 41  # the README examples and the 31 pinned argvs at least


@pytest.mark.parametrize("module", ["ramabel", "ramabel.cli"])
def test_import_loads_no_late_module(module):
    # hashlib (with OpenSSL's libcrypto), csv, json and fractions (with
    # decimal) are imported where a digest, the report, the manifest or an
    # exact period mean is made, after the kernel; at start-up they would add about 4 MB to the
    # peak RSS of every command.
    late = {"hashlib", "_hashlib", "csv", "_csv", "json", "fractions", "decimal"}
    code = f"import sys, {module}; print(*sorted({late!r} & sys.modules.keys()))"
    out = fresh_python("-c", code).stdout
    assert out == "\n", f"import {module} loads {out.strip()}"
