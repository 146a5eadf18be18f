"""CLI subcommands, exercised in-process through main(argv)."""

import json
import os
import time
import zlib

import pytest

from ramabel import SieveTables, load_tables, save_tables
from ramabel.cli import main
from ramabel.sieve import build_sieve, primes_up_to, table_checksum


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

    def test_goldbach(self, tmp_path, capsys):
        assert run(tmp_path, "goldbach", "--n", "3", "--q1", "2", "--q2", "2") == 0
        assert "6" in capsys.readouterr().out


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

    # 2N int64 entries are more than the address space holds, so the
    # allocation fails at once (a MemoryError at 10^17, a ValueError at
    # 10^18) and no memory is touched.
    @pytest.mark.parametrize("n", ["100000000000000000", "1000000000000000000"])
    def test_failed_allocation_exit_two(self, tmp_path, capsys, n):
        assert run(tmp_path, "goldbach", "--n", n, "--q1", "3", "--q2", "5") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
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
    # temporary file in --out).
    @pytest.mark.parametrize("cache", [True, False], ids=["cache-dir", "no-cache"])
    def test_sieve_past_int32_leaves_no_file(self, tmp_path, capsys, cache):
        out = tmp_path / "out"
        argv = ["--out", str(out)] + (["--cache-dir", str(tmp_path / "cache")] if cache else [])
        assert main([*argv, "sieve", "--n", "3000000000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: sieve bound 3000000000 ") and err.count("\n") == 1, err
        assert list(out.iterdir()) == []
        assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())

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
        assert run(tmp_path, "pnt", "--n", "10000") == 0
        man = read_manifest(tmp_path, "pnt")
        assert man["command"] == "pnt"
        assert "--n" in man["command_line"]
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
        # With no cache the dump went to a temporary file in --out, now gone.
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
