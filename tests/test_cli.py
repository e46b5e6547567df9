"""CLI contract: reports, exit codes, determinism."""

import importlib.util
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from polyimage import cli, polyarith, primeimage
from polyimage.cli import main
from polyimage.verify import ANOMALY_THRESHOLD


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_image_command(capsys):
    code, out, _ = run(capsys, "image", "--poly", "x^2", "--modulus", "105")
    assert code == 0
    report = json.loads(out)
    assert report["result"]["omega_size"] == 24
    assert report["result"]["s_q"] == {"ratio": "35/8", "float": 4.375}
    assert report["config"]["version"]
    # config echoes the command's own flags, no more
    assert sorted(report["config"]) == ["command", "modulus", "poly", "primes", "version",
                                        "workers"]


def test_image_permutation_flag(capsys):
    code, out, _ = run(capsys, "image", "--poly", "x", "--modulus", "7")
    assert code == 0
    per = json.loads(out)["result"]["per_prime"]
    assert per[0]["is_permutation"] is True


def test_image_rejects_non_square_free(capsys):
    code, _, err = run(capsys, "image", "--poly", "x^2", "--modulus", "12")
    assert code == 2
    assert "square-free" in err


def test_correlate_command(capsys):
    code, out, _ = run(capsys, "correlate", "--poly", "x^2", "--modulus", "105",
                       "--window", "0:1")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["r_k"]["ratio"] == "7/12"
    assert r["lattice_points"] == 4


def test_correlate_k_mismatch(capsys):
    code, _, err = run(capsys, "correlate", "--poly", "x^2", "--modulus", "105",
                       "--window", "0:1", "--k", "3")
    assert code == 2 and "conflicts" in err


def test_spacings_degenerate_exit(capsys):
    code, _, err = run(capsys, "spacings", "--poly", "x", "--modulus", "15")
    assert code == 2 and "mean spacing" in err


def test_spacings_csv_out(capsys, tmp_path):
    out_path = tmp_path / "hist.csv"
    code, out, _ = run(capsys, "spacings", "--poly", "x^2", "--modulus", "105",
                       "--out", str(out_path))
    assert code == 0
    header = out_path.read_text().splitlines()[0]
    assert header == "bin_left,bin_right,count,density,exp_reference"
    r = json.loads(out)["result"]
    assert r["gap_frequencies"]["1"]["ratio"] == "1/6"


def test_spacings_format_needs_out(capsys, tmp_path):
    code, out, err = run(capsys, "spacings", "--poly", "x^2", "--modulus", "105",
                         "--format", "json")
    assert code == 2 and not out
    assert "--format" in err and "--out" in err
    out_path = tmp_path / "hist.json"
    code, out, _ = run(capsys, "spacings", "--poly", "x^2", "--modulus", "105",
                       "--format", "json", "--out", str(out_path))
    assert code == 0
    written = json.loads(out_path.read_text())
    assert written["summary"] == json.loads(out)["result"] and written["histogram"]


def test_spacings_bins_needs_out(capsys, tmp_path):
    code, out, err = run(capsys, "spacings", "--poly", "x^2", "--modulus", "105", "--bins", "10")
    assert code == 2 and not out
    assert "--bins" in err and "--out" in err
    code, out, _ = run(capsys, "spacings", "--poly", "x^2", "--modulus", "105")
    assert code == 0 and json.loads(out)["config"]["bins"] is None
    out_path = tmp_path / "hist.csv"
    code, _, _ = run(capsys, "spacings", "--poly", "x^2", "--modulus", "105", "--bins", "10",
                     "--out", str(out_path))
    assert code == 0 and len(out_path.read_text().splitlines()) == 1 + 10 + 1


def test_spacings_bins_cap_exit_before_enumeration(capsys, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the image was enumerated")

    monkeypatch.setattr(cli, "spacing_series", refuse)
    out_path = tmp_path / "hist.csv"
    code, out, err = run(capsys, "spacings", "--poly", "x^2", "--modulus", "1155",
                         "--bins", str(cli.MAX_BINS + 1), "--out", str(out_path))
    assert code == 3 and not out and not out_path.exists()
    assert err.strip() == (f"resource cap: --bins {cli.MAX_BINS + 1} exceeds the cap of "
                           f"{cli.MAX_BINS} histogram bins")


def test_workers_defaults_to_one():
    for argv in (["image", "--poly", "x^2", "--modulus", "105"],
                 ["verify", "wan"]):
        assert cli.build_parser().parse_args(argv).workers == 1


def test_workers_below_one_rejected(capsys):
    for argv in (["image", "--poly", "x^2", "--modulus", "105", "--workers", "-3"],
                 ["spacings", "--poly", "x^2", "--modulus", "105", "--workers", "0"],
                 ["verify", "wan", "--workers", "0"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert not out and "--workers: must be at least 1" in err, argv


def test_spacings_unwritable_out_is_invalid_input(capsys, tmp_path):
    out_path = tmp_path / "missing" / "hist.csv"
    code, out, err = run(capsys, "spacings", "--poly", "x^2", "--modulus", "105",
                         "--out", str(out_path))
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write --out {out_path}")


def test_spacings_cap_exit_before_any_mask(capsys, monkeypatch):
    def build(f, p):
        raise AssertionError(f"mask built at p={p}")

    monkeypatch.setattr(primeimage, "compute_image", build)
    for argv in (["--primes", "200000033,200000039"], ["--modulus", "200000033", "--cap-bits", "1000"]):
        code, out, err = run(capsys, "spacings", "--poly", "x^3+x", *argv)
        assert code == 3 and not out and "enumeration cap" in err, argv


def test_modulus_and_primes_are_exclusive(capsys):
    extra = {"correlate": ["--window", "0:1"], "nk": ["--offsets", "1"]}
    for command in ("image", "correlate", "spacings", "nk"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--poly", "x^2", "--modulus", "105", "--primes", "3,5",
                  *extra.get(command, [])])
        assert exc.value.code == 2, command
        out, err = capsys.readouterr()
        assert not out and "--primes: not allowed with argument --modulus" in err, command


def test_cap_bits_below_one_rejected(capsys):
    for bits in ("-5", "0"):
        with pytest.raises(SystemExit) as exc:
            main(["spacings", "--poly", "x^2", "--modulus", "105", "--cap-bits", bits])
        assert exc.value.code == 2, bits
        out, err = capsys.readouterr()
        assert not out and "--cap-bits: must be at least 1" in err, bits


def test_spacings_resource_cap_exit(capsys):
    code, _, err = run(capsys, "spacings", "--poly", "x^2", "--modulus", "105",
                       "--cap-bits", "16")
    assert code == 3 and "cap" in err


def test_unread_flags_are_rejected(capsys, tmp_path):
    # each subcommand declares only the flags it reads
    out_path = tmp_path / "hist.csv"
    for argv in (["image", "--poly", "x^2", "--modulus", "105", "--out", str(out_path)],
                 ["critical", "--poly", "x^4-2x^2", "--seed", "3"],
                 ["nk", "--poly", "x^2", "--modulus", "105", "--offsets", "1",
                  "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        out, err = capsys.readouterr()
        assert not out and "unrecognized arguments" in err, argv
    assert not out_path.exists()


def test_bench_command_lines_parse():
    # every command line the benchmark runs must stay accepted by the parser
    path = Path(__file__).resolve().parents[1] / "bench" / "ops.py"
    spec = importlib.util.spec_from_file_location("_bench_ops", path)
    ops = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ops)
    parser = cli.build_parser()
    for workload in ops.WORKLOADS:
        for op in ops.build(workload, 0):
            args = parser.parse_args(op["argv"])
            assert args.command == op["argv"][0] and args.workers == 1


def test_critical_command(capsys):
    code, out, _ = run(capsys, "critical", "--poly", "x^4-2x^2")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["critical_diffs_integers"] == [-1, 0, 1]

    code, out, _ = run(capsys, "critical", "--poly", "x^4-2x^2", "--prime", "7")
    r = json.loads(out)["result"]
    assert r["critical_diffs_mod_p"]["elements"] == [0, 1, 6]

    code, out, _ = run(capsys, "critical", "--poly", "x^2")
    r = json.loads(out)["result"]
    assert r["critical_diffs_integers"] == [0]


def test_obstruction_degree_cap_exit_at_once(capsys, monkeypatch):
    # deg C is read from f, before any resultant: building C of x^320 + x
    # over Z alone takes seconds
    cap = polyarith.MAX_CRITICAL_DEGREE
    calls = []
    monkeypatch.setattr(polyarith, "fp_resultant", lambda a, b: calls.append((a, b)))
    for poly, m, p in ((f"x^{cap + 2}+x", cap + 1, "50021"), ("x^320+x", 319, "1000003")):
        for argv in (["critical", "--poly", poly], ["critical", "--poly", poly, "--prime", p],
                     ["verify", "anomaly", "--poly", poly, "--prime", p]):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert code == 3 and not out, argv
            assert f"degree-{m} critical-value polynomial" in err, argv
            assert err.strip().endswith(f"the cap is deg C <= {cap}"), argv
            assert not calls and time.perf_counter() - start < 2, argv


def test_obstruction_work_cap_exit_in_seconds(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "critical", "--poly", "x^21+1000000000000000000000000000000x^2+x")
    assert code == 3 and not out
    assert "2087-bit prime" in err and err.strip().endswith(
        f"the cap is {polyarith.MAX_OBSTRUCTION_WORK}")
    assert time.perf_counter() - start < 5


def test_refused_prime_costs_no_integer_set(capsys, monkeypatch):
    # the mod-p set comes first, so its refusal exits before the Proth prime
    # of the integer set is sought
    def proth(lo, avoid):
        raise AssertionError("integer set computed")

    monkeypatch.setattr(polyarith, "_proth_prime", proth)
    start = time.perf_counter()
    code, out, err = run(capsys, "critical", "--poly", "x^21+3x^7-5x^2+x",
                         "--prime", str(2**127 - 1))
    assert code == 3 and not out and "127-bit prime" in err
    assert time.perf_counter() - start < 2


def test_critical_reads_each_critical_value_poly_once(capsys, monkeypatch):
    rings = []

    def counted(f, p=None):
        rings.append(p)
        return critical_value_poly(f, p)

    def interpolated(fbar, dbar):
        if fbar.p == 7:  # C over Z interpolates at primes near 2^62
            rings.append(7)
        return critical_resultant(fbar, dbar)

    critical_value_poly = polyarith.critical_value_poly
    critical_resultant = polyarith._critical_resultant
    monkeypatch.setattr(polyarith, "critical_value_poly", counted)
    monkeypatch.setattr(polyarith, "_critical_resultant", interpolated)
    # C = y(y + 1)^2 mod 7 is interpolated once; 7x^2 + 5 is constant mod 7,
    # the wild regime, where no C mod 7 is built
    for poly, p, want in (("x^4-2x^2", 7, [0, 1, 2, 1]), ("7x^2+5", 7, None)):
        rings.clear()
        code, out, _ = run(capsys, "critical", "--poly", poly, "--prime", str(p))
        assert code == 0 and rings == ([7, None] if want else [None]), poly
        assert json.loads(out)["result"]["critical_diffs_mod_p"]["critical_poly_coeffs"] == want


def test_critical_large_coefficients_and_prime(capsys):
    # integer sets whose root bound is in the millions, and a 61-bit prime
    for poly, want in (("x^3-300x", [-4000, 0, 4000]), ("x^4-200x^2", [-10000, 0, 10000])):
        code, out, _ = run(capsys, "critical", "--poly", poly)
        assert code == 0
        assert json.loads(out)["result"]["critical_diffs_integers"] == want
    p = 2**61 - 1
    code, out, _ = run(capsys, "critical", "--poly", "x^4-2x^2", "--prime", str(p))
    assert code == 0
    assert json.loads(out)["result"]["critical_diffs_mod_p"]["elements"] == [0, 1, p - 1]


def test_image_unfactorable_modulus_exit(capsys):
    # two Mersenne primes of 61 and 89 bits are beyond the factoring budget
    start = time.perf_counter()
    code, out, err = run(capsys, "image", "--poly", "x^2",
                         "--modulus", str((2**61 - 1) * (2**89 - 1)))
    assert code == 3 and "--primes" in err and not out
    assert time.perf_counter() - start < 10


def test_image_mask_cap_exit(capsys, monkeypatch):
    monkeypatch.setattr(primeimage, "MAX_MASK_PRIME", 1000)
    primeimage.image_mask.cache_clear()  # a mask of x^2 mod 1009 built earlier skips the cap
    code, out, err = run(capsys, "image", "--poly", "x^2", "--primes", "1009", "--workers", "1")
    assert code == 3 and not out
    assert err.strip() == ("resource cap: image mask at p=1009 walks 504 points with a "
                           "1009-byte scratch; the cap is p <= 1000")
    # a prime past 2^31 stays invalid input
    code, out, err = run(capsys, "image", "--poly", "x^2", "--primes", "2147483659", "--workers", "1")
    assert code == 2 and not out and "outside supported range" in err


def test_internal_error_exit(capsys, monkeypatch):
    def boom(cfg):
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "image", boom)
    code, out, err = run(capsys, "image", "--poly", "x^2", "--modulus", "105")
    assert code == 4 and not out
    assert err.strip() == "internal error: RuntimeError: boom"


def _subprocess_env() -> dict:
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def test_closed_stdout_is_not_an_error():
    # stdout is a pipe whose read end is already closed
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = _subprocess_env()
    env.pop("PYTHONUNBUFFERED", None)  # the report sits in the buffer until the flush
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "polyimage.cli", "image", "--poly", "x^2", "--modulus", "105"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "internal error" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


def test_critical_constant_mod_large_prime_returns_at_once():
    # f is constant mod p = 2^61 - 1, so no residue is a critical point to scan;
    # a subprocess, so that a scan over all p residues fails by timeout
    p = 2**61 - 1
    proc = subprocess.run(
        [sys.executable, "-m", "polyimage.cli", "critical", "--poly", f"{p}x^2+5",
         "--prime", str(p)],
        capture_output=True, env=_subprocess_env(), text=True, timeout=10,
    )
    assert proc.returncode == 0, proc.stderr
    entry = json.loads(proc.stdout)["result"]["critical_diffs_mod_p"]
    assert entry == {"p": p, "elements": [0], "approximate": True, "critical_poly_coeffs": None}


def test_unbounded_inputs_exit_3_at_once():
    # a degree past the parse cap, a wild-regime scan and a mask build past
    # their work caps: each refused before it allocates or scans
    for argv, says in ((["image", "--poly", "x^100000000000", "--primes", "7"], "degree"),
                       (["critical", "--poly", "x^50022+x", "--prime", "50021"], "scan"),
                       (["image", "--poly", "x^2000+x", "--primes", "1000003"], "Horner")):
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "polyimage.cli", *argv], capture_output=True,
                              env=_subprocess_env(), text=True, timeout=30)
        assert proc.returncode == 3 and not proc.stdout and says in proc.stderr, argv
        assert time.monotonic() - start < 5, argv


def test_verify_anomaly_above_pair_count_cap_exits_3():
    # the first prime above 2^23 needs a transform past the cap: refused
    # before its image is built
    p = 8388617
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "polyimage.cli", "verify", "anomaly", "--poly", "x^4-2x^2",
         "--prime", str(p)],
        capture_output=True, env=_subprocess_env(), text=True, timeout=30,
    )
    assert proc.returncode == 3 and not proc.stdout
    assert f"p={p}" in proc.stderr and "bytes" in proc.stderr
    assert time.monotonic() - start < 10


def test_critical_degenerate(capsys):
    code, _, err = run(capsys, "critical", "--poly", "x")
    assert code == 2


def test_nk_command(capsys):
    code, out, _ = run(capsys, "nk", "--poly", "x^2", "--modulus", "105",
                       "--offsets", "1")
    assert code == 0
    r = json.loads(out)["result"]
    assert r["joint_count"] == 4
    assert [d["count"] for d in r["per_prime"]] == [1, 2, 2]


def test_nk_rejects_bad_lists(capsys):
    code, out, err = run(capsys, "nk", "--poly", "x^2", "--modulus", "105", "--offsets", "")
    assert code == 2 and "--offsets" in err and not out
    code, out, err = run(capsys, "nk", "--poly", "x^2", "--primes", "3,5,a", "--offsets", "1")
    assert code == 2 and "--primes" in err and not out


def test_verify_multiplicativity(capsys):
    code, out, err = run(capsys, "verify", "multiplicativity")
    assert code == 0
    assert "PASS" in err
    assert json.loads(out)["result"]["passed"] is True


def test_verify_unknown_suite(capsys):
    code, _, err = run(capsys, "verify", "nosuchsuite")
    assert code == 2


def test_verify_anomaly_single_prime(capsys):
    code, out, _ = run(capsys, "verify", "anomaly", "--poly", "x^4-2x^2",
                       "--prime", "13")
    assert code == 0
    check = json.loads(out)["result"]["checks"][0]
    assert check["details"]["residue_class"] == 1
    assert check["details"]["class_constant"] == "2/3"
    # --poly and --prime select this report together, and only for the anomaly suite
    for argv in (["verify", "poisson", "--poly", "x^2", "--prime", "7"],
                 ["verify", "anomaly", "--poly", "x^4-2x^2"],
                 ["verify", "anomaly", "--prime", "13"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert "--poly" in err and "--prime" in err, argv


def test_threshold_only_with_single_prime_report(capsys):
    # the default comes from verify.ANOMALY_THRESHOLD when --threshold is absent
    argv = ["verify", "anomaly", "--poly", "x^2", "--prime", "10007"]
    _, plain, _ = run(capsys, *argv)
    _, given, _ = run(capsys, *argv, "--threshold", str(ANOMALY_THRESHOLD))
    assert json.loads(plain)["result"] == json.loads(given)["result"]
    # every other form of verify exits 2 on --threshold, before any suite runs
    for argv in (["verify", "multiplicativity", "--threshold", "1"],
                 ["verify", "anomaly", "--threshold", "1"]):
        code, out, err = run(capsys, *argv)
        assert code == 2 and not out, argv
        assert "--threshold" in err, argv


def test_reports_byte_identical_across_workers(capsys):
    _, out1, _ = run(capsys, "image", "--poly", "x^2", "--modulus", "1155",
                     "--workers", "1")
    _, out2, _ = run(capsys, "image", "--poly", "x^2", "--modulus", "1155",
                     "--workers", "2")
    r1, r2 = json.loads(out1), json.loads(out2)
    del r1["config"]["workers"], r2["config"]["workers"]
    assert r1 == r2
    # spot-check the raw result payloads byte for byte
    assert out1.split('"result"')[1] == out2.split('"result"')[1]


def test_verify_anomaly_rejects_bad_threshold(capsys):
    for bad in ("nan", "inf", "-inf", "-1"):
        code, out, err = run(capsys, "verify", "anomaly", "--poly", "x^2", "--prime", "10007",
                             f"--threshold={bad}")
        assert code == 2 and not out, bad
        assert err.startswith("error: threshold must be finite"), (bad, err)
