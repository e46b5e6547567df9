"""CLI contract: reports, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from polyimage import cli
from polyimage.cli import main


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


def test_spacings_unwritable_out_is_invalid_input(capsys, tmp_path):
    out_path = tmp_path / "missing" / "hist.csv"
    code, out, err = run(capsys, "spacings", "--poly", "x^2", "--modulus", "105",
                         "--out", str(out_path))
    assert code == 2 and not out
    assert err.startswith(f"error: cannot write --out {out_path}")


def test_spacings_resource_cap_exit(capsys):
    code, _, err = run(capsys, "spacings", "--poly", "x^2", "--modulus", "105",
                       "--cap-bits", "16")
    assert code == 3 and "cap" in err


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
