"""Tests of the benchmark itself: each check accepts the program's real result
and rejects a corrupted one, and the launcher leaves no process behind.

    python3 bench/selftest.py

Kept out of the repository's pytest run (the file name does not match
test_*.py); it takes about half a minute.
"""

from __future__ import annotations

import copy
import io
import json
import subprocess
import sys
import time
import unittest
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import ops  # noqa: E402
import run  # noqa: E402
from polyimage import cli  # noqa: E402


def report(op: dict) -> dict:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        rc = cli.main(op["argv"])
    assert rc == 0, (op["argv"], rc)
    return json.loads(out.getvalue())


def bump_ratio(entry: dict, by: int = 1) -> None:
    num, den = entry["ratio"].split("/")
    entry["ratio"] = f"{int(num) + by}/{den}"


class CheckCase(unittest.TestCase):
    def assert_rejects(self, op, good, corrupt):
        self.assertEqual(checks.check(op, good), [])
        bad = copy.deepcopy(good)
        corrupt(bad["result"])
        self.assertNotEqual(checks.check(op, bad), [], corrupt.__doc__)


class SpacingsChecks(CheckCase):
    def test_corruptions_rejected(self):
        for poly in ("x^2", "x^3+x"):
            op = ops.spacings_op(ops.translate(ops.POLYS[poly], 3, 17), 3 * 5 * 7 * 11 * 13 * 17,
                                 [3, 5, 7, 11, 13, 17])
            good = report(op)

            def gap1(r):
                "gap_frequency(1)"
                bump_ratio(r["gap_frequencies"]["1"])

            def gap2(r):
                "gap_frequency(2)"
                bump_ratio(r["gap_frequencies"]["2"], -1)

            def gap7(r):
                "gap_frequency(7)"
                bump_ratio(r["gap_frequencies"]["7"])

            def ks(r):
                "KS statistic"
                r["ks"]["statistic"] += 1e-6

            def corr(r):
                "adjacent-gap correlation"
                r["adjacent_gap_correlation"] += 1e-6

            def size(r):
                "image size"
                r["omega_size"] += 1

            for corrupt in (gap1, gap2, gap7, ks, corr, size):
                with self.subTest(poly=poly, corrupt=corrupt.__doc__):
                    self.assert_rejects(op, good, corrupt)


class AnomalyChecks(CheckCase):
    def test_corruptions_rejected(self):
        op = ops.anomaly_op(ops.POLYS["x^4-2x^2"], 15013)
        good = report(op)
        details = good["result"]["checks"][0]["details"]
        self.assertTrue(details["flagged"])

        def drop(r):
            "a flagged offset dropped"
            r["checks"][0]["details"]["flagged"].pop()

        def extra(r):
            "an offset flagged inside the threshold"
            r["checks"][0]["details"]["flagged"].insert(1, 500)

        def obstruction(r):
            "an obstruction element dropped"
            r["checks"][0]["details"]["obstruction_set"].pop()

        def failed(r):
            "report marked failed"
            r["passed"] = False

        for corrupt in (drop, extra, obstruction, failed):
            with self.subTest(corrupt=corrupt.__doc__):
                self.assert_rejects(op, good, corrupt)


class CriticalChecks(CheckCase):
    def test_split_and_non_split(self):
        # f' = 3x^2 - 3 splits mod every p; f' = 3x^2 + 1 splits iff -3 is a square
        split = ops.critical_op(ops.POLYS["x^3-3x"], 1013)
        non_split = ops.critical_op(ops.POLYS["x^3+x"], 1013)
        self.assertEqual(checks.critical_points(split["coeffs"], 1013)[1], True)
        self.assertEqual(checks.critical_points(non_split["coeffs"], 1013)[1], False)

        def drop(r):
            "an obstruction element dropped"
            r["critical_diffs_mod_p"]["elements"].pop()

        def add(r):
            "an obstruction element added"
            els = r["critical_diffs_mod_p"]["elements"]
            els[:] = sorted(els + [7])

        def crit_poly(r):
            "critical polynomial altered"
            r["critical_diffs_mod_p"]["critical_poly_coeffs"][0] += 1

        for op, corruptions in ((split, (drop, add, crit_poly)), (non_split, (add,))):
            good = report(op)
            for corrupt in corruptions:
                with self.subTest(poly=op["poly"], corrupt=corrupt.__doc__):
                    self.assert_rejects(op, good, corrupt)


class ImageChecks(CheckCase):
    def test_corruptions_rejected(self):
        # x^3 permutes F_1013, since 1013 = 2 mod 3
        op = ops.image_op(ops.POLYS["x^3"], [1009, 1013, 1019])
        good = report(op)

        def size(r):
            "image size"
            r["omega_size"] -= 1

        def per_prime(r):
            "per-prime image size"
            r["per_prime"][0]["omega"] += 1

        def perm(r):
            "permutation flag"
            r["per_prime"][1]["is_permutation"] = not r["per_prime"][1]["is_permutation"]

        def q1(r):
            "reduced modulus"
            r["q1"] = r["primes"]

        for corrupt in (size, per_prime, perm, q1):
            with self.subTest(corrupt=corrupt.__doc__):
                self.assert_rejects(op, good, corrupt)


class NkChecks(CheckCase):
    def test_corruptions_rejected(self):
        op = ops.nk_op(ops.POLYS["x^3-3x"], [101, 103], [1, -7])
        good = report(op)

        def count(r):
            "per-prime count"
            r["per_prime"][1]["count"] += 1

        def total(r):
            "joint count"
            r["joint_count"] += 1

        def error(r):
            "relative error"
            bump_ratio(r["per_prime"][0]["error"])

        for corrupt in (count, total, error):
            with self.subTest(corrupt=corrupt.__doc__):
                self.assert_rejects(op, good, corrupt)


class CorrelateChecks(CheckCase):
    def test_corruptions_rejected(self):
        for poly, k, primes, m in (("x^2", 2, [3, 5, 7, 11], 60),
                                   ("x^3+x", 3, [5, 7, 11], 20),
                                   ("x^4-2x^2", 4, [5, 7, 13], 8)):
            op = ops.correlate_op(ops.translate(ops.POLYS[poly], 5, 2), k, primes, m)
            good = report(op)

            def value(r):
                "R_k"
                bump_ratio(r["r_k"])

            def points(r):
                "lattice point count"
                r["lattice_points"] += 1

            def volume(r):
                "window volume"
                bump_ratio(r["volume"])

            for corrupt in (value, points, volume):
                with self.subTest(poly=poly, corrupt=corrupt.__doc__):
                    self.assert_rejects(op, good, corrupt)


class ProcessHygiene(unittest.TestCase):
    def test_kill_group_takes_grandchildren(self):
        code = ("import subprocess, sys, time; "
                "subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(60)']); "
                "time.sleep(60)")
        proc = subprocess.Popen([sys.executable, "-c", code], start_new_session=True)
        deadline = time.monotonic() + 10
        while len(run.live_processes(pgid=proc.pid)) < 2 and time.monotonic() < deadline:
            time.sleep(0.05)
        self.assertEqual(len(run.live_processes(pgid=proc.pid)), 2)
        run.kill_group(proc.pid)
        proc.wait(timeout=10)
        self.assertEqual(run.live_processes(pgid=proc.pid), [])

    def test_failed_operation_is_counted_not_fatal(self):
        import workload
        from polyimage import primeimage

        runner = workload.Runner(cli, primeimage)
        with redirect_stderr(io.StringIO()):
            rc, _, _ = runner.run(["nk", "--poly", "x^2", "--modulus", "105", "--offsets=",
                                   "--workers", "1"], traced=False)
        self.assertNotEqual(rc, 0)

    def test_terminated_launcher_kills_workload(self):
        launcher = subprocess.Popen([sys.executable, str(HERE / "run.py"), "--workload", "anomaly",
                                     "--seed", "1", "--seconds", "60", "--trace", "1"],
                                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        deadline = time.monotonic() + 20
        children = []
        while not children and time.monotonic() < deadline:
            time.sleep(0.1)
            children = run.live_processes(ppid=launcher.pid)
        self.assertTrue(children)
        launcher.terminate()
        self.assertNotEqual(launcher.wait(timeout=20), 0)
        self.assertEqual(run.live_processes(pgid=children[0]), [])

    def test_prober_answers_and_ends(self):
        import speed

        prober = speed.Prober()
        try:
            times = [prober() for _ in range(3)]
        finally:
            prober.close()
        self.assertTrue(all(t > 0 for t in times))
        self.assertIsNotNone(prober.proc.returncode)
        self.assertAlmostEqual(speed.factor(speed.REF_S, 3 * speed.REF_S), 2.0)

    def test_timeout_kills_workload(self):
        rc, _ = run.spawn(["--workload", "anomaly", "--seed", "1", "--seconds", "60"], timeout=2)
        self.assertIsNone(rc)
        self.assertEqual(run.live_processes(ppid=run.os.getpid()), [])


if __name__ == "__main__":
    unittest.main()
