"""Verification suites: the quantitative predictions the artifact must hit.

Each check returns a CheckResult with the measured values; suites bundle the
checks the CLI exposes under `verify <suite>`.  Tolerances are frozen here,
next to the checks that use them, and never adjusted at run time.  Exact
comparisons are used wherever both sides are rational (squared inequalities
stand in for square roots).

The test corpus below is fixed.  The "morse" flag is descriptive metadata for
choosing entries in degree-sensitive checks, not a computed predicate.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .composite import (
    composite_stats,
    enumerate_image,
    joint_count_composite,
    parse_modulus,
)
from .errors import DegenerateInputError
from .oracle import brute_image, brute_joint_count
from .parallel import pmap
from .polyarith import IntPoly, critical_diffs_mod, is_probable_prime, parse_poly
from .primeimage import (anomaly_scan, image_mask, joint_count, joint_count_table,
                         max_pair_correlation, pair_counts, prime_stats)
from .stats import (
    CorrelationWindow,
    adjacent_gap_correlation,
    correlation,
    gap_frequency,
    ks_exponential,
    spacing_series,
)

# frozen tolerances ---------------------------------------------------------

RATIO_DEV_CONST = 10                  # |ratio - const| <= RATIO_DEV_CONST/sqrt(p)
ANOMALY_THRESHOLD = 5.0               # flag |count - p/s^2| > threshold*sqrt(p)
DAVENPORT_TOL = Fraction(1, 50)       # gap frequency vs 2^-h
KS_TOL = 0.02                         # KS distance to 1 - e^-t
ADJACENT_CORR_TOL = 0.02              # |adjacent-gap correlation|
R2_TOL = Fraction(3, 20)              # |R_2 - vol| for X=(0,4]
R3_TOL = Fraction(3, 10)              # |R_3 - vol| for X=(0,1]^2
# Calibrated once over the corpus below at p <= 10^4 (max observed 2.304,
# at x^3 with p=19) and frozen with margin:
EPS_MASS_CONST = Fraction(5, 2)       # sum_h |eps_2(h,p)| <= C*sqrt(p)

POISSON_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23)
R3_MODULUS = 15015                    # 3*5*7*11*13
DAVENPORT_PRIME = 100003


@dataclass(frozen=True)
class CorpusEntry:
    name: str
    poly: IntPoly
    morse: bool


def _entry(text: str, morse: bool) -> CorpusEntry:
    return CorpusEntry(text, parse_poly(text), morse)


CORPUS = (
    _entry("x^2", True),
    _entry("x^3", False),
    _entry("x^3+x", True),
    _entry("x^3-3x", True),
    _entry("x^4-2x^2", False),
)

QUARTIC = parse_poly("x^4-2x^2")


@dataclass
class CheckResult:
    name: str
    passed: bool
    details: dict

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        info = ", ".join(f"{k}={v}" for k, v in self.details.items())
        return f"{status} {self.name}: {info}"


def primes_upto(n: int) -> list[int]:
    sieve = bytearray([1]) * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for i in range(2, math.isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i:: i] = b"\x00" * len(sieve[i * i:: i])
    return [i for i in range(n + 1) if sieve[i]]


def primes_from(start: int, count: int) -> list[int]:
    out = []
    cand = start
    while len(out) < count:
        if is_probable_prime(cand):
            out.append(cand)
        cand += 1
    return out


# individual acceptance checks ----------------------------------------------

def check_square_count() -> CheckResult:
    f = parse_poly("x^2")
    details = {}
    ok = True
    for qv in (105, 15015):
        m = parse_modulus(qv)
        expected = 1
        for p in m.primes:
            expected *= (p + 1) // 2
        count = sum(len(chunk) for chunk in enumerate_image(f, m))
        product = composite_stats(f, m).omega_q_size
        details[f"q{qv}"] = f"{count} (expect {expected})"
        ok = ok and count == expected == product
    return CheckResult("square-count", ok, details)


def check_crt_multiplicativity(seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    m = parse_modulus(105)
    mismatches = 0
    for text in ("x^2", "x^3+x", "x^4-2x^2"):
        f = parse_poly(text)
        for h in range(105):
            if joint_count_composite(f, m, [h]) != brute_joint_count(f, 105, [h]):
                mismatches += 1
        for _ in range(500):
            hs = [rng.randrange(105), rng.randrange(105)]
            if joint_count_composite(f, m, hs) != brute_joint_count(f, 105, hs):
                mismatches += 1
    return CheckResult(
        "crt-multiplicativity",
        mismatches == 0,
        {"offsets_checked": 3 * (105 + 500), "mismatches": mismatches},
    )


def check_zero_average() -> CheckResult:
    bad = 0
    checked = 0
    for entry in CORPUS:
        for p in primes_upto(300):
            mask = image_mask(entry.poly, p)
            w = mask.count
            s2 = int(joint_count_table(mask, [range(p)]).sum())
            s3 = int(joint_count_table(mask, [range(p), range(p)]).sum())
            checked += 1
            if s2 != w**2 or s3 != w**3:
                bad += 1
    return CheckResult("zero-average-identity", bad == 0,
                       {"pairs_checked": checked, "violations": bad})


def check_wan_bound() -> CheckResult:
    violations = []
    checked = 0
    for entry in CORPUS:
        for p in primes_upto(10**4):
            st = prime_stats(entry.poly, p)
            if st.is_permutation:
                continue
            checked += 1
            if not st.wan_ok:
                violations.append((entry.name, p))
    return CheckResult("wan-bound", not violations,
                       {"checked": checked, "violations": violations})


def _quartic_ratio(p: int, h: int) -> tuple[Fraction, Fraction, bool]:
    """For QUARTIC at the prime p: the pair-count ratio p * N_2(h, p) / omega^2,
    the constant it tends to (at h = 1, 2/3 for p = 1 mod 4 and 4/3 for
    p = 3 mod 4; 1 at an offset outside the obstruction set {0, 1, p - 1}),
    and whether |ratio - constant| <= RATIO_DEV_CONST / sqrt(p), compared
    squared and exact."""
    mask = image_mask(QUARTIC, p)
    ratio = Fraction(p * joint_count(mask, [h]), mask.count**2)
    const = Fraction(1) if h != 1 else Fraction(2, 3) if p % 4 == 1 else Fraction(4, 3)
    dev = ratio - const
    return ratio, const, dev * dev * p <= RATIO_DEV_CONST**2


def check_anomaly_constants(seed: int = 0) -> CheckResult:
    rng = random.Random(seed)
    ps = primes_upto(10**5)
    worst_anom = 0.0
    worst_generic = 0.0
    failures = 0
    for residue in (1, 3):
        for p in rng.sample([p for p in ps if 10**4 <= p and p % 4 == residue], 20):
            ratio, const, ok = _quartic_ratio(p, 1)
            failures += not ok
            worst_anom = max(worst_anom, abs(float(ratio - const)) * math.sqrt(p))
            for h in rng.sample(range(2, p - 1), 50):
                ratio, const, ok = _quartic_ratio(p, h)
                failures += not ok
                worst_generic = max(worst_generic, abs(float(ratio - const)) * math.sqrt(p))
    return CheckResult(
        "quartic-anomaly-constants",
        failures == 0,
        {
            "failures": failures,
            "worst_anomalous_dev_sqrtp": round(worst_anom, 3),
            "worst_generic_dev_sqrtp": round(worst_generic, 3),
            "tolerance": RATIO_DEV_CONST,
        },
    )


def check_anomaly_localization() -> CheckResult:
    outside = 0
    structure_bad = 0
    flagged_total = 0
    for p in primes_from(10**4, 10):
        obs = critical_diffs_mod(QUARTIC, p)
        scan = anomaly_scan(QUARTIC, p, obs, threshold=ANOMALY_THRESHOLD)
        flagged_total += len(scan)
        outside += sum(1 for a in scan if not a.in_critical_diffs)
        if len(obs.elements) - 1 != 2:
            structure_bad += 1
    return CheckResult(
        "anomaly-localization",
        outside == 0 and structure_bad == 0,
        {"flagged": flagged_total, "flagged_outside_obstruction": outside,
         "primes_with_wrong_obstruction_size": structure_bad},
    )


def check_davenport() -> CheckResult:
    f = parse_poly("x^2")
    series = spacing_series(f, parse_modulus(DAVENPORT_PRIME))
    worst = Fraction(0)
    ok = True
    for h in range(1, 7):
        diff = abs(gap_frequency(series, h) - Fraction(1, 2**h))
        worst = max(worst, diff)
        ok = ok and diff <= DAVENPORT_TOL
    return CheckResult(
        "davenport-gaps", ok,
        {"p": DAVENPORT_PRIME, "worst_diff": float(worst), "tolerance": float(DAVENPORT_TOL)},
    )


def check_poisson() -> CheckResult:
    f = parse_poly("x^2")
    m = parse_modulus(list(POISSON_PRIMES))
    series = spacing_series(f, m)
    ks = ks_exponential(series)
    corr = adjacent_gap_correlation(series)
    ok = ks.statistic <= KS_TOL and abs(corr) <= ADJACENT_CORR_TOL
    return CheckResult(
        "poisson-spacings", ok,
        {"q": m.q, "n": ks.n, "ks": round(ks.statistic, 6),
         "ks_tolerance": KS_TOL, "adjacent_corr": round(corr, 6),
         "corr_tolerance": ADJACENT_CORR_TOL},
    )


def check_correlation_convergence() -> CheckResult:
    f = parse_poly("x^2")
    r2 = correlation(f, parse_modulus(list(POISSON_PRIMES)), CorrelationWindow.box((0, 4)))
    r3 = correlation(f, parse_modulus(R3_MODULUS), CorrelationWindow.box((0, 1), (0, 1)))
    ok2 = abs(r2.deviation) <= R2_TOL
    ok3 = abs(r3.deviation) <= R3_TOL
    return CheckResult(
        "correlation-convergence", ok2 and ok3,
        {"R2": float(r2.value), "R2_deviation": float(r2.deviation), "R2_tolerance": float(R2_TOL),
         "R3": float(r3.value), "R3_deviation": float(r3.deviation), "R3_tolerance": float(R3_TOL)},
    )


def _eps_mass_prime(f: IntPoly, p: int) -> tuple[int, int, int]:
    """(p, sum_h |p*count - omega^2|, omega^2); the epsilon-mass numerator.
    Needs p < 2^21: the int64 sum holds p terms, each at most p^2."""
    assert p < 1 << 21, p
    mask = image_mask(f, p)
    w = mask.count
    w2 = w * w
    if w == p:
        return p, 0, w2
    counts = pair_counts(mask)
    return p, int(np.abs(p * counts - w2).sum()), w2


def check_eps_mass(workers: int = 1) -> CheckResult:
    ps = primes_upto(10**4)
    worst = 0.0
    worst_at = None
    violations = 0
    for entry in CORPUS:
        rows = pmap(partial(_eps_mass_prime, entry.poly), ps, workers)
        for p, num, w2 in rows:
            # sum_h |eps_2| <= C sqrt(p)  <=>  num^2 <= C^2 p w2^2
            lhs = num * num * EPS_MASS_CONST.denominator**2
            rhs = EPS_MASS_CONST.numerator**2 * p * w2 * w2
            if lhs > rhs:
                violations += 1
            val = num / w2 / math.sqrt(p)
            if val > worst:
                worst, worst_at = val, (entry.name, p)
    return CheckResult(
        "epsilon-mass-bound", violations == 0,
        {"constant": str(EPS_MASS_CONST), "violations": violations,
         "max_ratio": round(worst, 4), "max_at": worst_at},
    )


def check_permutation_reduction() -> CheckResult:
    """R_2 of x^3 mod 105 over (0, 1], which multiplies the counts of q1 = 7
    alone, against the unreduced sum of brute-force joint counts mod 105 over
    the same lattice points."""
    f = parse_poly("x^3")
    m = parse_modulus(105)
    window = CorrelationWindow.box((0, 1))
    reduced = correlation(f, m, window)
    (a, b), = window.intervals
    hs = [h for h in range(math.ceil(a * reduced.s_q), math.floor(b * reduced.s_q) + 1) if h]
    full = Fraction(sum(brute_joint_count(f, m.q, [h]) for h in hs), len(brute_image(f, m.q)))
    q1 = reduced.modulus_used
    ok = q1.primes == (7,) and reduced.value == full
    return CheckResult(
        "permutation-reduction", ok,
        {"q1": list(q1.primes), "R2_reduced": str(reduced.value),
         "R2_full": str(full), "equal": reduced.value == full},
    )


def check_c0_bound() -> CheckResult:
    sample = [p for p in primes_upto(300) if p >= 50]
    details = {}
    ok = True
    for entry in CORPUS:
        try:
            c0 = max_pair_correlation(entry.poly, sample)
        except DegenerateInputError:
            continue
        details[entry.name] = f"{c0} ~ {float(c0):.4f}"
        ok = ok and c0 < 1
    return CheckResult("pair-density-ceiling", ok, details)


# suites ---------------------------------------------------------------------

# suite name -> the checks `verify <suite>` runs, given --seed and --workers
SUITES = {
    "identities": lambda seed, workers: [check_square_count(), check_zero_average(),
                                         check_eps_mass(workers)],
    "wan": lambda seed, workers: [check_wan_bound()],
    "multiplicativity": lambda seed, workers: [check_crt_multiplicativity(seed)],
    "davenport": lambda seed, workers: [check_davenport()],
    "anomaly": lambda seed, workers: [check_anomaly_constants(seed),
                                      check_anomaly_localization()],
    "poisson": lambda seed, workers: [check_poisson()],
    "correlation": lambda seed, workers: [check_correlation_convergence(),
                                          check_permutation_reduction()],
    "c0": lambda seed, workers: [check_c0_bound()],
}


def anomaly_report(f: IntPoly, p: int, threshold: float = ANOMALY_THRESHOLD) -> CheckResult:
    """Single-prime anomaly report for `verify anomaly --poly ... --prime ...`.

    Flags offsets, checks they sit in the critical-difference set, and for the
    quartic testbed also measures the pair-count ratio at offset 1 against its
    residue-class constant."""
    obs = critical_diffs_mod(f, p)
    scan = anomaly_scan(f, p, obs, threshold=threshold)
    details: dict = {
        "p": p,
        "flagged": [a.h for a in scan],
        "obstruction_set": list(obs.elements),
    }
    ok = all(a.in_critical_diffs for a in scan)
    if f == QUARTIC:
        ratio, const, ratio_ok = _quartic_ratio(p, 1)
        details["residue_class"] = p % 4
        details["ratio_at_offset_1"] = float(ratio)
        details["class_constant"] = str(const)
        details["dev_times_sqrtp"] = round(abs(float(ratio - const)) * math.sqrt(p), 3)
        ok = ok and ratio_ok
    return CheckResult("anomaly-report", ok, details)
