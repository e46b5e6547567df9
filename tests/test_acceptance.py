"""Acceptance criteria, one test per criterion, at the frozen tolerances.

Each test prints a PASS/FAIL line with the measured values (visible under
pytest -s / in the captured output on failure) and asserts the criterion
exactly as frozen in polyimage.verify.  Runtimes are bounded by the stated
per-criterion budgets on desk hardware.
"""

from polyimage.primeimage import image_mask, joint_count
from polyimage.verify import (
    CORPUS,
    _eps_mass_prime,
    check_anomaly_constants,
    check_anomaly_localization,
    check_c0_bound,
    check_correlation_convergence,
    check_crt_multiplicativity,
    check_davenport,
    check_eps_mass,
    check_permutation_reduction,
    check_poisson,
    check_square_count,
    check_wan_bound,
    check_zero_average,
    primes_upto,
)

SEED = 0


def _assert(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_exact_square_count():
    _assert(check_square_count())


def test_criterion_02_crt_multiplicativity():
    _assert(check_crt_multiplicativity(seed=SEED))


def test_criterion_03_zero_average_identity():
    _assert(check_zero_average())


def test_criterion_04_wan_bound():
    _assert(check_wan_bound())


def test_criterion_05_quartic_anomaly_constants():
    _assert(check_anomaly_constants(seed=SEED))


def test_criterion_06_anomaly_localization():
    _assert(check_anomaly_localization())


def test_criterion_07_davenport_gaps():
    _assert(check_davenport())


def test_criterion_08_poisson_spacings():
    _assert(check_poisson(workers=1))


def test_criterion_09_correlation_convergence():
    _assert(check_correlation_convergence())


def test_criterion_10_epsilon_mass_bound():
    _assert(check_eps_mass(workers=2))


def test_criterion_10_numerator_matches_python_ints():
    # the bound alone cannot see a numerator that is too small
    for entry in CORPUS:
        for p in primes_upto(200):
            mask = image_mask(entry.poly, p)
            w2 = mask.count**2
            num = sum(abs(p * joint_count(mask, [h]) - w2) for h in range(p))
            assert _eps_mass_prime(entry.poly, p) == (p, num, w2), (entry.name, p)


def test_criterion_11_permutation_reduction():
    _assert(check_permutation_reduction())


def test_pair_density_ceiling_below_one():
    # the empirical constant behind the overlapping-translate bound
    _assert(check_c0_bound())
