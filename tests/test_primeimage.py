"""Per-prime images, joint counts, anomaly scans."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyimage import primeimage
from polyimage.composite import joint_count_composite, parse_modulus
from polyimage.errors import DegenerateInputError, InvalidInputError, ResourceCapError
from polyimage.oracle import brute_image, brute_joint_count
from polyimage.polyarith import IntPoly, ObstructionSet, critical_diffs_mod, parse_poly
from polyimage.primeimage import (
    anomaly_scan,
    compute_image,
    expected_joint_count,
    image_mask,
    joint_count,
    joint_count_error,
    max_pair_correlation,
    pair_counts,
    prime_stats,
)

CORPUS = [parse_poly(t) for t in ("x^2", "x^3", "x^3+x", "x^3-3x", "x^4-2x^2")]


def primes_upto(n):
    out = []
    for m in range(2, n + 1):
        if all(m % p for p in out if p * p <= m):
            out.append(m)
    return out


def image_bits(ts):
    return sum(1 << t for t in ts)


def test_image_examples():
    m = compute_image(parse_poly("x"), 11)
    assert m.count == 11 and m.bits == (1 << 11) - 1
    assert prime_stats(parse_poly("x"), 11).s_p == 1

    m = compute_image(parse_poly("x^2"), 7)
    assert m.bits == image_bits([0, 1, 2, 4])
    assert prime_stats(parse_poly("x^2"), 7).s_p == Fraction(7, 4)

    m = compute_image(parse_poly("x^4-2x^2"), 5)
    assert m.bits == image_bits([0, 3, 4])


def test_image_constant_poly():
    m = compute_image(parse_poly("5"), 7)
    assert m.bits == image_bits([5]) and m.count == 1


def test_image_out_of_range():
    with pytest.raises(InvalidInputError):
        compute_image(parse_poly("x^2"), 1 << 31)


def test_image_matches_oracle():
    for f in CORPUS:
        for p in primes_upto(200) + [1009, 10007]:
            m = compute_image(f, p)
            expected = brute_image(f, p)
            assert m.bits == image_bits(expected) and m.count == len(expected), (f, p)


def test_joint_count_examples():
    mask = image_mask(parse_poly("x^2"), 7)
    assert joint_count(mask, [1]) == 2
    assert joint_count(mask, [0]) == 4 == mask.count
    assert joint_count(mask, [1, 2]) == 1


def test_joint_count_matches_oracle():
    rng = random.Random(31)
    for f in CORPUS:
        for p in (7, 13, 101):
            mask = image_mask(f, p)
            for _ in range(25):
                hs = [rng.randrange(p) for _ in range(rng.randrange(1, 3))]
                assert joint_count(mask, hs) == brute_joint_count(f, p, hs)


def test_pair_count_reflection_symmetry():
    for f in CORPUS:
        for p in (7, 13, 101):
            mask = image_mask(f, p)
            for h in range(1, p):
                assert joint_count(mask, [h]) == joint_count(mask, [p - h])


def _pair_error(f, p, h):
    mask = image_mask(f, p)
    return joint_count_error(mask, joint_count(mask, [h]), 2)


def test_joint_count_error_examples():
    f = parse_poly("x^2")
    assert _pair_error(f, 7, 1) == Fraction(-1, 8)
    assert _pair_error(f, 7, 0) == Fraction(3, 4)
    assert sum(_pair_error(f, 7, h) for h in range(7)) == 0
    mask = image_mask(f, 7)
    assert joint_count_error(mask, joint_count(mask, [1, 2]), 3) == Fraction(49 - 64, 64)


def test_error_zero_average_small_primes():
    for f in CORPUS:
        for p in primes_upto(60):
            assert sum(_pair_error(f, p, h) for h in range(p)) == 0, (f, p)


def test_expected_joint_count():
    assert expected_joint_count(7, Fraction(7, 4), 2) == Fraction(16, 7)
    assert expected_joint_count(7, Fraction(1), 3) == 7


def test_anomaly_scan_examples():
    square = parse_poly("x^2")
    assert anomaly_scan(square, 101, critical_diffs_mod(square, 101), threshold=5.0) == []
    # x has no critical values, hence an empty obstruction set
    assert anomaly_scan(parse_poly("x"), 101, ObstructionSet("mod", 101, ()),
                        threshold=5.0) == []
    # at p=13 the +/-1 offsets of the quartic are flagged once the threshold
    # drops below their deviation, and they land in the obstruction set
    quartic = parse_poly("x^4-2x^2")
    scan = anomaly_scan(quartic, 13, critical_diffs_mod(quartic, 13), threshold=0.05)
    flagged = {a.h for a in scan}
    assert {1, 12} <= flagged
    by_h = {a.h: a for a in scan}
    assert by_h[1].in_critical_diffs and by_h[12].in_critical_diffs


def test_anomaly_scan_input_checks():
    f = parse_poly("x^2")
    with pytest.raises(InvalidInputError):
        anomaly_scan(f, 3, critical_diffs_mod(f, 3))


def _anomaly_scan_python_ints(f, p, obstructions, threshold):
    """The anomaly scan as one exact Python-int comparison per shift."""
    mask = image_mask(f, p)
    w2 = mask.count**2
    rhs = Fraction(threshold) ** 2 * p**3
    out = []
    for h in range(1, p):
        n = joint_count(mask, [h])
        d = p * n - w2
        if d * d * rhs.denominator > rhs.numerator:
            out.append(primeimage.Anomaly(h, n, d / p**1.5, h in obstructions))
    return out


def test_anomaly_scan_matches_python_int_loop():
    for f in CORPUS:
        for p in primes_upto(300):
            if p < 5:
                continue
            obs = critical_diffs_mod(f, p)
            for threshold in (0, 0.05, 0.5, 1.2247, 5):
                assert anomaly_scan(f, p, obs, threshold) == \
                    _anomaly_scan_python_ints(f, p, obs, threshold), (f, p, threshold)


def _shift_all(raw):
    raw += 0.5  # every folded count off by one
    return raw


def _off_integer(raw):
    raw[1] += 0.4  # rounds to the right count, but not within 1/4
    return raw


def _move_to_zero(raw):
    # raw[h] folds into lag h and raw[-1] into lag p-1: N(0) moves, nothing else
    raw[0] += 2
    raw[1] -= 1
    raw[-1] -= 1
    return raw


def _add_pair(raw):
    raw[1] += 1
    raw[-1] += 1  # symmetric, but the sum is off
    return raw


def _break_symmetry(raw):
    raw[1] += 1
    raw[2] -= 1
    return raw


@pytest.mark.parametrize("corrupt", [_shift_all, _off_integer, _move_to_zero, _add_pair,
                                     _break_symmetry])
def test_pair_counts_raise_when_guard_fails(monkeypatch, corrupt):
    # each corruption defeats one part of the exactness guard
    irfft = np.fft.irfft
    monkeypatch.setattr(np.fft, "irfft", lambda *a, **k: corrupt(irfft(*a, **k)))
    for f in CORPUS:
        for p in (3, 7, 13, 101):
            with pytest.raises(ArithmeticError, match=f"p={p} failed"):
                pair_counts(image_mask(f, p))


def test_pair_counts_match_joint_count_small_primes():
    for f in CORPUS:
        for p in primes_upto(300):
            assert pair_counts(image_mask(f, p)).tolist() == \
                [joint_count(image_mask(f, p), [h]) for h in range(p)]


def test_pair_counts_fft_at_large_prime():
    p = 1000003
    mask = compute_image(parse_poly("x^4-2x^2"), p)
    counts = pair_counts(mask)  # the guard's rounding test held, else this raised
    assert counts.dtype == np.int64 and len(counts) == p
    assert counts[0] == mask.count
    assert int(counts.sum()) == mask.count**2
    assert np.array_equal(counts[1:], counts[:0:-1])
    rng = random.Random(5)
    for h in [1, p - 1] + [rng.randrange(p) for _ in range(62)]:
        assert counts[h] == joint_count(mask, [h]), h


def _no_mask(f, p):
    raise AssertionError(f"image mask built at p={p}")


def test_pair_counts_cap_before_mask(monkeypatch):
    p = 8388617  # the first prime above 2^23
    monkeypatch.setattr(primeimage, "image_mask", _no_mask)
    f = parse_poly("x^2")
    with pytest.raises(ResourceCapError, match=f"p={p}.*bytes"):
        anomaly_scan(f, p, ObstructionSet("mod", p, ()))
    with pytest.raises(ResourceCapError, match=f"p={p}"):
        pair_counts(primeimage.ImageMask(p, 1, 1))
    assert primeimage._pair_transform_length(8388593) == primeimage.MAX_PAIR_TRANSFORM


def test_max_pair_correlation_examples():
    assert max_pair_correlation(parse_poly("x^2"), [101, 103]) < 1
    with pytest.raises(DegenerateInputError):
        max_pair_correlation(parse_poly("x"), [101, 103])
    quartic = parse_poly("x^4-2x^2")
    sample = [p for p in primes_upto(200) if p % 4 == 3 and p > 4]
    assert max_pair_correlation(quartic, sample) < 1


def test_wan_bound_small_primes():
    for f in CORPUS:
        deg = f.degree
        for p in primes_upto(500):
            st = prime_stats(f, p)
            if st.is_permutation:
                continue
            assert deg * st.omega_size <= deg * p - (p - 1), (f, p)
            assert st.wan_ok


def test_square_image_density_exact():
    # |image| of x^2 is exactly (p+1)/2 for odd p, so the density sits in
    # [1/2, 1/2 + 1/p]
    f = parse_poly("x^2")
    for p in primes_upto(500):
        if p == 2:
            continue
        w = image_mask(f, p).count
        assert 2 * w == p + 1
        assert Fraction(1, 2) <= Fraction(w, p) <= Fraction(1, 2) + Fraction(1, p)


def test_cubic_image_density_stability():
    # degree-3 entries with distinct critical values keep a stable density
    # across a dyadic prime range: fitted constant, deviations within 5/sqrt(p)
    for text in ("x^3+x", "x^3-3x"):
        f = parse_poly(text)
        ps = [p for p in primes_upto(1024) if p >= 512]
        ratios = [Fraction(image_mask(f, p).count, p) for p in ps]
        c = sum(ratios) / len(ratios)
        for p, r in zip(ps, ratios):
            assert abs(float(r - c)) <= 5 / p**0.5, (text, p)


SQUARE_FREE = [q for q in range(2, 1001) if all(q % (d * d) for d in range(2, 32))]


@settings(max_examples=30, deadline=None)
@given(
    coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=7),
    p=st.sampled_from(primes_upto(300)),
    offsets=st.lists(st.integers(-1000, 1000), min_size=1, max_size=3),
    q=st.sampled_from(SQUARE_FREE),
)
def test_counts_match_oracle(coeffs, p, offsets, q):
    f = IntPoly(tuple(coeffs))
    mask = image_mask(f, p)
    counts = pair_counts(mask)
    assert counts.tolist() == [brute_joint_count(f, p, [h]) for h in range(p)]
    assert sum(counts) == mask.count**2
    assert all(counts[h] == counts[p - h] for h in range(1, p))
    assert joint_count(mask, offsets) == brute_joint_count(f, p, offsets)
    m = parse_modulus(q)
    assert joint_count_composite(f, m, offsets) == brute_joint_count(f, q, offsets)
