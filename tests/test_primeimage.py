"""Per-prime images, joint counts, anomaly scans."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyimage import polyarith, primeimage
from polyimage.composite import joint_count_composite, parse_modulus
from polyimage.errors import DegenerateInputError, InvalidInputError, ResourceCapError
from polyimage.oracle import brute_image, brute_joint_count
from polyimage.polyarith import (
    IntPoly,
    ObstructionSet,
    critical_diffs_mod,
    is_probable_prime,
    parse_poly,
)
from polyimage.primeimage import (
    anomaly_scan,
    compute_image,
    expected_joint_count,
    image_mask,
    joint_count,
    joint_count_error,
    joint_count_table,
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
    buf = bytearray(max(ts, default=0) // 8 + 1)
    for t in ts:
        buf[t >> 3] |= 1 << (t & 7)
    return int.from_bytes(buf, "little")


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


# each reduction f = g(x^m) of the mask builder: m = 4 and 6 with g = y; m = 3
# with g of degree 2; m = 2 except at p = 7, where x^6 + 7x^2 is x^6; and a
# polynomial that is constant mod 5.  Then each Horner step the builder skips:
# a leading coefficient other than 1 with no constant (2x^3), g = y plus a
# constant (x^4 + 5) and zero interior coefficients (x^5 + 3x + 1)
IMAGE_CORPUS = CORPUS + [parse_poly(t) for t in
                         ("x^4", "x^6", "3x^6+5x^3+1", "x^6+7x^2", "5x^3+5x+2",
                          "2x^3", "x^4+5", "x^5+3x+1")]


def _assert_images_match_oracle(primes):
    for f in IMAGE_CORPUS:
        for p in primes:
            m = compute_image(f, p)
            expected = brute_image(f, p)
            assert m.bits == image_bits(expected) and m.count == len(expected), (f, p)


def test_image_matches_oracle():
    # every class of gcd(m, p - 1), p <= deg f, p = 2 and 3
    _assert_images_match_oracle(primes_upto(200) + [1009, 10007])


def test_image_matches_oracle_across_chunks(monkeypatch):
    # chunks of 5 subgroup points end at every phase of both walks
    monkeypatch.setattr(primeimage, "_BLOCK", 5)
    _assert_images_match_oracle(primes_upto(60))


def test_image_walk_crosses_chunk_boundary():
    # x^2 + 1 = g(x^2) walks the (p - 1)/2 = 2^18 + 10 squares in chunks of
    # _BLOCK, the last one partial
    f, p = parse_poly("x^2+1"), 524309
    assert (p - 1) // 2 > primeimage._BLOCK
    m = compute_image(f, p)
    expected = brute_image(f, p)
    assert m.bits == image_bits(expected) and m.count == len(expected)


def test_monomial_image_size_closed_form():
    # |image of x^m| = 1 + (p - 1)/gcd(m, p - 1); p = 5 mod 12 gives gcds 2, 1, 4, 2
    p = 10000121
    for m in (2, 3, 4, 6):
        assert compute_image(IntPoly(tuple([0] * m + [1])), p).count == \
            1 + (p - 1) // math.gcd(m, p - 1), m


def test_primitive_root_past_trial_division(monkeypatch):
    # p - 1 = 2 * 10007 * 10069 < 2^28: both odd primes lie past the
    # trial-division limit, so the shared factorizer finds them by Brent rho
    p, primes = 201520967, (2, 10007, 10069)
    rho, brent_rho = [], polyarith._brent_rho
    monkeypatch.setattr(polyarith, "_brent_rho", lambda n: rho.append(n) or brent_rho(n))
    r = primeimage._primitive_root(p)
    assert rho == [10007 * 10069]
    assert all(pow(r, (p - 1) // s, p) != 1 for s in primes)
    assert all(any(pow(t, (p - 1) // s, p) == 1 for s in primes) for t in range(2, r))
    # the walk over the squares covers all (p - 1)/2 of them only for a primitive root
    assert compute_image(parse_poly("x^2"), p).count == (p + 1) // 2


def test_mask_build_scratch_is_bounded():
    # the p-byte scratch, the packed mask and the chunk buffers: the peak stays
    # below 1.5 p bytes, so the int64 buffers of a chunk hold under p/2 bytes
    f, p = parse_poly("x^6"), 1000003
    tracemalloc.start()
    try:
        m = compute_image(f, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.count == 1 + (p - 1) // 6
    assert peak < 1.5 * p, peak


def test_reduce_matches_python_mod():
    top = next(q for q in range(primeimage.MAX_MASK_PRIME - 1, 0, -2) if is_probable_prime(q))
    rng = random.Random(15)
    for p in (2, 3, 7, 1009, top):
        edge = [0, p - 1, p, (p - 1) ** 2, (p - 1) ** 2 + p - 1]
        vals = edge + [rng.randrange((p - 1) ** 2 + p) for _ in range(1000)]
        a = np.array(vals, np.int64)
        out = primeimage._reduce(a, p, np.empty_like(a))
        assert out is a and a.tolist() == [v % p for v in vals], p


def _no_scratch(*args, **kwargs):
    raise AssertionError("scratch allocated")


def test_mask_cap_before_scratch(monkeypatch):
    # p >= 2^31 is invalid input whatever the cap; above the cap a p-byte
    # scratch is refused, unless f is constant mod p and needs none
    monkeypatch.setattr(primeimage, "MAX_MASK_PRIME", 100)
    monkeypatch.setattr(np, "zeros", _no_scratch)
    with pytest.raises(InvalidInputError):
        compute_image(parse_poly("x^2"), 1 << 31)
    with pytest.raises(ResourceCapError, match="p=103 walks 51 points with a 103-byte scratch"):
        compute_image(parse_poly("x^2"), 103)
    assert compute_image(parse_poly("103x^2+5"), 103) == primeimage.ImageMask(103, 1 << 5, 1)


def test_mask_work_cap_before_scratch(monkeypatch):
    # the Horner work, (p - 1)/d points times deg g passes, is refused before
    # any buffer; every degree-6 polynomial passes it below MAX_MASK_PRIME
    class Admitted(Exception):
        pass

    def admitted(*args):
        raise Admitted

    monkeypatch.setattr(primeimage, "_mark_image", admitted)
    monkeypatch.setattr(np, "zeros", _no_scratch)
    top = next(q for q in range(primeimage.MAX_MASK_PRIME - 1, 0, -2) if is_probable_prime(q))
    with pytest.raises(Admitted):
        compute_image(parse_poly("2x^6+x^5-x+1"), top)
    with pytest.raises(ResourceCapError, match="p=1000003 runs 2000 Horner passes over 1000002 "):
        compute_image(parse_poly("x^2000+x"), 1000003)


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


def _brute_table(f, p, axes):
    return [brute_joint_count(f, p, hs) for hs in itertools.product(*axes)]


@pytest.mark.parametrize("row_words", [primeimage._ROW_WORDS, 2], ids=["default", "tiny-blocks"])
def test_joint_count_table_matches_oracle(monkeypatch, row_words):
    # k = 2..4, offsets below 0 and at or above p, length-1 axes; with blocks
    # of 2 words (one at p = 101) a row of 5 spans several blocks
    monkeypatch.setattr(primeimage, "_ROW_WORDS", row_words)
    rng = random.Random(53)
    for f in CORPUS + [parse_poly("5x^3+2")]:
        for p in (7, 13, 101):
            mask = image_mask(f, p)
            for _ in range(6):
                axes = [[rng.randrange(-2 * p, 2 * p) for _ in range(rng.choice((1, 2, 5)))]
                        for _ in range(rng.randrange(1, 4))]
                table = joint_count_table(mask, axes)
                assert table.dtype == np.int64 and table.shape == tuple(map(len, axes))
                assert table.ravel().tolist() == _brute_table(f, p, axes), (f, p, axes)


def test_one_row_table_counts_as_ints(monkeypatch):
    # every outer axis of length 1: no rotation is converted to words
    def words(bits, n):
        raise AssertionError("rotation converted to words")

    monkeypatch.setattr(primeimage, "_words", words)
    f = parse_poly("x^3+x")
    mask = image_mask(f, 101)
    for axes in ([[3], [-7], [0, 5, 250]], [[1], [2], [3], [4]], [[2], range(101)]):
        table = joint_count_table(mask, axes)
        assert table.shape == tuple(map(len, axes))
        assert table.ravel().tolist() == _brute_table(f, 101, axes), axes
    assert joint_count(mask, [1, 2, 3]) == brute_joint_count(f, 101, [1, 2, 3])


def test_joint_count_table_empty_prefix_and_no_axes():
    # x^6 mod 7 is {0, 1}: no t has t and t + 3 in it, so the prefixes
    # h_1 = 3 and h_1 = -4 AND to nothing and their sub-tables are 0
    f = parse_poly("x^6")
    mask = image_mask(f, 7)
    axes = [[1, 3, -4], range(7), [0, 2]]
    table = joint_count_table(mask, axes)
    assert not table[1].any() and not table[2].any() and table[0].any()
    assert table.ravel().tolist() == _brute_table(f, 7, axes)
    none = joint_count_table(mask, [])
    assert none.shape == () and none == mask.count == 2
    assert joint_count(mask, []) == 2
    assert joint_count_table(mask, [[]]).shape == (0,)


def test_joint_count_table_at_large_prime():
    p = 100003
    assert is_probable_prime(p)
    for f in (parse_poly("x^3+x"), parse_poly("x^4-2x^2")):
        mask = image_mask(f, p)
        axes = [[1, -5, p + 2], [0, 7], [3, p - 1, 2 * p + 11]]
        table = joint_count_table(mask, axes)
        assert table.ravel().tolist() == [joint_count(mask, hs)
                                          for hs in itertools.product(*axes)]


def test_joint_count_table_holds_only_its_rotations_and_table():
    # the peak is the held rotations of the inner axes, the table, one
    # scratch block of _ROW_WORDS words with its byte counts, and a few p-bit
    # temporaries (the prefix ANDs, the rotation being built and its words).
    # Holding axis 0's 40 rotations as well would add 40 * p/8 bytes.
    p = 100003
    mask = image_mask(parse_poly("x^3+x"), p)
    axes = [range(40), range(30), range(20)]
    held = primeimage.table_work(p, map(len, axes))[1]
    n = math.ceil(p / 64)
    assert held == 8 * n * 50
    scratch = 9 * n * (primeimage._ROW_WORDS // n)
    tracemalloc.start()
    try:
        joint_count_table(mask, axes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < held + 8 * 40 * 30 * 20 + scratch + 16 * (p // 8)


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
    assert anomaly_scan(parse_poly("x"), 101, ObstructionSet(101, ()),
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
        anomaly_scan(f, p, ObstructionSet(p, ()))
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
