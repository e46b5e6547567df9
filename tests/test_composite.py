"""Square-free moduli: factorization, CRT products, enumeration."""

import itertools
import random
import tracemalloc
from fractions import Fraction

import pytest

from polyimage import composite, polyarith
from polyimage.composite import (
    composite_stats,
    enumerate_image,
    is_probable_prime,
    joint_count_composite,
    parse_modulus,
)
from polyimage.errors import InvalidInputError, NotSquareFreeError, ResourceCapError
from polyimage.oracle import brute_image, brute_joint_count
from polyimage.polyarith import parse_poly
from polyimage.primeimage import ImageMask, compute_image, image_mask, joint_count

CORPUS = [parse_poly(t) for t in ("x^2", "x^3", "x^3+x", "x^3-3x", "x^4-2x^2")]


def elements(chunks):
    return [int(t) for chunk in chunks for t in chunk]


def masks_of(f, m):
    """The image mask of f at each prime of the modulus, in its order."""
    return [compute_image(f, p) for p in m.primes]


def image(f, m, **kwargs):
    """enumerate_image over the masks of f modulo m."""
    return enumerate_image(m, masks_of(f, m), **kwargs)


def test_parse_modulus_examples():
    assert parse_modulus(105).primes == (3, 5, 7)
    assert parse_modulus([3, 5, 7]).q == 105
    with pytest.raises(NotSquareFreeError):
        parse_modulus(12)
    with pytest.raises(InvalidInputError):
        parse_modulus(1)
    with pytest.raises(InvalidInputError):
        parse_modulus([3, 4, 7])
    with pytest.raises(NotSquareFreeError):
        parse_modulus([3, 3, 7])


def test_parse_modulus_large_factors():
    p, r = 1000003, 1000033  # both prime, beyond the trial-division window
    assert is_probable_prime(p) and is_probable_prime(r)
    assert parse_modulus(p * r).primes == (p, r)
    with pytest.raises(NotSquareFreeError):
        parse_modulus(p * p)


def test_factor_past_trial_division():
    # Brent rho finds the primes above the trial-division limit, squares too
    assert polyarith._factor(999983 * 1000003) == [999983, 1000003]
    for p in (999983, 10007):
        with pytest.raises(NotSquareFreeError, match="not square-free"):
            parse_modulus(p * p)


def test_miller_rabin_agrees_with_trial_division():
    def slow(n):
        if n < 2:
            return False
        return all(n % d for d in range(2, int(n**0.5) + 1))

    for n in range(2, 3000):
        assert is_probable_prime(n) == slow(n), n


def test_strong_pseudoprimes_past_the_miller_rabin_proof():
    # the least strong pseudoprimes to the bases 2..37 and to 2..41 pass
    # Miller-Rabin; the strong Lucas test refuses them
    for n, p in ((318665857834031151167461, 399165290221),
                 (3317044064679887385961981, 1287836182261)):
        assert n % p == 0 and not is_probable_prime(n), n
    for e in (89, 107, 127, 521):
        assert is_probable_prime(2**e - 1), e
        assert not is_probable_prime(2**e + 1), e


def test_strong_lucas_pseudoprimes():
    # the odd composites below 20000 that pass the strong Lucas test with
    # Selfridge's parameters (OEIS A217255)
    def slow(n):
        return all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(39, 20000, 2)
            if polyarith._strong_lucas(n) != slow(n)] == [5459, 5777, 10877, 16109, 18971]


def test_joint_count_composite_examples():
    f = parse_poly("x^2")
    m = parse_modulus(105)
    masks = masks_of(f, m)
    assert joint_count_composite(masks, [1]) == 4
    assert joint_count_composite(masks, [0]) == 24
    mask7 = compute_image(f, 7)
    assert joint_count_composite([mask7], [1]) == joint_count(mask7, [1])


def test_joint_count_composite_negative_offsets_reduce():
    f = parse_poly("x^2")
    m = parse_modulus(105)
    masks = masks_of(f, m)
    assert joint_count_composite(masks, [-104]) == joint_count_composite(masks, [1])


def test_multiplicativity_matches_oracle():
    rng = random.Random(41)
    m = parse_modulus(105)
    for f in CORPUS:
        masks = masks_of(f, m)
        for h in range(0, 105, 7):
            assert joint_count_composite(masks, [h]) == brute_joint_count(f, 105, [h])
        for _ in range(20):
            hs = [rng.randrange(105), rng.randrange(105)]
            assert joint_count_composite(masks, hs) == brute_joint_count(f, 105, hs)


def test_reduce_examples():
    assert composite_stats(parse_poly("x^3"), parse_modulus(105)).q1_reduced.primes == (7,)
    assert composite_stats(parse_poly("x^2"), parse_modulus(105)).q1_reduced.primes == (3, 5, 7)
    reduced = composite_stats(parse_poly("x"), parse_modulus(105)).q1_reduced
    assert reduced.primes == () and reduced.q == 1


def test_enumerate_image_examples():
    f = parse_poly("x^2")
    assert len(elements(image(f, parse_modulus(105)))) == 24
    assert elements(image(parse_poly("x"), parse_modulus(15))) == list(range(15))


def test_enumerate_eight_prime_modulus():
    m = parse_modulus([3, 5, 7, 11, 13, 17, 19, 23])
    count = sum(len(c) for c in image(parse_poly("x^2"), m))
    expected = 1
    for p in m.primes:
        expected *= (p + 1) // 2
    assert count == expected == 1088640


def test_enumerate_cap():
    # refused at the call, before any chunk is asked for
    with pytest.raises(ResourceCapError, match="q=105 exceeds the 64-residue enumeration cap"):
        image(parse_poly("x^2"), parse_modulus(105), cap_bits=64)


@pytest.mark.parametrize("chunk_candidates", [None, 1, 3])
def test_enumerate_matches_oracle_bit_for_bit(chunk_candidates):
    # chunks of 1 and 3 candidates end at every window phase; A budgets of 1,
    # 2, 30 and the default give Q_A = 1, the splits between and Q_B = 1
    for a_residues in (None, 1, 2, 30):
        with pytest.MonkeyPatch.context() as mp:
            if chunk_candidates is not None:
                mp.setattr(composite, "_CHUNK_CANDIDATES", chunk_candidates)
            if a_residues is not None:
                mp.setattr(composite, "_A_RESIDUES", a_residues)
            for f in CORPUS:
                for qv in (15, 21, 30, 105, 770, 1155):
                    want = brute_image(f, qv)
                    got = elements(image(f, parse_modulus(qv)))
                    assert got == want, (f, qv, a_residues)


def test_enumerate_image_over_hand_built_masks():
    # enumerate_image reads only the masks it is given: seeded random subsets
    # of F_p, the image of no polynomial, give the brute CRT product of the sets
    rng = random.Random(26)
    for primes in ([2, 3, 5, 7, 11], [3, 7, 11, 13], [97, 101], [2, 4999], [9973]):
        m = parse_modulus(primes)
        for _ in range(3):
            sets = {p: set(rng.sample(range(p), rng.randint(1, p))) for p in primes}
            masks = [ImageMask(p, sum(1 << t for t in sets[p]), len(sets[p])) for p in primes]
            want = [t for t in range(m.q) if all(t % p in sets[p] for p in primes)]
            for a_residues, chunk in ((None, None), (1, 3), (30, 7)):
                with pytest.MonkeyPatch.context() as mp:
                    if a_residues is not None:
                        mp.setattr(composite, "_A_RESIDUES", a_residues)
                        mp.setattr(composite, "_CHUNK_CANDIDATES", chunk)
                    assert elements(enumerate_image(m, masks)) == want, (primes, a_residues)


def test_enumerate_empty_mask_yields_nothing():
    # an empty mask, the image of no polynomial, in A or in B, at any budget
    for primes, sets in (([3, 5], [set(), {1}]), ([3, 5], [{0, 2}, set()]),
                         ([2, 3, 5], [{1}, {0, 1}, set()])):
        m = parse_modulus(primes)
        masks = [ImageMask(p, sum(1 << t for t in s), len(s)) for p, s in zip(primes, sets)]
        for a_residues in (None, 1, 3):
            with pytest.MonkeyPatch.context() as mp:
                if a_residues is not None:
                    mp.setattr(composite, "_A_RESIDUES", a_residues)
                assert list(enumerate_image(m, masks)) == [], (primes, a_residues)


def test_enumerate_range_matches_oracle():
    # [lo, hi] starts and ends anywhere in a window, and chunks of 1 or 3
    # candidates end at every window phase
    rng = random.Random(27)
    for f, qv in ((parse_poly("x^2"), 1155), (parse_poly("x^3+x+1"), 3 * 7 * 13),
                  (parse_poly("x^2"), 9973)):
        m = parse_modulus(qv)
        masks = masks_of(f, m)
        want = brute_image(f, qv)
        ranges = [(0, qv - 1), (qv - 1, qv - 1), (0, 0), (qv // 2, qv - 1)]
        ranges += [tuple(sorted(rng.sample(range(qv), 2))) for _ in range(4)]
        for (lo, hi), (a_residues, chunk) in itertools.product(
                ranges, ((None, None), (1, 1), (30, 3), (7, 64))):
            with pytest.MonkeyPatch.context() as mp:
                if a_residues is not None:
                    mp.setattr(composite, "_A_RESIDUES", a_residues)
                    mp.setattr(composite, "_CHUNK_CANDIDATES", chunk)
                got = elements(enumerate_image(m, masks, lo=lo, hi=hi))
            assert got == [t for t in want if lo <= t <= hi], (qv, lo, hi, a_residues)


def test_enumerate_holds_nothing_of_length_q():
    f = parse_poly("x^2")
    m = parse_modulus(9699690)  # 2 * 3 * ... * 19
    masks = masks_of(f, m)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(composite, "_CHUNK_CANDIDATES", 4096)
        tracemalloc.start()
        try:
            count = sum(len(c) for c in enumerate_image(m, masks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert count == composite_stats(f, m).omega_q_size
    assert peak < m.q // 32, peak  # a quarter of the q/8-byte bitmap


def test_enumerate_prime_holds_its_image_packed():
    # Q_A = 1: the table of the image mod q is q bits, not q bytes
    f = parse_poly("x^2")
    m = parse_modulus(1000003)
    masks = masks_of(f, m)
    assert all(mask.bits for mask in masks)  # built here, outside the measured region
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(composite, "_CHUNK_CANDIDATES", 1024)
        tracemalloc.start()
        try:
            count = sum(len(c) for c in enumerate_image(m, masks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert count == (m.q + 1) // 2
    assert peak < m.q // 4, peak  # twice the q/8-byte table


def test_enumerate_scaled_table_holds_it_packed():
    # Q_A = 3 and B = {1000003}: the table in window order reads the mask at
    # 3*k mod p, built a block at a time, never a byte per residue
    f = parse_poly("x^2")
    m = parse_modulus([3, 1000003])
    masks = masks_of(f, m)
    assert all(mask.bits for mask in masks)  # built here, outside the measured region
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(composite, "_CHUNK_CANDIDATES", 1024)
        tracemalloc.start()
        try:
            count = sum(len(c) for c in enumerate_image(m, masks))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert count == composite_stats(f, m).omega_q_size
    assert peak < m.q // 4, peak


def test_enumerate_scaled_table_matches_oracle():
    f = parse_poly("x^3+x+1")
    m = parse_modulus([3, 100003])
    assert elements(image(f, m)) == brute_image(f, m.q)


def test_window_table_byte_cap(monkeypatch):
    # 1009 * 1013 > _A_RESIDUES, so Q_A = 1009 and the table of the image mod
    # Q_B = 1013 takes 127 bytes: past the cap it is refused at the call,
    # before any mask is scaled, and at the cap the image is enumerated
    f, m = parse_poly("x^2"), parse_modulus([1009, 1013])
    masks = masks_of(f, m)
    scaled = []
    scaled_bits = composite._scaled_bits
    monkeypatch.setattr(composite, "_scaled_bits", lambda *a: scaled.append(a) or scaled_bits(*a))
    monkeypatch.setattr(composite, "MAX_WINDOW_TABLE_BYTES", 126)
    with pytest.raises(ResourceCapError, match=r"^q=1022117 enumerates windows of Q_A=1009 "
                       r"residues against a 127-byte table of the image mod Q_B=1013; "
                       r"the cap is 126 bytes$"):
        enumerate_image(m, masks)
    assert not scaled
    monkeypatch.setattr(composite, "MAX_WINDOW_TABLE_BYTES", 127)
    assert len(elements(enumerate_image(m, masks))) == 505 * 507
    assert scaled


def test_packed_image_of_no_primes_is_residue_zero():
    # an empty A has Q_A = 1 and I_A = [0]; an empty B a one-bit table
    for scale in (1, 7):
        assert composite._packed_image([], scale, 1) == b"\x01" + bytes(8)


def test_enumerate_popcount_is_product():
    for f in CORPUS:
        for qv in (15, 105, 1155, 15015):
            m = parse_modulus(qv)
            st = composite_stats(f, m)
            assert len(elements(enumerate_image(m, st.masks))) == st.omega_q_size


def test_s_q_is_product_of_per_prime_spacings():
    for f in CORPUS:
        m = parse_modulus(1155)
        st = composite_stats(f, m)
        assert st.s_q == Fraction(m.q, len(elements(enumerate_image(m, st.masks))))


def test_composite_stats_returns_the_cached_masks():
    f, m = parse_poly("x^3"), parse_modulus(105)
    st = composite_stats(f, m)
    assert all(mask is image_mask(f, p) for mask, p in zip(st.masks, m.primes, strict=True))
    assert [mask.count for mask in st.masks] == [3, 5, 3]


def test_enumeration_refuses_q_past_int64():
    composite.check_enumeration_cap(2**63 - 1, 2**64)
    for cap in (2**63, 10**30):
        with pytest.raises(ResourceCapError, match="int64 gap table"):
            composite.check_enumeration_cap(2**63, cap)


def test_composite_stats_reduction_field():
    st = composite_stats(parse_poly("x^3"), parse_modulus(105))
    assert st.q1_reduced.primes == (7,)
    assert st.s_q == Fraction(7, 3)
