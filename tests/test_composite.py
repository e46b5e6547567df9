"""Square-free moduli: factorization, CRT products, enumeration."""

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
from polyimage.primeimage import image_mask

CORPUS = [parse_poly(t) for t in ("x^2", "x^3", "x^3+x", "x^3-3x", "x^4-2x^2")]


def elements(chunks):
    return [int(t) for chunk in chunks for t in chunk]


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


def test_joint_count_composite_examples():
    f = parse_poly("x^2")
    m = parse_modulus(105)
    assert joint_count_composite(f, m, [1]) == 4
    assert joint_count_composite(f, m, [0]) == 24
    m7 = parse_modulus(7)
    from polyimage.primeimage import image_mask, joint_count
    assert joint_count_composite(f, m7, [1]) == joint_count(image_mask(f, 7), [1])


def test_joint_count_composite_negative_offsets_reduce():
    f = parse_poly("x^2")
    m = parse_modulus(105)
    assert joint_count_composite(f, m, [-104]) == joint_count_composite(f, m, [1])


def test_multiplicativity_matches_oracle():
    rng = random.Random(41)
    m = parse_modulus(105)
    for f in CORPUS:
        for h in range(0, 105, 7):
            assert joint_count_composite(f, m, [h]) == brute_joint_count(f, 105, [h])
        for _ in range(20):
            hs = [rng.randrange(105), rng.randrange(105)]
            assert joint_count_composite(f, m, hs) == brute_joint_count(f, 105, hs)


def test_reduce_examples():
    assert composite_stats(parse_poly("x^3"), parse_modulus(105)).q1_reduced.primes == (7,)
    assert composite_stats(parse_poly("x^2"), parse_modulus(105)).q1_reduced.primes == (3, 5, 7)
    reduced = composite_stats(parse_poly("x"), parse_modulus(105)).q1_reduced
    assert reduced.primes == () and reduced.q == 1


def test_enumerate_image_examples():
    f = parse_poly("x^2")
    assert len(elements(enumerate_image(f, parse_modulus(105)))) == 24
    assert elements(enumerate_image(parse_poly("x"), parse_modulus(15))) == list(range(15))


def test_enumerate_eight_prime_modulus():
    m = parse_modulus([3, 5, 7, 11, 13, 17, 19, 23])
    count = sum(len(c) for c in enumerate_image(parse_poly("x^2"), m))
    expected = 1
    for p in m.primes:
        expected *= (p + 1) // 2
    assert count == expected == 1088640


def test_enumerate_cap():
    # refused at the call, before any chunk is asked for
    with pytest.raises(ResourceCapError, match="q=105 exceeds the 64-residue enumeration cap"):
        enumerate_image(parse_poly("x^2"), parse_modulus(105), cap_bits=64)


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
                    got = elements(enumerate_image(f, parse_modulus(qv)))
                    assert got == want, (f, qv, a_residues)


def test_enumerate_holds_nothing_of_length_q():
    f = parse_poly("x^2")
    m = parse_modulus(9699690)  # 2 * 3 * ... * 19
    for p in m.primes:
        image_mask(f, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(composite, "_CHUNK_CANDIDATES", 4096)
        tracemalloc.start()
        try:
            count = sum(len(c) for c in enumerate_image(f, m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert count == composite_stats(f, m).omega_q_size
    assert peak < m.q // 32, peak  # a quarter of the q/8-byte bitmap


def test_enumerate_prime_holds_its_image_packed():
    # Q_A = 1: the table of the image mod q is q bits, not q bytes
    f = parse_poly("x^2")
    m = parse_modulus(1000003)
    image_mask(f, m.q)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(composite, "_CHUNK_CANDIDATES", 1024)
        tracemalloc.start()
        try:
            count = sum(len(c) for c in enumerate_image(f, m))
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
    for p in m.primes:
        image_mask(f, p)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(composite, "_CHUNK_CANDIDATES", 1024)
        tracemalloc.start()
        try:
            count = sum(len(c) for c in enumerate_image(f, m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert count == composite_stats(f, m).omega_q_size
    assert peak < m.q // 4, peak


def test_enumerate_scaled_table_matches_oracle():
    f = parse_poly("x^3+x+1")
    m = parse_modulus([3, 100003])
    assert elements(enumerate_image(f, m)) == brute_image(f, m.q)


def test_packed_image_of_no_primes_is_residue_zero():
    # an empty A has Q_A = 1 and I_A = [0]; an empty B a one-bit table
    for scale in (1, 7):
        assert composite._packed_image([], 1, scale) == b"\x01" + bytes(8)


def test_enumerate_popcount_is_product():
    for f in CORPUS:
        for qv in (15, 105, 1155, 15015):
            m = parse_modulus(qv)
            st = composite_stats(f, m)
            assert len(elements(enumerate_image(f, m))) == st.omega_q_size


def test_s_q_is_product_of_per_prime_spacings():
    for f in CORPUS:
        m = parse_modulus(1155)
        st = composite_stats(f, m)
        assert st.s_q == Fraction(m.q, len(elements(enumerate_image(f, m))))


def test_composite_stats_reduction_field():
    st = composite_stats(parse_poly("x^3"), parse_modulus(105))
    assert st.q1_reduced.primes == (7,)
    assert st.s_q == Fraction(7, 3)
