"""Square-free moduli: factorization, CRT products, enumeration."""

import random
from fractions import Fraction

import numpy as np
import pytest

from polyimage.composite import (
    composite_stats,
    drop_permutation_primes,
    enumerate_image,
    is_probable_prime,
    joint_count_composite,
    parse_modulus,
)
from polyimage.errors import InvalidInputError, NotSquareFreeError, ResourceCapError
from polyimage.oracle import brute_image, brute_joint_count
from polyimage.polyarith import parse_poly

CORPUS = [parse_poly(t) for t in ("x^2", "x^3", "x^3+x", "x^3-3x", "x^4-2x^2")]


def elements(e):
    return [int(t) for chunk in e.element_chunks() for t in chunk]


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
    assert drop_permutation_primes(parse_poly("x^3"), parse_modulus(105)).primes == (7,)
    assert drop_permutation_primes(parse_poly("x^2"), parse_modulus(105)).primes == (3, 5, 7)
    reduced = drop_permutation_primes(parse_poly("x"), parse_modulus(105))
    assert reduced.primes == () and reduced.q == 1


def test_enumerate_image_examples():
    f = parse_poly("x^2")
    e = enumerate_image(f, parse_modulus(105))
    assert e.count == 24
    e = enumerate_image(parse_poly("x"), parse_modulus(15))
    assert e.count == 15 and elements(e) == list(range(15))


def test_enumerate_eight_prime_modulus():
    m = parse_modulus([3, 5, 7, 11, 13, 17, 19, 23])
    e = enumerate_image(parse_poly("x^2"), m)
    expected = 1
    for p in m.primes:
        expected *= (p + 1) // 2
    assert e.count == expected == 1088640


def test_enumerate_cap():
    with pytest.raises(ResourceCapError):
        enumerate_image(parse_poly("x^2"), parse_modulus(105), cap_bits=64)


def test_enumerate_matches_oracle_bit_for_bit():
    for f in CORPUS:
        for qv in (15, 21, 105, 1155):
            m = parse_modulus(qv)
            e = enumerate_image(f, m)
            want = brute_image(f, qv)
            assert elements(e) == want, (f, qv)
            assert e.count == len(want)
            bits = np.unpackbits(e.packed, bitorder="little")  # padding past q too
            assert list(np.flatnonzero(bits)) == want


def test_enumerate_popcount_is_product():
    for f in CORPUS:
        for qv in (15, 105, 1155, 15015):
            m = parse_modulus(qv)
            st = composite_stats(f, m)
            assert enumerate_image(f, m).count == st.omega_q_size


def test_s_q_is_product_of_per_prime_spacings():
    for f in CORPUS:
        m = parse_modulus(1155)
        st = composite_stats(f, m)
        e = enumerate_image(f, m)
        assert st.s_q == Fraction(m.q, e.count)


def test_composite_stats_reduction_field():
    st = composite_stats(parse_poly("x^3"), parse_modulus(105))
    assert st.q1_reduced.primes == (7,)
    assert st.s_q == Fraction(7, 3)


def test_parallel_workers_match_sequential():
    f = parse_poly("x^2")
    m = parse_modulus(1155)
    seq = enumerate_image(f, m, workers=1)
    par = enumerate_image(f, m, workers=2)
    assert seq.count == par.count
    assert bytes(seq.packed) == bytes(par.packed)
