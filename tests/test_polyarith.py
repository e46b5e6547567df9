"""Exact arithmetic: parsing, gcds, resultants, critical-value sets."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyimage.errors import DegenerateInputError, InvalidInputError, WildModulusError
from polyimage.oracle import (
    brute_critical_diffs,
    brute_critical_diffs_integers,
    critical_diffs_check,
)
from polyimage.polyarith import (
    FpPoly,
    IntPoly,
    critical_diffs_infinity,
    critical_diffs_mod,
    critical_value_poly,
    difference_resultant,
    fp_gcd,
    fp_resultant,
    fp_roots,
    int_resultant,
    parse_poly,
    poly_to_text,
    resultant_x,
)

CORPUS = [parse_poly(t) for t in ("x^2", "x^3", "x^3+x", "x^3-3x", "x^4-2x^2")]


def primes_upto(n):
    out = []
    for m in range(2, n + 1):
        if all(m % p for p in out if p * p <= m):
            out.append(m)
    return out


# --- parsing ---------------------------------------------------------------

def test_parse_basic():
    assert parse_poly("x^4-2x^2").coeffs == (0, 0, -2, 0, 1)
    assert parse_poly("x").coeffs == (0, 1)
    assert parse_poly("5").coeffs == (5,)
    assert parse_poly(" x ^ 2 + 3 * x - 7 ").coeffs == (-7, 3, 1)
    assert parse_poly("2x+x").coeffs == (0, 3)
    assert parse_poly("-x^2").coeffs == (0, 0, -1)
    assert parse_poly("x^2-x^2").coeffs == ()


def test_parse_rejects_garbage():
    for bad in ("", "x^", "y+1", "3**x", "x^-2", "++x"):
        with pytest.raises(InvalidInputError):
            parse_poly(bad)


def test_render_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        f = IntPoly.from_coeffs([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))])
        assert parse_poly(poly_to_text(f)) == f


# --- derivative --------------------------------------------------------------

def test_derivative_examples():
    assert parse_poly("x^4-2x^2").derivative() == parse_poly("4x^3-4x")
    assert parse_poly("5").derivative().is_zero
    assert FpPoly.of(7, 0, 0, 1).derivative() == FpPoly.of(7, 0, 2)


def test_derivative_degree_drop_over_z():
    rng = random.Random(5)
    for _ in range(40):
        f = IntPoly.from_coeffs([rng.randrange(-5, 6) for _ in range(rng.randrange(2, 7))])
        if f.degree < 1:
            continue
        d = f.derivative()
        assert d.degree == f.degree - 1


# --- gcd ---------------------------------------------------------------------

def test_fp_gcd_examples():
    # y(y+1)^2 and (y+1)(y+2)^2 over F_7 share exactly y+1
    a = FpPoly.of(7, 0, 1) * FpPoly.of(7, 1, 1) * FpPoly.of(7, 1, 1)
    b = FpPoly.of(7, 1, 1) * FpPoly.of(7, 2, 1) * FpPoly.of(7, 2, 1)
    assert fp_gcd(a, b) == FpPoly.of(7, 1, 1)
    c = FpPoly.of(7, 3, 2, 1)
    assert fp_gcd(c, FpPoly(7, ())) == c.monic()
    assert fp_gcd(FpPoly.of(7, 0, 1), FpPoly.of(7, 3, 1)).degree == 0


def test_fp_gcd_divides_both():
    rng = random.Random(11)
    for _ in range(100):
        p = rng.choice([5, 7, 13])
        a = FpPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(1, 5))))
        b = FpPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(1, 5))))
        a = FpPoly(p, a.coeffs).monic() if not a.is_zero else a
        if a.is_zero or b.is_zero:
            continue
        g = fp_gcd(a, b)
        if g.is_zero:
            continue
        assert (a % g).is_zero and (b % g).is_zero


def test_fp_roots_match_evaluation():
    rng = random.Random(13)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 13, 101])
        g = FpPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(2, 8))))
        if g.is_zero:
            continue
        assert fp_roots(g) == [r for r in range(p) if g.evaluate(r) == 0], (p, g.coeffs)


def test_fp_roots_large_prime():
    p = 2**61 - 1
    want = sorted({0, 1, p - 1, 12345678901234, 2**60 + 7})
    g = FpPoly.of(p, 3)
    for r in want + [1, 0]:  # repeated roots are reported once
        g = g * FpPoly.of(p, -r, 1)
    g = g * FpPoly.of(p, 1, 0, 1)  # no root: -1 is not a square, as p = 3 mod 4
    assert fp_roots(g) == want


def test_fp_gcd_modulus_mismatch():
    with pytest.raises(InvalidInputError):
        fp_gcd(FpPoly.of(7, 1, 1), FpPoly.of(5, 1, 1))


# --- resultants ---------------------------------------------------------------

def _sylvester_det(a: IntPoly, b: IntPoly) -> int:
    """Independent route: Bareiss fraction-free determinant of Sylvester."""
    m, n = a.degree, b.degree
    if m < 0 or n < 0:
        return 0
    if m == 0 and n == 0:
        return 1
    size = m + n
    arow = list(reversed(a.coeffs))
    brow = list(reversed(b.coeffs))
    M = [[0] * size for _ in range(size)]
    for r in range(n):
        M[r][r:r + m + 1] = arow
    for r in range(m):
        M[n + r][r:r + n + 1] = brow
    sign, prev = 1, 1
    for k in range(size - 1):
        if M[k][k] == 0:
            piv = next((i for i in range(k + 1, size) if M[i][k]), None)
            if piv is None:
                return 0
            M[k], M[piv] = M[piv], M[k]
            sign = -sign
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                M[i][j] = (M[i][j] * M[k][k] - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = M[k][k]
    return sign * M[size - 1][size - 1]


def test_int_resultant_matches_sylvester():
    rng = random.Random(17)
    for _ in range(400):
        a = IntPoly.from_coeffs([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))])
        b = IntPoly.from_coeffs([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))])
        if a.is_zero or b.is_zero:
            continue
        assert int_resultant(a, b) == _sylvester_det(a, b), (a.coeffs, b.coeffs)


def test_fp_resultant_matches_reduction():
    rng = random.Random(19)
    for _ in range(300):
        p = rng.choice([5, 7, 13, 101])
        a = IntPoly.from_coeffs([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))] + [1])
        b = IntPoly.from_coeffs([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))] + [1])
        want = int_resultant(a, b) % p
        got = fp_resultant(FpPoly.from_int_poly(a, p), FpPoly.from_int_poly(b, p))
        assert want == got


def test_resultant_zero_iff_common_root():
    rng = random.Random(23)
    for _ in range(300):
        p = rng.choice([5, 7, 13])
        a = FpPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(2, 6))))
        b = FpPoly(p, tuple(rng.randrange(p) for _ in range(rng.randrange(2, 6))))
        if a.is_zero or b.is_zero:
            continue
        assert (fp_resultant(a, b) == 0) == (fp_gcd(a, b).degree > 0)


def test_resultant_x_spec_examples():
    one = IntPoly.of(1)
    f = parse_poly("x^2")
    r = resultant_x(f.derivative(), [-f, one])
    assert r.degree == 1 and r.coeffs[0] == 0  # c*y
    f = parse_poly("x^3")
    r = resultant_x(f.derivative(), [-f, one])
    assert r.degree == 2 and r.coeffs[:2] == (0, 0)  # c*y^2
    f = parse_poly("x^4-2x^2")
    r = resultant_x(f.derivative(), [-f, one]).primitive()
    assert r == parse_poly("x^3+2x^2+x")  # y(y+1)^2 up to the variable name


def test_resultant_x_scalar_dispatch():
    a, b = parse_poly("x^2-1"), parse_poly("x-1")
    assert resultant_x(a, b) == 0
    assert resultant_x(a, parse_poly("x-2")) == 3


def test_resultant_x_rejects_zero():
    with pytest.raises(InvalidInputError):
        resultant_x(IntPoly(()), [parse_poly("x"), IntPoly.of(1)])


# --- critical values -----------------------------------------------------------

def test_critical_value_poly_examples():
    assert critical_value_poly(parse_poly("x^2")).degree == 1
    c = critical_value_poly(parse_poly("x^4-2x^2"))
    assert c == parse_poly("x^3+2x^2+x")
    cp = critical_value_poly(parse_poly("x^4-2x^2"), 7)
    assert cp == FpPoly.of(7, 0, 1, 2, 1)


def test_critical_value_poly_errors():
    with pytest.raises(DegenerateInputError):
        critical_value_poly(parse_poly("x"))
    with pytest.raises(WildModulusError):
        critical_value_poly(parse_poly("x^2"), 2)  # f' = 2x vanishes mod 2


def test_critical_diffs_infinity_examples():
    assert critical_diffs_infinity(parse_poly("x^2")).elements == (0,)
    assert critical_diffs_infinity(parse_poly("x^4-2x^2")).elements == (-1, 0, 1)
    assert critical_diffs_infinity(parse_poly("x^3")).elements == (0,)
    # critical values +-2000 and {0, -10^4}: root bounds in the millions
    assert critical_diffs_infinity(parse_poly("x^3-300x")).elements == (-4000, 0, 4000)
    assert critical_diffs_infinity(parse_poly("x^4-200x^2")).elements == (-10000, 0, 10000)


def test_critical_diffs_mod_examples():
    assert critical_diffs_mod(parse_poly("x^4-2x^2"), 7).elements == (0, 1, 6)
    assert critical_diffs_mod(parse_poly("x^2"), 13).elements == (0,)
    p = 2**61 - 1
    assert critical_diffs_mod(parse_poly("x^4-2x^2"), p).elements == (0, 1, p - 1)
    assert 3 not in critical_diffs_mod(parse_poly("x^4-2x^2"), 7)


def test_difference_resultant_degree_and_roots():
    for f in CORPUS:
        c = critical_value_poly(f)
        r = difference_resultant(c)
        m = c.degree
        assert r.degree == m * m and abs(r.leading) == c.leading ** (2 * m)
        for p in (11, 13):
            cp = critical_value_poly(f, p)
            rp = difference_resultant(cp)
            assert rp.degree == cp.degree ** 2
            assert [h for h in range(p) if rp.evaluate(h) == 0] == brute_critical_diffs(f, p)


def _check_against_oracle(f, p):
    obs = critical_diffs_mod(f, p)
    try:
        want = brute_critical_diffs(f, p)
    except WildModulusError:
        assert obs.approximate, (f, p)
        return
    assert not obs.approximate and list(obs.elements) == want, (f, p)


def test_critical_diffs_mod_matches_oracle_corpus():
    # every prime below 300: the p <= m^2 branch, the root-finding branch and the wild fallback
    for f in CORPUS:
        for p in primes_upto(300):
            _check_against_oracle(f, p)


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.integers(-20, 20), min_size=3, max_size=7),
       p=st.sampled_from(primes_upto(300)))
def test_critical_diffs_mod_matches_oracle_property(coeffs, p):
    f = IntPoly.from_coeffs(coeffs)
    if f.degree >= 2:
        _check_against_oracle(f, p)


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=3, max_size=5))
def test_critical_diffs_infinity_matches_oracle(coeffs):
    f = IntPoly.from_coeffs(coeffs)
    if f.degree < 2:
        return
    c = critical_value_poly(f)
    radius = 2 * (1 + math.ceil(max(abs(x) for x in c.coeffs[:-1]) / c.leading))
    if radius > 400:  # keep the per-shift Q-gcd scan short
        return
    assert list(critical_diffs_infinity(f).elements) == brute_critical_diffs_integers(f, radius), f


@settings(max_examples=25, deadline=None)
@given(points=st.lists(st.integers(-3, 3), min_size=1, max_size=3), const=st.integers(-5, 5))
def test_critical_diffs_infinity_rational_critical_points(points, const):
    # f' = d * prod (x - r) with d = lcm(1..deg f): f is integral, its critical
    # values are the integers f(r), and their differences are the whole set
    d = math.lcm(*range(1, len(points) + 2))
    deriv = IntPoly.of(d)
    for r in points:
        deriv = deriv * IntPoly.of(-r, 1)
    f = IntPoly.from_coeffs([const] + [c // (k + 1) for k, c in enumerate(deriv.coeffs)])
    values = {f.evaluate(r) for r in points}
    got = list(critical_diffs_infinity(f).elements)
    assert got == sorted({a - b for a in values for b in values})
    radius = 2 * max(abs(v) for v in values) + 1
    if radius <= 500:
        assert got == brute_critical_diffs_integers(f, radius)


def test_critical_diffs_mod_wild_case_flagged():
    obs = critical_diffs_mod(parse_poly("x^2"), 2)
    assert obs.approximate


def test_critical_diffs_mod_symmetry_and_zero():
    for f in CORPUS:
        for p in (7, 13, 101):
            obs = critical_diffs_mod(f, p)
            assert 0 in obs
            assert all((p - r) % p in obs for r in obs.elements)


def test_diffs_infinity_reduce_into_mod_p():
    # the integer difference set reduces into every mod-p set (p > deg f)
    for f in CORPUS:
        inf = critical_diffs_infinity(f)
        for p in primes_upto(200):
            if p <= f.degree:
                continue
            obs = critical_diffs_mod(f, p)
            assert all(r % p in obs for r in inf.elements), (f, p)


def test_mod_p_roots_match_rational_critical_values():
    # rational-critical-point scan is a subset of the resultant route, p <= 200
    for f in CORPUS:
        for p in primes_upto(200):
            if p <= f.degree:
                continue
            assert critical_diffs_check(f, p).match, (f, p)


def test_quartic_critical_roots_exactly_rational():
    # all critical points of x^4-2x^2 are rational, so the root sets agree exactly
    f = parse_poly("x^4-2x^2")
    for p in primes_upto(200):
        if p <= 4:
            continue
        cp = critical_value_poly(f, p)
        roots = {y for y in range(p) if cp.evaluate(y) == 0}
        d = f.derivative()
        want = {f.evaluate(x) % p for x in range(p)
                if FpPoly.from_int_poly(d, p).evaluate(x) == 0}
        assert roots == want, p


def test_shift_evaluation_identity():
    rng = random.Random(29)
    for _ in range(60):
        f = IntPoly.from_coeffs([rng.randrange(-8, 9) for _ in range(rng.randrange(1, 6))])
        r = rng.randrange(-5, 6)
        x = rng.randrange(-10, 11)
        assert f.shifted(r).evaluate(x) == f.evaluate(x + r)
