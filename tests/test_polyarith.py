"""Exact arithmetic: parsing, gcds, resultants, critical-value sets."""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyimage import polyarith
from polyimage.errors import (
    DegenerateInputError,
    InvalidInputError,
    ResourceCapError,
    WildModulusError,
)
from polyimage.oracle import brute_critical_diffs, brute_critical_diffs_integers
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
)

CORPUS = [parse_poly(t) for t in ("x^2", "x^3", "x^3+x", "x^3-3x", "x^4-2x^2")]


def value(f: IntPoly, x: int) -> int:
    """f(x) over Z, term by term."""
    return sum(c * x**i for i, c in enumerate(f.coeffs))


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


def test_parse_refuses_degree_past_cap():
    cap = polyarith.MAX_DEGREE
    assert parse_poly(f"x^{cap}+1").degree == cap
    # refused before the dense coefficient list is built
    assert parse_poly("x^0000000000000000000002").degree == 2
    for text in (f"x^{cap + 1}", "x^100000000000+x", "x^" + "9" * 5000):
        with pytest.raises(ResourceCapError, match=f"exceeds the cap {cap}"):
            parse_poly(text)


def test_render_roundtrip():
    rng = random.Random(3)
    for _ in range(50):
        f = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(1, 6))))
        assert parse_poly(poly_to_text(f)) == f


# --- derivative --------------------------------------------------------------

def test_derivative_examples():
    assert parse_poly("x^4-2x^2").derivative() == parse_poly("4x^3-4x")
    assert parse_poly("5").derivative().is_zero
    assert FpPoly(7, (0, 0, 1)).derivative() == FpPoly(7, (0, 2))


def test_derivative_degree_drop_over_z():
    rng = random.Random(5)
    for _ in range(40):
        f = IntPoly(tuple(rng.randrange(-5, 6) for _ in range(rng.randrange(2, 7))))
        if f.degree < 1:
            continue
        d = f.derivative()
        assert d.degree == f.degree - 1


# --- gcd ---------------------------------------------------------------------

def test_fp_gcd_examples():
    # y(y+1)^2 and (y+1)(y+2)^2 over F_7 share exactly y+1
    a = FpPoly(7, (0, 1)) * FpPoly(7, (1, 1)) * FpPoly(7, (1, 1))
    b = FpPoly(7, (1, 1)) * FpPoly(7, (2, 1)) * FpPoly(7, (2, 1))
    assert fp_gcd(a, b) == FpPoly(7, (1, 1))
    c = FpPoly(7, (3, 2, 1))
    assert fp_gcd(c, FpPoly(7, ())) == c.monic()
    assert fp_gcd(FpPoly(7, (0, 1)), FpPoly(7, (3, 1))).degree == 0


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
    g = FpPoly(p, (3,))
    for r in want + [1, 0]:  # repeated roots are reported once
        g = g * FpPoly(p, (-r, 1))
    g = g * FpPoly(p, (1, 0, 1))  # no root: -1 is not a square, as p = 3 mod 4
    assert fp_roots(g) == want


def test_fp_gcd_modulus_mismatch():
    with pytest.raises(InvalidInputError):
        fp_gcd(FpPoly(7, (1, 1)), FpPoly(5, (1, 1)))


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
        a = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))))
        b = IntPoly(tuple(rng.randrange(-9, 10) for _ in range(rng.randrange(1, 7))))
        if a.is_zero or b.is_zero:
            continue
        assert int_resultant(a, b) == _sylvester_det(a, b), (a.coeffs, b.coeffs)


_BIG = 10**40


def _big_poly(low, lead):
    # a nonzero leading coefficient of 40 digits keeps each bound above 2^250,
    # so every resultant below is combined from at least four 62-bit primes
    return IntPoly(tuple(low + [lead]))


_big_lead = st.integers(_BIG // 10, _BIG).flatmap(lambda c: st.sampled_from([c, -c]))


@settings(max_examples=40, deadline=None)
@given(a_low=st.lists(st.integers(-_BIG, _BIG), min_size=1, max_size=5), a_lead=_big_lead,
       b_low=st.lists(st.integers(-_BIG, _BIG), min_size=1, max_size=5), b_lead=_big_lead)
def test_int_resultant_multi_prime_matches_sylvester(a_low, a_lead, b_low, b_lead):
    a, b = _big_poly(a_low, a_lead), _big_poly(b_low, b_lead)
    assert int_resultant(a, b) == _sylvester_det(a, b)


@settings(max_examples=25, deadline=None)
@given(low=st.lists(st.integers(-_BIG, _BIG), min_size=2, max_size=5), lead=_big_lead)
def test_critical_value_poly_multi_prime_matches_sylvester(low, lead):
    # Res_x(f'(x), y - f(x)) has degree < deg f in y, so deg f nodes fix it;
    # C is that resultant divided by its content, sign making lc(C) > 0
    f = _big_poly(low, lead)
    c = critical_value_poly(f)
    assert c.content() == 1 and c.leading > 0
    nodes = range(-1, f.degree - 1)
    # y0 - f(x), coefficient by coefficient
    dets = [_sylvester_det(f.derivative(), IntPoly((y0 - f.coeffs[0], *(-a for a in f.coeffs[1:]))))
            for y0 in nodes]
    values = [value(c, y0) for y0 in nodes]
    i = next(i for i, v in enumerate(values) if v)
    k, rest = divmod(dets[i], values[i])
    assert rest == 0 and all(d == k * v for d, v in zip(dets, values))


def test_fp_resultant_matches_reduction():
    rng = random.Random(19)
    for _ in range(300):
        p = rng.choice([5, 7, 13, 101])
        a = IntPoly(tuple([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))] + [1]))
        b = IntPoly(tuple([rng.randrange(-9, 10) for _ in range(rng.randrange(1, 5))] + [1]))
        want = int_resultant(a, b) % p
        got = fp_resultant(FpPoly(p, a.coeffs), FpPoly(p, b.coeffs))
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


def test_critical_value_poly_spec_examples():
    r = critical_value_poly(parse_poly("x^2"))
    assert r.degree == 1 and r.coeffs[0] == 0  # c*y
    r = critical_value_poly(parse_poly("x^3"))
    assert r.degree == 2 and r.coeffs[:2] == (0, 0)  # c*y^2
    r = critical_value_poly(parse_poly("x^4-2x^2"))
    assert r == parse_poly("x^3+2x^2+x")  # y(y+1)^2 up to the variable name


def test_int_resultant_examples():
    a = parse_poly("x^2-1")
    assert int_resultant(a, parse_poly("x-1")) == 0  # the shared root 1
    assert int_resultant(a, parse_poly("x-2")) == 3  # (1 - 2) * (-1 - 2)


def _interp_basis_by_basis(p, points):
    # Lagrange with every basis polynomial built from scratch, O(n^3)
    out = [0] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis, denom = [1], 1
        for j, (xj, _) in enumerate(points):
            if j != i:
                basis = [(up - b * xj) % p for up, b in zip([0] + basis, basis + [0])]
                denom = denom * (xi - xj) % p
        w = yi * pow(denom, -1, p)
        out = [(o + w * b) % p for o, b in zip(out, basis)]
    return FpPoly(p, tuple(out))


def test_interp_fp_matches_basis_by_basis_reference():
    rng = random.Random(37)
    for _ in range(300):
        p = rng.choice([2, 3, 7, 101, 50021, 2**61 - 1])
        n = rng.randrange(min(p, 10) + 1)
        points = [(x, rng.randrange(p)) for x in rng.sample(range(p), n)]
        assert polyarith._interp_fp(p, points) == _interp_basis_by_basis(p, points), points


def test_interp_fp_takes_the_values_at_600_nodes():
    rng = random.Random(41)
    p = 50021
    points = [(x, rng.randrange(p)) for x in rng.sample(range(p), 600)]
    g = polyarith._interp_fp(p, points)
    assert g.degree < 600 and all(g.evaluate(x) == y for x, y in points)


# --- critical values -----------------------------------------------------------

def test_critical_value_poly_examples():
    assert critical_value_poly(parse_poly("x^2")).degree == 1
    c = critical_value_poly(parse_poly("x^4-2x^2"))
    assert c == parse_poly("x^3+2x^2+x")
    cp = critical_value_poly(parse_poly("x^4-2x^2"), 7)
    assert cp == FpPoly(7, (0, 1, 2, 1))


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


def test_proth_prime_has_its_form_and_no_smaller_k_at_its_n():
    # Miller-Rabin is deterministic at these sizes, an independent check
    for lo in range(0, 5000, 7):
        p = polyarith._proth_prime(lo, 1)
        k, n = p - 1, 0
        while k % 2 == 0:
            k, n = k // 2, n + 1
        assert p > lo and k < 2**n and polyarith.is_probable_prime(p), lo
        below = [(j << n) + 1 for j in range(k - 2, 0, -2) if (j << n) + 1 > lo]
        assert not any(polyarith.is_probable_prime(c) for c in below), lo
    assert polyarith._proth_prime(4, 5) == 13  # 5 = 1 * 2^2 + 1 divides `avoid`


def test_proth_prime_skips_square_candidates():
    # lo = 2^256 starts at k = 2^127 + 1, n = 129, where P = (2^128 + 1)^2 is
    # a square: every a coprime to it is a quadratic residue.  f = x^2 + c,
    # c = 2^254 - 1, has C = y - c and the same lo.  A subprocess, so that a
    # search for a non-residue fails by timeout
    code = ("from polyimage.polyarith import IntPoly, _proth_prime, critical_diffs_infinity;"
            "print(_proth_prime(2**256, 1) > 2**256,"
            " critical_diffs_infinity(IntPoly((2**254 - 1, 0, 1))).elements)")
    src = str(Path(polyarith.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, env=env,
                          text=True, timeout=30)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "(0,)"]


def test_critical_diffs_infinity_prime_has_proth_certificate():
    # coefficients near 10^21 and critical values 10^21 -+ 2t^3, so the set is
    # {0, +-4t^3} and P exceeds 2^64, where fixed-base Miller-Rabin is no proof
    t = 3 * 10**10
    f = IntPoly((10**21, -3 * t * t, 0, 1))
    chosen = []
    pick = polyarith._proth_prime

    def recorded(lo, avoid):
        chosen.append(pick(lo, avoid))
        return chosen[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(polyarith, "_proth_prime", recorded)
        assert critical_diffs_infinity(f).elements == (-4 * t**3, 0, 4 * t**3)
    (p,) = chosen
    assert p > 8 * t**3 > 2**64 and critical_value_poly(f).leading % p
    k, n = p - 1, 0
    while k % 2 == 0:
        k, n = k // 2, n + 1
    assert k < 2**n
    # Proth's theorem: one a with a^((p-1)/2) = -1 mod p proves p prime
    assert any(pow(a, (p - 1) // 2, p) == p - 1 for a in range(2, 100))


def test_critical_diffs_mod_examples():
    assert critical_diffs_mod(parse_poly("x^4-2x^2"), 7).elements == (0, 1, 6)
    assert critical_diffs_mod(parse_poly("x^2"), 13).elements == (0,)
    p = 2**61 - 1
    assert critical_diffs_mod(parse_poly("x^4-2x^2"), p).elements == (0, 1, p - 1)
    assert 3 not in critical_diffs_mod(parse_poly("x^4-2x^2"), 7)


def test_difference_resultant_degree_and_roots():
    for f in CORPUS:
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
    f = IntPoly(tuple(coeffs))
    if f.degree >= 2:
        _check_against_oracle(f, p)


@settings(max_examples=30, deadline=None)
@given(coeffs=st.lists(st.integers(-3, 3), min_size=3, max_size=5))
def test_critical_diffs_infinity_matches_oracle(coeffs):
    f = IntPoly(tuple(coeffs))
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
    deriv = [d]
    for r in points:  # times x - r
        deriv = [b - r * a for a, b in zip(deriv + [0], [0] + deriv)]
    f = IntPoly(tuple([const] + [c // (k + 1) for k, c in enumerate(deriv)]))
    values = {value(f, r) for r in points}
    got = list(critical_diffs_infinity(f).elements)
    assert got == sorted({a - b for a in values for b in values})
    radius = 2 * max(abs(v) for v in values) + 1
    if radius <= 500:
        assert got == brute_critical_diffs_integers(f, radius)


def test_obstruction_sets_refused_past_degree_cap(monkeypatch):
    cap = polyarith.MAX_CRITICAL_DEGREE
    built = []
    monkeypatch.setattr(polyarith, "difference_resultant", built.append)
    monkeypatch.setattr(polyarith, "collision_shifts", built.append)
    monkeypatch.setattr(polyarith, "fp_resultant", lambda a, b: built.append((a, b)))
    start = time.perf_counter()
    # deg C is read from f, so x^320 + x is refused without building its C;
    # 101 <= (cap + 1)^2 would take the per-shift branch, 50021 the resultant one
    for f, m, primes in ((parse_poly(f"x^{cap + 2}+x"), cap + 1, (50021, 101)),
                         (parse_poly("x^320+x"), 319, (50021,))):
        for run in (lambda: critical_diffs_infinity(f),
                    *(lambda p=p: critical_diffs_mod(f, p) for p in primes)):
            with pytest.raises(ResourceCapError, match=rf"degree-{m} .* deg C <= {cap}$"):
                run()
    # p <= deg f' mod p is the wild regime, scanned rather than refused
    assert critical_diffs_mod(parse_poly(f"x^{cap + 2}+x"), 13).approximate
    assert not built and time.perf_counter() - start < 2
    monkeypatch.undo()
    assert critical_diffs_infinity(parse_poly(f"x^{cap + 1}+x")).elements == (0,)


def test_obstruction_work_estimate():
    # m^4 * b * (256 + d^2), d the 30-bit digits of a b-bit prime
    check = polyarith._check_obstruction_work
    assert polyarith.MAX_OBSTRUCTION_WORK == 2**32
    for m, bits in ((20, 61), (20, 89), (10, 521), (1, 4000)):
        check(m, bits)
    for m, bits, work in ((20, 127, 20**4 * 127 * (256 + 25)),
                          (10, 1279, 10**4 * 1279 * (256 + 43**2))):
        with pytest.raises(ResourceCapError, match=rf"degree-{m} .* {bits}-bit prime needs about "
                                                   rf"{work} digit operations"):
            check(m, bits)


def test_obstruction_sets_refused_past_work_cap(monkeypatch):
    # C of x^21 + 10^30 x^2 + x has 2176-bit coefficients, so the integer set
    # would need a Proth prime of about 2090 bits; x^21+3x^7-5x^2+x mod
    # 2^127 - 1 took 13.9 s.  Both are refused before P or any difference
    # resultant is sought.
    called = []
    monkeypatch.setattr(polyarith, "difference_resultant", called.append)
    monkeypatch.setattr(polyarith, "collision_shifts", called.append)
    monkeypatch.setattr(polyarith, "_proth_prime", lambda lo, avoid: called.append(lo))
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match=r"degree-20 .* 2087-bit prime .* the cap is 4294967296$"):
        critical_diffs_infinity(parse_poly("x^21+1000000000000000000000000000000x^2+x"))
    with pytest.raises(ResourceCapError, match=r"degree-20 .* 127-bit prime"):
        critical_diffs_mod(parse_poly("x^21+3x^7-5x^2+x"), 2**127 - 1)
    assert not called and time.perf_counter() - start < 5


def test_wild_scan_refused_past_work_cap():
    # p <= deg f' mod p: the scan would take p (deg f + 1) evaluation steps
    # and up to p^2 differences, minutes at p = 50021; refused before it runs
    start = time.perf_counter()
    with pytest.raises(ResourceCapError, match="scan of f mod 50021 needs about 5004300924 "):
        critical_diffs_mod(parse_poly("x^50022+x"), 50021)
    assert time.perf_counter() - start < 1


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


def test_quartic_critical_roots_exactly_rational():
    # all critical points of x^4-2x^2 are rational, so the root sets agree exactly
    f = parse_poly("x^4-2x^2")
    for p in primes_upto(200):
        if p <= 4:
            continue
        cp = critical_value_poly(f, p)
        roots = {y for y in range(p) if cp.evaluate(y) == 0}
        d = f.derivative()
        want = {FpPoly(p, f.coeffs).evaluate(x) for x in range(p)
                if FpPoly(p, d.coeffs).evaluate(x) == 0}
        assert roots == want, p


def test_shift_evaluation_identity():
    rng = random.Random(29)
    for _ in range(60):
        f = IntPoly(tuple(rng.randrange(-8, 9) for _ in range(rng.randrange(1, 6))))
        r = rng.randrange(-5, 6)
        x = rng.randrange(-10, 11)
        assert value(f.shifted(r), x) == value(f, x + r)
