"""Spacing series, KS distance, correlation sums."""

import itertools
import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyimage import composite, primeimage, stats
from polyimage.composite import enumerate_image, joint_count_composite, parse_modulus
from polyimage.errors import DegenerateInputError, InvalidInputError, ResourceCapError
from polyimage.oracle import brute_image, ks_statistic_exponential
from polyimage.polyarith import IntPoly, parse_poly
from polyimage.primeimage import image_mask
from polyimage.stats import (
    CorrelationWindow,
    adjacent_gap_correlation,
    correlation,
    gap_frequency,
    histogram_normalized,
    ks_exponential,
    spacing_series,
)


def normalized(s):
    """The normalized gaps in increasing order, expanded from the table."""
    scale = Fraction(s.element_count, s.modulus.q)
    return [int(g) * scale for g, c in zip(s.gap_values, s.gap_counts) for _ in range(c)]


def test_spacing_example_mod_7():
    s = spacing_series(parse_poly("x^2"), parse_modulus(7))
    # image {0, 1, 2, 4}: gaps 1, 1, 2 and the wrap gap 3
    assert list(s.gap_values) == [1, 2, 3] and list(s.gap_counts) == [2, 1, 1]
    assert s.lag_sum == 1 * 1 + 1 * 2 + 2 * 3 + 3 * 1
    assert normalized(s) == [Fraction(4, 7), Fraction(4, 7), Fraction(8, 7), Fraction(12, 7)]
    assert sum(normalized(s)) == 4


def test_spacing_degenerate_refusal():
    with pytest.raises(DegenerateInputError, match="mean spacing 1"):
        spacing_series(parse_poly("x"), parse_modulus(15))


def test_spacing_cap_refused_before_any_mask(monkeypatch):
    # the cap holds before the degeneracy check builds a mask: x is a
    # permutation everywhere, so a mask would also make this degenerate
    def build(f, p):
        raise AssertionError(f"mask built at p={p}")

    monkeypatch.setattr(primeimage, "compute_image", build)
    for m in (parse_modulus(105), parse_modulus([200000033, 200000039])):
        with pytest.raises(ResourceCapError, match="enumeration cap"):
            spacing_series(parse_poly("x+98765"), m, cap_bits=100)


def test_spacing_sums_exact():
    for qv in (105, 1155, 15015):
        m = parse_modulus(qv)
        s = spacing_series(parse_poly("x^2"), m)
        assert int((s.gap_values * s.gap_counts).sum()) == qv
        assert sum(normalized(s)) == s.element_count
        assert int(s.gap_counts.sum()) == s.element_count


def test_spacing_respects_cap():
    with pytest.raises(ResourceCapError):
        spacing_series(parse_poly("x^2"), parse_modulus(105), cap_bits=32)


def test_gap_frequency_examples():
    s = spacing_series(parse_poly("x^2"), parse_modulus(7))
    assert gap_frequency(s, 1) == Fraction(2, 4)
    assert gap_frequency(s, 5) == 0
    total = sum(gap_frequency(s, int(h)) for h in s.gap_values)
    assert total == 1


SQUARE_FREE = [q for q in range(2, 3001) if all(q % (d * d) for d in range(2, 55))]


@pytest.mark.parametrize("chunk_candidates", [None, 1, 3])
@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=7),
       q=st.sampled_from(SQUARE_FREE))
def test_gap_table_matches_oracle(chunk_candidates, coeffs, q):
    # small chunks make every modulus span many chunks; A budgets of 1, 2, 30
    # and the default give Q_A = 1, the splits between and, for small q, Q_B = 1;
    # small-gap bounds of 1 and 3 send every gap, or all but 1 and 2, to the
    # large-gap path
    f = IntPoly(tuple(coeffs))
    image = brute_image(f, q)
    tables = []
    with pytest.MonkeyPatch.context() as mp:
        if chunk_candidates is not None:
            mp.setattr(composite, "_CHUNK_CANDIDATES", chunk_candidates)
        for a_residues, small_gaps in itertools.product((None, 1, 2, 30), (None, 1, 3)):
            if a_residues is not None:
                mp.setattr(composite, "_A_RESIDUES", a_residues)
            if small_gaps is not None:
                mp.setattr(stats, "_SMALL_GAPS", small_gaps)
            if len(image) < 2 or len(image) == q:
                with pytest.raises(DegenerateInputError):
                    spacing_series(f, parse_modulus(q))
                continue
            s = spacing_series(f, parse_modulus(q))
            tables.append((s.element_count, list(s.gap_values), list(s.gap_counts), s.lag_sum))
    if not tables:
        return
    assert tables == tables[:1] * len(tables)
    n = len(image)
    gaps = [b - a for a, b in zip(image, image[1:])] + [image[0] + q - image[-1]]
    values = sorted(set(gaps))
    assert s.element_count == n
    assert list(s.gap_values) == values
    assert list(s.gap_counts) == [gaps.count(v) for v in values]
    assert s.lag_sum == sum(g * gaps[(i + 1) % n] for i, g in enumerate(gaps))
    for h in range(1, 11):
        assert gap_frequency(s, h) == Fraction(gaps.count(h), n)
    hist = histogram_normalized(s)
    width = 6.0 / 50
    bins = [min(int(float(g) * (n / q) / width), 50) for g in gaps]
    assert list(hist.counts) == [bins.count(i) for i in range(50)]
    assert hist.overflow == bins.count(50) and hist.total == n
    ks = ks_exponential(s)
    assert ks.n == n
    assert ks.statistic == pytest.approx(
        ks_statistic_exponential([Fraction(g * n, q) for g in gaps]), abs=1e-12)
    corr = adjacent_gap_correlation(s)
    den = n * sum(g * g for g in gaps) - q * q
    if den == 0:
        assert corr == 0.0
    else:
        exact = Fraction(n * sum(g * gaps[(i + 1) % n] for i, g in enumerate(gaps)) - q * q, den)
        assert corr == float(exact)
        g = np.array(gaps, np.float64)
        assert corr == pytest.approx(np.corrcoef(g, np.roll(g, -1))[0, 1], abs=1e-12)


def test_gap_table_memory_is_bounded_across_chunks():
    # Q_A = 1 and 8-candidate chunks split x^2 mod 81001 into over 10^4
    # chunks; the gap table must not grow with them (a table per chunk
    # peaked at 4.6 MB here)
    f = parse_poly("x^2")
    m = parse_modulus(81001)
    image_mask(f, m.q)
    chunks = []

    def counted(*args, **kwargs):
        for els in enumerate_image(*args, **kwargs):
            chunks.append(len(els))
            yield els

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(composite, "_CHUNK_CANDIDATES", 8)
        mp.setattr(composite, "_A_RESIDUES", 1)
        mp.setattr(stats, "enumerate_image", counted)
        tracemalloc.start()
        try:
            s = spacing_series(f, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert len(chunks) >= 10**4 and s.element_count == sum(chunks) == (m.q + 1) // 2
    assert peak < 1 << 20, peak


def test_ks_single_point():
    assert ks_statistic_exponential([math.log(2)]) == pytest.approx(0.5)


def test_ks_exponential_quantiles():
    qs = [-math.log(1 - (2 * i - 1) / 4) for i in (1, 2)]
    assert ks_statistic_exponential(qs) == pytest.approx(0.25)


def test_ks_permutation_invariant():
    rng = random.Random(43)
    vals = [rng.expovariate(1.0) for _ in range(200)]
    shuffled = vals[:]
    rng.shuffle(shuffled)
    assert ks_statistic_exponential(vals) == ks_statistic_exponential(shuffled)


def test_ks_series_matches_value_path():
    s = spacing_series(parse_poly("x^2"), parse_modulus(1155))
    ks = ks_exponential(s)
    direct = ks_statistic_exponential([float(v) for v in normalized(s)])
    assert ks.statistic == pytest.approx(direct, abs=1e-12)
    assert ks.n == s.element_count


def test_ks_series_matches_scipy():
    sps = pytest.importorskip("scipy.stats")
    for primes in ([7], [3, 5, 7, 11]):
        s = spacing_series(parse_poly("x^2"), parse_modulus(primes))
        ref = sps.kstest([float(v) for v in normalized(s)], "expon")
        assert ks_exponential(s).statistic == pytest.approx(ref.statistic, abs=1e-12)


def test_adjacent_correlation_small_at_moderate_q():
    s = spacing_series(parse_poly("x^2"), parse_modulus([3, 5, 7, 11, 13, 17]))
    assert abs(adjacent_gap_correlation(s)) < 0.2


def test_histogram_partitions_sample():
    s = spacing_series(parse_poly("x^2"), parse_modulus(15015))
    h = histogram_normalized(s, bins=40)
    assert sum(h.counts) + h.overflow == h.total == s.element_count
    assert all(b > a for a, b in zip(h.edges, h.edges[1:]))


def test_correlation_example_105():
    r = correlation(parse_poly("x^2"), parse_modulus(105), CorrelationWindow.box((0, 1)))
    assert r.value == Fraction(14, 24)
    assert r.volume == 1
    assert r.lattice_points == 4 and r.excluded == 1


def test_correlation_empty_window():
    # a window so small the dilated box holds no admissible lattice point
    r = correlation(parse_poly("x^2"), parse_modulus(105),
                    CorrelationWindow.box((0, Fraction(1, 100))))
    assert r.value == 0 and r.lattice_points == 0


def test_correlation_monotone_in_window():
    f = parse_poly("x^2")
    m = parse_modulus(1155)
    small = correlation(f, m, CorrelationWindow.box((0, 1)))
    large = correlation(f, m, CorrelationWindow.box((0, 3)))
    assert small.value <= large.value


def test_correlation_matches_direct_double_loop():
    # |image| * R_2 equals the direct pair count at distances <= s_q * L
    f = parse_poly("x^2")
    for qv in (1155, 15015):
        m = parse_modulus(qv)
        els = [int(t) for chunk in enumerate_image(f, m) for t in chunk]
        bits = sum(1 << t for t in els)
        q = m.q
        full = (1 << q) - 1
        s_q = Fraction(q, len(els))
        L = 2
        hi = math.floor(L * s_q)
        direct = sum(
            (bits & ((bits >> h) | (bits << (q - h)) & full)).bit_count()
            for h in range(1, hi + 1)
        )
        r = correlation(f, m, CorrelationWindow.box((0, L)))
        assert r.value == Fraction(direct, len(els))


def test_correlation_k3_exclusions():
    f = parse_poly("x^2")
    m = parse_modulus(15015)
    r = correlation(f, m, CorrelationWindow.box((0, 1), (0, 1)))
    s_q = r.s_q
    hi = math.floor(s_q)
    assert r.lattice_points == hi * hi - hi  # diagonal and zero lines dropped
    assert r.k == 3


def test_correlation_k3_matches_oracle_small():
    from polyimage.oracle import brute_joint_count
    f = parse_poly("x^2")
    m = parse_modulus(105)
    r = correlation(f, m, CorrelationWindow.box((0, 1), (0, 1)))
    s_q = Fraction(105, 24)
    total = 0
    for h1 in range(1, math.floor(s_q) + 1):
        for h2 in range(1, math.floor(s_q) + 1):
            if h1 == h2:
                continue
            total += brute_joint_count(f, 105, [h1, h2])
    assert r.value == Fraction(total, 24)


SMALL_PRIMES = [2, 3, 5, 7, 11, 13]
# lattice points times (image size + 20) per example, so the oracle loop stays small
ORACLE_BUDGET = 100_000


@settings(max_examples=40, deadline=None)
@given(coeffs=st.lists(st.integers(-50, 50), min_size=1, max_size=7),
       primes=st.lists(st.sampled_from(SMALL_PRIMES), min_size=1, max_size=6, unique=True),
       k=st.sampled_from([2, 3, 4]), data=st.data())
def test_correlation_matches_oracle(coeffs, primes, k, data):
    f = IntPoly(tuple(coeffs))
    q = math.prod(primes)
    m = parse_modulus(sorted(primes))
    image = brute_image(f, q)
    n = len(image)
    s_q = Fraction(q, n)
    # both endpoints anywhere in [-2, 3]; the upper one is pulled in so that
    # each axis holds at most per_axis + 1 integers
    per_axis = max(1, int((ORACLE_BUDGET / (n + 20)) ** (1 / (k - 1))))
    intervals = []
    for _ in range(k - 1):
        d = data.draw(st.integers(1, 30))
        lo = data.draw(st.integers(-2 * d, 3 * d - 1))
        hi = data.draw(st.integers(lo + 1, 3 * d))
        a, b = Fraction(lo, d), Fraction(hi, d)
        intervals.append((a, min(b, a + per_axis / s_q)))
    window = CorrelationWindow.box(*intervals)
    if n == q:
        with pytest.raises(DegenerateInputError):
            correlation(f, m, window)
        return
    r = correlation(f, m, window)
    in_image = set(image)
    axes = [range(math.ceil(a * s_q), math.floor(b * s_q) + 1) for a, b in intervals]
    direct = points = excluded = 0
    for hs in itertools.product(*axes):
        if 0 in hs or len(set(hs)) < len(hs):
            excluded += 1
            continue
        points += 1
        direct += sum(all((t + h) % q in in_image for h in hs) for t in image)
    assert r.s_q == s_q
    assert r.value * n == direct
    assert (r.lattice_points, r.excluded) == (points, excluded)


def test_correlation_python_int_path():
    # omega_q far above 2^63 at the primes 3..199 forces exact Python-int sums;
    # 105 stays on the int64 side
    f = parse_poly("x^2")
    big = parse_modulus([p for p in range(3, 200) if all(p % d for d in range(2, p))])
    for m, k, half in ((big, 2, 1000), (big, 3, 20), (parse_modulus(105), 3, 30)):
        omega = joint_count_composite(f, m, [])
        s_q = Fraction(m.q, omega)
        if m is big:
            assert omega > 2**63
        window = CorrelationWindow.box(*[(-half / s_q, half / s_q)] * (k - 1))
        r = correlation(f, m, window)
        box = itertools.product(range(-half, half + 1), repeat=k - 1)
        admissible = [hs for hs in box if 0 not in hs and len(set(hs)) == len(hs)]
        assert r.lattice_points == len(admissible)
        assert r.value * omega == sum(joint_count_composite(f, m, hs) for hs in admissible)


def test_correlation_memory_follows_the_box_not_the_prime():
    # x^2 mod 1000003 (s_q just below 2) over boxes of 4 and 4 x 4 points:
    # past the cached mask, a correlation holds box-sized arrays and a few
    # rows of p bits (1.4 MB at the 4 x 4 box, below 16 such rows); an index
    # array of p int64 entries per axis would add 8 MB
    f, m = parse_poly("x^2"), parse_modulus(1000003)
    image_mask(f, m.q)
    for window, points in ((CorrelationWindow.box((0, 2)), 3),
                           (CorrelationWindow.box((0, 2), (0, 2)), 6)):
        tracemalloc.start()
        try:
            r = correlation(f, m, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert r.lattice_points == points
        assert peak < 2 * m.q, peak


@pytest.mark.parametrize("cap", ["MAX_TABLE_WORDS", "MAX_TABLE_ROTATION_BYTES"])
def test_correlation_table_work_refused_before_any_rotation(monkeypatch, cap):
    # x^2 mod 3*5*7*1009 (s_q = 105945/12120), R_3 over (0,1]^2: 9 residues
    # per axis, so the table at 1009 holds 9 rotations of 16 words and ANDs
    # 81 entries plus 18 rotations
    f, m = parse_poly("x^2"), parse_modulus([3, 5, 7, 1009])
    window = CorrelationWindow.box((0, 1), (0, 1))
    words = (3 * 3 + 6) + (5 * 5 + 10) + (7 * 7 + 14) + (9 * 9 + 18) * 16
    held = 9 * 16 * 8
    estimate, limit = (words, words - 1) if cap == "MAX_TABLE_WORDS" else (held, held - 1)
    rotations = []
    rotated = primeimage.ImageMask.rotated
    monkeypatch.setattr(primeimage.ImageMask, "rotated",
                        lambda mask, h: rotations.append(h) or rotated(mask, h))
    monkeypatch.setattr(stats, cap, limit)
    with pytest.raises(ResourceCapError, match=rf"about {estimate} .* the cap is {limit}$"):
        correlation(f, m, window)
    assert rotations == []
    monkeypatch.setattr(stats, cap, limit + 1)
    assert correlation(f, m, window).lattice_points == 9 * 9 - 25 and rotations


def test_correlation_degenerate():
    with pytest.raises(DegenerateInputError):
        correlation(parse_poly("x"), parse_modulus(105), CorrelationWindow.box((0, 1)))


def test_correlation_lattice_cap(monkeypatch):
    monkeypatch.setattr(stats, "MAX_LATTICE_POINTS", 2)
    with pytest.raises(ResourceCapError):
        correlation(parse_poly("x^2"), parse_modulus(105), CorrelationWindow.box((0, 1)))


def test_window_validation():
    with pytest.raises(InvalidInputError):
        CorrelationWindow.box((1, 1))
    with pytest.raises(InvalidInputError):
        CorrelationWindow.box()
    w = CorrelationWindow.box((0, 4), (Fraction(1, 2), 1))
    assert w.dimension == 2
    assert w.volume == Fraction(2)
