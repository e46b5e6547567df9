"""Spacing series, KS distance, correlation sums."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from polyimage.composite import enumerate_image, parse_modulus
from polyimage.errors import DegenerateInputError, InvalidInputError, ResourceCapError
from polyimage.polyarith import parse_poly
from polyimage.stats import (
    CorrelationWindow,
    adjacent_gap_correlation,
    correlation,
    gap_frequency,
    histogram_normalized,
    ks_exponential,
    ks_statistic_exponential,
    spacing_series,
)


def normalized(s):
    return [int(g) * s.scale for g in s.raw_gaps]


def test_spacing_example_mod_7():
    s = spacing_series(parse_poly("x^2"), parse_modulus(7))
    assert list(s.raw_gaps) == [1, 1, 2, 3]
    assert normalized(s) == [Fraction(4, 7), Fraction(4, 7), Fraction(8, 7), Fraction(12, 7)]
    assert sum(normalized(s)) == 4


def test_spacing_degenerate_refusal():
    with pytest.raises(DegenerateInputError, match="mean spacing 1"):
        spacing_series(parse_poly("x"), parse_modulus(15))


def test_spacing_sums_exact():
    for qv in (105, 1155, 15015):
        m = parse_modulus(qv)
        s = spacing_series(parse_poly("x^2"), m)
        assert int(s.raw_gaps.sum()) == qv
        assert sum(normalized(s)) == s.element_count
        assert len(s.raw_gaps) == s.element_count


def test_spacing_respects_cap():
    with pytest.raises(ResourceCapError):
        spacing_series(parse_poly("x^2"), parse_modulus(105), cap_bits=32)


def test_gap_frequency_examples():
    s = spacing_series(parse_poly("x^2"), parse_modulus(7))
    assert gap_frequency(s, 1) == Fraction(2, 4)
    assert gap_frequency(s, 5) == 0
    total = sum(gap_frequency(s, int(h)) for h in np.unique(s.raw_gaps))
    assert total == 1


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
        e = enumerate_image(f, m)
        bits = e.bit_int()
        q = m.q
        full = (1 << q) - 1
        s_q = Fraction(q, e.count)
        L = 2
        hi = math.floor(L * s_q)
        direct = sum(
            (bits & ((bits >> h) | (bits << (q - h)) & full)).bit_count()
            for h in range(1, hi + 1)
        )
        r = correlation(f, m, CorrelationWindow.box((0, L)))
        assert r.value == Fraction(direct, e.count)


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


def test_correlation_degenerate():
    with pytest.raises(DegenerateInputError):
        correlation(parse_poly("x"), parse_modulus(105), CorrelationWindow.box((0, 1)))


def test_correlation_lattice_cap():
    with pytest.raises(ResourceCapError):
        correlation(parse_poly("x^2"), parse_modulus(105),
                    CorrelationWindow.box((0, 1)), lattice_cap=2)


def test_window_validation():
    with pytest.raises(InvalidInputError):
        CorrelationWindow.box((1, 1))
    with pytest.raises(InvalidInputError):
        CorrelationWindow.box()
    w = CorrelationWindow.box((0, 4), (Fraction(1, 2), 1))
    assert w.dimension == 2
    assert w.volume == Fraction(2)
