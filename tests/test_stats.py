"""Spacing series, KS distance, correlation sums."""

import itertools
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polyimage import composite, primeimage, stats
from polyimage.composite import (composite_stats, enumerate_image, joint_count_composite,
                                 parse_modulus)
from polyimage.errors import DegenerateInputError, InvalidInputError, ResourceCapError
from polyimage.oracle import brute_image, ks_statistic_exponential
from polyimage.polyarith import IntPoly, parse_poly
from polyimage.primeimage import ImageMask, image_mask
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
    primeimage.image_mask.cache_clear()
    for f, m in ((parse_poly("x+98765"), parse_modulus(105)),
                 (parse_poly("x+98765"), parse_modulus([200000033, 200000039])),
                 # q = 210 is over the cap though q1 = 7 is not: the cap bounds q
                 (parse_poly("x^3"), parse_modulus([2, 3, 5, 7]))):
        with pytest.raises(ResourceCapError, match="enumeration cap"):
            spacing_series(f, m, cap_bits=100)


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
    for bins in (50, 60):
        # gap g's bin is floor(g * n / q / (6 / bins)), exactly; the last is the overflow
        index = [min(math.floor(Fraction(g * n * bins, q * 6)), bins) for g in gaps]
        rows = histogram_normalized(s, bins)
        assert [r["count"] for r in rows] == [index.count(i) for i in range(bins + 1)]
    assert sum(s.gap_counts) == n
    assert ks_exponential(s) == pytest.approx(
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


Q1_READS = [
    ("x^2", 2 * 3 * 5 * 7, None),
    ("x^2", 2 * 3 * 5 * 7 * 11 * 13, None),
    ("x^3", 2 * 3 * 5 * 7 * 11 * 13, 0),  # 2, 3, 5 and 11 are permutation primes
    ("x^3+x", 3 * 7 * 11 * 13, 0),
    ("3x+1", 3 * 5 * 7, 2),  # one element mod q1 = 3
    ("6x", 2 * 3 * 5 * 7 * 11, 0),
]


@pytest.mark.parametrize("poly, q, centre", Q1_READS, ids=[f"{f}-{q}" for f, q, _ in Q1_READS])
def test_gap_table_reads_the_image_mod_q1(poly, q, centre):
    # the table read from the image mod q1, or from its arc [r/2, (r + q1)/2]
    # when it is r minus itself, equals the one from every residue of q
    f, m = parse_poly(poly), parse_modulus(q)
    els = [int(t) for chunk in enumerate_image(m, composite_stats(f, m).masks) for t in chunk]
    n = len(els)
    gaps = [b - a for a, b in zip(els, els[1:])] + [els[0] + q - els[-1]]
    calls = []

    def spy(modulus, masks, **kwargs):
        calls.append([modulus, [mask.p for mask in masks], kwargs["lo"], kwargs["hi"], 0])
        for chunk in enumerate_image(modulus, masks, **kwargs):
            calls[-1][-1] += len(chunk)
            yield chunk

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(stats, "enumerate_image", spy)
        s = spacing_series(f, m)
    q1 = composite_stats(f, m).q1_reduced
    image = sorted({t % q1.q for t in els})
    assert len(image) == n * q1.q // q
    if centre is None:
        lo, hi = 0, q1.q - 1
    else:
        assert sorted((centre - t) % q1.q for t in image) == image
        lo, hi = -(-centre // 2), (centre + q1.q) // 2
    arc = [t for t in image if lo <= t <= hi]
    assert q1.q < q and calls == [[q1, list(q1.primes), lo, hi, len(arc)]]
    assert s.modulus == m and s.element_count == n
    assert list(s.gap_values) == sorted(set(gaps))
    assert list(s.gap_counts) == [gaps.count(v) for v in sorted(set(gaps))]
    assert s.lag_sum == sum(g * gaps[(i + 1) % n] for i, g in enumerate(gaps))


def test_one_image_element_mod_q1_needs_a_copy():
    # f constant mod every prime of q1: the cycle mod q1 is one gap of q1
    s = spacing_series(parse_poly("3x"), parse_modulus(15))
    assert (s.element_count, list(s.gap_values), list(s.gap_counts), s.lag_sum) == (5, [3], [5], 45)
    for poly, q in (("3x", 3), ("15", 15)):
        with pytest.raises(DegenerateInputError, match="fewer than two"):
            spacing_series(parse_poly(poly), parse_modulus(q))


def test_gap_table_memory_is_bounded_across_chunks():
    # Q_A = 1 and 8-candidate chunks split x^2 mod p into over 10^4 chunks:
    # all of 81019 = 3 mod 4, and the arc [0, p/2] of 162017 = 1 mod 4, where
    # the image is minus itself; the gap table must not grow with them (a
    # table per chunk peaked at 4.6 MB at 81001)
    f = parse_poly("x^2")
    for p, read in ((81019, (81019 + 1) // 2), (162017, (162017 + 3) // 4)):
        m = parse_modulus(p)
        built = composite_stats(f, m)
        assert all(mask.bits for mask in built.masks)  # built here, outside the measured region
        chunks = []

        def counted(*args, **kwargs):
            for els in enumerate_image(*args, **kwargs):
                chunks.append(len(els))
                yield els

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(composite, "_CHUNK_CANDIDATES", 8)
            mp.setattr(composite, "_A_RESIDUES", 1)
            mp.setattr(stats, "enumerate_image", counted)
            mp.setattr(stats, "composite_stats", lambda f, modulus: built)
            tracemalloc.start()
            try:
                s = spacing_series(f, m)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert len(chunks) >= 10**4 and sum(chunks) == read
        assert s.element_count == (m.q + 1) // 2
        assert peak < 1 << 20, peak


def oracle_table(image, q):
    """Element count, sorted gap values, their counts and the lag-1 sum of
    the cycle of gaps of a sorted image modulo q."""
    n = len(image)
    gaps = [b - a for a, b in zip(image, image[1:])] + [image[0] + q - image[-1]]
    counts = Counter(gaps)
    values = sorted(counts)
    return n, values, [counts[v] for v in values], sum(g * gaps[i - 1] for i, g in enumerate(gaps))


def table(s):
    return s.element_count, list(s.gap_values), list(s.gap_counts), s.lag_sum


def q1_masks(f, m):
    return [mask for mask in composite_stats(f, m).masks if mask.count < mask.p]


# (chunk candidates, A budget): the default, one window of Q_A = 1 per chunk
# of 8, and Q_A at most 30 in chunks of 3 candidates
SMALL_CHUNKS = ((None, None), (1, 1), (3, 30))


def chunked_tables(f, m):
    tables = []
    for chunk, a_residues in SMALL_CHUNKS:
        with pytest.MonkeyPatch.context() as mp:
            if chunk is not None:
                mp.setattr(composite, "_CHUNK_CANDIDATES", chunk)
                mp.setattr(composite, "_A_RESIDUES", a_residues)
            tables.append(table(spacing_series(f, m)))
    return tables


@pytest.mark.parametrize("poly, primes, centre, self_mirrored", [
    ("x^3", [7, 13], 0, "first"),  # first = 0 = r/2
    ("x^2", [3, 5, 13], 130, ""),  # the one t = r - t, 65, is not in the image mod 3
    ("x^2+x", [2, 5, 13], 32, "first"),  # even q1: t = r - t at 16 and 81, 16 in the image
    ("x^2+x", [2, 5, 17], 42, "last"),  # 21 and 106, 106 in the image
    ("x^3+x+23", [2, 3, 7], 4, "last"),  # 3 is a permutation prime: q1 = 14
    ("x^3-3x", [5, 7, 11, 13], 0, "first"),
    ("x^3+x-1", [7, 11, 13], 999, "last"),  # r = q1 - 2: the arc ends at q1 - 1
    ("x^2", [3], 1, ""),  # {0, 1}: one element in the arc [1, 2], two seams
    ("10x^2", [3, 5], 10, ""),  # {0, 10}: the one element 10 in [5, 12], seams 10 and 5
    ("3x+1", [3, 5, 7], 2, "first"),  # one element mod q1 = 3, its own mirror image
    ("6x", [2, 3, 5, 7, 11], 0, "first"),  # one element mod q1 = 6
])
def test_mirror_arc_matches_oracle(poly, primes, centre, self_mirrored):
    # the arc [r/2, (r + q1)/2] and its seams give the gap table of every
    # residue, whichever seam is an element that is its own mirror image
    f, m = parse_poly(poly), parse_modulus(primes)
    q1 = composite_stats(f, m).q1_reduced.q
    image = brute_image(f, q1)
    assert stats._mirror_centre(q1_masks(f, m)) == centre
    assert sorted((centre - t) % q1 for t in image) == image
    arc = [t for t in image if centre <= 2 * t <= centre + q1]
    seams = {"first": 2 * arc[0] == centre, "last": 2 * arc[-1] == centre + q1}
    assert [k for k, v in seams.items() if v] == ([self_mirrored] if self_mirrored else [])
    want = oracle_table(brute_image(f, m.q), m.q)
    assert chunked_tables(f, m) == [want] * len(SMALL_CHUNKS)


def test_sparse_mirrored_image_is_exact_past_int64_products():
    # x^65536 takes {0, 1} mod 65537, and 0 with the twelve 12th roots of 1
    # mod 786433: 26 elements mod q and 52 mod 2q (2 is a permutation prime),
    # centre 46854891707.  Its gaps reach 9261033471, so neighbouring
    # products pass 2^63, and gaps of 2^16 and more lie on the arc
    f, p1, p2 = parse_poly("x^65536"), 65537, 786433
    w = next(w for w in (pow(a, 65536, p2) for a in range(2, p2))
             if pow(w, 4, p2) != 1 and pow(w, 6, p2) != 1)  # of order 12
    residues = {2: [0, 1], p1: [0, 1], p2: [0] + [pow(w, k, p2) for k in range(12)]}
    q1, centre = p1 * p2, 46854891707
    for primes in ([p1, p2], [2, p1, p2]):
        m = parse_modulus(primes)
        q = m.q
        image = sorted(sum(r * (q // p) * pow(q // p, -1, p) for r, p in zip(rs, primes)) % q
                       for rs in itertools.product(*(residues[p] for p in primes)))
        gaps = [b - a for a, b in zip(image, image[1:])] + [image[0] + q - image[-1]]
        assert len(image) == 26 * q // q1 and max(gaps) == 9261033471
        assert max(g * gaps[i - 1] for i, g in enumerate(gaps)) >= 1 << 63
        assert stats._mirror_centre(q1_masks(f, m)) == centre
        arc = [t for t in sorted({t % q1 for t in image}) if centre <= 2 * t <= centre + q1]
        assert max(b - a for a, b in zip(arc, arc[1:])) >= stats._SMALL_GAPS
        for chunk in (None, 1):
            with pytest.MonkeyPatch.context() as mp:
                if chunk is not None:
                    mp.setattr(composite, "_CHUNK_CANDIDATES", chunk)
                assert table(spacing_series(f, m, cap_bits=1 << 40)) == oracle_table(image, q)


def test_mirror_arc_matches_oracle_on_random_moduli():
    # translates f(x + a) + c of odd f, which are all c minus themselves, and
    # x^2, x^4 - 2x^2, x^5 + 5x, which are at some primes and not at others,
    # modulo 1 to 4 primes below 44, 2 among them; an image mod q1 is r minus
    # itself iff it is at every prime of q1, and r is even when 2 | q1
    rng = random.Random(27)
    primes = [p for p in range(2, 44) if all(p % d for d in range(2, p))]
    odd = ["x^3+x", "x^3-3x", "x^5+5x", "x^3", "x^5-x^3+2x", "x^7+x"]
    symmetric = 0
    for _ in range(40):
        poly = rng.choice(odd + ["x^2", "x^4-2x^2"])
        f = parse_poly(poly)
        if poly in odd:
            f = f.shifted(rng.randrange(-50, 50))
            f = IntPoly((f.coeffs[0] + rng.randrange(-50, 50),) + f.coeffs[1:])
        chosen = sorted(rng.sample(primes[1:], rng.randint(0, 3)) + [2] * rng.randint(0, 1))
        if not chosen or math.prod(chosen) > 6000:
            chosen = [2, rng.choice(primes[1:6])]
        m = parse_modulus(chosen)
        masks = q1_masks(f, m)
        image = brute_image(f, m.q)
        if len(masks) == 0 or len(image) < 2:
            continue
        centre = stats._mirror_centre(masks)
        at_every_prime = all(
            any(sorted((r - t) % p for t in brute_image(f, p)) == brute_image(f, p)
                for r in range(p)) for p in (mask.p for mask in masks))
        assert (centre is not None) == at_every_prime, (f, chosen)
        assert centre is not None or poly not in odd
        if centre is not None:
            symmetric += 1
            q1 = math.prod(mask.p for mask in masks)
            assert q1 % 2 or centre % 2 == 0
        assert chunked_tables(f, m) == [oracle_table(image, m.q)] * len(SMALL_CHUNKS), (f, chosen)
    assert symmetric >= 20


class WindowCounter:
    """numpy for composite, counting the windows _crt_windows unpacks."""

    def __init__(self):
        self.windows = 0

    def __getattr__(self, name):
        return getattr(np, name)

    def unpackbits(self, a, axis=None, count=None, bitorder="big"):
        if axis == 0:
            self.windows += count
        return np.unpackbits(a, axis=axis, count=count, bitorder=bitorder)


@pytest.mark.parametrize("poly, primes, symmetric", [
    ("x^3+x", [3, 7, 11, 13, 17, 19], True),
    ("x^3-3x", [5, 7, 11, 13], True),
    ("x^2", [5, 13, 17, 29], True),
    ("x^2", [5, 7, 13], False),  # 7 = 3 mod 4: -1 is no square
    ("x^4-2x^2", [5, 7, 11, 13], False),
])
@pytest.mark.parametrize("a_residues", [None, 1, 100])
def test_symmetric_image_reads_half_the_residues(poly, primes, symmetric, a_residues):
    f, m = parse_poly(poly), parse_modulus(primes)
    q1 = composite_stats(f, m).q1_reduced
    counter = WindowCounter()
    with pytest.MonkeyPatch.context() as mp:
        if a_residues is not None:
            mp.setattr(composite, "_A_RESIDUES", a_residues)
        qa = 1
        for p in q1.primes:
            if qa * p > composite._A_RESIDUES:
                break
            qa *= p
        mp.setattr(composite, "np", counter)
        s = spacing_series(f, m)
    assert s.element_count == composite_stats(f, m).omega_q_size
    read = counter.windows * qa
    if symmetric:
        # the arc holds at most q1/2 + 1 residues, its windows up to
        # Q_A - 1 more at either end
        assert read <= -(-q1.q // 2) + 2 * qa, (read, q1.q, qa)
    else:
        assert read == q1.q


def test_mirror_check_holds_the_mask_packed():
    # at p = 1000033 = 1 mod 4, x^2 is minus itself and x^4 - 2x^2 is not:
    # the check holds a few packed copies of the p/8-byte mask, where one
    # int64 per residue would be 8p bytes
    p = 1000033
    masks = [image_mask(parse_poly(poly), p) for poly in ("x^2", "x^4-2x^2")]
    assert all(mask.bits for mask in masks)  # built here, outside the measured region
    centres = []
    for mask in masks:
        tracemalloc.start()
        try:
            centres.append(stats._mirror_centre([mask]))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * p // 8, peak
    assert centres == [0, None]


def test_mirror_check_fails_fast(monkeypatch):
    # x^2 mod 1000003 = 3 mod 4 is not minus itself, and its lowest residues
    # show it before any reversal of the mask
    monkeypatch.setattr(stats, "_BYTE_REVERSAL", None)
    assert stats._mirror_centre([image_mask(parse_poly("x^2"), 1000003)]) is None


def test_empty_mask_has_fewer_than_two_elements(monkeypatch):
    # no polynomial has an empty image, but a hand-built mask may: the image
    # mod q is empty, with no centre
    masks = (ImageMask(3, 0, 0), ImageMask(5, 1, 1))
    built = composite.CompositeStats(0, None, parse_modulus(15), masks)
    monkeypatch.setattr(stats, "composite_stats", lambda f, modulus: built)
    assert stats._mirror_centre(masks) is None
    with pytest.raises(DegenerateInputError, match="fewer than two"):
        spacing_series(parse_poly("x^2"), parse_modulus(15))


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
    direct = ks_statistic_exponential([float(v) for v in normalized(s)])
    assert ks_exponential(s) == pytest.approx(direct, abs=1e-12)
    assert sum(s.gap_counts) == s.element_count


def test_ks_series_matches_scipy():
    sps = pytest.importorskip("scipy.stats")
    for primes in ([7], [3, 5, 7, 11]):
        s = spacing_series(parse_poly("x^2"), parse_modulus(primes))
        ref = sps.kstest([float(v) for v in normalized(s)], "expon")
        assert ks_exponential(s) == pytest.approx(ref.statistic, abs=1e-12)


def test_adjacent_correlation_small_at_moderate_q():
    s = spacing_series(parse_poly("x^2"), parse_modulus([3, 5, 7, 11, 13, 17]))
    assert abs(adjacent_gap_correlation(s)) < 0.2


def test_histogram_partitions_sample():
    s = spacing_series(parse_poly("x^2"), parse_modulus(15015))
    rows = histogram_normalized(s, bins=40)
    assert len(rows) == 41 and sum(r["count"] for r in rows) == s.element_count
    assert all(r["bin_right"] > r["bin_left"] for r in rows[:-1])
    assert all(a["bin_right"] == b["bin_left"] for a, b in zip(rows, rows[1:]))
    assert rows[-1]["bin_left"] == 6 and rows[-1]["bin_right"] == "inf"


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
        els = [int(t) for chunk in enumerate_image(m, composite_stats(f, m).masks)
               for t in chunk]
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
        masks = composite_stats(f, m).masks
        omega = joint_count_composite(masks, [])
        s_q = Fraction(m.q, omega)
        if m is big:
            assert omega > 2**63
        window = CorrelationWindow.box(*[(-half / s_q, half / s_q)] * (k - 1))
        r = correlation(f, m, window)
        box = itertools.product(range(-half, half + 1), repeat=k - 1)
        admissible = [hs for hs in box if 0 not in hs and len(set(hs)) == len(hs)]
        assert r.lattice_points == len(admissible)
        assert r.value * omega == sum(joint_count_composite(masks, hs) for hs in admissible)


def test_correlation_memory_follows_the_box_not_the_prime():
    # x^2 mod 1000003 (s_q just below 2) over boxes of 4 and 4 x 4 points:
    # past the cached mask, a correlation holds box-sized arrays and a few
    # rows of p bits (1.4 MB at the 4 x 4 box, below 16 such rows); an index
    # array of p int64 entries per axis would add 8 MB
    f, m = parse_poly("x^2"), parse_modulus(1000003)
    assert image_mask(f, m.q).bits  # the cached mask's bits, built outside the region
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
