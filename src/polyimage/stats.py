"""Spacing statistics and k-level correlation sums for image sets.

Gaps between consecutive image elements modulo q (including the wraparound
gap that closes the cycle) are normalized by the exact mean spacing q/|image|
so that the reference model is the unit-rate exponential.  Every spacing
statistic reads one gap table -- the count of each gap value and the lag-1
sum of products of neighbouring gaps -- which is filled in one pass over the
image as composite.enumerate_image streams it in chunks of whole windows,
from the masks it builds and caches in this process.
Gaps below 2^16 are counted in one fixed table; the larger ones, fewer than
q/2^16, are kept and merged by one sort at the end, so neither a per-gap
array nor a per-chunk table is held.  Everything stays rational until
a statistic is inherently real-valued: the KS distance and histogram columns
convert single gap values to floats at the last step.

The correlation sum runs over the integer points of the dilated window,
drops the points on the excluded hyperplanes (equal coordinates, zero
coordinates), and multiplies per-prime joint counts.  A prime's counts depend
on the point only modulo p, so each prime contributes one
primeimage.joint_count_table over at most p residues per axis, gathered
over the whole box in numpy.  The box's points (MAX_LATTICE_POINTS) and the
tables' words and held rotations (MAX_TABLE_WORDS, MAX_TABLE_ROTATION_BYTES)
are bounded before the first table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .composite import (
    SquareFreeModulus,
    composite_stats,
    enumerate_image,
    DEFAULT_CAP_BITS,
)
from .errors import DegenerateInputError, InvalidInputError, ResourceCapError
from .polyarith import IntPoly
from .primeimage import image_mask, joint_count_table, table_work

MAX_LATTICE_POINTS = 4_000_000
# Bounds on the per-prime joint-count tables of a correlation sum
# (primeimage.table_work): 64-bit words ANDed and counted over all primes, and
# bytes of the rotations one table holds.  A word costs 3-5 ns on a 2-core
# machine: R_3 of x^2 over (0,1]^2 mod 3*5*...*23*1000003 estimates 6.6e8
# words and took 2.0 s at 57 MB as a process; with 8000009 for 1000003,
# 5.3e9 words took 15 s at 234 MB (204 MB of held rotations) and is refused;
# R_2 mod 3*5*...*29*8000009 over (0,5] estimates 5.0e8 words and took 2.6 s.
MAX_TABLE_WORDS = 1 << 31
MAX_TABLE_ROTATION_BYTES = 1 << 28
# gaps below this bound are counted in one table; fewer than q / bound lie above
_SMALL_GAPS = 1 << 16
# normalized gaps at or above this bound are the histogram's overflow
HISTOGRAM_UPPER = 6.0


@dataclass
class SpacingSeries:
    """Gap table of the image modulo q: the cyclic gaps between consecutive
    image elements (wraparound included), kept as their sorted distinct
    values with counts, plus the exact lag-1 sum over the cycle.

    The gaps sum to q; times the exact scale |image|/q they become the
    normalized gaps, which sum to the element count."""

    modulus: SquareFreeModulus
    element_count: int
    gap_values: np.ndarray
    gap_counts: np.ndarray
    lag_sum: int


def spacing_series(f: IntPoly, modulus: SquareFreeModulus,
                   cap_bits: int = DEFAULT_CAP_BITS) -> SpacingSeries:
    """Gap table of f modulo q, streamed from the image chunk by chunk.
    enumerate_image checks cap_bits before it builds any mask, and the
    degeneracy check after it reads those masks from the cache.  Refuses
    degenerate moduli where the mean spacing is 1 (nothing to normalize)."""
    chunks = enumerate_image(f, modulus, cap_bits=cap_bits)
    if composite_stats(f, modulus).s_q == 1:
        raise DegenerateInputError("degenerate: mean spacing 1")
    small, large = np.zeros(_SMALL_GAPS, np.int64), [np.empty(0, np.int64)]

    def tally(gaps):
        if gaps.max() >= _SMALL_GAPS:
            big = gaps >= _SMALL_GAPS
            large.append(gaps[big])
            gaps = gaps[~big]
        counts = np.bincount(gaps)
        small[:len(counts)] += counts

    count = lag_sum = prev = 0  # prev: the gap before the current chunk, 0 before the first
    first = last = head = None
    for els in chunks:
        count += len(els)
        gaps = np.empty(len(els), np.int64)
        np.subtract(els[1:], els[:-1], out=gaps[1:])
        if last is None:
            first, gaps = int(els[0]), gaps[1:]
        else:
            gaps[0] = els[0] - last
        last = int(els[-1])
        if len(gaps):
            g0 = int(gaps[0])
            head = g0 if head is None else head
            # g0 may cross from the previous chunk: its products are Python ints;
            # the rest lie in one chunk of span < 2^31, so their sum is < 2^62
            lag_sum += (prev + int(gaps[1:2].sum())) * g0 + int(np.dot(gaps[1:-1], gaps[2:]))
            prev = int(gaps[-1])
            tally(gaps)
    if count < 2:
        raise DegenerateInputError("image has fewer than two elements")
    wrap = first + modulus.q - last
    lag_sum += prev * wrap + wrap * head
    tally(np.array([wrap]))
    small_values = np.flatnonzero(small)
    big_values, big_counts = np.unique(np.concatenate(large), return_counts=True)
    values = np.concatenate([small_values, big_values])
    counts = np.concatenate([small[small_values], big_counts])
    return SpacingSeries(modulus, count, values, counts, lag_sum)


def gap_frequency(series: SpacingSeries, h: int) -> Fraction:
    """Fraction of gaps equal to h."""
    if h <= 0:
        raise InvalidInputError("gap values are positive")
    return Fraction(int(series.gap_counts[series.gap_values == h].sum()), series.element_count)


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n: int


def ks_exponential(series: SpacingSeries) -> KSResult:
    cum = np.cumsum(series.gap_counts)
    n = int(cum[-1])
    omega, q = series.element_count, series.modulus.q
    d = 0.0
    below = 0
    for g, c in zip(series.gap_values, cum):
        t = (int(g) * omega) / q  # correctly-rounded float of the exact ratio
        ref = -math.expm1(-t)
        d = max(d, abs(ref - below / n), abs(int(c) / n - ref))
        below = int(c)
    return KSResult(d, n)


def adjacent_gap_correlation(series: SpacingSeries) -> float:
    """Pearson correlation between each gap and its cyclic successor, exact
    until the final rounding: both series have mean q/n and the same
    variance, so it is (n*lag_sum - q^2) / (n*sum(g^2) - q^2).  0.0 when
    all gaps are equal."""
    n, q = series.element_count, series.modulus.q
    squares = sum(int(v) * int(v) * int(c) for v, c in zip(series.gap_values, series.gap_counts))
    den = n * squares - q * q
    if den == 0:
        return 0.0
    return float(Fraction(n * series.lag_sum - q * q, den))


@dataclass(frozen=True)
class Histogram:
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    total: int
    overflow: int


def histogram_normalized(series: SpacingSeries, bins: int = 50) -> Histogram:
    """Histogram of normalized gaps on [0, HISTOGRAM_UPPER) plus an overflow count."""
    if bins < 1:
        raise InvalidInputError("need bins >= 1")
    ts = series.gap_values.astype(np.float64) * (series.element_count / series.modulus.q)
    width = HISTOGRAM_UPPER / bins
    idx = np.minimum((ts / width).astype(np.int64), bins)
    counts = np.zeros(bins + 1, np.int64)
    np.add.at(counts, idx, series.gap_counts)
    edges = tuple(i * width for i in range(bins + 1))
    return Histogram(edges, tuple(int(c) for c in counts[:bins]),
                     series.element_count, int(counts[bins]))


# ---------------------------------------------------------------------------
# correlation sums

@dataclass(frozen=True)
class CorrelationWindow:
    """Axis-aligned box in R^{k-1} with rational endpoints.  Lattice points
    with equal coordinates or a zero coordinate are always excluded."""

    intervals: tuple[tuple[Fraction, Fraction], ...]

    @classmethod
    def box(cls, *intervals) -> "CorrelationWindow":
        ivs = []
        for a, b in intervals:
            a, b = Fraction(a), Fraction(b)
            if a >= b:
                raise InvalidInputError(f"empty interval [{a}, {b}]")
            ivs.append((a, b))
        if not ivs:
            raise InvalidInputError("window needs at least one interval")
        return cls(tuple(ivs))

    @property
    def dimension(self) -> int:
        return len(self.intervals)

    @property
    def volume(self) -> Fraction:
        return reduce(lambda acc, iv: acc * (iv[1] - iv[0]), self.intervals, Fraction(1))


@dataclass(frozen=True)
class CorrelationResult:
    value: Fraction
    volume: Fraction
    deviation: Fraction
    k: int
    s_q: Fraction
    lattice_points: int
    excluded: int
    modulus_used: SquareFreeModulus


def _check_table_work(primes, shape) -> None:
    """Raise ResourceCapError, before any table is built, when the per-prime
    tables over the first min(n, p) residues of each axis would exceed
    MAX_TABLE_WORDS words in all or MAX_TABLE_ROTATION_BYTES held bytes in one."""
    work = [table_work(p, [min(n, p) for n in shape]) for p in primes]
    words = sum(w for w, _ in work)
    held = max((b for _, b in work), default=0)
    if words > MAX_TABLE_WORDS:
        raise ResourceCapError(f"joint-count tables need about {words} word operations; "
                               f"the cap is {MAX_TABLE_WORDS}")
    if held > MAX_TABLE_ROTATION_BYTES:
        raise ResourceCapError(f"a joint-count table holds about {held} bytes of rotations; "
                               f"the cap is {MAX_TABLE_ROTATION_BYTES}")


def correlation(
    f: IntPoly,
    modulus: SquareFreeModulus,
    window: CorrelationWindow,
) -> CorrelationResult:
    """The k-level correlation of the image of f modulo q over the window:
    the sum of joint counts over integer points of the mean-spacing-dilated
    box, normalized by the image size.  Exact rational output.  A
    permutation prime (omega_p = p) has the same count at every offset, so
    only the primes of the reduced modulus q1 are multiplied."""
    stats = composite_stats(f, modulus)
    s_q = stats.s_q
    if s_q == 1:  # every prime a permutation prime
        raise DegenerateInputError("degenerate: mean spacing 1")
    # a permutation prime has omega_p = p and s_p = 1
    used = stats.q1_reduced
    omega_q = stats.omega_q_size * used.q // modulus.q
    k = window.dimension + 1
    ranges = [range(math.ceil(a * s_q), math.floor(b * s_q) + 1) for a, b in window.intervals]
    shape = tuple(len(r) for r in ranges)
    total = math.prod(shape)
    if total > MAX_LATTICE_POINTS:
        raise ResourceCapError(f"{total} lattice points exceed the cap {MAX_LATTICE_POINTS}")
    _check_table_work(used.primes, shape)
    # The count at h is the product over p of N_p(h mod p), and along an axis
    # the residues repeat with period p: each prime's table covers the first
    # min(len, p) points of every axis and is wrapped over the whole box.
    # No point's product exceeds omega_q, so int64 sums exactly below 2^63.
    prod = np.ones(shape, np.int64 if omega_q * total < 2**63 else object)
    for p in used.primes:
        table = joint_count_table(image_mask(f, p), [r[:p] for r in ranges])
        prod *= np.pad(table, [(0, n - t) for n, t in zip(shape, table.shape)], mode="wrap")
    grids = np.ix_(*(np.arange(r.start, r.stop) for r in ranges))
    drop = np.zeros(shape, bool)
    for i, g in enumerate(grids):
        drop |= g == 0
        for g2 in grids[:i]:
            drop |= g == g2
    excluded = int(drop.sum())
    prod[drop] = 0
    value = Fraction(int(prod.sum()), omega_q)
    return CorrelationResult(
        value=value,
        volume=window.volume,
        deviation=value - window.volume,
        k=k,
        s_q=s_q,
        lattice_points=total - excluded,
        excluded=excluded,
        modulus_used=used,
    )
