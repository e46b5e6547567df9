"""Spacing statistics and k-level correlation sums for image sets.

Gaps between consecutive image elements modulo q (including the wraparound
gap that closes the cycle) are normalized by the exact mean spacing q/|image|
so that the reference model is the unit-rate exponential.  Everything stays
rational until a statistic is inherently real-valued: the KS distance and
histogram columns convert single gap values to floats at the last step.

The correlation sum walks the integer points of the dilated window, drops the
points on the excluded hyperplanes (equal coordinates, zero coordinates), and
multiplies per-prime joint counts via cached cyclic shifts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .composite import (
    SquareFreeModulus,
    drop_permutation_primes,
    enumerate_image,
    DEFAULT_CAP_BITS,
)
from .errors import DegenerateInputError, InvalidInputError, ResourceCapError
from .polyarith import IntPoly
from .primeimage import image_mask

DEFAULT_LATTICE_CAP = 4_000_000


@dataclass
class SpacingSeries:
    """Gaps of the image modulo q.

    raw_gaps sum to q (wraparound included); times the exact scale |image|/q
    they become the normalized gaps, which sum to the element count."""

    modulus: SquareFreeModulus
    element_count: int
    raw_gaps: np.ndarray

    @property
    def scale(self) -> Fraction:
        return Fraction(self.element_count, self.modulus.q)


def spacing_series(
    f: IntPoly,
    modulus: SquareFreeModulus,
    cap_bits: int = DEFAULT_CAP_BITS,
    workers: int = 1,
) -> SpacingSeries:
    """Sorted-image gaps of f modulo q.  Refuses degenerate moduli where the
    mean spacing is 1 (nothing to normalize)."""
    reduced = drop_permutation_primes(f, modulus)
    if not reduced.primes:
        raise DegenerateInputError("degenerate: mean spacing 1")
    enum = enumerate_image(f, modulus, cap_bits=cap_bits, workers=workers)
    if enum.count < 2:
        raise DegenerateInputError("image has fewer than two elements")
    els = enum.elements()
    gaps = np.empty(len(els), np.int64)
    gaps[:-1] = np.diff(els)
    gaps[-1] = int(els[0]) - int(els[-1]) + modulus.q
    return SpacingSeries(modulus, enum.count, gaps)


def gap_frequency(series: SpacingSeries, h: int) -> Fraction:
    """Fraction of raw gaps equal to h."""
    if h <= 0:
        raise InvalidInputError("gap values are positive")
    return Fraction(int((series.raw_gaps == h).sum()), len(series.raw_gaps))


@dataclass(frozen=True)
class KSResult:
    statistic: float
    n: int


def ks_statistic_exponential(values) -> float:
    """Sup distance between the empirical CDF of the values and 1-e^{-t},
    evaluated at the jump points from both sides."""
    vs = sorted(float(v) for v in values)
    n = len(vs)
    if n == 0:
        raise InvalidInputError("empty sample")
    d = 0.0
    for i, t in enumerate(vs):
        ref = -math.expm1(-t)
        d = max(d, abs(ref - i / n), abs((i + 1) / n - ref))
    return d


def ks_exponential(series: SpacingSeries) -> KSResult:
    vals, counts = np.unique(series.raw_gaps, return_counts=True)
    cum = np.cumsum(counts)
    n = int(cum[-1])
    omega, q = series.element_count, series.modulus.q
    d = 0.0
    below = 0
    for g, c in zip(vals, cum):
        t = (int(g) * omega) / q  # correctly-rounded float of the exact ratio
        ref = -math.expm1(-t)
        d = max(d, abs(ref - below / n), abs(int(c) / n - ref))
        below = int(c)
    return KSResult(d, n)


def adjacent_gap_correlation(series: SpacingSeries) -> float:
    """Pearson correlation between each gap and its cyclic successor
    (scale-free, so raw gaps suffice)."""
    g = series.raw_gaps.astype(np.float64)
    if len(g) < 2 or g.std() == 0:
        return 0.0
    return float(np.corrcoef(g, np.roll(g, -1))[0, 1])


@dataclass(frozen=True)
class Histogram:
    edges: tuple[float, ...]
    counts: tuple[int, ...]
    total: int
    overflow: int


def histogram_normalized(series: SpacingSeries, bins: int = 50, upper: float = 6.0) -> Histogram:
    """Histogram of normalized gaps on [0, upper) plus an overflow count."""
    if bins < 1 or upper <= 0:
        raise InvalidInputError("need bins >= 1 and upper > 0")
    ts = series.raw_gaps.astype(np.float64) * (series.element_count / series.modulus.q)
    width = upper / bins
    idx = np.minimum((ts / width).astype(np.int64), bins)
    counts = np.bincount(idx, minlength=bins + 1)
    edges = tuple(i * width for i in range(bins + 1))
    return Histogram(edges, tuple(int(c) for c in counts[:bins]),
                     int(len(ts)), int(counts[bins]))


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


def correlation(
    f: IntPoly,
    modulus: SquareFreeModulus,
    window: CorrelationWindow,
    lattice_cap: int = DEFAULT_LATTICE_CAP,
    reduce_permutations: bool = True,
) -> CorrelationResult:
    """The k-level correlation of the image of f modulo q over the window:
    the sum of joint counts over integer points of the mean-spacing-dilated
    box, normalized by the image size.  Exact rational output."""
    used = drop_permutation_primes(f, modulus) if reduce_permutations else modulus
    k = window.dimension + 1
    masks = {p: image_mask(f, p) for p in used.primes}
    omega_q = 1
    s_q = Fraction(1)
    for p in used.primes:
        omega_q *= masks[p].count
        s_q *= Fraction(p, masks[p].count)
    if s_q == 1:  # every prime a permutation prime
        raise DegenerateInputError("degenerate: mean spacing 1")
    ranges = []
    total = 1
    for a, b in window.intervals:
        lo = math.ceil(a * s_q)
        hi = math.floor(b * s_q)
        ranges.append(range(lo, hi + 1))
        total *= max(len(ranges[-1]), 0)
    if total > lattice_cap:
        raise ResourceCapError(f"{total} lattice points exceed the cap {lattice_cap}")
    rot: dict[int, dict[int, int]] = {p: {} for p in used.primes}

    def rotated(p: int, h: int) -> int:
        cache = rot[p]
        r = h % p
        if r not in cache:
            cache[r] = masks[p].rotated(r)
        return cache[r]

    # The AND-and-popcount over cached rotations stays inline rather than
    # calling primeimage.joint_count per prime: the call overhead per lattice
    # point made the R_2-R_4 walks of the multiplicative benchmark workload
    # 1.5-2.5x slower.
    acc = 0
    points = 0
    excluded = 0
    for hs in itertools.product(*ranges):
        if any(h == 0 for h in hs) or len(set(hs)) != len(hs):
            excluded += 1
            continue
        points += 1
        prod = 1
        for p in used.primes:
            bits = masks[p].bits
            for h in hs:
                bits &= rotated(p, h)
                if not bits:
                    break
            c = bits.bit_count()
            if not c:
                prod = 0
                break
            prod *= c
        acc += prod
    value = Fraction(acc, omega_q)
    return CorrelationResult(
        value=value,
        volume=window.volume,
        deviation=value - window.volume,
        k=k,
        s_q=s_q,
        lattice_points=points,
        excluded=excluded,
        modulus_used=used,
    )
