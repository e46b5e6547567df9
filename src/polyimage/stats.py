"""Spacing statistics and k-level correlation sums for image sets.

Gaps between consecutive image elements modulo q (including the wraparound
gap that closes the cycle) are normalized by the exact mean spacing q/|image|
so that the reference model is the unit-rate exponential.  Every spacing
statistic reads one gap table (SpacingSeries): the element count, the count
of each gap value and the lag-1 sum of products of neighbouring gaps.  A
permutation prime (omega_p = p) only repeats the cycle of gaps, so the table
is filled in one pass over the image modulo the reduced modulus q1, as
composite.enumerate_image streams it in chunks from the masks of q1 that
composite_stats built, and then scaled by q/q1; the cap on enumeration still
bounds q itself.  When that image is its own mirror image r - t, as for every
translate f(x + a) + c of an odd f, the pass reads only the arc [r/2,
(r + q1)/2], about half of q1.  One chain rule closes either cycle: a run of
consecutive gaps is kept as (first gap, last gap, lag-1 sum inside), two
runs join by adding last * first at the seam between them, and the cycle is
a cyclic list of runs -- the chunks' gaps, then the wrap gap or the seams
and the arc reversed.  Gaps below 2^16 are counted in one fixed table; the
larger ones, fewer than q1/2^16, are kept and merged by one sort at the end,
so neither a per-gap array nor a per-chunk table is held.  Everything stays
rational until a statistic is inherently real-valued: the KS distance
converts single gap values to floats at the last step, and the histogram
finds each gap's bin in integers, so its bins are exact and only its edges
and densities are floats.

The correlation sum runs over the integer points of the dilated window,
drops the points on the excluded hyperplanes (equal coordinates, zero
coordinates), and multiplies per-prime joint counts.  A prime's counts depend
on the point only modulo p, so each prime of q1 contributes one
primeimage.joint_count_table of the mask composite_stats returned, over at
most p residues per axis, gathered over the whole box in numpy.  The box's axes (primeimage.MAX_TABLE_AXES),
its points (MAX_LATTICE_POINTS) and the tables' words and held rotations
(MAX_TABLE_WORDS, MAX_TABLE_ROTATION_BYTES) are bounded before the first
table is built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce

import numpy as np

from .composite import (
    SquareFreeModulus,
    check_enumeration_cap,
    composite_stats,
    enumerate_image,
    DEFAULT_CAP_BITS,
)
from .errors import DegenerateInputError, InvalidInputError, ResourceCapError
from .polyarith import IntPoly
from .primeimage import check_table_axes, joint_count_table, table_work

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
HISTOGRAM_UPPER = 6
# 64-bit words of a packed mask _mirror_centre sums at a time; the bits of a
# word at the positions with bit k set, k < 6; each byte bit-reversed
_WORD_CHUNK = 1 << 14
_BIT_PLANES = [np.uint64(sum(1 << j for j in range(64) if j >> k & 1)) for k in range(6)]
_BYTE_REVERSAL = np.array([int(f"{b:08b}"[::-1], 2) for b in range(256)], np.uint8)


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


def _mirror_centre(masks) -> int | None:
    """The r in [0, Q), Q the product of the masks' primes, with the image
    mod Q equal to r minus itself, or None.  At each prime the image S has
    2*sum(S) = r*|S| mod p, so r mod p = 2*sum(S)/|S| is the one candidate
    (an empty or full S has none).  sum(S) is taken from popcounts of the
    packed mask's 64-bit words, _WORD_CHUNK words at a time, and the
    candidate is checked against the mask reversed by a byte table and
    rotated, so no byte, let alone an int64, per residue is held.  The
    r mod p combine by CRT; a prime without one leaves none."""
    r, q = 0, 1
    for mask in masks:
        p = mask.p
        if not 0 < mask.count < p:
            return None
        words = np.frombuffer(mask.bits.to_bytes(-(-p // 64) * 8, "little"), np.uint64)
        total = 0  # t = 64w + j sums 64w over the words and 2^k over each bit k set in j
        for i in range(0, len(words), _WORD_CHUNK):
            chunk = words[i:i + _WORD_CHUNK]
            total += 64 * int(np.dot(np.bitwise_count(chunk), np.arange(i, i + len(chunk))))
            total += sum(int(np.bitwise_count(chunk & plane).sum()) << k
                         for k, plane in enumerate(_BIT_PLANES))
        rp = 2 * total * pow(mask.count, -1, p) % p
        # an image that is not its mirror image nearly always shows it in its
        # lowest 64 residues, before the reversal and rotation of p bits
        packed = words.view(np.uint8)
        mirrored = ((rp - t) % p for t in range(min(p, 64)) if packed[t >> 3] >> (t & 7) & 1)
        if not all(packed[u >> 3] >> (u & 7) & 1 for u in mirrored):
            return None
        # bit t of the reversal is bit p-1-t, and of the mirror image bit rp-t:
        # the reversal rotated up by h = rp+1
        reversal = int.from_bytes(_BYTE_REVERSAL[packed[::-1]], "little") >> 8 * len(packed) - p
        del words, packed, chunk  # the views hold the bytes of the mask
        h = (rp + 1) % p
        if (reversal << h | reversal >> (p - h)) & ((1 << p) - 1) != mask.bits:
            return None
        r += q * ((rp - r) * pow(q, -1, p) % p)
        q *= p
    return r


def _join(a, b):
    """Run a then run b as one run; None is the empty run."""
    if a is None or b is None:
        return b if a is None else a
    return a[0], b[1], a[2] + a[1] * b[0] + b[2]


def _run(gaps):
    """Consecutive gaps as a run (first gap, last gap, lag-1 sum inside), or
    None.  An array's gaps lie in one chunk of span < 2^31, so their int64
    dot stays below 2^62."""
    if not len(gaps):
        return None
    return int(gaps[0]), int(gaps[-1]), int(np.dot(gaps[:-1], gaps[1:]))


def spacing_series(f: IntPoly, modulus: SquareFreeModulus,
                   cap_bits: int = DEFAULT_CAP_BITS) -> SpacingSeries:
    """Gap table of f modulo q, streamed from the image modulo q1 chunk by
    chunk.  A permutation prime takes every residue, so t is in the image mod
    q iff t mod q1 is in the image mod q1: the cycle of gaps mod q is c = q/q1
    copies of the cycle mod q1.  That cycle is a cyclic list of runs (_run,
    _join): [the image's gaps, the wrap gap] or, when the image mod q1 is its
    own mirror image r minus itself (_mirror_centre) and only the M elements
    first..last of the arc [r/2, (r + q1)/2] are read, [the arc's gaps, the
    seam x2 = r + q1 - 2*last, the arc's gaps reversed, the seam x1 = 2*first
    - r], where a seam of 0 (an element that is its own mirror image) and an
    empty run drop out.  Its lag-1 sum is that of the runs joined, plus the
    last gap times the first; its gap count is m*(M - 1) plus the seams, m = 1,
    or 2 on an arc; mod q both are c times that.  Refuses q beyond cap_bits
    before any mask is built, degenerate moduli where the mean spacing is 1
    (nothing to normalize), and images of fewer than two elements."""
    check_enumeration_cap(modulus.q, cap_bits)
    stats = composite_stats(f, modulus)
    reduced = stats.q1_reduced
    if reduced.q == 1:  # every prime a permutation prime: s_q = 1
        raise DegenerateInputError("degenerate: mean spacing 1")
    copies = modulus.q // reduced.q
    small, large = np.zeros(_SMALL_GAPS, np.int64), [np.empty(0, np.int64)]

    def tally(gaps):
        if gaps.max(initial=0) >= _SMALL_GAPS:
            big = gaps >= _SMALL_GAPS
            large.append(gaps[big])
            gaps = gaps[~big]
        counts = np.bincount(gaps)
        small[:len(counts)] += counts

    q1_masks = [mask for mask in stats.masks if mask.count < mask.p]
    centre = _mirror_centre(q1_masks)
    lo, hi = (0, reduced.q - 1) if centre is None else (-(-centre // 2), (centre + reduced.q) // 2)
    count, arc, first, last = 0, None, 0, 0
    for els in enumerate_image(reduced, q1_masks, cap_bits=cap_bits, lo=lo, hi=hi):
        gaps = np.empty(len(els), np.int64)  # gaps[0] crosses from the previous chunk
        gaps[0] = els[0] - last
        np.subtract(els[1:], els[:-1], out=gaps[1:])
        if count:  # a run of its own, so its products are Python ints
            arc = _join(arc, _run(gaps[:1]))
        else:  # no gap crosses into the first chunk
            first = int(els[0])
        tally(gaps[0 if count else 1:])
        count, last = count + len(els), int(els[-1])
        arc = _join(arc, _run(gaps[1:]))
    if centre is None:
        m, seams = 1, [first + reduced.q - last]  # the wrap gap
        runs = [arc, _run(seams)]
    else:  # a seam of 0 is no gap
        x2, x1 = ([x] if x else [] for x in (centre + reduced.q - 2 * last, 2 * first - centre))
        m, seams = 2, x2 + x1
        runs = [arc, _run(x2), arc and (arc[1], arc[0], arc[2]), _run(x1)]
        small *= 2
        large *= 2  # repeats each array in the list: np.unique counts each large gap twice
    count = m * (count - 1) + len(seams)
    if copies * count < 2:
        raise DegenerateInputError("image has fewer than two elements")
    tally(np.array(seams))
    start, end, inside = reduce(_join, runs)
    small_values = np.flatnonzero(small)
    big_values, big_counts = np.unique(np.concatenate(large), return_counts=True)
    values = np.concatenate([small_values, big_values])
    counts = np.concatenate([small[small_values], big_counts])
    return SpacingSeries(modulus, copies * count, values, copies * counts,
                         copies * (inside + end * start))


def gap_frequency(series: SpacingSeries, h: int) -> Fraction:
    """Fraction of gaps equal to h."""
    if h <= 0:
        raise InvalidInputError("gap values are positive")
    return Fraction(int(series.gap_counts[series.gap_values == h].sum()), series.element_count)


def ks_exponential(series: SpacingSeries) -> float:
    """KS distance between the normalized gaps (one per element) and the
    unit exponential."""
    n, q = series.element_count, series.modulus.q
    d = 0.0
    below = 0
    for g, c in zip(series.gap_values, np.cumsum(series.gap_counts)):
        t = (int(g) * n) / q  # correctly-rounded float of the exact ratio
        ref = -math.expm1(-t)
        d = max(d, abs(ref - below / n), abs(int(c) / n - ref))
        below = int(c)
    return d


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


def histogram_normalized(series: SpacingSeries, bins: int = 50) -> list[dict]:
    """The rows `spacings --out` writes: normalized gaps t in left-closed bins
    of width HISTOGRAM_UPPER / bins, then one overflow row for t >= HISTOGRAM_UPPER.
    Gap g lies in bin floor(t * bins / HISTOGRAM_UPPER), t = g * n / q, found in
    integers, so a gap on an edge goes to the upper bin.  Each bin row holds
    its edges, count, density and the exponential density averaged over the
    bin; the overflow row holds the tail mass and the exponential tail."""
    if bins < 1:
        raise InvalidInputError("need bins >= 1")
    n, q = series.element_count, series.modulus.q
    counts = [0] * (bins + 1)
    for g, c in zip(series.gap_values.tolist(), series.gap_counts.tolist()):
        counts[min(g * n * bins // (q * HISTOGRAM_UPPER), bins)] += c
    step = HISTOGRAM_UPPER / bins
    rows = []
    for i, count in enumerate(counts[:bins]):
        left, right = i * step, (i + 1) * step
        width = right - left
        rows.append({"bin_left": left, "bin_right": right, "count": count,
                     "density": count / (n * width),
                     "exp_reference": (math.exp(-left) - math.exp(-right)) / width})
    top = bins * step
    rows.append({"bin_left": top, "bin_right": "inf", "count": counts[bins],
                 "density": counts[bins] / n, "exp_reference": math.exp(-top)})
    return rows


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
    check_table_axes(window.dimension)
    stats = composite_stats(f, modulus)
    s_q = stats.s_q
    if s_q == 1:  # every prime a permutation prime
        raise DegenerateInputError("degenerate: mean spacing 1")
    # a permutation prime has omega_p = p and s_p = 1
    used = stats.q1_reduced
    omega_q = stats.omega_q_size * used.q // modulus.q
    k = window.dimension + 1
    ranges = [range(math.ceil(a * s_q), math.floor(b * s_q) + 1) for a, b in window.intervals]
    shape = tuple(max(0, r.stop - r.start) for r in ranges)  # len() overflows past 2^63
    total = math.prod(shape)
    if max(total, *shape) > MAX_LATTICE_POINTS:  # an empty axis still walks the others
        raise ResourceCapError(f"a lattice of {' x '.join(map(str, shape))} points exceeds "
                               f"the cap of {MAX_LATTICE_POINTS}")
    _check_table_work(used.primes, shape)
    # The count at h is the product over p of N_p(h mod p), and along an axis
    # the residues repeat with period p: each prime's table covers the first
    # min(len, p) points of every axis and is wrapped over the whole box.
    # No point's product exceeds omega_q, so int64 sums exactly below 2^63.
    prod = np.ones(shape, np.int64 if omega_q * total < 2**63 else object)
    for mask in (m for m in stats.masks if m.count < m.p):  # the primes of q1
        table = joint_count_table(mask, [r[:mask.p] for r in ranges])
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
