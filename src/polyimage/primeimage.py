"""Per-prime image computation and pair/tuple correlation counts.

The image of f modulo p lives in an ImageMask: a length-p bitset held in a
single Python int (bit t set iff t is hit by f), with the popcount cached.
It is built from f, folded to degree below p, as g(x^m) mod p: the image
is f(0) and g(H), H the subgroup of d-th powers in F_p^x with
d = gcd(m, p - 1), so g is evaluated at (p - 1)/d points, walked as powers
of r^d for a primitive root r, in chunks of _BLOCK = 2^14 points.
Each step reduces by a floor division (a - (a // p) * p) rather than
np.remainder, and Horner skips the steps that do nothing, so a monomial
costs no Horner pass.  The values are marked in a p-byte scratch and packed
into bits; MAX_MASK_PRIME = 2^28 bounds that scratch at 256 MiB.  When f
folds to a*x^m + b the image is b and the coset b + a*H, so its size is
(p - 1)/d + 1 by algebra, and the mask defers that walk until its bits are
read: a command that reads only image sizes (`image`) builds no bitset.
Joint counts -- how many image elements t keep t+h_1, ..., t+h_{k-1} inside
the image -- reduce to popcounts of ANDs of cyclic shifts of that bitset,
which is what makes prime-by-prime scans cheap.  This module owns that
counting: joint_count_table, the one kernel that turns rotations into joint
counts, over a grid of offsets (joint_count is its one-point case), and
pair_counts over every shift.
The pair counts over every shift are the cyclic autocorrelation of the image
indicator, taken by one zero-padded real FFT in O(p log p) and rounded under
an exactness guard (Kurlberg-Rudnick's pair-correlation object, Duke Math. J.
1999).

All statistics stay exact: sizes are ints, ratios Fractions, and the FFT
counts are checked integers.  Floats appear only in the reported deviation
columns of anomaly scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import count

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, ResourceCapError
from .polyarith import IntPoly, ObstructionSet, _factor

MAX_PRIME = 1 << 31
# Largest prime compute_image builds a mask for: the build marks the image in
# a p-byte scratch, 256 MiB at the cap, beside the p/8-byte packed mask.
MAX_MASK_PRIME = 1 << 28
# Largest Horner work compute_image accepts: subgroup points times the degree
# of g, the passes of the walk.  A pass costs about 2.4 ns a point on a 2-core
# machine (x^2000+x at 1000003, 2.0e9, took 4.8 s); the cap admits every
# polynomial of degree <= 6 at every prime below MAX_MASK_PRIME.
MAX_MASK_WORK = 6 * MAX_MASK_PRIME
_BLOCK = 1 << 14  # subgroup points per vectorized Horner pass: 128 KiB of int64
# Largest transform pair_counts takes: n = 2^24 serves every p < 2^23.  numpy's
# rfft holds about 24 * n bytes (padded float64 input, its working copy and
# the spectrum), so the peak is about 32 * n bytes: 550 MB and 4 s as a
# process at p = 8388593.
MAX_PAIR_TRANSFORM = 1 << 24
# uint64 words joint_count_table ANDs and counts per numpy call: a 256 KiB
# scratch block, or one rotation when p > 2^21
_ROW_WORDS = 1 << 15


class ImageMask:
    """Bitset of the image of f modulo p; bit t set iff t = f(x) for some x,
    and count its popcount.  ImageMask(p, bits, count) holds its bits; the
    record compute_image returns for a*x^m + b holds instead the walk that
    marks them (_image_bits's arguments) and runs it the first time `bits`
    is read, so a reader of p and count alone builds nothing.  Records
    compare by p, bits and count, and pickle with the walk if it has not
    run."""

    __slots__ = ("p", "count", "_bits", "_walk")

    def __init__(self, p: int, bits: int | None, count: int, walk: tuple | None = None):
        self.p, self.count, self._bits, self._walk = p, count, bits, walk

    @property
    def bits(self) -> int:
        if self._bits is None:
            self._bits, self._walk = _image_bits(*self._walk), None
        return self._bits

    def __eq__(self, other) -> bool:
        if not isinstance(other, ImageMask):
            return NotImplemented
        return (self.p, self.bits, self.count) == (other.p, other.bits, other.count)

    def __hash__(self) -> int:
        return hash((self.p, self.count))

    def __repr__(self) -> str:
        return f"ImageMask(p={self.p}, bits={self.bits}, count={self.count})"

    def rotated(self, h: int) -> int:
        """Bitset of {t : t + h in image}, cyclically."""
        h %= self.p
        if h == 0:
            return self.bits
        return self.bits >> h | (self.bits & ((1 << h) - 1)) << (self.p - h)


def _primitive_root(p: int) -> int:
    """Least primitive root modulo an odd prime p, tested against the primes
    of p - 1 (polyarith._factor)."""
    primes = set(_factor(p - 1))
    return next(r for r in count(2) if all(pow(r, (p - 1) // s, p) != 1 for s in primes))


def _reduce(a: np.ndarray, p: int, quot: np.ndarray) -> np.ndarray:
    """a mod p in place, as a - (a // p) * p through the int64 buffer quot of
    a's length; exact for 0 <= a < 2^63.  numpy divides an int64 array by a
    scalar about twice as fast as np.remainder reduces it."""
    np.floor_divide(a, p, out=quot)
    np.multiply(quot, p, out=quot)
    return np.subtract(a, quot, out=a)


def _subgroup(p: int, d: int, n: int, quot: np.ndarray):
    """The n = (p - 1)/d elements of the subgroup of d-th powers in F_p^x, in
    int64 chunks of len(quot) (the last may be shorter), each a view of one
    buffer that is advanced in place after it is consumed: 1..p-1 for d = 1,
    else h^0, h^1, ... for h = r^d, r a primitive root, each chunk the last
    times h^len(quot).  quot is the reduction buffer, free between chunks."""
    size = len(quot)
    if d == 1:
        y = np.arange(1, size + 1, dtype=np.int64)
    else:
        h = pow(_primitive_root(p), d, p)
        y = np.empty(size, np.int64)
        y[0], done = 1, 1
        while done < size:  # doubling: h^done * y[0:k] fills y[done:done + k]
            k = min(done, size - done)
            _reduce(np.multiply(y[:k], pow(h, done, p), out=y[done:done + k]), p, quot[:k])
            done += k
        step = pow(h, size, p)
    for lo in range(0, n, size):
        if lo and d == 1:
            y += size
        elif lo:
            _reduce(np.multiply(y, step, out=y), p, quot)
        yield y[:n - lo]


def _mark_image(g: list[int], p: int, d: int, n: int) -> np.ndarray:
    """The p-byte scratch with g(H) marked, H the n = (p - 1)/d subgroup
    points.  Horner runs over each chunk of the walk, skipping the steps that
    do nothing: the multiply by a leading coefficient of 1 and the add for a
    zero coefficient, and the reduction of a step that did neither.  So for
    g = y the walk values are the image with no pass at all.  Values stay
    below p^2 + p < 2^57 before each reduction."""
    hit = np.zeros(p, bool)
    quot = np.empty(min(n, _BLOCK), np.int64)
    acc = np.empty_like(quot)
    lead, rest = g[-1], g[-2::-1]
    for y in _subgroup(p, d, n, quot):
        k = len(y)
        a = y
        for i, c in enumerate(rest):
            if i or lead != 1:
                a = np.multiply(a, y if i else lead, out=acc[:k])
            if c:
                a = np.add(a, c, out=acc[:k])
            if a is not y:
                _reduce(a, p, quot[:k])
        hit[a] = True  # repeated values mark the same byte
    return hit


def _image_bits(g: list[int], p: int, d: int, n: int) -> int:
    """The packed p-bit mask of f(0) = g[0] and g(H), H the n = (p - 1)/d
    subgroup points."""
    hit = _mark_image(g, p, d, n)
    hit[g[0]] = True
    return int.from_bytes(np.packbits(hit, bitorder="little"), "little")


def compute_image(f: IntPoly, p: int) -> ImageMask:
    """Exact image mask of f modulo p.  On F_p, x^e = x^((e - 1) mod (p - 1) + 1)
    for e >= 1, so f is folded to degree below p first (x^p - x folds to 0).
    Then f = g(x^m), m the gcd of the exponents i >= 1 whose coefficient p
    does not divide, so the image is f(0) and g(H), H the subgroup of d-th
    powers in F_p^x, d = gcd(m, p - 1): g is evaluated at the n = (p - 1)/d
    points of H by vectorized Horner in chunks of _BLOCK (int64 buffers that
    stay in L2), and the values are marked in a p-byte scratch.  When f
    folds to a*x^m + b, g(H) = b + a*H is a coset of H in F_p^x, which
    misses b, so the count is n + 1 by algebra, and the bits are built only
    when the record's `bits` is first read.  Raises InvalidInputError unless
    2 <= p < 2^31, then ResourceCapError, before any buffer is allocated,
    for p > MAX_MASK_PRIME or Horner work past MAX_MASK_WORK, unless f is
    constant mod p (no scratch is needed then)."""
    if not 2 <= p < MAX_PRIME:
        raise InvalidInputError(f"prime {p} outside supported range [2, 2^31)")
    cs = [(sum(f.coeffs[e::p - 1]) if e else f.coeffs[0]) % p
          for e in range(min(len(f.coeffs), p))]
    exponents = [i for i, c in enumerate(cs) if i and c]
    if not exponents:
        return ImageMask(p, 1 << (cs[0] if cs else 0), 1)
    m = math.gcd(*exponents)
    d = math.gcd(m, p - 1)
    n = (p - 1) // d
    if p > MAX_MASK_PRIME:
        raise ResourceCapError(
            f"image mask at p={p} walks {n} points with a {p}-byte scratch; "
            f"the cap is p <= {MAX_MASK_PRIME}")
    g = cs[:exponents[-1] + 1:m]  # ascending, degree >= 1
    if n * (len(g) - 1) > MAX_MASK_WORK:
        raise ResourceCapError(
            f"image mask at p={p} runs {len(g) - 1} Horner passes over {n} points; "
            f"the cap is {MAX_MASK_WORK} point-passes")
    if len(exponents) == 1:
        return ImageMask(p, None, n + 1, (g, p, d, n))
    bits = _image_bits(g, p, d, n)
    return ImageMask(p, bits, bits.bit_count())


@lru_cache(maxsize=4096)
def image_mask(f: IntPoly, p: int) -> ImageMask:
    """Cached compute_image, called by composite.composite_stats alone: every
    other consumer takes the masks its caller built.  A command builds each
    mask once, so the cache only serves repeated calls in one process; it
    stays because the benchmark harness (bench/workload.py) reads its
    cache_info() on every traced operation."""
    return compute_image(f, p)


def wan_ok(f: IntPoly, mask: ImageMask) -> bool:
    """Whether the image of f modulo mask.p is a permutation or obeys Wan's
    bound omega <= p - (p - 1)/deg f (1993), checked in integers."""
    p, omega, deg = mask.p, mask.count, max(f.degree, 1)
    return omega == p or deg * omega <= deg * p - (p - 1)


def _words(bits: int, n: int) -> np.ndarray:
    """A bitset as n little-endian uint64 words."""
    return np.frombuffer(bits.to_bytes(8 * n, "little"), np.uint64)


def joint_count_table(mask: ImageMask, axes) -> np.ndarray:
    """Joint counts N(h_1, ..., h_r) -- the image elements t with t + h_i in
    the image for every i -- for every h_i in axes[i] (offsets taken modulo
    p), as an int64 array of shape (len(a) for a in axes); with no axes, the
    0-d array holding mask.count.

    Each prefix h_1, ..., h_{r-1} is ANDed once, as a Python int, and a
    prefix whose AND is empty leaves its whole sub-table 0.  The rotations
    of axes[1:] are built once per table and held: the middle axes as ints,
    the innermost as rows of uint64 words (about sum len(a) * p/8 bytes in
    all, table_work), against which a prefix's row is ANDed and counted by
    np.bitwise_count, _ROW_WORDS words per call.  Converting a rotation to
    words costs about as much as one AND and count, so a table of one row
    (every outer axis of length 1), which builds each rotation as it reads
    it and holds none, and a table at p <= 64 (one word) count as ints."""
    axes = [list(a) for a in axes]
    table = np.zeros([len(a) for a in axes], np.int64)
    if not axes:
        table[()] = mask.count
        return table
    *outer, inner = axes
    n = -(-mask.p // 64)
    one_row = all(len(a) == 1 for a in outer)
    as_ints = one_row or n == 1

    def rotations(a):
        return map(mask.rotated, a) if one_row else [mask.rotated(h) for h in a]

    middle = [rotations(a) for a in outer[1:]]
    if as_ints:
        held = rotations(inner)
    else:
        held = np.empty((len(inner), n), np.uint64)
        for j, h in enumerate(inner):
            held[j] = _words(mask.rotated(h), n)
        step = max(1, _ROW_WORDS // n)
        scratch = np.empty((min(step, len(inner)), n), np.uint64)

    def fill(acc: int, depth: int, index: tuple) -> None:
        if depth < len(outer):
            rots = middle[depth - 1] if depth else map(mask.rotated, outer[0])
            for i, r in enumerate(rots):
                if prefix := acc & r:
                    fill(prefix, depth + 1, index + (i,))
        elif as_ints:
            table[index] = [(acc & r).bit_count() for r in held]
        else:
            acc, row = _words(acc, n), table[index]
            for lo in range(0, len(inner), step):
                block = held[lo:lo + step]
                both = np.bitwise_and(block, acc, out=scratch[:len(block)])
                row[lo:lo + step] = np.bitwise_count(both).sum(axis=1)

    fill(mask.bits, 0, ())
    return table


# Most axes of a joint-count table, one per offset or window interval: numpy's
# limit on array dimensions
MAX_TABLE_AXES = 64


def check_table_axes(r: int) -> None:
    """Raise ResourceCapError for a table of r axes past MAX_TABLE_AXES."""
    if r > MAX_TABLE_AXES:
        raise ResourceCapError(f"{r} offsets or window intervals need a {r}-axis joint-count "
                               f"table; the cap is {MAX_TABLE_AXES} axes")


def table_work(p: int, lengths) -> tuple[int, int]:
    """What joint_count_table costs at the prime p with axes of these
    lengths: the ANDs and popcounts, in 64-bit words (one table entry or
    rotation touches ceil(p/64) of them), and the bytes of the rotations it
    holds."""
    lengths = list(lengths)
    words = -(-p // 64)
    return (math.prod(lengths) + sum(lengths)) * words, 8 * words * sum(lengths[1:])


def joint_count(mask: ImageMask, offsets) -> int:
    """Number of image elements t with t + h in the image for every offset h
    (offsets taken modulo p): the one-point joint_count_table."""
    return int(joint_count_table(mask, [[h] for h in offsets]).sum())


def _pair_transform_length(p: int) -> int:
    """The power of two n >= 2p - 1 that pair_counts transforms at; raises
    ResourceCapError past MAX_PAIR_TRANSFORM."""
    n = 1 << (2 * p - 2).bit_length()
    if n > MAX_PAIR_TRANSFORM:
        raise ResourceCapError(
            f"pair counts at p={p} need a length-{n} transform, about {32 * n} bytes; "
            f"the cap is length {MAX_PAIR_TRANSFORM} (p < {MAX_PAIR_TRANSFORM // 2})")
    return n


def pair_counts(mask: ImageMask) -> np.ndarray:
    """The pair counts N_2(h, p) for every shift, as an int64 array: entry h
    is the number of image elements t with t + h in the image, h = 0..p-1.

    The indicator x of the image is zero-padded to n >= 2p - 1, so the
    inverse transform of |rfft(x)|^2 holds every linear lag without wrap;
    the cyclic count at h is lag h plus lag h - p, found at n - p + h.  The
    rounded result must pass the exactness guard (every value within 1/4 of
    an integer, N(0) = omega, sum N = omega^2 and N(h) = N(p - h)).  For a
    0/1 indicator with p < 2^23 the float64 error is far below 1/4, so a
    failure means a broken transform and raises ArithmeticError.  Raises
    ResourceCapError when n would exceed MAX_PAIR_TRANSFORM."""
    p, w = mask.p, mask.count
    n = _pair_transform_length(p)
    ind = np.unpackbits(np.frombuffer(mask.bits.to_bytes((p + 7) // 8, "little"), np.uint8),
                        count=p, bitorder="little")
    spec = np.fft.rfft(ind, n)
    np.absolute(spec, out=spec)  # |X|^2 in place, no complex temporary
    spec *= spec
    raw = np.fft.irfft(spec, n)
    del spec
    folded = raw[:p]
    folded += raw[n - p:]
    counts = np.rint(folded)
    folded -= counts
    exact = np.abs(folded, out=folded).max() < 0.25
    del raw, folded
    counts = counts.astype(np.int64)
    if not (exact and counts[0] == w and int(counts.sum()) == w * w
            and np.array_equal(counts[1:], counts[:0:-1])):
        raise ArithmeticError(f"FFT pair counts at p={p} failed their exactness guard")
    return counts


def expected_joint_count(p: int, mean_gap: Fraction, k: int) -> Fraction:
    """The independence-model prediction p / s^k for the joint count."""
    return Fraction(p) / mean_gap**k


def joint_count_error(mask: ImageMask, count: int, k: int) -> Fraction:
    """Relative error of a joint count of k-tuples (k - 1 offsets) against the
    independence model: s^(k-1) * count / omega - 1, exact."""
    return Fraction(mask.p ** (k - 1) * count, mask.count**k) - 1


@dataclass(frozen=True)
class Anomaly:
    h: int
    count: int
    deviation: float  # (count - p/s^2) / sqrt(p)
    in_critical_diffs: bool


def check_anomaly_scan(p: int, threshold: float) -> None:
    """Raise InvalidInputError for p < 5 or a threshold that is not finite and
    >= 0, then ResourceCapError for a prime past the pair-count transform cap;
    a caller runs it before it builds the mask it scans."""
    if p < 5:
        raise InvalidInputError("anomaly scan needs p >= 5")
    if not math.isfinite(threshold) or threshold < 0:
        raise InvalidInputError(f"threshold must be finite and >= 0, got {threshold}")
    _pair_transform_length(p)


def anomaly_scan(mask: ImageMask, obstructions: ObstructionSet,
                 threshold: float = 5.0) -> list[Anomaly]:
    """All offsets h in [1, p) whose pair count in the image mask strays from
    p/s^2 by more than threshold * sqrt(p), annotated with membership in the
    critical-difference set `obstructions` (critical_diffs_mod(f, p),
    computed by the caller).  Exact comparison; only the reported deviation
    column is a float."""
    p = mask.p
    check_anomaly_scan(p, threshold)
    w2 = mask.count * mask.count
    # |count - omega^2/p| > c*sqrt(p)  <=>  d^2 > c^2 * p^3 with the integer
    # d = p*count - omega^2  <=>  |d| > isqrt(floor(c^2 * p^3)).  |d| <= p^2,
    # so the bound is clipped there and everything stays in int64.
    rhs = Fraction(threshold) ** 2 * p**3
    bound = min(math.isqrt(rhs.numerator // rhs.denominator), p * p)
    counts = pair_counts(mask)
    dev = p * counts[1:]
    dev -= w2
    flagged = np.flatnonzero(np.abs(dev, out=dev) > bound) + 1
    return [Anomaly(h, n, (p * n - w2) / p**1.5, h in obstructions)
            for h, n in zip(flagged.tolist(), counts[flagged].tolist())]


def max_pair_correlation(masks) -> Fraction:
    """Largest pair count ratio count/omega over the image masks of sampled
    non-permutation primes and nonzero offsets; an empirical floor for the
    constant that separates overlapping-translate pair counts from the
    trivial bound."""
    best = None
    for mask in masks:
        if mask.count == mask.p:
            continue
        r = Fraction(int(pair_counts(mask)[1:].max()), mask.count)
        if best is None or r > best:
            best = r
    if best is None:
        raise DegenerateInputError("no non-permutation primes in sample")
    return best
