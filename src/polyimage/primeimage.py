"""Per-prime image computation and pair/tuple correlation counts.

The image of f modulo p lives in an ImageMask: a length-p bitset held in a
single Python int (bit t set iff t is hit by f), with the popcount cached.
Joint counts -- how many image elements t keep t+h_1, ..., t+h_{k-1} inside
the image -- reduce to popcounts of ANDs of cyclic shifts of that bitset,
which is what makes prime-by-prime scans cheap.  This module owns that
counting: joint_count at explicit offsets and pair_counts over every shift.
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

import numpy as np

from .errors import DegenerateInputError, InvalidInputError, ResourceCapError
from .polyarith import IntPoly, ObstructionSet

MAX_PRIME = 1 << 31
_CHUNK = 1 << 20
# Largest transform pair_counts takes: n = 2^24 serves every p < 2^23.  numpy's
# rfft holds about 24 * n bytes (padded float64 input, its working copy and
# the spectrum), so the peak is about 32 * n bytes: 550 MB and 4 s as a
# process at p = 8388593.
MAX_PAIR_TRANSFORM = 1 << 24


@dataclass(frozen=True)
class ImageMask:
    """Bitset of the image of f modulo p; bit t set iff t = f(x) for some x."""

    p: int
    bits: int
    count: int

    def rotated(self, h: int) -> int:
        """Bitset of {t : t + h in image}, cyclically."""
        h %= self.p
        if h == 0:
            return self.bits
        return (self.bits >> h | self.bits << (self.p - h)) & _full_mask(self.p)


@dataclass(frozen=True)
class PrimeStats:
    p: int
    omega_size: int
    s_p: Fraction
    is_permutation: bool
    wan_ok: bool


@lru_cache(maxsize=512)
def _full_mask(p: int) -> int:
    return (1 << p) - 1


def _horner_bits(f: IntPoly, p: int) -> bytes:
    buf = np.zeros((p + 7) // 8, dtype=np.uint8)
    cs = [c % p for c in reversed(f.coeffs)]
    for lo in range(0, p, _CHUNK):
        x = np.arange(lo, min(lo + _CHUNK, p), dtype=np.int64)
        acc = np.full_like(x, cs[0])
        for c in cs[1:]:
            acc = (acc * x + c) % p
        np.bitwise_or.at(buf, acc >> 3, np.uint8(1) << (acc & 7).astype(np.uint8))
    return buf.tobytes()


def compute_image(f: IntPoly, p: int) -> ImageMask:
    """Exact image mask of f modulo p, every point evaluated (vectorized Horner)."""
    if not 2 <= p < MAX_PRIME:
        raise InvalidInputError(f"prime {p} outside supported range [2, 2^31)")
    if f.degree < 1:
        t = (f.coeffs[0] % p) if f.coeffs else 0
        return ImageMask(p, 1 << t, 1)
    bits = int.from_bytes(_horner_bits(f, p), "little")
    return ImageMask(p, bits, bits.bit_count())


@lru_cache(maxsize=4096)
def image_mask(f: IntPoly, p: int) -> ImageMask:
    """Cached compute_image; masks are immutable and shared freely."""
    return compute_image(f, p)


def prime_stats(f: IntPoly, p: int) -> PrimeStats:
    mask = image_mask(f, p)
    omega = mask.count
    deg = max(f.degree, 1)
    is_perm = omega == p
    # Wan: omega <= p - (p-1)/deg, checked in integers
    wan_ok = is_perm or deg * omega <= deg * p - (p - 1)
    return PrimeStats(p, omega, Fraction(p, omega), is_perm, wan_ok)


def joint_count(mask: ImageMask, offsets) -> int:
    """Number of image elements t with t + h in the image for every offset h
    (offsets taken modulo p)."""
    acc = mask.bits
    for h in offsets:
        acc &= mask.rotated(h)
        if not acc:
            return 0
    return acc.bit_count()


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


def anomaly_scan(f: IntPoly, p: int, obstructions: ObstructionSet,
                 threshold: float = 5.0) -> list[Anomaly]:
    """All offsets h in [1, p) whose pair count strays from p/s^2 by more than
    threshold * sqrt(p), annotated with membership in the critical-difference
    set `obstructions` (critical_diffs_mod(f, p), computed by the caller).
    Exact comparison; only the reported deviation column is a float."""
    if p < 5:
        raise InvalidInputError("anomaly scan needs p >= 5")
    if not math.isfinite(threshold) or threshold < 0:
        raise InvalidInputError(f"threshold must be finite and >= 0, got {threshold}")
    _pair_transform_length(p)
    mask = image_mask(f, p)
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


def max_pair_correlation(f: IntPoly, primes) -> Fraction:
    """Largest pair count ratio count/omega over sampled non-permutation
    primes and nonzero offsets; an empirical floor for the constant that
    separates overlapping-translate pair counts from the trivial bound."""
    best = None
    for p in primes:
        mask = image_mask(f, p)
        if mask.count == p:
            continue
        r = Fraction(int(pair_counts(mask)[1:].max()), mask.count)
        if best is None or r > best:
            best = r
    if best is None:
        raise DegenerateInputError("no non-permutation primes in sample")
    return best
