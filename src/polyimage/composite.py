"""Square-free moduli: validation, CRT-multiplicative statistics, enumeration.

A modulus is an ordered tuple of distinct primes with their product q.  Sizes
and joint counts over q are products of the per-prime values, so they never
require touching all q residues.  Spacing statistics read the image itself,
or one arc [lo, hi] of it, streamed in sorted chunks under a configurable
cap on q, by CRT windows: a window of Q_A residues (Q_A <= 2^18, the
smallest primes) keeps the a in the image mod Q_A whose bit is set in the
packed q/Q_A-bit image mod the rest.  That image is held in window order, so
one 8-byte load answers 56 consecutive windows for one a; an arc reads the
windows it meets, and the image mod the rest is built whole all the same,
under a cap of MAX_WINDOW_TABLE_BYTES on its bytes.

Factorization of user-supplied q is best effort (polyarith._factor: trial
division to 10^4, then Brent's cycle finder, with is_probable_prime deciding
primality).  Callers with adversarial moduli should pass the prime list
explicitly.  composite_stats builds the image masks, one per prime, and may
build them over a process pool; joint_count_composite and enumerate_image
take the masks their caller built and build none (reading the bits of an
a*x^m + b mask runs the walk it deferred, once).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial

import numpy as np

from .errors import InvalidInputError, NotSquareFreeError, ResourceCapError
from .parallel import pmap
from .polyarith import IntPoly, _factor, is_probable_prime
from .primeimage import ImageMask, image_mask, joint_count

DEFAULT_CAP_BITS = 1 << 31
# Enumeration refuses q at or past 2^63, whatever the cap: residues and the
# gap table's counts are int64.
MAX_ENUMERATION_MODULUS = 1 << 63


@dataclass(frozen=True)
class SquareFreeModulus:
    """Distinct primes and their product.  Empty (q=1) only arises internally,
    from permutation-prime reduction."""

    primes: tuple[int, ...]
    q: int


def parse_modulus(spec) -> SquareFreeModulus:
    """Validated square-free modulus from an integer or an explicit prime list."""
    if isinstance(spec, int):
        if spec <= 1:
            raise InvalidInputError(f"modulus must exceed 1, got {spec}")
        factors = _factor(spec)
        if len(set(factors)) != len(factors):
            raise NotSquareFreeError(f"{spec} is not square-free")
        return SquareFreeModulus(tuple(factors), spec)
    primes = sorted(spec)
    if not primes:
        raise InvalidInputError("empty prime list")
    for p in primes:
        if not is_probable_prime(p):
            raise InvalidInputError(f"{p} is not prime")
    if len(set(primes)) != len(primes):
        raise NotSquareFreeError(f"repeated prime in {primes}")
    return SquareFreeModulus(tuple(primes), math.prod(primes))


@dataclass(frozen=True)
class CompositeStats:
    """The image of f modulo q: its size, the mean spacing q/omega_q, the
    reduced modulus q1 (the primes whose image is not all of F_p) and the
    image mask at each prime of q, in the modulus's order."""

    omega_q_size: int
    s_q: Fraction
    q1_reduced: SquareFreeModulus
    masks: tuple[ImageMask, ...]


def composite_stats(f: IntPoly, modulus: SquareFreeModulus, workers: int = 1) -> CompositeStats:
    masks = tuple(pmap(partial(image_mask, f), modulus.primes, workers))
    size = math.prod(mask.count for mask in masks)
    kept = tuple(mask.p for mask in masks if mask.count < mask.p)
    q1 = SquareFreeModulus(kept, math.prod(kept))
    return CompositeStats(size, Fraction(modulus.q, size), q1, masks)


def joint_count_composite(masks, offsets) -> int:
    """Joint image count modulo q, the product of the masks' primes: the
    product of the per-prime counts, each offset reduced per prime."""
    offsets = list(offsets)
    return math.prod(joint_count(mask, offsets) for mask in masks)


# bounds on Q_A and on the candidates a chunk tests (2^18 candidates was slower),
# and the bits a step of _scaled_bits gathers
_A_RESIDUES = 1 << 18
_CHUNK_CANDIDATES = 1 << 17
_SCALE_BLOCK = 1 << 12
# Largest window table enumeration builds: the image mod Q_B in Q_B/8 bytes,
# of which a few Q_B-bit ints are alive while it is built.  2^28 bytes holds
# Q_B <= 2^31, every Q_B the default cap on q admits.
MAX_WINDOW_TABLE_BYTES = 1 << 28


def _scaled_bits(mask: ImageMask, c: int) -> int:
    """Bit j < p set iff c*j mod p is in the image, gathered _SCALE_BLOCK bits
    at a time from the packed mask, so no byte per residue is ever held."""
    p = mask.p
    if c == 1:
        return mask.bits
    packed = np.frombuffer(mask.bits.to_bytes((p + 7) // 8, "little"), np.uint8)
    out = np.empty((p + 7) // 8, np.uint8)
    steps = np.arange(_SCALE_BLOCK) * c
    for j in range(0, p, _SCALE_BLOCK):
        i = (steps[:p - j] + j * c) % p  # c, j < p < 2^31: no overflow
        bits = packed[i >> 3] >> (i & 7).astype(np.uint8)
        out[j >> 3:(j + len(i) + 7) >> 3] = np.packbits(bits & 1, bitorder="little")
    del packed  # before int.from_bytes copies out
    return int.from_bytes(out, "little")


def _packed_image(masks: list[ImageMask], scale: int, length: int) -> bytes:
    """The residues mod n = prod(p) in every mask's image, in scaled order:
    bit k set iff scale*k mod n is in the image, for k < length (>= n), then
    zero bits to 8 bytes past the last; each mask is repeated and ANDed."""
    acc = None if masks else (1 << length) - 1  # every residue, the image mod 1
    for mask in masks:
        bits, size = _scaled_bits(mask, scale % mask.p), mask.p
        while size < length:
            step = min(size, length - size)
            bits |= (bits if step == size else bits & ((1 << step) - 1)) << size
            size += step
        acc = bits if acc is None else acc & bits
    return acc.to_bytes((length + 7) // 8 + 8, "little")


def _window_split(masks: list[ImageMask]) -> tuple[int, int]:
    """(len(A), Q_A): A is the longest prefix of the masks' ascending primes
    with Q_A <= _A_RESIDUES."""
    split, qa = 0, 1
    while split < len(masks) and qa * masks[split].p <= _A_RESIDUES:
        qa *= masks[split].p
        split += 1
    return split, qa


def _crt_windows(masks: list[ImageMask], q: int, lo: int, hi: int):
    """The image in [lo, hi], read in windows [k*Q_A, (k+1)*Q_A) from
    k = lo // Q_A to hi // Q_A, the first and last chunk trimmed to the range;
    A and Q_A are _window_split's and B is the rest of the primes.  The
    image mod Q_B is held in window order T (bit k set iff Q_A*k mod Q_B is
    in it), so k*Q_A + a, a in the image mod Q_A, is in the image iff bit
    (k + a*u) mod Q_B of T is set, u = Q_A^-1 mod Q_B: one unaligned 8-byte
    load gives a's bits for 56 consecutive windows; T runs
    on cyclically 64 bits past Q_B, so no load wraps (for Q_A = 1 none needs
    to, and T stops at Q_B).  A load covers 56*blocks windows, a chunk
    8*rows windows and under 2^31 residues.  An empty mask in A yields
    nothing; one in B yields no chunk, as T is all zero."""
    split, qa = _window_split(masks)
    qb, u64 = q // qa, np.uint64
    ia = np.flatnonzero(np.unpackbits(np.frombuffer(_packed_image(masks[:split], 1, qa), np.uint8),
                                      count=qa, bitorder="little"))
    n, span = len(ia), ((1 << 31) - 1) // qa
    if not n:
        return
    table = _packed_image(masks[split:], qa, qb + 64 if qa > 1 else qb)
    words = np.ndarray((len(table) - 7,), "<u8", table, strides=(1,))  # word i: bits 8i..8i+63
    first, stop = lo // qa, hi // qa + 1  # the windows read
    blocks = max(1, min(_CHUNK_CANDIDATES // (56 * n), span // 56, -(-(stop - first) // 56)))
    rows = min(7 * blocks, max(1, _CHUNK_CANDIDATES // (8 * n)))
    starts = 56 * np.arange(blocks)[:, None]
    delta = ia * pow(qa, -1, qb) % qb
    candidates = (np.arange(8 * rows, dtype=np.int32)[:, None] * qa + ia.astype(np.int32)).ravel()
    off, tmp = np.empty((2, blocks, n), np.int64)
    for k0 in range(first, stop, 56 * blocks):
        # off - qb < 0 is above off as unsigned
        np.add((starts + k0) % qb, delta, out=off)
        np.minimum(off.view(u64), np.subtract(off, qb, out=tmp).view(u64), out=off.view(u64))
        word = words[np.right_shift(off, 3, out=tmp)]  # np.take would copy the unaligned words
        np.right_shift(word, np.bitwise_and(off, 7, out=tmp).view(u64), out=word)
        # byte j of block b holds windows k0 + 56b + 8j..+7: one row per byte
        window_bytes = word.view(np.uint8).reshape(blocks, n, 8)[:, :, :7].transpose(0, 2, 1)
        window_bytes = window_bytes.reshape(7 * blocks, n)
        for r in range(0, 7 * blocks, rows):
            k = k0 + 8 * r
            if k >= stop:
                break
            count = min(8 * rows, stop - k)
            # flatnonzero reads a bool view 4 times as fast as the uint8 bytes
            hit = np.unpackbits(window_bytes[r:r + rows], axis=0, count=count, bitorder="little")
            els = candidates[np.flatnonzero(hit.view(bool))] + np.int64(k * qa)
            if k * qa < lo:
                els = els[np.searchsorted(els, lo):]
            if (k + count) * qa > hi + 1:
                els = els[:np.searchsorted(els, hi, "right")]
            if len(els):
                yield els


def enumerate_image(modulus: SquareFreeModulus, masks, cap_bits: int = DEFAULT_CAP_BITS,
                    lo: int = 0, hi: int | None = None):
    """Sorted residues of the image modulo q (t with t mod p in the image
    mask at p for every p | q) in [lo, hi], by default all of [0, q), given
    one mask per prime of the modulus in its order, as an iterator of int64
    arrays of whole windows, about _CHUNK_CANDIDATES candidates each and at
    least 8 windows, but for the first and last, which are trimmed to the
    range; empty ranges are skipped.  CRT windows (_crt_windows) test
    (hi - lo)/s_A candidates, give or take a window at either end, at one
    unpacked byte each, after one 8-byte load per element of the image mod
    Q_A per 56 windows, and the one object that grows with q is the image
    mod Q_B in q/Q_A packed bits.
    Refuses moduli beyond cap_bits or at or past 2^63, and a table mod Q_B
    past MAX_WINDOW_TABLE_BYTES, at the call, before any mask is scaled;
    correlation-style statistics stay available through the multiplicative
    path."""
    check_enumeration_cap(modulus.q, cap_bits)
    masks = list(masks)
    qa = _window_split(masks)[1]
    qb = modulus.q // qa
    if (table_bytes := -(-qb // 8)) > MAX_WINDOW_TABLE_BYTES:
        raise ResourceCapError(
            f"q={modulus.q} enumerates windows of Q_A={qa} residues against a "
            f"{table_bytes}-byte table of the image mod Q_B={qb}; the cap is "
            f"{MAX_WINDOW_TABLE_BYTES} bytes")
    return _crt_windows(masks, modulus.q, lo, modulus.q - 1 if hi is None else hi)


def check_enumeration_cap(q: int, cap_bits: int) -> None:
    """Raise ResourceCapError for q beyond cap_bits residues, and for q at or
    past MAX_ENUMERATION_MODULUS whatever cap_bits is."""
    if q > cap_bits:
        raise ResourceCapError(
            f"q={q} exceeds the {cap_bits}-residue enumeration cap; "
            "use the multiplicative correlation workflow instead"
        )
    if q >= MAX_ENUMERATION_MODULUS:
        raise ResourceCapError(
            f"q={q} is at least 2^63: the image's residues and the int64 gap table's "
            "counts cannot hold it; use the multiplicative correlation workflow instead"
        )
