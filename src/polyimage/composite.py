"""Square-free moduli: validation, CRT-multiplicative statistics, enumeration.

A modulus is an ordered tuple of distinct primes with their product q.  Sizes
and joint counts over q are products of the per-prime values, so they never
require touching all q residues.  Spacing statistics read the image itself,
streamed in sorted chunks under a configurable cap on q, by CRT windows: a
window of Q_A residues (Q_A <= 2^18, the smallest primes) keeps the a in the
image mod Q_A whose bit is set in the packed q/Q_A-bit image mod the rest.
That image is held in window order, so one 8-byte load answers 56
consecutive windows for one a.

Factorization of user-supplied q is best effort (polyarith._factor: trial
division to 10^4, then Brent's cycle finder, with Miller-Rabin primality,
deterministic below 2^64).  Callers with adversarial moduli should pass the
prime list explicitly.  composite_stats may spread the per-prime statistics
over a process pool; enumerate_image builds its masks in this process,
through the image_mask cache.
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
from .primeimage import ImageMask, PrimeStats, image_mask, joint_count, prime_stats

DEFAULT_CAP_BITS = 1 << 31


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
    modulus: SquareFreeModulus
    omega_q_size: int
    s_q: Fraction
    q1_reduced: SquareFreeModulus
    per_prime: tuple[PrimeStats, ...]


def composite_stats(f: IntPoly, modulus: SquareFreeModulus, workers: int = 1) -> CompositeStats:
    stats = pmap(partial(prime_stats, f), modulus.primes, workers)
    size = 1
    s_q = Fraction(1)
    kept = []
    for st in stats:
        size *= st.omega_size
        s_q *= st.s_p
        if not st.is_permutation:
            kept.append(st.p)
    q1 = SquareFreeModulus(tuple(kept), math.prod(kept))
    return CompositeStats(modulus, size, s_q, q1, tuple(stats))


def joint_count_composite(f: IntPoly, modulus: SquareFreeModulus, offsets) -> int:
    """Joint image count modulo q as the product of the per-prime counts,
    each offset reduced per prime."""
    offsets = list(offsets)
    return math.prod(joint_count(image_mask(f, p), offsets) for p in modulus.primes)


# bounds on Q_A and on the candidates a chunk tests (2^18 candidates was slower),
# and the bits a step of _scaled_bits gathers
_A_RESIDUES = 1 << 18
_CHUNK_CANDIDATES = 1 << 17
_SCALE_BLOCK = 1 << 12


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


def _packed_image(masks: list[ImageMask], n: int, scale: int) -> bytes:
    """The residues mod n = prod(p) in every mask's image, in scaled order:
    bit k set iff scale*k mod n is in the image, for k < n, then zero bits
    to 8 bytes past the n-th.  Each mask is scaled (as it is when scale is 1
    mod p), doubled to cover n and ANDed, so one prime holds one n-bit copy."""
    acc = None if masks else 1
    for mask in masks:
        bits, length = _scaled_bits(mask, scale % mask.p), mask.p
        while length < n:
            bits, length = bits | bits << length, 2 * length
        acc = bits if acc is None else acc & bits
    if acc.bit_length() > n:
        acc &= (1 << n) - 1
    return acc.to_bytes((n + 7) // 8 + 8, "little")


def _crt_windows(masks: list[ImageMask], q: int):
    """The image in windows [k*Q_A, (k+1)*Q_A), A the longest prefix of the
    ascending primes with Q_A <= _A_RESIDUES and B the rest.  The image mod
    Q_B is held in window order T (bit k set iff Q_A*k mod Q_B is in it), so
    k*Q_A + a, a in the image mod Q_A, is in the image iff bit (k + a*u) mod
    Q_B of T is set, u = Q_A^-1 mod Q_B: one unaligned 8-byte load gives a's
    bits for 56 consecutive windows.  A load covers 56*blocks windows, a
    chunk 8*rows windows and under 2^31 residues."""
    split, qa = 0, 1
    while split < len(masks) and qa * masks[split].p <= _A_RESIDUES:
        qa *= masks[split].p
        split += 1
    qb, u64 = q // qa, np.uint64
    ia = np.flatnonzero(np.unpackbits(np.frombuffer(_packed_image(masks[:split], qa, 1), np.uint8),
                                      count=qa, bitorder="little"))
    table = _packed_image(masks[split:], qb, qa)
    words = np.ndarray((len(table) - 7,), "<u8", table, strides=(1,))  # word i: bits 8i..8i+63
    head = int.from_bytes(table[:8], "little")  # T's first 64 bits, cyclically
    head = u64(sum(head << s for s in range(0, 64, qb)) & (2**64 - 1))
    n, span = len(ia), ((1 << 31) - 1) // qa
    blocks = max(1, min(_CHUNK_CANDIDATES // (56 * n), span // 56, -(-qb // 56)))
    rows = min(7 * blocks, max(1, _CHUNK_CANDIDATES // (8 * n)))
    starts = 56 * np.arange(blocks)[:, None]
    delta = ia * pow(qa, -1, qb) % qb
    candidates = (np.arange(8 * rows, dtype=np.int32)[:, None] * qa + ia.astype(np.int32)).ravel()
    off, tmp = np.empty((2, blocks, n), np.int64)
    for k0 in range(0, qb, 56 * blocks):
        # off - qb < 0 is above off as unsigned
        np.add((starts + k0) % qb, delta, out=off)
        np.minimum(off.view(u64), np.subtract(off, qb, out=tmp).view(u64), out=off.view(u64))
        word = words[np.right_shift(off, 3, out=tmp)]  # np.take would copy the unaligned words
        np.right_shift(word, np.bitwise_and(off, 7, out=tmp).view(u64), out=word)
        # past Q_B a word reads zero padding, filled with head shifted up by the bits left
        np.minimum(np.subtract(qb, off, out=tmp), 63, out=tmp)
        word |= np.left_shift(head, tmp.view(u64), out=tmp.view(u64))
        # byte j of block b holds windows k0 + 56b + 8j..+7: one row per byte
        window_bytes = word.view(np.uint8).reshape(blocks, n, 8)[:, :, :7].transpose(0, 2, 1)
        window_bytes = window_bytes.reshape(7 * blocks, n)
        for r in range(0, 7 * blocks, rows):
            k = k0 + 8 * r
            if k >= qb:
                break
            # flatnonzero reads a bool view 4 times as fast as the uint8 bytes
            hit = np.unpackbits(window_bytes[r:r + rows], axis=0, count=min(8 * rows, qb - k),
                                bitorder="little")
            els = candidates[np.flatnonzero(hit.view(bool))] + np.int64(k * qa)
            if len(els):
                yield els


def enumerate_image(f: IntPoly, modulus: SquareFreeModulus, cap_bits: int = DEFAULT_CAP_BITS):
    """Sorted residues of the image of f modulo q (t with t mod p in the
    image for every p | q), as an iterator of int64 arrays of whole windows,
    about _CHUNK_CANDIDATES candidates each and at least 8 windows; empty
    ranges are skipped.  CRT windows (_crt_windows) test q/s_A candidates at
    one unpacked byte each, after one 8-byte load per element of the image
    mod Q_A per 56 windows, and the one object that grows with q is the
    image mod Q_B in q/Q_A packed bits.
    Refuses moduli beyond cap_bits at the call; correlation-style statistics
    stay available through the multiplicative path."""
    q = modulus.q
    if q > cap_bits:
        raise ResourceCapError(
            f"q={q} exceeds the {cap_bits}-residue enumeration cap; "
            "use the multiplicative correlation workflow instead"
        )
    return _crt_windows([image_mask(f, p) for p in modulus.primes], q)
