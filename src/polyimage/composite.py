"""Square-free moduli: validation, CRT-multiplicative statistics, enumeration.

A modulus is an ordered tuple of distinct primes with their product q.  Sizes
and joint counts over q are products of the per-prime values, so they never
require touching all q residues.  Spacing statistics read the image itself,
streamed in sorted chunks under a configurable cap on q: each chunk is the
AND of every prime's periodic bit pattern over its window of Z/qZ, so no
length-q object is ever built.

Factorization of user-supplied q is best effort: trial division to 10^6, then
Brent's cycle finder, with Miller-Rabin primality (deterministic below 2^64).
Callers with adversarial moduli should pass the prime list explicitly.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from fractions import Fraction
from functools import reduce

import numpy as np

from .errors import InvalidInputError, NotSquareFreeError, ResourceCapError
from .parallel import pmap
from .polyarith import IntPoly, is_probable_prime
from .primeimage import ImageMask, PrimeStats, image_mask, joint_count, prime_stats

DEFAULT_CAP_BITS = 1 << 31
_TRIAL_LIMIT = 10**6
# work bound for Brent rho: factors of ~10^11 and below are found well within it
_RHO_STEPS = 1 << 20


def _brent_rho(n: int) -> int:
    """A nontrivial factor of composite odd n.  Raises ResourceCapError after
    about _RHO_STEPS iterations of the pseudo-random map in total."""
    rng = random.Random(n)
    steps = 0
    while True:
        y = rng.randrange(1, n)
        c = rng.randrange(1, n)
        m = 128
        g = r = q = 1
        x = ys = y
        while g == 1:
            if steps > _RHO_STEPS:
                raise ResourceCapError(
                    f"no factor of {n} found within {_RHO_STEPS} rho steps; "
                    "pass the prime factors with --primes"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(m, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = math.gcd(q, n)
                k += m
            steps += r + k
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(abs(x - ys), n)
        if g != n:
            return g


def _factor(n: int) -> list[int]:
    out = []
    for p in (2, 3):
        while n % p == 0:
            out.append(p)
            n //= p
    d = 5
    while d <= _TRIAL_LIMIT and d * d <= n:
        for step in (d, d + 2):
            while n % step == 0:
                out.append(step)
                n //= step
        d += 6
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out.append(m)
            continue
        g = _brent_rho(m)
        stack.extend((g, m // g))
    return sorted(out)


@dataclass(frozen=True)
class SquareFreeModulus:
    """Distinct primes and their product.  Empty (q=1) only arises internally,
    from permutation-prime reduction."""

    primes: tuple[int, ...]
    q: int

    @classmethod
    def from_primes(cls, primes) -> "SquareFreeModulus":
        ps = sorted(primes)
        for p in ps:
            if not is_probable_prime(p):
                raise InvalidInputError(f"{p} is not prime")
        if len(set(ps)) != len(ps):
            raise NotSquareFreeError(f"repeated prime in {ps}")
        return cls(tuple(ps), reduce(lambda a, b: a * b, ps, 1))


def parse_modulus(spec) -> SquareFreeModulus:
    """Validated square-free modulus from an integer or an explicit prime list."""
    if isinstance(spec, int):
        if spec <= 1:
            raise InvalidInputError(f"modulus must exceed 1, got {spec}")
        factors = _factor(spec)
        if len(set(factors)) != len(factors):
            raise NotSquareFreeError(f"{spec} is not square-free")
        return SquareFreeModulus(tuple(factors), spec)
    primes = list(spec)
    if not primes:
        raise InvalidInputError("empty prime list")
    return SquareFreeModulus.from_primes(primes)


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
    q1 = SquareFreeModulus(tuple(kept), reduce(lambda a, b: a * b, kept, 1))
    return CompositeStats(modulus, size, s_q, q1, tuple(stats))


def joint_count_composite(f: IntPoly, modulus: SquareFreeModulus, offsets) -> int:
    """Joint image count modulo q as the product of the per-prime counts,
    each offset reduced per prime."""
    offsets = list(offsets)
    return math.prod(joint_count(image_mask(f, p), offsets) for p in modulus.primes)


_ELEMENT_CHUNK_BYTES = 1 << 20


def _pattern_tile(mask: ImageMask, nbytes: int) -> np.ndarray:
    """The first nbytes packed bytes of the p-periodic image indicator,
    built by doubling the mask's bits until they cover them."""
    bits, length = mask.bits, mask.p
    while length < 8 * nbytes:
        bits |= bits << length
        length *= 2
    return np.frombuffer(bits.to_bytes((length + 7) // 8, "little"), np.uint8)[:nbytes]


def _element_chunks(masks: list[ImageMask], q: int):
    nbytes = (q + 7) // 8
    chunk = _ELEMENT_CHUNK_BYTES
    # byte b of a prime's pattern repeats at b + L, L = p / gcd(8, p); a tile
    # of L + chunk bytes holds every chunk-long window of the pattern
    tiles = []
    for mask in masks:
        period = mask.p // math.gcd(8, mask.p)
        tiles.append((period, _pattern_tile(mask, min(nbytes, period + chunk))))
    for off in range(0, nbytes, chunk):
        n = min(chunk, nbytes - off)
        acc = np.full(n, 0xFF, np.uint8)
        for period, tile in tiles:
            start = off % period
            acc &= tile[start:start + n]
        bits = np.unpackbits(acc, bitorder="little", count=min(8 * n, q - 8 * off))
        idx = np.flatnonzero(bits).astype(np.int64, copy=False)
        if len(idx):
            idx += off << 3
            yield idx


def enumerate_image(
    f: IntPoly,
    modulus: SquareFreeModulus,
    cap_bits: int = DEFAULT_CAP_BITS,
    workers: int = 1,
):
    """Sorted residues of the image of f modulo q (t with t mod p in the
    image for every p | q), as an iterator of int64 arrays covering at most
    8 * _ELEMENT_CHUNK_BYTES consecutive residues each; empty ranges are
    skipped.  Each chunk is the AND of the per-prime patterns over its
    window, so nothing of length q is held.  Refuses moduli beyond cap_bits
    at the call; correlation-style statistics stay available through the
    multiplicative path."""
    q = modulus.q
    if q > cap_bits:
        raise ResourceCapError(
            f"q={q} exceeds the {cap_bits}-bit enumeration cap; "
            "use the multiplicative correlation workflow instead"
        )
    masks = pmap(partial(image_mask, f), modulus.primes, workers)
    return _element_chunks(masks, q)
