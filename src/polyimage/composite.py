"""Square-free moduli: validation, CRT-multiplicative statistics, enumeration.

A modulus is an ordered tuple of distinct primes with their product q.  Sizes
and joint counts over q are products of the per-prime values, so they never
require touching all q residues.  Spacing statistics read the image itself,
streamed in sorted chunks under a configurable cap on q, by CRT windows: a
window of Q_A residues (Q_A <= 2^18, the smallest primes) keeps the a in the
image mod Q_A whose bit is set in the packed q/Q_A-bit image mod the rest.

Factorization of user-supplied q is best effort: trial division to 10^4, then
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
_TRIAL_LIMIT = 10**4
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


# bounds on Q_A and on the candidates a chunk tests (2^18 candidates was slower)
_A_RESIDUES = 1 << 18
_CHUNK_CANDIDATES = 1 << 17


def _packed_image(masks: list[ImageMask], n: int) -> np.ndarray:
    """The residues mod n = prod(p) in every mask's image, as at least n bits
    in little-endian 64-bit words: each mask's bits doubled to cover n, ANDed."""
    acc = None if masks else 1
    for mask in masks:
        bits, length = mask.bits, mask.p
        while length < n:
            bits, length = bits | bits << length, 2 * length
        acc = bits if acc is None else acc & bits
    return np.frombuffer(acc.to_bytes((max(acc.bit_length(), n) + 63) // 64 * 8, "little"), "<i8")


def _crt_windows(masks: list[ImageMask], q: int):
    """The image in windows [k*Q_A, (k+1)*Q_A), A the longest prefix of the
    ascending primes with Q_A <= _A_RESIDUES and B the rest: k*Q_A + a, a in
    the image mod Q_A, is in it iff bit (a + k*Q_A) mod Q_B of the image mod
    Q_B is set.  For k = k0 + t that is (a + k0*Q_A) mod Q_B + t*Q_A mod Q_B,
    wrapped once at most.  A chunk spans under 2^31 residues."""
    split, qa = 0, 1
    while split < len(masks) and qa * masks[split].p <= _A_RESIDUES:
        qa *= masks[split].p
        split += 1
    qb, u64 = q // qa, np.uint64
    ia = np.flatnonzero(np.unpackbits(_packed_image(masks[:split], qa).view(np.uint8),
                                      count=qa, bitorder="little"))
    table = _packed_image(masks[split:], qb)
    width = min(qb, max(1, _CHUNK_CANDIDATES // len(ia)), ((1 << 31) - 1) // qa)
    rows = np.arange(width)[:, None] * qa
    candidates, steps = rows + ia, rows % qb
    idx, tmp, word = np.empty((3,) + candidates.shape, np.int64)
    hit = np.empty(candidates.shape, bool)
    for k in range(0, qb, width):
        i, t, w, h, s, c = (buf[:qb - k] for buf in (idx, tmp, word, hit, steps, candidates))
        np.add(s, (ia + k * qa) % qb, out=i)
        # i - qb < 0 is above i as unsigned; int64 indices keep take from converting
        np.minimum(i.view(u64), np.subtract(i, qb, out=t).view(u64), out=i.view(u64))
        np.take(table, np.right_shift(i, 6, out=t), out=w, mode="clip")
        np.right_shift(w, np.bitwise_and(i, 63, out=t), out=w)
        els = c.ravel()[np.flatnonzero(np.bitwise_and(w, 1, out=h, casting="unsafe"))]
        if len(els):
            yield els + k * qa


def enumerate_image(
    f: IntPoly,
    modulus: SquareFreeModulus,
    cap_bits: int = DEFAULT_CAP_BITS,
    workers: int = 1,
):
    """Sorted residues of the image of f modulo q (t with t mod p in the
    image for every p | q), as an iterator of int64 arrays of about
    _CHUNK_CANDIDATES candidates each; empty ranges are skipped.  CRT
    windows (_crt_windows) make that about q/s_A candidate tests, and the
    one object that grows with q is the image mod Q_B in q/Q_A packed bits.
    Refuses moduli beyond cap_bits at the call; correlation-style statistics
    stay available through the multiplicative path."""
    q = modulus.q
    if q > cap_bits:
        raise ResourceCapError(
            f"q={q} exceeds the {cap_bits}-residue enumeration cap; "
            "use the multiplicative correlation workflow instead"
        )
    masks = pmap(partial(image_mask, f), modulus.primes, workers)
    return _crt_windows(masks, q)
