"""Square-free moduli: validation, CRT-multiplicative statistics, enumeration.

A modulus is an ordered tuple of distinct primes with their product q.  Sizes
and joint counts over q are products of the per-prime values, so they never
require touching all q residues; the explicit length-q image bitmap is built
only when spacing statistics ask for it, under a configurable memory cap, by
tiling each prime's periodic bit pattern across a packed byte array.

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

    @property
    def omega(self) -> int:
        return len(self.primes)


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


def drop_permutation_primes(f: IntPoly, modulus: SquareFreeModulus) -> SquareFreeModulus:
    """Sub-modulus of the primes where f is not a bijection; the others
    contribute a full cylinder to every statistic and carry no information."""
    kept = [p for p in modulus.primes if image_mask(f, p).count < p]
    return SquareFreeModulus(tuple(kept), reduce(lambda a, b: a * b, kept, 1))


def joint_count_composite(f: IntPoly, modulus: SquareFreeModulus, offsets) -> int:
    """Joint image count modulo q as the product of the per-prime counts,
    each offset reduced per prime."""
    offsets = list(offsets)
    return math.prod(joint_count(image_mask(f, p), offsets) for p in modulus.primes)


class EnumeratedImage:
    """Packed length-q bitmap of the image of f modulo q, with sorted
    iteration over the elements in chunks."""

    def __init__(self, modulus: SquareFreeModulus, packed: np.ndarray, count: int):
        self.modulus = modulus
        self.q = modulus.q
        self.packed = packed
        self.count = count
        packed.flags.writeable = False

    def contains(self, t: int) -> bool:
        t %= self.q
        return bool(self.packed[t >> 3] >> (t & 7) & 1)

    def bit_int(self) -> int:
        return int.from_bytes(self.packed.tobytes(), "little")

    def elements(self) -> np.ndarray:
        """Sorted residues in the image, as int64."""
        out = []
        chunk = _ELEMENT_CHUNK_BYTES
        for off in range(0, len(self.packed), chunk):
            part = np.unpackbits(self.packed[off:off + chunk], bitorder="little")
            idx = np.flatnonzero(part).astype(np.int64)
            idx += off << 3
            out.append(idx)
        res = np.concatenate(out) if out else np.zeros(0, np.int64)
        return res[res < self.q]


_ELEMENT_CHUNK_BYTES = 1 << 20


def _tiled_pattern(mask: ImageMask, nbytes: int) -> np.ndarray:
    """The p-periodic image indicator tiled into nbytes packed bytes."""
    p = mask.p
    pattern = np.frombuffer(mask.bits.to_bytes((p + 7) // 8, "little"), np.uint8)
    bools = np.unpackbits(pattern, bitorder="little", count=p)
    period_bits = np.lcm(8, p)
    period = np.packbits(np.tile(bools, period_bits // p), bitorder="little")
    reps = -(-nbytes // len(period))
    return np.tile(period, reps)[:nbytes]


def enumerate_image(
    f: IntPoly,
    modulus: SquareFreeModulus,
    cap_bits: int = DEFAULT_CAP_BITS,
    workers: int = 1,
) -> EnumeratedImage:
    """Explicit image bitmap modulo q: bit t is set iff t mod p lands in the
    image for every p | q.  Refuses moduli beyond cap_bits; correlation-style
    statistics stay available through the multiplicative path."""
    q = modulus.q
    if q > cap_bits:
        raise ResourceCapError(
            f"q={q} exceeds the {cap_bits}-bit enumeration cap; "
            "use the multiplicative correlation workflow instead"
        )
    nbytes = (q + 7) // 8
    masks = pmap(partial(image_mask, f), modulus.primes, workers)
    acc = np.full(nbytes, 0xFF, np.uint8)
    for mask in masks:
        acc &= _tiled_pattern(mask, nbytes)
    if q & 7:
        acc[-1] &= (1 << (q & 7)) - 1
    count = int(np.bitwise_count(acc).sum())
    return EnumeratedImage(modulus, acc, count)
