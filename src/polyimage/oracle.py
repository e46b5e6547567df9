"""Brute-force reference implementations.

Everything here is a direct transcription of a definition: loop over all
residues, no bitsets, no CRT, no resultants beyond the critical-value
polynomial C that defines the obstruction sets, which are found by one gcd
per shift (brute_critical_diffs, brute_critical_diffs_integers).
Deliberately slow and boring; the tests trust these and check the fast paths
against them.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInputError
from .polyarith import FpPoly, IntPoly, critical_diffs_mod, critical_value_poly, fp_gcd

MAX_BRUTE_MODULUS = 10**6


def brute_image(f: IntPoly, m: int) -> list[int]:
    """Sorted image of f modulo m by evaluating every residue, term by term on
    purpose (it shares nothing with the Horner paths), over the nonzero terms."""
    if m > MAX_BRUTE_MODULUS:
        raise InvalidInputError(f"brute-force modulus {m} exceeds {MAX_BRUTE_MODULUS}")
    terms = [(i, c) for i, c in enumerate(f.coeffs) if c]
    return sorted({sum(c * pow(x, i, m) for i, c in terms) % m for x in range(m)})


def brute_joint_count(f: IntPoly, m: int, offsets) -> int:
    """Count of image elements t with every t + h also in the image."""
    image = set(brute_image(f, m))
    offsets = list(offsets)
    return sum(
        1
        for t in image
        if all((t + h) % m in image for h in offsets)
    )


def brute_critical_diffs(f: IntPoly, p: int) -> list[int]:
    """Residues h in [0, p) with deg gcd(C_p(y), C_p(y + h)) > 0, one gcd per
    shift, C_p from critical_diffs_mod; InvalidInputError in the wild regime."""
    if p > MAX_BRUTE_MODULUS:
        raise InvalidInputError(f"brute-force modulus {p} exceeds {MAX_BRUTE_MODULUS}")
    if (d := FpPoly(p, f.derivative().coeffs)).is_zero or d.degree >= p:
        raise InvalidInputError(f"f' mod {p} vanishes or has degree >= {p}")
    c = critical_diffs_mod(f, p).poly
    return [h for h in range(p) if fp_gcd(c, c.shifted(h)).degree > 0]


def ks_statistic_exponential(values) -> float:
    """Sup distance between the empirical CDF of the values and 1-e^{-t},
    evaluated at the jump points from both sides."""
    vs = sorted(float(v) for v in values)
    if not vs:
        raise InvalidInputError("empty sample")
    n = len(vs)
    return max(max(-math.expm1(-t) - i / n, (i + 1) / n + math.expm1(-t))
               for i, t in enumerate(vs))


def _gcd_degree_q(a: IntPoly, b: IntPoly) -> int:
    """Degree of gcd(a, b) over Q, by Euclid on Fraction coefficients."""
    u = [Fraction(c) for c in a.coeffs]
    v = [Fraction(c) for c in b.coeffs]
    while v:
        while len(u) >= len(v):
            q, shift = u[-1] / v[-1], len(u) - len(v)
            for i, c in enumerate(v):
                u[shift + i] -= q * c
            while u and not u[-1]:
                u.pop()
        u, v = v, u
    return len(u) - 1


def brute_critical_diffs_integers(f: IntPoly, radius: int) -> list[int]:
    """Integers |r| <= radius with gcd(C(y), C(y + r)) nonconstant over Q."""
    c = critical_value_poly(f)
    return [r for r in range(-radius, radius + 1) if _gcd_degree_q(c, c.shifted(r)) > 0]

