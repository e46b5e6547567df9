"""Operations of each workload, generated from a seed.

An operation is one `polyimage` command line plus the facts its check needs
(coefficients, primes, offsets).  This module imports nothing from the
program: primes and image sizes used to build inputs are computed here.

The seed varies the concrete inputs while holding each operation's work
fixed, so that runs with different seeds are comparable.  Primes are drawn
within 1% above fixed anchors.  Spacing and correlation operations run on
fixed moduli with the polynomial replaced by a seed-chosen translate
f(x + a) + c: its image mod q is the image of f moved by c, so the gaps, the
joint counts and the cost are those of f, while the command, the masks and
the checks see a different polynomial.  Correlation windows are dilated so
that each axis of the lattice holds exactly M + 1 integers.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# ascending integer coefficients
POLYS = {
    "x^2": (0, 0, 1),
    "x^3": (0, 0, 0, 1),
    "x^4": (0, 0, 0, 0, 1),
    "x^6": (0, 0, 0, 0, 0, 0, 1),
    "x^3+x": (0, 1, 0, 1),
    "x^3-3x": (0, -3, 0, 1),
    "x^4-2x^2": (0, 0, -2, 0, 1),
}

WORKLOADS = ("spacings", "anomaly", "multiplicative")

# spacings: products of primes <= 29 between 10^8 and 10^9; both cubics have
# 7702695 image elements at either of their moduli, the peak of memory.
SPACINGS_PLAN = (("x^2", 196051310), ("x^3+x", 184848378), ("x^3-3x", 154040315),
                 ("x^4-2x^2", 190285095))

# anomaly: (command, polynomial, prime anchor, residue class mod 4)
ANOMALY_PLAN = (
    ("verify", "x^4-2x^2", 20000, 1),
    ("verify", "x^2", 30000, 3),
    ("verify", "x^3-3x", 20000, 3),
    ("critical", "x^3+x", 50000, 3),
    ("critical", "x^4-2x^2", 25000, 1),
    ("critical", "x^3", 20000, 1),
)
ANOMALY_THRESHOLD = 5

# multiplicative: `image` of monomials over --modulus with large prime factors,
# `nk` over --primes, and `correlate` over small-prime moduli.
IMAGE_PLAN = (("x^3", (1_000_000, 2_000_000)),
              ("x^4", (1_200_000, 1_500_000, 4_000_000)),
              ("x^6", (1_100_000, 8_000_000)))
NK_PLAN = (("x^2", (1_000_000, 2_500_000), 2),
           ("x^3-3x", (1_500_000, 3_000_000), 3))
# (polynomial, k, modulus, M): the lattice is {0..M}^(k-1)
CORRELATE_PLAN = (("x^2", 2, (3, 5, 7, 11, 13, 17, 19), 100_000),
                  ("x^3+x", 3, (5, 7, 11, 17, 19, 23), 500),
                  ("x^4-2x^2", 4, (5, 7, 11, 13, 23), 80))

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin, deterministic below 3.3e24."""
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_near(rng: random.Random, anchor: int, residue: int | None = None) -> int:
    """A prime at most about 1% above anchor, optionally p = residue mod 4."""
    n = anchor + rng.randrange(anchor // 100)
    while not (is_prime(n) and (residue is None or n % 4 == residue)):
        n += 1
    return n


def eval_mod(coeffs, x: int, m: int) -> int:
    return sum(c * pow(x, i, m) for i, c in enumerate(coeffs)) % m


def image_size(coeffs, p: int) -> int:
    return len({eval_mod(coeffs, x, p) for x in range(p)})


def translate(coeffs, a: int, c: int) -> list[int]:
    """Coefficients of f(x + a) + c."""
    out = [0] * len(coeffs)
    for i, ci in enumerate(coeffs):
        for j in range(i + 1):
            out[j] += ci * math.comb(i, j) * a ** (i - j)
    out[0] += c
    return out


def poly_text(coeffs) -> str:
    """The polynomial in the CLI grammar, e.g. x^3+6x^2+13x+10."""
    terms = []
    for e in range(len(coeffs) - 1, -1, -1):
        c = coeffs[e]
        if c == 0:
            continue
        mag = "" if abs(c) == 1 and e else str(abs(c))
        var = "" if e == 0 else "x" if e == 1 else f"x^{e}"
        terms.append(("-" if c < 0 else "+") + mag + var)
    return "".join(terms).lstrip("+") or "0"


def _translate_rng(rng: random.Random, poly: str) -> list[int]:
    return translate(POLYS[poly], rng.randrange(1, 1000), rng.randrange(1, 10**6))


def _op(kind: str, coeffs, argv: list[str], **facts) -> dict:
    text = poly_text(coeffs)
    return {"kind": kind, "poly": text, "coeffs": list(coeffs),
            "argv": [argv[0], *argv[1:], "--poly", text, "--workers", "1"], **facts}


def spacings_op(coeffs, q: int, primes) -> dict:
    return _op("spacings", coeffs, ["spacings", "--modulus", str(q)], q=q, primes=sorted(primes))


def anomaly_op(coeffs, p: int) -> dict:
    return _op("anomaly", coeffs, ["verify", "anomaly", "--prime", str(p),
                                   "--threshold", str(ANOMALY_THRESHOLD)],
               p=p, threshold=ANOMALY_THRESHOLD)


def critical_op(coeffs, p: int) -> dict:
    return _op("critical", coeffs, ["critical", "--prime", str(p)], p=p)


def image_op(coeffs, primes) -> dict:
    primes = sorted(primes)
    q = math.prod(primes)
    return _op("image", coeffs, ["image", "--modulus", str(q)], q=q, primes=primes)


def nk_op(coeffs, primes, offsets) -> dict:
    primes = sorted(primes)
    return _op("nk", coeffs, ["nk", "--primes", ",".join(map(str, primes)),
                              "--offsets=" + ",".join(map(str, offsets))],
               q=math.prod(primes), primes=primes, offsets=list(offsets))


def correlate_op(coeffs, k: int, primes, m: int) -> dict:
    """R_k over (0, b]^(k-1) with b = M / s_q, so each axis spans 0..M."""
    primes = sorted(primes)
    q = math.prod(primes)
    omega = math.prod(image_size(coeffs, p) for p in primes)
    b = Fraction(m * omega, q)
    window = ",".join([f"0:{b.numerator}/{b.denominator}"] * (k - 1))
    return _op("correlate", coeffs, ["correlate", "--modulus", str(q), "--k", str(k),
                                     "--window", window],
               q=q, primes=primes, k=k, m=m)


def _square_free_factors(q: int) -> list[int]:
    return [p for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29) if q % p == 0]


def build(workload: str, seed: int) -> list[dict]:
    """The operations of one round of the workload, in order."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "spacings":
        return [spacings_op(_translate_rng(rng, f), q, _square_free_factors(q))
                for f, q in SPACINGS_PLAN]
    if workload == "anomaly":
        make = {"verify": anomaly_op, "critical": critical_op}
        return [make[cmd](POLYS[f], prime_near(rng, anchor, cls))
                for cmd, f, anchor, cls in ANOMALY_PLAN]
    if workload == "multiplicative":
        ops = [image_op(POLYS[f], [prime_near(rng, a) for a in anchors])
               for f, anchors in IMAGE_PLAN]
        for f, anchors, n in NK_PLAN:
            offsets = [rng.choice((-1, 1)) * rng.randrange(1, 1000) for _ in range(n)]
            ops.append(nk_op(POLYS[f], [prime_near(rng, a) for a in anchors], offsets))
        for f, k, primes, m in CORRELATE_PLAN:
            ops.append(correlate_op(_translate_rng(rng, f), k, primes, m))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
