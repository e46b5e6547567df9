"""Exact polynomial arithmetic over Z and F_p.

Coefficients are stored ascending (coeffs[i] multiplies x**i) with no trailing
zeros; the zero polynomial is the empty tuple.  The IntPoly and FpPoly
constructors alone normalize (FpPoly also reduces mod p), and parse_poly
refuses a degree past MAX_DEGREE before it builds one.  On top of the ring
operations this module provides primality, the package's one integer
factorizer (_factor), roots over F_p, and one resultant algorithm,
fp_resultant (Euclid over F_p).  Every other resultant is its values,
interpolated in a second variable or lifted by CRT from primes below 2^62:
int_resultant, the critical-value polynomial C(y) = Res_x(f'(x), y - f(x)) of
f, and the shift resultants R(h) = Res_y(C(y), C(y + h)).  The obstruction
sets of critical-value differences (the integer differences and, per prime,
the residues h where two critical values collide after a shift by h) are the
zeros of R mod a prime, found by collision_shifts.  m = deg C is read from f
and capped by MAX_CRITICAL_DEGREE before any resultant, and the cost in the
size of the prime is bounded by MAX_OBSTRUCTION_WORK.  Where f' vanishes mod p
or p <= deg f' mod p (the wild regime) the critical points in F_p are scanned
instead, within MAX_WILD_SCAN_WORK.  Offsets whose pairwise differences avoid
the mod-p obstruction set are exactly the ones where joint image counts follow
the independence model.

Everything here is pure and exact; nothing touches floating point.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import count, zip_longest

from .errors import DegenerateInputError, InvalidInputError, ResourceCapError, WildModulusError


def _trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPoly:
    """Univariate polynomial with arbitrary-precision integer coefficients.
    The constructor takes any iterable of coefficients and trims it."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def derivative(self) -> "IntPoly":
        return IntPoly(i * c for i, c in enumerate(self.coeffs) if i)

    def shifted(self, r: int) -> "IntPoly":
        """f(x + r), exact Taylor shift."""
        out: list[int] = []
        for c in reversed(self.coeffs):
            carry = c
            for i, o in enumerate(out):
                out[i] = o * r + carry
                carry = o
            out.append(carry)
        # Horner in (x + r) leaves coefficients in ascending order already.
        return IntPoly(out)

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Content removed, leading coefficient made positive."""
        if self.is_zero:
            return self
        c = self.content()
        if self.coeffs[-1] < 0:
            c = -c
        return IntPoly(x // c for x in self.coeffs)


@dataclass(frozen=True)
class FpPoly:
    """Polynomial over F_p.  The constructor takes any iterable of integer
    coefficients, reduces them into [0, p) and trims the result."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _trim(c % self.p for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def leading(self) -> int:
        if self.is_zero:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def evaluate(self, x: int) -> int:
        acc = 0
        x %= self.p
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % self.p
        return acc

    def derivative(self) -> "FpPoly":
        return FpPoly(self.p, (i * c for i, c in enumerate(self.coeffs) if i))

    def shifted(self, r: int) -> "FpPoly":
        """f(x + r) over F_p."""
        p = self.p
        r %= p
        out: list[int] = []
        for c in reversed(self.coeffs):
            carry = c
            for i, o in enumerate(out):
                out[i] = (o * r + carry) % p
                carry = o
            out.append(carry)
        return FpPoly(p, out)

    def monic(self) -> "FpPoly":
        if self.is_zero or self.leading == 1:
            return self
        inv = pow(self.leading, -1, self.p)
        return FpPoly(self.p, (c * inv for c in self.coeffs))

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        return FpPoly(self.p, (a - b for a, b in
                               zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return FpPoly(self.p, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return FpPoly(self.p, out)

    def __divmod__(self, other: "FpPoly") -> tuple["FpPoly", "FpPoly"]:
        self._check(other)
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        p = self.p
        rem = list(self.coeffs)
        db = other.degree
        inv = pow(other.leading, -1, p)
        quo = [0] * max(len(rem) - db, 0)
        for k in range(len(rem) - db - 1, -1, -1):
            c = rem[db + k] * inv % p
            if c:
                quo[k] = c
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = (rem[k + i] - c * b) % p
        return FpPoly(p, quo), FpPoly(p, rem)

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return divmod(self, other)[1]

    def _check(self, other: "FpPoly") -> None:
        if self.p != other.p:
            raise InvalidInputError(f"modulus mismatch: {self.p} != {other.p}")


# ---------------------------------------------------------------------------
# parsing / rendering

# Largest degree parse_poly accepts, checked before the dense coefficient list
# is built: the wild-regime scan of critical_diffs_mod needs degrees past the
# primes it is asked about, and an image mask costs one Horner pass a degree.
MAX_DEGREE = 1 << 16

_TERM = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<coeff>\d+)\*?)?(?P<var>x(?:\^(?P<exp>\d+))?)?",
)


def parse_poly(text: str) -> IntPoly:
    """Parse the polynomial grammar: integer coefficients, variable x,
    operators + - * ^, e.g. ``x^4-2x^2``.  Whitespace is ignored.  A degree
    above MAX_DEGREE raises ResourceCapError."""
    s = re.sub(r"\s+", "", text)
    if not s:
        raise InvalidInputError("empty polynomial")
    coeffs: dict[int, int] = {}
    pos = 0
    first = True
    while pos < len(s):
        m = _TERM.match(s, pos)
        if not m or m.end() == pos:
            raise InvalidInputError(f"cannot parse polynomial near {s[pos:]!r}")
        sign, coeff, var, exp = m.group("sign", "coeff", "var", "exp")
        if not sign and not first:
            raise InvalidInputError(f"missing operator near {s[pos:]!r}")
        if coeff is None and var is None:
            raise InvalidInputError(f"dangling sign near {s[pos:]!r}")
        c = int(coeff) if coeff is not None else 1
        if sign == "-":
            c = -c
        if exp is not None and len(exp.lstrip("0")) > len(str(MAX_DEGREE)):
            # refused before int() meets a string of thousands of digits
            raise ResourceCapError(f"a degree of {len(exp.lstrip('0'))} digits exceeds "
                                   f"the cap {MAX_DEGREE}")
        e = 0
        if var is not None:
            e = int(exp) if exp is not None else 1
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
        first = False
    degree = max(coeffs)
    if degree > MAX_DEGREE:
        raise ResourceCapError(f"degree {degree} exceeds the cap {MAX_DEGREE}")
    return IntPoly(coeffs.get(e, 0) for e in range(degree + 1))


def poly_to_text(f, var: str = "x") -> str:
    if f.is_zero:
        return "0"
    parts = []
    for e in range(f.degree, -1, -1):
        c = f.coeffs[e]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        a = abs(c)
        if e == 0:
            body = str(a)
        else:
            body = ("" if a == 1 else str(a)) + (var if e == 1 else f"{var}^{e}")
        parts.append(sign + body)
    return "".join(parts)


# ---------------------------------------------------------------------------
# gcds, roots, primality

def fp_gcd(a: FpPoly, b: FpPoly) -> FpPoly:
    """Monic gcd over F_p.  gcd(a, 0) = monic(a)."""
    a._check(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


def _fp_powmod(base: FpPoly, e: int, mod: FpPoly) -> FpPoly:
    """base^e mod `mod` by square-and-multiply."""
    out = FpPoly(mod.p, (1,)) % mod
    base = base % mod
    while e:
        if e & 1:
            out = out * base % mod
        e >>= 1
        if e:
            base = base * base % mod
    return out


def fp_roots(g: FpPoly) -> list[int]:
    """The distinct roots of a nonzero g in F_p, ascending.

    g is first cut to gcd(g, h^p - h), the product of its distinct linear
    factors; each factor of degree d >= 2 is then split by
    gcd(., (h + a)^((p-1)/2) - 1) for a = 0, 1, 2, ... until the split is
    proper (Cantor-Zassenhaus with deterministic a: for two distinct roots
    some a < p separates them, so a only affects the running time).
    """
    p = g.p
    h = FpPoly(p, (0, 1))
    g = fp_gcd(g, _fp_powmod(h, p, g) - h)
    if p == 2:
        return [r for r in (0, 1) if g.evaluate(r) == 0]
    one = FpPoly(p, (1,))
    roots = []
    stack = [g]
    while stack:
        g = stack.pop()
        if g.degree == 1:
            roots.append(-g.coeffs[0] % p)
            continue
        if g.degree < 1:
            continue
        a = 0
        while True:
            d = fp_gcd(g, _fp_powmod(FpPoly(p, (a, 1)), (p - 1) // 2, g) - one)
            if 0 < d.degree < g.degree:
                break
            a += 1
        stack += [d, divmod(g, d)[0]]
    return sorted(roots)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with fixed bases; deterministic for n < 2^64."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
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
    """The prime factors of n >= 1 with multiplicity, ascending: trial
    division to _TRIAL_LIMIT, then Brent's cycle finder on what is left,
    with is_probable_prime deciding when a cofactor is prime."""
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


def _proth_prime(lo: int, avoid: int) -> int:
    """A prime P = k * 2^n + 1 > lo not dividing `avoid`, k odd and k < 2^n:
    is_probable_prime screens out squares and other composites, then Proth's
    theorem proves P prime by a^((P-1)/2) = -1 mod P for some a < 2^10."""
    for n in count(lo.bit_length() // 2 + 1):
        for k in range(-(-lo >> n) | 1, 1 << n, 2):
            p = (k << n) + 1
            if avoid % p and is_probable_prime(p) and any(
                    pow(a, p >> 1, p) == p - 1 for a in range(2, 1 << 10)):
                return p


# ---------------------------------------------------------------------------
# resultants

@lru_cache(maxsize=None)
def _prime_below(n: int) -> int:
    """The largest prime below n; cached, as _lift walks the same primes down
    from 2^62 on every call."""
    n -= 1
    while not is_probable_prime(n):
        n -= 1
    return n


def _lift(at_prime, bound: int, avoid: int) -> list[int]:
    """Integers of absolute value at most `bound` from their residues
    at_prime(p) mod primes p below 2^62 that do not divide `avoid` (Collins'
    modular resultant algorithm, J. ACM 1971).  at_prime(p) gives one residue
    per integer; a missing trailing residue stands for 0.  Residues are
    combined by CRT until the product M of the primes exceeds 2 * bound, then
    lifted into (-M/2, M/2)."""
    values: list[int] = []
    modulus, p = 1, 2**62
    while modulus <= 2 * bound:
        p = _prime_below(p)
        if avoid % p == 0:
            continue
        inv = pow(modulus, -1, p)
        values = [v + modulus * ((r - v) * inv % p)
                  for v, r in zip_longest(values, at_prime(p), fillvalue=0)]
        modulus *= p
    return [v - modulus if 2 * v > modulus else v for v in values]


def _resultant_bound(a_row, b_row) -> int:
    """Hadamard's bound on |Res(a, b)| from the coefficient rows of a and b:
    the Sylvester matrix holds deg b rows of a and deg a rows of b.  An entry
    that is a polynomial in y, such as y - f_0, counts as the sum of its
    |coefficients| (Goldstein-Graham, SIAM Review 1974)."""
    return math.isqrt(sum(v * v for v in a_row) ** (len(b_row) - 1)
                      * sum(v * v for v in b_row) ** (len(a_row) - 1)) + 1


def int_resultant(a: IntPoly, b: IntPoly) -> int:
    """Res(a, b) over Z: fp_resultant at primes below 2^62 that keep both
    degrees, lifted by CRT."""
    if a.is_zero or b.is_zero:
        return 0
    return _lift(lambda q: [fp_resultant(FpPoly(q, a.coeffs), FpPoly(q, b.coeffs))],
                 _resultant_bound(a.coeffs, b.coeffs), a.leading * b.leading)[0]


def fp_resultant(a: FpPoly, b: FpPoly) -> int:
    """Res(a, b) over F_p, zero iff a and b share a root in the closure."""
    a._check(b)
    p = a.p
    if a.is_zero or b.is_zero:
        return 0
    if a.degree == 0 and b.degree == 0:
        return 1
    if a.degree < b.degree:
        s = -1 if (a.degree % 2 == 1 and b.degree % 2 == 1) else 1
        return s * fp_resultant(b, a) % p
    res = 1
    while b.degree > 0:
        r = a % b
        if r.is_zero:
            return 0
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            res = -res
        res = res * pow(b.leading, a.degree - r.degree, p) % p
        a, b = b, r
    return res * pow(b.coeffs[0], a.degree, p) % p


def _interp_fp(p: int, points: list[tuple[int, int]]) -> FpPoly:
    """The polynomial of degree below n = len(points) through the points
    (distinct x) over F_p, by Lagrange in O(n^2): the node polynomial
    prod (x - x_j) is built once, and each basis polynomial is its quotient by
    x - x_i, found by synthetic division along with its value at x_i."""
    n = len(points)
    node = [1]
    for xj, _ in points:
        node = [0, *node]
        for k in range(len(node) - 1):
            node[k] = (node[k] - node[k + 1] * xj) % p
    out = [0] * n
    for xi, yi in points:
        basis, carry, denom = [0] * n, 0, 0
        for k in range(n - 1, -1, -1):  # the quotient from the top, and Horner at x_i
            carry = basis[k] = (node[k + 1] + carry * xi) % p
            denom = (denom * xi + carry) % p
        w = yi * pow(denom, -1, p) % p
        for k, c in enumerate(basis):
            out[k] += w * c
    return FpPoly(p, out)


# ---------------------------------------------------------------------------
# critical values and obstruction sets

@dataclass(frozen=True)
class ObstructionSet:
    """Differences of critical values: integers (modulus None) or residues
    modulo a prime.  Offsets h with h in the set are the ones where shifted
    critical-value sets overlap.  `poly` is the C the set was read from (None
    in the wild regime), left out of comparisons."""

    modulus: int | None
    elements: tuple[int, ...]
    approximate: bool = False
    poly: IntPoly | FpPoly | None = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.elements))

    def __contains__(self, h: int) -> bool:
        if self.modulus is not None:
            h %= self.modulus
        return h in self._members


def _critical_resultant(fbar: FpPoly, dbar: FpPoly) -> FpPoly:
    """Res_x(f'(x), y - f(x)) mod p from fbar = f mod p and dbar = fbar', of
    degree deg dbar in y, interpolated from its values fp_resultant(dbar,
    y - fbar) at y = 0, ..., deg dbar.  Needs 0 <= deg dbar < p."""
    p = fbar.p
    return _interp_fp(p, [(y, fp_resultant(dbar, FpPoly(p, (y,)) - fbar))
                          for y in range(dbar.degree + 1)])


def _reduced(f: IntPoly, p: int) -> tuple[FpPoly, FpPoly, bool]:
    """f mod p, its derivative, and whether p is tame for f: f' mod p is
    nonzero of degree m < p, so C mod p has degree m and m + 1 interpolation
    nodes.  Otherwise p is in the wild regime.  Raises DegenerateInputError
    for deg f < 2."""
    if f.degree < 2:
        raise DegenerateInputError("no critical structure: deg f < 2")
    fbar = FpPoly(p, f.coeffs)
    dbar = fbar.derivative()
    return fbar, dbar, 0 <= dbar.degree < p


def critical_value_poly(f: IntPoly, p: int | None = None):
    """The polynomial C(y) = Res_x(f'(x), y - f(x)) whose roots (with
    multiplicity) are the critical values of f: over Z when p is None
    (primitive, positive leading coefficient), else over F_p (monic).

    Raises DegenerateInputError for deg f < 2 and WildModulusError when p
    is in the wild regime (_reduced).
    """
    if p is not None:
        fbar, dbar, tame = _reduced(f, p)
        if not tame:
            raise WildModulusError(f"f' mod {p} vanishes or has degree >= {p}")
        return _critical_resultant(fbar, dbar).monic()
    if f.degree < 2:
        raise DegenerateInputError("no critical structure: deg f < 2")
    fp = f.derivative()
    bound = _resultant_bound(fp.coeffs, [abs(f.coeffs[0]) + 1, *map(abs, f.coeffs[1:])])
    return IntPoly(_lift(
        lambda q: _critical_resultant(FpPoly(q, f.coeffs), FpPoly(q, fp.coeffs)).coeffs,
        bound, fp.leading * f.leading)).primitive()


def difference_resultant(c: FpPoly) -> FpPoly:
    """R(h) = Res_y(C(y), C(y + h)) for C over F_p of degree m >= 1, p > m^2.

    R(h) = lc(C)^(2m) * prod (h + a - b) over pairs of roots a, b of C, so it
    has degree m^2, is never zero, and its roots are exactly the h with
    gcd(C(y), C(y + h)) nonconstant.  It is interpolated from R(0), ..., R(m^2).
    """
    return _interp_fp(c.p, [(h, fp_resultant(c, c.shifted(h))) for h in range(c.degree**2 + 1)])


def collision_shifts(c: FpPoly) -> list[int]:
    """The h in F_p, ascending, where C meets its own translate: the zeros of
    R(h) = Res_y(C(y), C(y + h)), read off R(0), ..., R(p - 1) for p <= m^2
    (m = deg C), else the roots of difference_resultant(c)."""
    if c.p <= c.degree**2:
        return [h for h in range(c.p) if fp_resultant(c, c.shifted(h)) == 0]
    return fp_roots(difference_resultant(c))


# Largest m = deg C whose obstruction sets are computed: rooting the degree-m^2
# difference resultant mod P costs about m^4 log P.  The slowest case measured
# at m = 20, critical --poly x^21+3x^7-5x^2+x --prime 2^61-1, took 8.9 s as a
# process on a 2-core machine; m = 22 took 12.7 s.
MAX_CRITICAL_DEGREE = 20
# Largest work estimate _check_obstruction_work accepts: m^4 * b products of
# b-bit residues mod P, each about 256 + d^2 CPython digit operations (d the
# 30-bit digits of P; 256 stands for the interpreter's cost per product).
# critical_diffs_mod at m = 20 took 5.5, 7.1 and 13.9 s (CPU, 2-core machine)
# at primes of 61, 89 and 127 bits, estimated 2.6e9, 3.8e9 and 5.7e9; at
# m = 10, 0.5, 1.1, 9.0 and 85 s at 61, 127, 521 and 1279 bits (1.6e8 to 2.7e10).
MAX_OBSTRUCTION_WORK = 1 << 32
# Largest work estimate of the wild-regime scan of critical_diffs_mod:
# p * (deg f + 1) evaluation steps plus p^2 for the differences of at most p
# critical values.  On a 2-core machine critical_diffs_mod(x^(p+1)+x, p), one
# critical value, took 0.28, 1.06 and 2.4 s at p = 2003, 4001 and 5791
# (estimated 8.0e6, 3.2e7 and 6.7e7); x^(2p)+x^p, every point critical and
# p values, took 0.58 and 2.7 s at p = 2003 and 4001 (1.2e7 and 4.8e7).
MAX_WILD_SCAN_WORK = 1 << 26


def _check_critical_degree(m: int) -> None:
    """Raise ResourceCapError when m = deg C, read from f before any
    resultant, exceeds MAX_CRITICAL_DEGREE."""
    if m > MAX_CRITICAL_DEGREE:
        raise ResourceCapError(f"the obstruction set of a degree-{m} critical-value "
                               f"polynomial needs a degree-{m**2} difference resultant; "
                               f"the cap is deg C <= {MAX_CRITICAL_DEGREE}")


def _check_obstruction_work(m: int, bits: int) -> None:
    """Raise ResourceCapError when the obstruction set of a degree-m C mod a
    prime of the given bit length is estimated past MAX_OBSTRUCTION_WORK."""
    work = m**4 * bits * (256 + (-(-bits // 30)) ** 2)
    if work > MAX_OBSTRUCTION_WORK:
        raise ResourceCapError(f"the obstruction set of a degree-{m} critical-value polynomial "
                               f"mod a {bits}-bit prime needs about {work} digit operations; "
                               f"the cap is {MAX_OBSTRUCTION_WORK}")


def critical_diffs_infinity(f: IntPoly) -> ObstructionSet:
    """Integers r that occur as a difference of two critical values of f,
    i.e. gcd(C(y), C(y + r)) over Q is nonconstant.

    These are the integer roots of R(h) = Res_y(C(y), C(y + h)), of degree
    m^2 (m = deg C = deg f - 1, capped before C is built).  Each root is a
    difference of two roots of C, so |r| <= B = 2 * (1 + ceil(max|c_i| / |lc C|))
    by Cauchy's bound.  Mod a prime P > max(2B, m^2) not dividing lc(C), R
    reduces to difference_resultant(C mod P); its roots, lifted to
    (-P/2, P/2), contain every integer root, and the ones with
    Res(C(y), C(y + r)) = 0 exactly, which is R(r) = 0, are kept.  P is a
    Proth prime, proved prime at every size (_proth_prime).  P is found just
    above its lower bound, so that bound's bit length (plus one) is the size
    the work estimate checks before P is sought.
    """
    _check_critical_degree(f.degree - 1)
    c = critical_value_poly(f)
    ratio = -(-max(abs(x) for x in c.coeffs[:-1]) // c.leading)  # lc(C) > 0
    lo = max(4 * (1 + ratio), c.degree**2)
    _check_obstruction_work(c.degree, lo.bit_length() + 1)
    prime = _proth_prime(lo, c.leading)
    lifted = (h if 2 * h < prime else h - prime
              for h in collision_shifts(FpPoly(prime, c.coeffs)))
    return ObstructionSet(None, tuple(
        sorted(h for h in lifted if int_resultant(c, c.shifted(h)) == 0)), poly=c)


def critical_diffs_mod(f: IntPoly, p: int) -> ObstructionSet:
    """Residues h in [0, p) where the mod-p critical-value set meets its own
    translate by h, i.e. deg gcd(C_p(y), C_p(y+h)) > 0: collision_shifts(C_p).

    f mod p and its derivative decide the regime once, in _reduced.  When
    f' mod p is nonzero of degree m < p, C_p has degree m and is
    interpolated; m is capped, and the work estimated, before any resultant.
    Otherwise (the wild regime: f' vanishes mod p, or p <= m) the critical
    points in F_p are scanned, after the scan's work is checked against
    MAX_WILD_SCAN_WORK; the result is then flagged approximate because
    critical values living in proper extensions are invisible to the scan.
    """
    fbar, dbar, tame = _reduced(f, p)
    if tame:
        _check_critical_degree(dbar.degree)
        _check_obstruction_work(dbar.degree, p.bit_length())
        c = _critical_resultant(fbar, dbar).monic()
        return ObstructionSet(p, tuple(collision_shifts(c)), poly=c)
    if fbar.degree < 1:  # constant mod p: one value, whose only difference is 0
        return ObstructionSet(p, (0,), approximate=True)
    work = p * (fbar.degree + 1) + p * p
    if work > MAX_WILD_SCAN_WORK:
        raise ResourceCapError(f"the critical-point scan of f mod {p} needs about {work} "
                               f"evaluation steps; the cap is {MAX_WILD_SCAN_WORK}")
    values = {fbar.evaluate(x) for x in range(p) if dbar.is_zero or dbar.evaluate(x) == 0}
    diffs = {(a - b) % p for a in values for b in values}
    return ObstructionSet(p, tuple(sorted(diffs)), approximate=True)
