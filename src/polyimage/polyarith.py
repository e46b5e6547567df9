"""Exact polynomial arithmetic over Z and F_p.

Coefficients are stored ascending (coeffs[i] multiplies x**i) with no trailing
zeros; the zero polynomial is the empty tuple.  On top of the ring operations
this module provides resultants (fraction-free subresultant PRS over Z,
Euclidean over F_p), roots over F_p, the critical-value polynomial of a map
x -> f(x), and the obstruction sets of critical-value differences: the
integer differences and, per prime, the residues h for which two critical
values collide after a shift by h, both read off the roots of one
difference resultant.  Offsets whose pairwise differences avoid the mod-p
obstruction set are exactly the ones where joint image counts follow the
independence model.

Everything here is pure and exact; nothing touches floating point.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest

from .errors import DegenerateInputError, InvalidInputError, WildModulusError


def _trim(coeffs) -> tuple[int, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class IntPoly:
    """Univariate polynomial with arbitrary-precision integer coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and self.coeffs[-1] == 0:
            object.__setattr__(self, "coeffs", _trim(self.coeffs))

    @classmethod
    def of(cls, *coeffs: int) -> "IntPoly":
        return cls(_trim(coeffs))

    @classmethod
    def from_coeffs(cls, coeffs) -> "IntPoly":
        return cls(_trim(coeffs))

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
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def evaluate_mod(self, x: int, m: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = (acc * x + c) % m
        return acc

    def derivative(self) -> "IntPoly":
        return IntPoly(_trim(i * c for i, c in enumerate(self.coeffs) if i))

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
        return IntPoly(_trim(out))

    def content(self) -> int:
        return math.gcd(*self.coeffs) if self.coeffs else 0

    def primitive(self) -> "IntPoly":
        """Content removed, leading coefficient made positive."""
        if self.is_zero:
            return self
        c = self.content()
        if self.coeffs[-1] < 0:
            c = -c
        return IntPoly(tuple(x // c for x in self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPoly(_trim(out))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPoly(_trim(c * other for c in self.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1) if self.coeffs and other.coeffs else []
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(_trim(out))

    __rmul__ = __mul__

    def __str__(self) -> str:
        return poly_to_text(self)


@dataclass(frozen=True)
class FpPoly:
    """Polynomial over F_p, coefficients reduced into [0, p)."""

    p: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.coeffs and (self.coeffs[-1] % self.p == 0
                            or any(not 0 <= c < self.p for c in self.coeffs)):
            object.__setattr__(self, "coeffs", _trim(c % self.p for c in self.coeffs))

    @classmethod
    def from_int_poly(cls, f: IntPoly, p: int) -> "FpPoly":
        return cls(p, _trim(c % p for c in f.coeffs))

    @classmethod
    def of(cls, p: int, *coeffs: int) -> "FpPoly":
        return cls(p, _trim(c % p for c in coeffs))

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
        return FpPoly(self.p, _trim(i * c % self.p for i, c in enumerate(self.coeffs) if i))

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
        return FpPoly(p, _trim(out))

    def monic(self) -> "FpPoly":
        if self.is_zero or self.leading == 1:
            return self
        inv = pow(self.leading, -1, self.p)
        return FpPoly(self.p, _trim(c * inv % self.p for c in self.coeffs))

    def __sub__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        return FpPoly(self.p, _trim((a - b) % self.p for a, b in
                                    zip_longest(self.coeffs, other.coeffs, fillvalue=0)))

    def __mul__(self, other: "FpPoly") -> "FpPoly":
        self._check(other)
        if self.is_zero or other.is_zero:
            return FpPoly(self.p, ())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = (out[i + j] + a * b) % self.p
        return FpPoly(self.p, _trim(out))

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
        return FpPoly(p, _trim(quo)), FpPoly(p, _trim(rem))

    def __mod__(self, other: "FpPoly") -> "FpPoly":
        return divmod(self, other)[1]

    def _check(self, other: "FpPoly") -> None:
        if self.p != other.p:
            raise InvalidInputError(f"modulus mismatch: {self.p} != {other.p}")


# ---------------------------------------------------------------------------
# parsing / rendering

_TERM = re.compile(
    r"(?P<sign>[+-]?)(?:(?P<coeff>\d+)\*?)?(?P<var>x(?:\^(?P<exp>\d+))?)?",
)


def parse_poly(text: str) -> IntPoly:
    """Parse the polynomial grammar: integer coefficients, variable x,
    operators + - * ^, e.g. ``x^4-2x^2``.  Whitespace is ignored."""
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
        e = 0
        if var is not None:
            e = int(exp) if exp is not None else 1
        coeffs[e] = coeffs.get(e, 0) + c
        pos = m.end()
        first = False
    out = [0] * (max(coeffs) + 1)
    for e, c in coeffs.items():
        out[e] = c
    return IntPoly(_trim(out))


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
    out = FpPoly.of(mod.p, 1) % mod
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
    h = FpPoly.of(p, 0, 1)
    g = fp_gcd(g, _fp_powmod(h, p, g) - h)
    if p == 2:
        return [r for r in (0, 1) if g.evaluate(r) == 0]
    one = FpPoly.of(p, 1)
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
            d = fp_gcd(g, _fp_powmod(FpPoly.of(p, a, 1), (p - 1) // 2, g) - one)
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


# ---------------------------------------------------------------------------
# resultants

def _prem(a: list[int], b: list[int]) -> list[int]:
    """Pseudo-remainder over Z: lc(b)^(deg a - deg b + 1) * a mod b."""
    da, db = len(a) - 1, len(b) - 1
    lb = b[-1]
    r = list(a)
    e = da - db + 1
    while len(r) - 1 >= db and r:
        lead = r[-1]
        r = [lb * c for c in r]
        for i in range(db + 1):
            r[len(r) - 1 - db + i] -= lead * b[i]
        r.pop()
        while r and r[-1] == 0:
            r.pop()
        e -= 1
    return [c * lb**e for c in r] if e > 0 else r


def int_resultant(a: IntPoly, b: IntPoly) -> int:
    """Res(a, b) over Z via the fraction-free subresultant PRS."""
    if a.is_zero or b.is_zero:
        return 0
    if a.degree == 0 and b.degree == 0:
        return 1
    if a.degree == 0:
        return a.coeffs[0] ** b.degree
    if b.degree == 0:
        return b.coeffs[0] ** a.degree
    sign = 1
    if a.degree < b.degree:
        if a.degree % 2 == 1 and b.degree % 2 == 1:
            sign = -sign
        a, b = b, a
    ca, cb = abs(a.content()), abs(b.content())
    scale = ca**b.degree * cb**a.degree
    A = [c // ca for c in a.coeffs]
    B = [c // cb for c in b.coeffs]
    g = h = 1
    while True:
        da, db = len(A) - 1, len(B) - 1
        delta = da - db
        if da % 2 == 1 and db % 2 == 1:
            sign = -sign
        R = _prem(A, B)
        if not R:
            return 0
        A = B
        denom = g * h**delta
        B = [c // denom for c in R]
        g = A[-1]
        h = g**delta // h ** (delta - 1) if delta else h
        if len(B) - 1 == 0:
            break
    return sign * scale * (B[0] ** (len(A) - 1) // h ** (len(A) - 2))


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


def _interp_int(points: list[tuple[int, int]]) -> IntPoly:
    # Lagrange over Q; the result is known to have integer coefficients.
    n = len(points)
    out = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = [Fraction(0)] + basis
            for k in range(len(basis) - 1):
                basis[k] -= basis[k + 1] * xj
            denom *= xi - xj
        w = yi / denom
        for k in range(len(basis)):
            out[k] += w * basis[k]
    ints = []
    for c in out:
        if c.denominator != 1:
            raise ArithmeticError("interpolated resultant is not integral")
        ints.append(c.numerator)
    return IntPoly(_trim(ints))


def _interp_fp(p: int, points: list[tuple[int, int]]) -> FpPoly:
    out = [0] * len(points)
    for i, (xi, yi) in enumerate(points):
        basis = [1]
        denom = 1
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            basis = [0] + basis
            for k in range(len(basis) - 1):
                basis[k] = (basis[k] - basis[k + 1] * xj) % p
            denom = denom * (xi - xj) % p
        w = yi * pow(denom, -1, p) % p
        for k in range(len(basis)):
            out[k] = (out[k] + w * basis[k]) % p
    return FpPoly(p, _trim(out))


def resultant_x(a, b):
    """Eliminate x between a(x) and b.

    With b a plain polynomial the scalar Res_x(a, b) is returned.  With b a
    sequence of polynomials in x (the coefficients of powers of a second
    variable y) the resultant is a polynomial in y, computed by evaluating y
    at enough nodes and interpolating exactly.
    """
    if isinstance(b, (IntPoly, FpPoly)):
        if isinstance(a, FpPoly):
            return fp_resultant(a, b)
        return int_resultant(a, b)
    coeffs_y = list(b)
    if a.is_zero:
        raise InvalidInputError("resultant with zero polynomial")
    dx = max(c.degree for c in coeffs_y if not c.is_zero)
    lead_y = [(j, c.coeffs[dx]) for j, c in enumerate(coeffs_y) if c.degree == dx]
    deg_bound = a.degree * (len(coeffs_y) - 1)

    if isinstance(a, FpPoly):
        p = a.p

        def at_fp(y0: int) -> FpPoly:
            out = [0] * (dx + 1)
            for j, c in enumerate(coeffs_y):
                w = pow(y0, j, p)
                for i, v in enumerate(c.coeffs):
                    out[i] = (out[i] + v * w) % p
            return FpPoly(p, _trim(out))

        points = []
        for y0 in range(p):
            if len(points) == deg_bound + 1:
                break
            if sum(c * pow(y0, j, p) for j, c in lead_y) % p:
                points.append((y0, fp_resultant(a, at_fp(y0))))
        if len(points) < deg_bound + 1:
            raise WildModulusError(
                f"p={p} leaves too few interpolation nodes for the resultant"
            )
        return _interp_fp(p, points)

    def at_int(y0: int) -> IntPoly:
        out = [0] * (dx + 1)
        for j, c in enumerate(coeffs_y):
            w = y0**j
            for i, v in enumerate(c.coeffs):
                out[i] += v * w
        return IntPoly(_trim(out))

    points = []
    y0 = 0
    while len(points) < deg_bound + 1:
        for cand in (y0, -y0) if y0 else (0,):
            if len(points) == deg_bound + 1:
                break
            if sum(c * cand**j for j, c in lead_y):
                points.append((cand, int_resultant(a, at_int(cand))))
        y0 += 1
    return _interp_int(points)


# ---------------------------------------------------------------------------
# critical values and obstruction sets

@dataclass(frozen=True)
class ObstructionSet:
    """Differences of critical values: integers (kind "infinity") or residues
    modulo a prime (kind "mod").  Offsets h with h in the set are the ones
    where shifted critical-value sets overlap."""

    kind: str
    modulus: int | None
    elements: tuple[int, ...]
    approximate: bool = False

    def __post_init__(self):
        object.__setattr__(self, "_members", frozenset(self.elements))

    def __contains__(self, h: int) -> bool:
        if self.kind == "mod":
            h %= self.modulus
        return h in self._members


def critical_value_poly(f: IntPoly, p: int | None = None):
    """The polynomial C(y) = Res_x(f'(x), y - f(x)) whose roots (with
    multiplicity) are the critical values of f: over Z when p is None
    (primitive, positive leading coefficient), else over F_p (monic).

    Raises DegenerateInputError for deg f < 2 and WildModulusError when f or
    f' collapses mod p.
    """
    if f.degree < 2:
        raise DegenerateInputError("no critical structure: deg f < 2")
    if p is None:
        fp = f.derivative()
        c = resultant_x(fp, [-f, IntPoly.of(1)])
        return c.primitive()
    fbar = FpPoly.from_int_poly(f, p)
    if fbar.degree < 1:
        raise WildModulusError(f"f is constant mod {p}")
    dbar = fbar.derivative()
    if dbar.is_zero:
        raise WildModulusError(f"f' vanishes identically mod {p}")
    c = resultant_x(dbar, [FpPoly(p, tuple((-v) % p for v in fbar.coeffs)), FpPoly.of(p, 1)])
    return c.monic()


def difference_resultant(c):
    """R(h) = Res_y(C(y), C(y + h)) for C over Z or F_p of degree m >= 1.

    R(h) = lc(C)^(2m) * prod (h + a - b) over pairs of roots a, b of C, so it
    has degree m^2, is never zero, and its roots are exactly the h with
    gcd(C(y), C(y + h)) nonconstant.  The coefficient of h^j in C(y + h) is
    the Hasse derivative sum_k c_k * binom(k, j) * y^(k - j).
    """
    m = c.degree
    hasse = [[c.coeffs[k] * math.comb(k, j) for k in range(j, m + 1)] for j in range(m + 1)]
    if isinstance(c, FpPoly):
        return resultant_x(c, [FpPoly(c.p, _trim(v % c.p for v in row)) for row in hasse])
    return resultant_x(c, [IntPoly(_trim(row)) for row in hasse])


def critical_diffs_infinity(f: IntPoly) -> ObstructionSet:
    """Integers r that occur as a difference of two critical values of f,
    i.e. gcd(C(y), C(y + r)) over Q is nonconstant.

    These are the integer roots of R = difference_resultant(C).  Each root is
    a difference of two roots of C, so |r| <= B = 2 * (1 + ceil(max|c_i| /
    |lc C|)) by Cauchy's bound; the roots of R mod a prime P > 2B with
    P not dividing lc(R), lifted to (-P/2, P/2), contain them all, and the
    ones with R(r) = 0 exactly are kept.  P is chosen by is_probable_prime,
    which is deterministic below 2^64.
    """
    c = critical_value_poly(f)
    r = difference_resultant(c)
    ratio = -(-max(abs(x) for x in c.coeffs[:-1]) // c.leading)  # lc(C) > 0
    bound = 2 * (1 + ratio)
    prime = 2 * bound + 1
    while not is_probable_prime(prime) or r.leading % prime == 0:
        prime += 1
    lifted = (h if 2 * h < prime else h - prime
              for h in fp_roots(FpPoly.from_int_poly(r, prime)))
    return ObstructionSet("infinity", None, tuple(sorted(h for h in lifted if r.evaluate(h) == 0)))


def critical_diffs_mod(f: IntPoly, p: int) -> ObstructionSet:
    """Residues h in [0, p) where the mod-p critical-value set meets its own
    translate by h, i.e. deg gcd(C_p(y), C_p(y+h)) > 0: the F_p-roots of
    difference_resultant(C_p).  For p <= m^2 (m = deg C_p) there are too few
    interpolation nodes for that resultant, and each h is tested by
    Res(C_p(y), C_p(y+h)) = 0 instead.

    In the wild regime (f' degenerate mod p) falls back to scanning critical
    points in F_p itself; the result is then flagged approximate because
    critical values living in proper extensions are invisible to the scan.
    """
    try:
        c = critical_value_poly(f, p)
    except WildModulusError:
        fbar = FpPoly.from_int_poly(f, p)
        dbar = fbar.derivative()
        values = {fbar.evaluate(x) for x in range(p)
                  if dbar.is_zero or dbar.evaluate(x) == 0}
        diffs = {(a - b) % p for a in values for b in values}
        return ObstructionSet("mod", p, tuple(sorted(diffs)), approximate=True)
    m = c.degree
    if m < 1:
        hits = []
    elif p <= m * m:
        hits = [h for h in range(p) if fp_resultant(c, c.shifted(h)) == 0]
    else:
        hits = fp_roots(difference_resultant(c))
    return ObstructionSet("mod", p, tuple(hits))
