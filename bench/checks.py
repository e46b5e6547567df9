"""Checks of each operation's JSON result against computations made apart
from the program, or against properties the method must have.

Each `check_<kind>(op, result)` returns a list of faults, empty when the
result is right.  Images are recomputed here by numpy evaluation of f (as a
sum of powers, not Horner), by `polyimage.oracle` at small primes, and by CRT
combination of per-prime images for whole moduli; pair counts by FFT
autocorrelation; KS by `scipy.stats.kstest`.  The frozen tolerances in
`polyimage.verify` play no part.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from polyimage import oracle
from polyimage.polyarith import IntPoly

from ops import eval_mod

# a float printed at 12 significant digits, against the same value computed here
FLOAT_TOL = 1e-9
_CHUNK = 1 << 22


def _ratio(entry: dict) -> Fraction:
    num, den = entry["ratio"].split("/")
    return Fraction(int(num), int(den))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(b))


def values_mod(coeffs, x: np.ndarray, p: int) -> np.ndarray:
    """f(x) mod p at each x, as a sum of powers (not Horner)."""
    acc = np.zeros_like(x)
    power = np.ones_like(x)
    for c in coeffs:
        acc = (acc + (c % p) * power) % p
        power = power * x % p
    return acc


def indicator(coeffs, p: int) -> np.ndarray:
    """Image of f mod p as a boolean array, from f evaluated at every x."""
    out = np.zeros(p, bool)
    for lo in range(0, p, _CHUNK):
        out[values_mod(coeffs, np.arange(lo, min(lo + _CHUNK, p), dtype=np.int64), p)] = True
    return out


def pair_counts(ind: np.ndarray) -> np.ndarray:
    """c[h] = #{t : t and t+h in the image}, all h at once, exactly."""
    spec = np.fft.rfft(ind.astype(np.float64))
    raw = np.fft.irfft(spec * spec.conj(), len(ind))
    c = np.rint(raw).astype(np.int64)
    w = int(ind.sum())
    if np.abs(raw - c).max() >= 0.25 or c[0] != w or int(c.sum()) != w * w:
        raise ArithmeticError("FFT pair counts failed their exactness guard")
    return c


def joint_count(ind: np.ndarray, offsets) -> int:
    acc = ind.copy()
    for h in offsets:
        acc &= np.roll(ind, -(h % len(ind)))
    return int(acc.sum())


def _deriv_mod(coeffs, p: int) -> list[int]:
    d = [i * c % p for i, c in enumerate(coeffs)][1:]
    while d and d[-1] == 0:
        d.pop()
    return d


def _divide_root(poly: list[int], r: int, p: int) -> list[int] | None:
    """poly / (x - r) over F_p, or None when r is not a root."""
    quotient = [0] * (len(poly) - 1)
    carry = 0
    for i in range(len(poly) - 1, 0, -1):
        carry = (poly[i] + carry * r) % p
        quotient[i - 1] = carry
    return quotient if (poly[0] + carry * r) % p == 0 else None


def critical_points(coeffs, p: int) -> tuple[list[int], bool]:
    """Roots of f' in F_p with multiplicity, and whether f' splits there."""
    deriv = _deriv_mod(coeffs, p)
    roots = np.flatnonzero(values_mod(deriv, np.arange(p, dtype=np.int64), p) == 0)
    out = []
    rest = deriv
    for r in map(int, roots):
        while len(rest) > 1:
            q = _divide_root(rest, r, p)
            if q is None:
                break
            out.append(r)
            rest = q
    return out, len(rest) == 1


def _poly_from_roots(values, p: int) -> list[int]:
    out = [1]
    for v in values:
        nxt = [0] * (len(out) + 1)
        for i, c in enumerate(out):
            nxt[i + 1] = (nxt[i + 1] + c) % p
            nxt[i] = (nxt[i] - v * c) % p
        out = nxt
    return out


def _obstruction_faults(coeffs, p: int, elements, critical_poly=None) -> list[str]:
    """The mod-p critical-difference set.  When f' splits over F_p it must be
    exactly the differences of the critical values; otherwise it must hold 0,
    be closed under h -> -h, and contain the differences of the critical
    values that do lie in F_p."""
    faults = []
    got = set(elements)
    if list(elements) != sorted(got) or any(not 0 <= h < p for h in got):
        faults.append("obstruction set not sorted residues mod p")
    points, split = critical_points(coeffs, p)
    values = [eval_mod(coeffs, x, p) for x in points]
    diffs = {(a - b) % p for a in values for b in values}
    if split:
        if got != diffs:
            faults.append(f"obstruction set {sorted(got)[:8]} != critical-value differences "
                          f"{sorted(diffs)[:8]}")
        if critical_poly is not None and list(critical_poly) != _poly_from_roots(values, p):
            faults.append("critical polynomial mod p does not vanish at the critical values")
    else:
        if 0 not in got or any((p - h) % p not in got for h in got):
            faults.append("obstruction set lacks 0 or is not closed under negation")
        if not diffs <= got:
            faults.append("obstruction set misses a difference of F_p critical values")
    return faults


# --- per-command checks -------------------------------------------------------

def check_image(op: dict, res: dict) -> list[str]:
    """Monomials x^d: |image mod p| = 1 + (p-1)/gcd(d, p-1), multiplied over q."""
    d = len(op["coeffs"]) - 1
    if op["coeffs"] != [0] * d + [1]:
        raise ValueError("image checks are made on monomials")
    faults = []
    if res["q"] != op["q"] or res["primes"] != op["primes"]:
        faults.append(f"modulus {res['q']} factored as {res['primes']}, expected {op['primes']}")
    omega_q = 1
    kept = []
    rows = {row["p"]: row for row in res["per_prime"]}
    for p in op["primes"]:
        w = 1 + (p - 1) // math.gcd(d, p - 1)
        omega_q *= w
        perm = w == p
        if not perm:
            kept.append(p)
        row = rows.get(p)
        want = {"omega": w, "is_permutation": perm,
                "wan_ok": perm or d * w <= d * p - (p - 1)}
        if row is None or any(row[key] != v for key, v in want.items()) \
                or _ratio(row["s_p"]) != Fraction(p, w):
            faults.append(f"per-prime entry for p={p} is {row}, expected {want}")
    if res["omega_size"] != omega_q:
        faults.append(f"image size {res['omega_size']} != {omega_q}")
    if _ratio(res["s_q"]) != Fraction(op["q"], omega_q):
        faults.append("mean spacing is not q/|image|")
    if res["q1"] != kept:
        faults.append(f"non-permutation primes {res['q1']} != {kept}")
    return faults


def check_nk(op: dict, res: dict) -> list[str]:
    offsets = op["offsets"]
    k = len(offsets) + 1
    faults = []
    total = 1
    rows = {row["p"]: row for row in res["per_prime"]}
    for p in op["primes"]:
        ind = indicator(op["coeffs"], p)
        n, w = joint_count(ind, offsets), int(ind.sum())
        total *= n
        row = rows.get(p)
        if row is None or row["count"] != n:
            faults.append(f"N_{k} mod {p} is {row and row['count']}, recount gives {n}")
            continue
        if _ratio(row["expected"]) != Fraction(w**k, p ** (k - 1)):
            faults.append(f"expected count mod {p} is not |image|^k / p^(k-1)")
        if _ratio(row["error"]) != Fraction(p ** (k - 1) * n, w**k) - 1:
            faults.append(f"relative error mod {p} is wrong")
    if res["joint_count"] != total or res["k"] != k or res["q"] != op["q"]:
        faults.append(f"N_{k}({offsets}, q) = {res['joint_count']}, recount gives {total}")
    return faults


def _tables(coeffs, p: int, d: int) -> np.ndarray:
    """T[a_1..a_d] = #{t : t, t+a_1, ..., t+a_d all in the image mod p},
    from the oracle's image; a few entries are compared with its joint count."""
    f = IntPoly(tuple(coeffs))
    ind = np.zeros(p, np.int64)
    ind[oracle.brute_image(f, p)] = 1
    shifted = np.stack([np.roll(ind, -a) for a in range(p)])  # shifted[a, t] = ind[t+a]
    letters = "abcdefgh"[:d]
    spec = "t," + ",".join(f"{c}t" for c in letters) + "->" + letters
    table = np.einsum(spec, ind, *([shifted] * d))
    probes = itertools.product(range(p), repeat=d)
    for probe in itertools.islice(probes, 0, p**d, max(1, p**d // 5)):
        if table[probe] != oracle.brute_joint_count(f, p, probe):
            raise ArithmeticError(f"joint-count table mod {p} disagrees with the oracle at {probe}")
    return table


def check_correlate(op: dict, res: dict) -> list[str]:
    """The lattice sum over {0..M}^(k-1), minus points with a zero or two
    equal coordinates, of the product over p of the oracle joint counts."""
    k, m, primes = op["k"], op["m"], op["primes"]
    d = k - 1
    grids = np.meshgrid(*([np.arange(m + 1, dtype=np.int64)] * d), indexing="ij", sparse=True)
    valid = np.ones((m + 1,) * d, bool)
    for i, g in enumerate(grids):
        valid &= g != 0
        for h in grids[i + 1:]:
            valid &= g != h
    omega = 1
    prod = np.ones((m + 1,) * d, np.int64)
    for p in primes:
        table = _tables(op["coeffs"], p, d)
        omega *= int(table[(0,) * d])
        prod *= table[tuple(g % p for g in grids)]
    if op["q"] * valid.size >= 1 << 62:
        raise OverflowError("lattice sum would overflow int64")
    acc = int(prod[valid].sum())
    points = int(valid.sum())
    value = Fraction(acc, omega)
    volume = Fraction(m * omega, op["q"]) ** d
    faults = []
    if res["k"] != k or res["q1"] != primes:
        faults.append(f"k={res['k']} over {res['q1']}, expected k={k} over {primes}")
    if (res["lattice_points"], res["excluded_points"]) != (points, valid.size - points):
        faults.append(f"lattice {res['lattice_points']}+{res['excluded_points']}, "
                      f"expected {points}+{valid.size - points}")
    if _ratio(res["r_k"]) != value:
        faults.append(f"R_{k} = {res['r_k']['ratio']}, recomputed {value}")
    if _ratio(res["volume"]) != volume or _ratio(res["deviation"]) != value - volume:
        faults.append("window volume or deviation is wrong")
    if _ratio(res["s_q"]) != Fraction(op["q"], omega):
        faults.append("mean spacing is not q/|image|")
    return faults


def crt_image(coeffs, primes) -> np.ndarray:
    """Unsorted image of f modulo prod(primes), combined prime by prime by CRT."""
    f = IntPoly(tuple(coeffs))
    res = np.zeros(1, np.int64)
    m = 1
    for p in primes:
        s = np.array(oracle.brute_image(f, p), np.int64)
        t = (s[None, :] - (res % p)[:, None]) * pow(m, -1, p) % p
        res = (res[:, None] + m * t).ravel()
        m *= p
    return res


def check_spacings(op: dict, res: dict) -> list[str]:
    from scipy import stats as sps

    q, primes = op["q"], op["primes"]
    f = IntPoly(tuple(op["coeffs"]))
    omega = math.prod(len(oracle.brute_image(f, p)) for p in primes)

    def n(offsets):
        return math.prod(oracle.brute_joint_count(f, p, offsets) for p in primes)

    faults = []
    if res["q"] != q or res["omega_size"] != omega:
        faults.append(f"|image| = {res['omega_size']}, expected {omega}")
        return faults
    freq = {int(h): _ratio(v) for h, v in res["gap_frequencies"].items()}
    # a gap of 1 is a pair (t, t+1); a gap of 2 is a pair (t, t+2) without t+1
    if freq.get(1) != Fraction(n([1]), omega):
        faults.append(f"gap_frequency(1) = {freq.get(1)} != N_2(1,q)/|image|")
    if freq.get(2) != Fraction(n([2]) - n([1, 2]), omega):
        faults.append(f"gap_frequency(2) = {freq.get(2)} != (N_2(2,q)-N_3((1,2),q))/|image|")
    els = np.sort(crt_image(op["coeffs"], primes))
    gaps = np.empty_like(els)
    gaps[:-1] = np.diff(els)
    gaps[-1] = els[0] + q - els[-1]
    counts = np.bincount(gaps, minlength=11)
    for h, fr in freq.items():
        if fr != Fraction(int(counts[h]), omega):
            faults.append(f"gap_frequency({h}) = {fr}, counted {counts[h]}/{omega}")
    ks = sps.kstest(gaps * (omega / q), "expon").statistic
    if res["ks"]["n"] != omega or not _close(res["ks"]["statistic"], ks):
        faults.append(f"KS {res['ks']['statistic']} (n={res['ks']['n']}), scipy gives {ks}")
    g = gaps.astype(np.float64)
    corr = float(np.corrcoef(g, np.roll(g, -1))[0, 1])
    if not _close(res["adjacent_gap_correlation"], corr):
        faults.append(f"adjacent-gap correlation {res['adjacent_gap_correlation']}, "
                      f"expected {corr}")
    if _ratio(res["s_q"]) != Fraction(q, omega):
        faults.append("mean spacing is not q/|image|")
    return faults


def check_anomaly(op: dict, res: dict) -> list[str]:
    """Every offset whose pair count strays beyond the threshold is flagged,
    and no other; the obstruction set is right; the report passes."""
    p = op["p"]
    (report,) = res["checks"]
    det = report["details"]
    ind = indicator(op["coeffs"], p)
    w = int(ind.sum())
    c = pair_counts(ind)
    dev = p * c.astype(object) - w * w
    beyond = [h for h in range(1, p) if dev[h] * dev[h] > op["threshold"] ** 2 * p**3]
    faults = []
    if det["flagged"] != beyond:
        faults.append(f"flagged {det['flagged'][:8]}, "
                      f"recount puts {beyond[:8]} beyond the threshold")
    if not (res["passed"] and report["passed"]) or det["p"] != p:
        faults.append("anomaly report did not pass")
    if "ratio_at_offset_1" in det and not _close(det["ratio_at_offset_1"],
                                                 float(Fraction(p * int(c[1]), w * w))):
        faults.append("pair-count ratio at offset 1 is wrong")
    return faults + _obstruction_faults(op["coeffs"], p, det["obstruction_set"])


def check_critical(op: dict, res: dict) -> list[str]:
    p = op["p"]
    entry = res["critical_diffs_mod_p"]
    faults = []
    if entry["p"] != p or entry["approximate"]:
        faults.append("obstruction set is for another prime or flagged approximate")
    ints = set(res["critical_diffs_integers"])
    if 0 not in ints or any(-h not in ints for h in ints):
        faults.append("integer critical differences lack 0 or are not symmetric")
    return faults + _obstruction_faults(op["coeffs"], p, entry["elements"],
                                        entry["critical_poly_coeffs"])


CHECKS = {
    "spacings": check_spacings,
    "anomaly": check_anomaly,
    "critical": check_critical,
    "image": check_image,
    "nk": check_nk,
    "correlate": check_correlate,
}


def check(op: dict, report: dict) -> list[str]:
    if report.get("command") != op["argv"][0]:
        return [f"report is for command {report.get('command')!r}"]
    return CHECKS[op["kind"]](op, report["result"])
