"""Command-line front end.

Machine-first output: the JSON report goes to stdout (stable key order, so a
fixed config produces byte-identical bytes; runs that differ only in
--workers give the same `result` payload, while `config` echoes the worker
count), a short human summary goes to stderr, CSV histogram data goes to
--out.  Exit codes: 0 success, 1 verification failure, 2 invalid input,
3 resource cap, 4 internal error (an unexpected exception, reported as one
`internal error: <Type>: <message>` line on stderr).  A reader that closes
stdout before the report is written is not an error: the command exits 0
and stays silent.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import __version__
from .composite import (
    DEFAULT_CAP_BITS,
    SquareFreeModulus,
    composite_stats,
    parse_modulus,
)
from .errors import InvalidInputError, ResourceCapError
from .polyarith import (
    IntPoly,
    critical_diffs_infinity,
    critical_diffs_mod,
    critical_value_poly,
    is_probable_prime,
    parse_poly,
    poly_to_text,
)
from .primeimage import expected_joint_count, image_mask, joint_count, joint_count_error
from .stats import (
    CorrelationWindow,
    adjacent_gap_correlation,
    correlation,
    gap_frequency,
    histogram_normalized,
    ks_exponential,
    spacing_series,
)
from .verify import SUITES, anomaly_report


def _f12(x: float) -> float:
    """Floats rendered at 12 significant digits for reproducible reports."""
    return float(f"{x:.12g}")


def _frac(fr: Fraction) -> dict:
    return {"ratio": f"{fr.numerator}/{fr.denominator}", "float": _f12(float(fr))}


@dataclass
class RunConfig:
    command: str
    poly: str | None = None
    modulus: int | None = None
    primes: list[int] | None = None
    prime: int | None = None
    k: int | None = None
    offsets: list[int] | None = None
    window: str | None = None
    bins: int = 50
    cap_bits: int = DEFAULT_CAP_BITS
    threshold: float = 5.0
    workers: int = 1
    seed: int = 0
    out: str | None = None
    format: str | None = None
    suite: str | None = None

    def as_dict(self) -> dict:
        d = asdict(self)
        d["version"] = __version__
        return d


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    for name in ("poly", "modulus", "prime", "k", "offsets", "window", "bins",
                 "cap_bits", "threshold", "workers", "seed", "out", "format",
                 "suite"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    if getattr(args, "primes", None):
        cfg.primes = _int_list(args.primes, "--primes")
    if isinstance(cfg.offsets, str):
        cfg.offsets = _int_list(cfg.offsets, "--offsets")
    return cfg


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError as exc:
        raise InvalidInputError(f"{flag} needs comma-separated integers, got {text!r}") from exc


def _require_poly(cfg: RunConfig) -> IntPoly:
    if not cfg.poly:
        raise InvalidInputError("--poly is required")
    return parse_poly(cfg.poly)


def _require_modulus(cfg: RunConfig) -> SquareFreeModulus:
    if cfg.primes:
        return parse_modulus(cfg.primes)
    if cfg.modulus is None:
        raise InvalidInputError("--modulus or --primes is required")
    return parse_modulus(cfg.modulus)


def _parse_window(text: str) -> CorrelationWindow:
    intervals = []
    for part in text.split(","):
        try:
            a, b = part.split(":")
            intervals.append((Fraction(a), Fraction(b)))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad window interval {part!r}") from exc
    return CorrelationWindow.box(*intervals)


def _emit(report: dict, summary: str) -> None:
    print(json.dumps(report, sort_keys=True))
    print(summary, file=sys.stderr)


# commands --------------------------------------------------------------------

def cmd_image(cfg: RunConfig) -> int:
    f = _require_poly(cfg)
    m = _require_modulus(cfg)
    stats = composite_stats(f, m, workers=cfg.workers)
    result = {
        "q": m.q,
        "primes": list(m.primes),
        "omega_size": stats.omega_q_size,
        "s_q": _frac(stats.s_q),
        "q1": list(stats.q1_reduced.primes),
        "per_prime": [
            {
                "p": st.p,
                "omega": st.omega_size,
                "s_p": _frac(st.s_p),
                "is_permutation": st.is_permutation,
                "wan_ok": st.wan_ok,
            }
            for st in stats.per_prime
        ],
    }
    _emit({"command": "image", "config": cfg.as_dict(), "result": result},
          f"image of {cfg.poly} mod {m.q}: {stats.omega_q_size} elements, "
          f"mean spacing {float(stats.s_q):.6g}")
    return 0


def cmd_correlate(cfg: RunConfig) -> int:
    f = _require_poly(cfg)
    m = _require_modulus(cfg)
    if not cfg.window:
        raise InvalidInputError("--window is required")
    window = _parse_window(cfg.window)
    if cfg.k is not None and cfg.k != window.dimension + 1:
        raise InvalidInputError(
            f"--k {cfg.k} conflicts with a {window.dimension}-interval window"
        )
    res = correlation(f, m, window)
    result = {
        "k": res.k,
        "r_k": _frac(res.value),
        "volume": _frac(res.volume),
        "deviation": _frac(res.deviation),
        "s_q": _frac(res.s_q),
        "lattice_points": res.lattice_points,
        "excluded_points": res.excluded,
        "q1": list(res.modulus_used.primes),
    }
    _emit({"command": "correlate", "config": cfg.as_dict(), "result": result},
          f"R_{res.k} = {float(res.value):.6g} vs vol {float(res.volume):.6g} "
          f"({res.lattice_points} lattice points)")
    return 0


def cmd_spacings(cfg: RunConfig) -> int:
    f = _require_poly(cfg)
    m = _require_modulus(cfg)
    series = spacing_series(f, m, cap_bits=cfg.cap_bits, workers=cfg.workers)
    ks = ks_exponential(series)
    corr = adjacent_gap_correlation(series)
    hist = histogram_normalized(series, bins=cfg.bins)
    result = {
        "q": m.q,
        "omega_size": series.element_count,
        "s_q": _frac(Fraction(m.q, series.element_count)),
        "ks": {"statistic": _f12(ks.statistic), "n": ks.n},
        "adjacent_gap_correlation": _f12(corr),
        "gap_frequencies": {
            str(h): _frac(gap_frequency(series, h)) for h in range(1, 11)
        },
    }
    rows = _histogram_rows(hist)
    if cfg.out:
        _write_out(cfg, rows, result)
    _emit({"command": "spacings", "config": cfg.as_dict(), "result": result},
          f"{series.element_count} gaps, KS {ks.statistic:.4f}, "
          f"adjacent correlation {corr:.4f}")
    return 0


def _histogram_rows(hist) -> list[dict]:
    rows = []
    n = hist.total
    for i, count in enumerate(hist.counts):
        left, right = hist.edges[i], hist.edges[i + 1]
        width = right - left
        rows.append({
            "bin_left": _f12(left),
            "bin_right": _f12(right),
            "count": count,
            "density": _f12(count / (n * width)) if n else 0.0,
            "exp_reference": _f12((math.exp(-left) - math.exp(-right)) / width),
        })
    top = hist.edges[-1]
    # overflow row: bin_right "inf", density column carries the tail mass
    rows.append({
        "bin_left": _f12(top),
        "bin_right": "inf",
        "count": hist.overflow,
        "density": _f12(hist.overflow / n) if n else 0.0,
        "exp_reference": _f12(math.exp(-top)),
    })
    return rows


def _write_out(cfg: RunConfig, rows: list[dict], result: dict) -> None:
    try:
        fh = open(cfg.out, "w", newline="")
    except OSError as exc:
        raise InvalidInputError(f"cannot write --out {cfg.out}: {exc.strerror}") from exc
    with fh:
        if cfg.format == "csv":
            writer = csv.DictWriter(
                fh, fieldnames=["bin_left", "bin_right", "count", "density", "exp_reference"]
            )
            writer.writeheader()
            writer.writerows(rows)
        else:
            json.dump({"histogram": rows, "summary": result}, fh, sort_keys=True)


def _require_prime(p: int) -> int:
    if not is_probable_prime(p):
        raise InvalidInputError(f"--prime {p} is not prime")
    return p


def cmd_critical(cfg: RunConfig) -> int:
    f = _require_poly(cfg)
    c = critical_value_poly(f)
    inf = critical_diffs_infinity(f)
    result = {
        "poly": poly_to_text(f),
        "critical_poly": {"coeffs_ascending": list(c.coeffs),
                          "text": poly_to_text(c, var="y")},
        "critical_diffs_integers": list(inf.elements),
    }
    if cfg.prime is not None:
        p = _require_prime(cfg.prime)
        obs = critical_diffs_mod(f, p)
        entry = {"p": p, "elements": list(obs.elements), "approximate": obs.approximate}
        try:
            cp = critical_value_poly(f, p)
            entry["critical_poly_coeffs"] = list(cp.coeffs)
        except InvalidInputError:
            entry["critical_poly_coeffs"] = None
        result["critical_diffs_mod_p"] = entry
    _emit({"command": "critical", "config": cfg.as_dict(), "result": result},
          f"critical structure of {cfg.poly}: integer diffs {list(inf.elements)}")
    return 0


def cmd_nk(cfg: RunConfig) -> int:
    f = _require_poly(cfg)
    m = _require_modulus(cfg)
    if not cfg.offsets:
        raise InvalidInputError("--offsets is required")
    k = len(cfg.offsets) + 1
    total = 1
    per_prime = []
    for p in m.primes:
        mask = image_mask(f, p)
        count = joint_count(mask, cfg.offsets)
        total *= count
        per_prime.append({
            "p": p,
            "count": count,
            "expected": _frac(expected_joint_count(p, Fraction(p, mask.count), k)),
            "error": _frac(joint_count_error(mask, count, k)),
        })
    result = {"q": m.q, "k": k, "offsets": cfg.offsets, "joint_count": total,
              "per_prime": per_prime}
    _emit({"command": "nk", "config": cfg.as_dict(), "result": result},
          f"N_{k}({cfg.offsets}, {m.q}) = {total}")
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    if cfg.suite not in SUITES:
        raise InvalidInputError(f"unknown suite {cfg.suite!r}; choose from {sorted(SUITES)}")
    if cfg.suite == "anomaly" and cfg.poly and cfg.prime:
        checks = [anomaly_report(_require_poly(cfg), _require_prime(cfg.prime), cfg.threshold)]
    else:
        checks = SUITES[cfg.suite](seed=cfg.seed, workers=cfg.workers)
    passed = all(c.passed for c in checks)
    result = {
        "suite": cfg.suite,
        "passed": passed,
        "checks": [{"name": c.name, "passed": c.passed, "details": _jsonable(c.details)}
                   for c in checks],
    }
    for c in checks:
        print(c.line(), file=sys.stderr)
    print(json.dumps({"command": "verify", "config": cfg.as_dict(),
                      "result": result}, sort_keys=True))
    return 0 if passed else 1


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return _frac(obj)
    if isinstance(obj, float):
        return _f12(obj)
    return obj


# parser ----------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyimage",
        description="Images of integer polynomials modulo square-free integers: "
                    "correlation, spacing, and critical-value analyses.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, poly=True, modulus=True):
        if poly:
            p.add_argument("--poly", help="polynomial in x, e.g. x^4-2x^2")
        if modulus:
            p.add_argument("--modulus", type=int, help="square-free modulus")
            p.add_argument("--primes", help="comma-separated prime list")
        p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write CSV/JSON data to this path")
        p.add_argument("--format", choices=["json", "csv"], default=None)

    p = sub.add_parser("image", help="image size and per-prime statistics")
    common(p)

    p = sub.add_parser("correlate", help="k-level correlation over a window")
    common(p)
    p.add_argument("--k", type=int)
    p.add_argument("--window", help="a:b[,a:b...] with rational endpoints")

    p = sub.add_parser("spacings", help="gap statistics and KS test")
    common(p)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--cap-bits", dest="cap_bits", type=int, default=DEFAULT_CAP_BITS)

    p = sub.add_parser("critical", help="critical values and obstruction sets")
    common(p, modulus=False)
    p.add_argument("--prime", type=int)

    p = sub.add_parser("nk", help="joint image count for explicit offsets")
    common(p)
    p.add_argument("--offsets", help="comma-separated integer offsets")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", help="|".join(sorted(SUITES)))
    common(p, modulus=False)
    p.add_argument("--prime", type=int)
    p.add_argument("--threshold", type=float, default=5.0)

    return parser


_COMMANDS = {
    "image": cmd_image,
    "correlate": cmd_correlate,
    "spacings": cmd_spacings,
    "critical": cmd_critical,
    "nk": cmd_nk,
    "verify": cmd_verify,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _config_from_args(args)
        if cfg.format is None:
            cfg.format = "csv" if cfg.command == "spacings" else "json"
        code = _COMMANDS[cfg.command](cfg)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout early; point the fd at devnull so the
        # flush at interpreter exit stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    raise SystemExit(main())
