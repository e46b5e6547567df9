"""Command-line front end.

Each subcommand declares only the flags it reads, plus `--workers` (at least
1, default 1), which every command accepts and only `image` and `verify`
read.  The parser alone knows which flags a command requires, how an integer
list is written and which suites exist: anything argparse can reject exits 2
before any command runs.  A command checks only what its values mean and
returns its exit code, its `result` payload of raw values (Fractions,
floats, ints, strings, bools, lists) and a human summary; `main` alone
writes them out, through the one renderer `_jsonable`, which also renders
the rows `spacings --out` writes.

Machine-first output: the JSON report goes to stdout (stable key order, so a
fixed command line produces byte-identical bytes; `config` echoes the parsed
flags and the version, so runs that differ only in --workers give the same
`result` payload but not the same `config`), the summary goes to stderr, and
`spacings` builds its CSV or JSON histogram only to write it to --out (so
--bins and --format without --out exit 2).  Exit codes: 0 success, 1
verification failure, 2 invalid input, 3 resource cap, 4 internal error (an
unexpected exception, reported as one `internal error: <Type>: <message>`
line on stderr).  A reader that closes stdout before the report is written
is not an error: the command exits 0 and stays silent.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .composite import DEFAULT_CAP_BITS, composite_stats, parse_modulus
from .errors import InvalidInputError, ResourceCapError
from .polyarith import (
    critical_diffs_infinity,
    critical_diffs_mod,
    is_probable_prime,
    parse_poly,
    poly_to_text,
)
from .primeimage import (check_table_axes, expected_joint_count, joint_count, joint_count_error,
                         wan_ok)
from .stats import (
    CorrelationWindow,
    adjacent_gap_correlation,
    correlation,
    gap_frequency,
    histogram_normalized,
    ks_exponential,
    spacing_series,
)
from .verify import ANOMALY_THRESHOLD, SUITES, anomaly_report


def _parse_window(text: str) -> CorrelationWindow:
    intervals = []
    for part in text.split(","):
        try:
            a, b = part.split(":")
            intervals.append((Fraction(a), Fraction(b)))
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"bad window interval {part!r}") from exc
    return CorrelationWindow.box(*intervals)


# commands --------------------------------------------------------------------

def cmd_image(args: argparse.Namespace) -> tuple[int, dict, str]:
    f = parse_poly(args.poly)
    m = parse_modulus(args.primes or args.modulus)
    stats = composite_stats(f, m, workers=args.workers)
    result = {
        "q": m.q,
        "primes": list(m.primes),
        "omega_size": stats.omega_q_size,
        "s_q": stats.s_q,
        "q1": list(stats.q1_reduced.primes),
        "per_prime": [
            {
                "p": mask.p,
                "omega": mask.count,
                "s_p": Fraction(mask.p, mask.count),
                "is_permutation": mask.count == mask.p,
                "wan_ok": wan_ok(f, mask),
            }
            for mask in stats.masks
        ],
    }
    return 0, result, (f"image of {args.poly} mod {m.q}: {stats.omega_q_size} elements, "
                       f"mean spacing {float(stats.s_q):.6g}")


def cmd_correlate(args: argparse.Namespace) -> tuple[int, dict, str]:
    f = parse_poly(args.poly)
    m = parse_modulus(args.primes or args.modulus)
    window = _parse_window(args.window)
    if args.k is not None and args.k != window.dimension + 1:
        raise InvalidInputError(
            f"--k {args.k} conflicts with a {window.dimension}-interval window"
        )
    res = correlation(f, m, window)
    result = {
        "k": res.k,
        "r_k": res.value,
        "volume": res.volume,
        "deviation": res.deviation,
        "s_q": res.s_q,
        "lattice_points": res.lattice_points,
        "excluded_points": res.excluded,
        "q1": list(res.modulus_used.primes),
    }
    return 0, result, (f"R_{res.k} = {float(res.value):.6g} vs vol {float(res.volume):.6g} "
                       f"({res.lattice_points} lattice points)")


def cmd_spacings(args: argparse.Namespace) -> tuple[int, dict, str]:
    f = parse_poly(args.poly)
    m = parse_modulus(args.primes or args.modulus)
    for flag in ("format", "bins"):
        if getattr(args, flag) is not None and not args.out:
            raise InvalidInputError(f"--{flag} shapes the file --out writes; give --out too")
    if args.bins is not None and args.bins > MAX_BINS:
        raise ResourceCapError(f"--bins {args.bins} exceeds the cap of {MAX_BINS} histogram bins")
    series = spacing_series(f, m, cap_bits=args.cap_bits)
    ks = ks_exponential(series)
    corr = adjacent_gap_correlation(series)
    result = {
        "q": m.q,
        "omega_size": series.element_count,
        "s_q": Fraction(m.q, series.element_count),
        "ks": {"statistic": ks, "n": series.element_count},
        "adjacent_gap_correlation": corr,
        "gap_frequencies": {h: gap_frequency(series, h) for h in range(1, 11)},
    }
    if args.out:
        _write_out(args, histogram_normalized(series, bins=args.bins or 50), result)
    return 0, result, (f"{series.element_count} gaps, KS {ks:.4f}, "
                       f"adjacent correlation {corr:.4f}")


def _write_out(args: argparse.Namespace, rows: list[dict], result: dict) -> None:
    # a failed open, write or the flush at close (a full disk) exits 2 alike
    try:
        with open(args.out, "w", newline="") as fh:
            if args.format == "json":
                json.dump(_jsonable({"histogram": rows, "summary": result}), fh, sort_keys=True)
            else:
                writer = csv.DictWriter(
                    fh, fieldnames=["bin_left", "bin_right", "count", "density", "exp_reference"]
                )
                writer.writeheader()
                writer.writerows(map(_jsonable, rows))
    except OSError as exc:
        raise InvalidInputError(f"cannot write --out {args.out}: {exc.strerror}") from exc


def _require_prime(p: int) -> int:
    if not is_probable_prime(p):
        raise InvalidInputError(f"--prime {p} is not prime")
    return p


def cmd_critical(args: argparse.Namespace) -> tuple[int, dict, str]:
    # the mod-p set first: a refused --prime costs no integer set
    f = parse_poly(args.poly)
    obs = None if args.prime is None else critical_diffs_mod(f, _require_prime(args.prime))
    inf = critical_diffs_infinity(f)
    result = {
        "poly": poly_to_text(f),
        "critical_poly": {"coeffs_ascending": list(inf.poly.coeffs),
                          "text": poly_to_text(inf.poly, var="y")},
        "critical_diffs_integers": list(inf.elements),
    }
    if obs is not None:
        result["critical_diffs_mod_p"] = {
            "p": obs.modulus, "elements": list(obs.elements), "approximate": obs.approximate,
            "critical_poly_coeffs": None if obs.poly is None else list(obs.poly.coeffs)}
    return 0, result, f"critical structure of {args.poly}: integer diffs {list(inf.elements)}"


def cmd_nk(args: argparse.Namespace) -> tuple[int, dict, str]:
    f = parse_poly(args.poly)
    m = parse_modulus(args.primes or args.modulus)
    check_table_axes(len(args.offsets))
    k = len(args.offsets) + 1
    total = 1
    per_prime = []
    for mask in composite_stats(f, m).masks:
        count = joint_count(mask, args.offsets)
        total *= count
        per_prime.append({
            "p": mask.p,
            "count": count,
            "expected": expected_joint_count(mask.p, Fraction(mask.p, mask.count), k),
            "error": joint_count_error(mask, count, k),
        })
    result = {"q": m.q, "k": k, "offsets": args.offsets, "joint_count": total,
              "per_prime": per_prime}
    return 0, result, f"N_{k}({args.offsets}, {m.q}) = {total}"


def cmd_verify(args: argparse.Namespace) -> tuple[int, dict, str]:
    if args.suite == "anomaly" and args.poly is not None and args.prime is not None:
        threshold = ANOMALY_THRESHOLD if args.threshold is None else args.threshold
        checks = [anomaly_report(parse_poly(args.poly), _require_prime(args.prime), threshold)]
    elif args.poly is not None or args.prime is not None:
        raise InvalidInputError("--poly and --prime go together and only with the anomaly suite: "
                                "verify anomaly --poly F --prime p")
    elif args.threshold is not None:
        raise InvalidInputError("--threshold is read only by the single-prime report: "
                                "verify anomaly --poly F --prime p --threshold c")
    else:
        checks = SUITES[args.suite](args.seed, args.workers)
    passed = all(c.passed for c in checks)
    result = {
        "suite": args.suite,
        "passed": passed,
        "checks": [{"name": c.name, "passed": c.passed, "details": c.details}
                   for c in checks],
    }
    return 0 if passed else 1, result, "\n".join(c.line() for c in checks)


# rendering -------------------------------------------------------------------

def _f12(x: float) -> float:
    """Floats rendered at 12 significant digits for reproducible reports."""
    return float(f"{x:.12g}")


def _frac(fr: Fraction) -> str:
    return f"{fr.numerator}/{fr.denominator}"


def _jsonable(obj):
    """JSON values of raw report values: a Fraction becomes its exact ratio
    beside a float, and a float keeps 12 significant digits."""
    if isinstance(obj, float):
        return _f12(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, Fraction):
        return {"ratio": _frac(obj), "float": _f12(float(obj))}
    return obj


# parser ----------------------------------------------------------------------

# Most histogram bins `spacings --out` writes: 10^5 take about 1.5 s and 70 MB
# as a process, growing linearly (3*10^6 took 11.5 s and 1.1 GB).
MAX_BINS = 10**5


def _at_least_one(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _int_list(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"needs comma-separated integers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyimage",
        description="Images of integer polynomials modulo square-free integers: "
                    "correlation, spacing, and critical-value analyses.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, *, modulus=True):
        p = sub.add_parser(name, help=help)
        # verify reads --poly only for its single-prime anomaly report
        p.add_argument("--poly", required=name != "verify",
                       help="polynomial in x, e.g. x^4-2x^2")
        if modulus:
            either = p.add_mutually_exclusive_group(required=True)
            either.add_argument("--modulus", type=int, help="square-free modulus")
            either.add_argument("--primes", type=_int_list, help="comma-separated prime list")
        p.add_argument("--workers", type=_at_least_one, default=1)
        return p

    command("image", "image size and per-prime statistics")

    p = command("correlate", "k-level correlation over a window")
    p.add_argument("--k", type=int)
    p.add_argument("--window", required=True, help="a:b[,a:b...] with rational endpoints")

    p = command("spacings", "gap statistics and KS test")
    p.add_argument("--bins", type=_at_least_one,
                   help=f"with --out; default 50, at most {MAX_BINS}")
    p.add_argument("--cap-bits", dest="cap_bits", type=_at_least_one, default=DEFAULT_CAP_BITS)
    p.add_argument("--out", help="write the gap histogram to this path")
    p.add_argument("--format", choices=["json", "csv"], help="with --out; default csv")

    p = command("critical", "critical values and obstruction sets", modulus=False)
    p.add_argument("--prime", type=int)

    p = command("nk", "joint image count for explicit offsets")
    p.add_argument("--offsets", required=True, type=_int_list,
                   help="comma-separated integer offsets")

    p = command("verify", "run a verification suite", modulus=False)
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--prime", type=int)
    p.add_argument("--threshold", type=float,
                   help=f"with --poly and --prime; default {ANOMALY_THRESHOLD}")
    p.add_argument("--seed", type=int, default=0)

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
        code, result, summary = _COMMANDS[args.command](args)
        config = dict(vars(args), version=__version__)
        print(json.dumps({"command": args.command, "config": config,
                          "result": _jsonable(result)}, sort_keys=True))
        print(summary, file=sys.stderr)
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
