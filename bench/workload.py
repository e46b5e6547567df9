"""One workload in one Python process.

    python3 bench/workload.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/workload.py --workload NAME --seed N --probe-setup

Runs rounds of the workload's operations, each a `polyimage` command run
in-process through `polyimage.cli.main(argv)`, for about S seconds: whole
rounds, at least one, as many as are expected to end within S seconds.
Before each operation every functools cache of the program is cleared, so
each operation costs what a fresh `polyimage` command would, less the
interpreter start and imports that `setup_s` reports.  Results of
the first round are checked after the timed rounds; every later round must
print the same bytes.  The last line of stdout is one JSON object.

With --trace 0 a fixed probe of machine speed (`speed.py`, in a helper
process) runs before each operation and after the last, outside the timing, and the end-to-end times
are in reference seconds: each operation's time over the mean of the two
probes around it, relative to the probe's reference time.

With --trace 1, untraced and traced rounds alternate; the per-layer metrics
are totals per traced round, and `trace.overhead_s` is the median traced
round minus the median untraced round.  With --probe-setup the process only
imports the program, builds the inputs and prints the time that took.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import ops  # noqa: E402  (the benchmark's own modules sit next to this file)

# per-layer metrics printed with --trace 1: self time and calls of these spans
SPANS = (
    "polyarith.critical_diffs_mod", "polyarith.fp_gcd", "polyarith.critical_value_poly",
    "polyarith.critical_diffs_infinity",
    "primeimage.anomaly_scan", "primeimage.joint_count_error", "primeimage.joint_count",
    "primeimage.compute_image", "primeimage.image_mask",
    "composite.parse_modulus", "composite.joint_count_composite", "composite.enumerate_image",
    "stats.spacing_series", "stats.ks_exponential", "stats.gap_frequency",
    "stats.histogram_normalized", "stats.adjacent_gap_correlation", "stats.correlation",
    "verify.anomaly_report", "parallel.pmap",
)
COUNTS = (
    ("primeimage.compute_image.bits", "bits"), ("composite.enumerate_image.bytes", "bytes"),
    ("stats.correlation.lattice_points", "count"), ("stats.correlation.excluded", "count"),
)


def per_layer_names() -> list[tuple[str, str]]:
    """(metric, unit) for every per-layer metric, in a fixed order."""
    out = []
    for span in SPANS:
        out += [(f"{span}.self_s", "s"), (f"{span}.calls", "count")]
    return out + list(COUNTS) + [
        ("primeimage.image_mask.hits", "count"), ("primeimage.image_mask.misses", "count"),
        ("cli.self_s", "s"), ("cli.report_bytes", "bytes"), ("trace.overhead_s", "s")]


class Runner:
    def __init__(self, cli, primeimage, tracer=None):
        self.main = cli.main
        # every functools cache in the program; the objects themselves, so that
        # they stay reachable while the tracer has wrapped them
        modules = [m for name, m in sys.modules.items() if name.startswith("polyimage.")]
        self.caches = list({id(obj): obj for m in modules for obj in vars(m).values()
                            if hasattr(obj, "cache_clear")}.values())
        self.image_mask = primeimage.image_mask
        self.tracer = tracer
        self.hits = self.misses = self.report_bytes = 0

    def run(self, argv: list[str], traced: bool) -> tuple[int | None, float, str]:
        for cache in self.caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        if traced:
            self.tracer.install()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.tracer.root(self.main, argv) if traced else self.main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash: the operation failed, the run goes on
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - t0
        if traced:
            self.tracer.uninstall()
            info = self.image_mask.cache_info()
            self.hits += info.hits
            self.misses += info.misses
            self.report_bytes += len(out.getvalue().encode())
        if rc != 0:
            print(f"operation {' '.join(argv)} exited {rc}:\n{err.getvalue()}", file=sys.stderr)
        return rc, seconds, out.getvalue()


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", action="store_true")
    ap.add_argument("--out", type=Path, help="also write the full record here as JSON")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    t0 = time.perf_counter()
    from polyimage import cli, primeimage

    plan = ops.build(args.workload, args.seed)
    setup_s = time.perf_counter() - t0
    if args.probe_setup:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import speed  # only now: imported earlier, its numpy import would leave setup_s

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    runner = Runner(cli, primeimage, tracer)
    rounds: list[list[tuple]] = []
    kinds: list[bool] = []
    durations: list[float] = []
    probes: list[float] = []  # machine speed before each operation and after the last
    prober = None if args.trace else speed.Prober()
    try:
        if prober:
            prober()  # warm-up: the helper's first probe pays for its start
        start = time.perf_counter()
        # whole rounds only; start another while it is expected to end in time
        while (len(rounds) < (2 if args.trace else 1)
               or time.perf_counter() - start + statistics.median(durations) <= args.seconds):
            traced = bool(args.trace) and len(rounds) % 2 == 1
            began = time.perf_counter()
            rnd = []
            for op in plan:
                if prober:
                    probes.append(prober())
                rnd.append(runner.run(op["argv"], traced))
            rounds.append(rnd)
            durations.append(time.perf_counter() - began)
            kinds.append(traced)
        if prober:
            probes.append(prober())
    finally:
        if prober:
            prober.close()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    attempted = len(rounds) * len(plan)
    failed = sum(rc != 0 for rnd in rounds for rc, _, _ in rnd)
    faults = check_rounds(plan, rounds)
    for fault in faults:
        print(f"check failed: {fault}", file=sys.stderr)

    if args.trace:
        walls = [sum(s for _, s, _ in rnd) for rnd in rounds]
        metrics = trace_metrics(tracer, runner, walls, kinds)
    else:
        # each operation in reference seconds, scaled by the probes around it
        n = len(plan)
        ref = [[s / speed.factor(probes[r * n + i], probes[r * n + i + 1])
                for i, (_, s, _) in enumerate(rnd)] for r, rnd in enumerate(rounds)]
        op_medians = [statistics.median(times[i] for times in ref) for i in range(n)]
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(sum(times) for times in ref), "unit": "s"},
            "op_max_s": {"value": max(op_medians), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    result = {"correct": not faults, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
                  "rounds": len(rounds), "faults": faults,
                  "operations": [{"argv": op["argv"], "seconds": [rnd[i][1] for rnd in rounds]}
                                 for i, op in enumerate(plan)],
                  "probes": probes, **result}
        if tracer:
            record["spans"] = {name: {"self_s": tracer.self_s[name], "calls": tracer.calls[name]}
                               for name in sorted(tracer.calls)}
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not faults else 1


def check_rounds(plan: list[dict], rounds: list[list[tuple]]) -> list[str]:
    """Checks of the first round's results; later rounds must repeat them."""
    import checks

    faults = []
    for i, op in enumerate(plan):
        rc, _, out = rounds[0][i]
        if rc != 0:
            continue  # counted in `failed`
        cmd = " ".join(op["argv"])
        if any(rnd[i][2] != out for rnd in rounds[1:] if rnd[i][0] == 0):
            faults.append(f"{cmd}: output differs between rounds")
        try:
            faults += [f"{cmd}: {f}" for f in checks.check(op, json.loads(out))]
        except (ValueError, KeyError, TypeError, ArithmeticError) as exc:
            faults.append(f"{cmd}: malformed result ({type(exc).__name__}: {exc})")
    return faults


def trace_metrics(tracer, runner: Runner, walls: list[float], kinds: list[bool]) -> dict:
    traced = [w for w, k in zip(walls, kinds) if k]
    plain = [w for w, k in zip(walls, kinds) if not k]
    totals = {"cli.self_s": tracer.self_s["cli"], "cli.report_bytes": runner.report_bytes,
              "primeimage.image_mask.hits": runner.hits,
              "primeimage.image_mask.misses": runner.misses,
              **{name: tracer.counters[name] for name, _ in COUNTS}}
    for span in SPANS:
        totals[f"{span}.self_s"] = tracer.self_s[span]
        totals[f"{span}.calls"] = tracer.calls[span]
    # per traced round, like wall_s
    values = {name: total / len(traced) for name, total in totals.items()}
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    return {name: {"value": values[name], "unit": unit} for name, unit in per_layer_names()}

if __name__ == "__main__":
    sys.exit(main())
