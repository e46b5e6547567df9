"""Benchmark launcher: one workload, one seed, one JSON line.

    python3 bench/run.py --workload spacings|anomaly|multiplicative \
        --seed N --seconds S --trace 0|1

Runs from the root of a source checkout; the program is imported from
`src/`, so nothing is built.  The workload runs in its own Python process
(`bench/workload.py`), in its own process group.  With --trace 0, five more
short processes only import the program and build the inputs, and `setup_s`
is the median of the six set-up times.  The launcher waits for every process
it starts; on a timeout, a failure or a SIGTERM it kills that process's whole
group, and before it exits it checks that no process it started is left.

The last line of stdout is the workload's JSON result; a full record goes to
`bench/out/`.  Exit status 0 means every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import ops  # the workload names; ops imports nothing from the program

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
DEADLINE_S = 170  # each run must end within 180 s
# glibc returns a freed block of 1 MB or more to the system at once, instead
# of keeping some in its heap depending on the history of earlier frees; so
# peak_rss_mb follows the program's live memory and not the allocator's state
ENV = {**os.environ, "MALLOC_MMAP_THRESHOLD_": str(1 << 20)}


def _proc_stat(pid: str) -> tuple[str, int, int] | None:
    """(state, ppid, pgrp) of a process, read from /proc."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None
    return fields[0], int(fields[1]), int(fields[2])


def live_processes(pgid: int | None = None, ppid: int | None = None) -> list[int]:
    """Live (not zombie) processes in a process group or with a given parent."""
    out = []
    for pid in filter(str.isdigit, os.listdir("/proc")):
        st = _proc_stat(pid)
        if st and st[0] != "Z" and (st[2] == pgid or st[1] == ppid):
            out.append(int(pid))
    return out


def kill_group(pgid: int) -> None:
    """SIGKILL every process left in the group and wait until none is live."""
    deadline = time.monotonic() + 10
    while live_processes(pgid=pgid) and time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            break
        time.sleep(0.05)


def spawn(args: list[str], timeout: float) -> tuple[int | None, str]:
    """Run bench/workload.py in a new process group; (exit code, stdout).
    The exit code is None when the process had to be killed."""
    proc = subprocess.Popen([sys.executable, str(HERE / "workload.py"), *args],
                            cwd=ROOT, env=ENV, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(timeout, 1))
        rc = proc.returncode
    except subprocess.TimeoutExpired:
        print(f"workload process timed out after {timeout:.0f} s; killing its group",
              file=sys.stderr)
        kill_group(proc.pid)
        out, _ = proc.communicate()
        rc = None
    except BaseException:
        kill_group(proc.pid)
        proc.wait()
        raise
    kill_group(proc.pid)  # anything it left behind, e.g. a process pool
    return rc, out


def last_json(out: str) -> dict | None:
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run(args: argparse.Namespace) -> int:
    t0 = time.monotonic()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            rc, out = spawn(common + ["--probe-setup"], DEADLINE_S - (time.monotonic() - t0))
            probe = last_json(out)
            if rc != 0 or probe is None:
                print(f"set-up probe failed (exit {rc})", file=sys.stderr)
                return 1
            setups.append(probe["setup_s"])
    record = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rc, out = spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace),
                              "--out", str(record)],
                    DEADLINE_S - (time.monotonic() - t0))
    result = last_json(out)
    if rc not in (0, 1) or result is None:
        print(f"workload process failed (exit {rc})", file=sys.stderr)
        return 1
    if not args.trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps(result))
    return 0 if rc == 0 and result["correct"] else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="Run one polyimage benchmark workload.")
    ap.add_argument("--workload", required=True, choices=ops.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # a terminated launcher still takes its workload's process group down
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "polyimage" / "__init__.py").is_file():
        print(f"no polyimage sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    rc = run(args)
    left = live_processes(ppid=os.getpid())
    for pid in left:
        os.kill(pid, signal.SIGKILL)
    if left:
        print(f"{len(left)} child processes were left running and were killed", file=sys.stderr)
        return 1
    return rc

if __name__ == "__main__":
    sys.exit(main())
