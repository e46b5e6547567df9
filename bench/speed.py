"""How fast the machine runs right now, from a fixed probe of the benchmark's own.

A shared host runs the same `polyimage` command up to half again as slow in
phases lasting from seconds to minutes, and the Python-bound and numpy-bound
commands slow by different amounts.  The probe is a fixed piece of work in
both kinds, run between operations and outside their timing: polynomial
remainder sequences over F_p and shifted AND/popcounts of 20000-bit
integers in pure Python (the shape of `critical` and the pair scan), then a
pass of numpy arithmetic, cumulative sums and a sort over 8 MB.  It uses
nothing from the program, so a change to the program cannot move it.

The probe runs in a helper process of its own (`Prober`), which answers one
probe for each line it reads, so that its arrays never count in the workload
process's peak memory.  The workload process waits while it runs.

`factor(before, after)` is the probe's time around an operation relative to
REF_S, its median time on the reference machine (README, "Reference
figures"); an operation's time divided by the factor is its time in
reference seconds, what it would take there at that median speed.
"""

from __future__ import annotations

import random
import statistics
import subprocess
import sys
import time

import numpy as np

REPS = 3  # probe() reports the median of this many timings of the work
REF_S = 0.0257  # median of 150 probe() calls on the reference machine

_P = 30011
_rng = random.Random(20261018)
_COEFFS = [_rng.randrange(1, _P) for _ in range(40)]
_BITS = 20000
_A, _B = _rng.getrandbits(_BITS), _rng.getrandbits(_BITS)
_N = 1_000_000  # int64 elements of the numpy pass, made in the helper only


def _rem(u: list[int], v: list[int]) -> list[int]:
    """u mod v over F_p, coefficients in ascending order."""
    u = list(u)
    dv = len(v) - 1
    inv = pow(v[-1], -1, _P)
    for k in range(len(u) - 1 - dv, -1, -1):
        c = u[dv + k] * inv % _P
        if c:
            for i, x in enumerate(v):
                u[k + i] = (u[k + i] - c * x) % _P
        u.pop()
    while u and not u[-1]:
        u.pop()
    return u


def _work() -> int:
    total = 0
    for s in range(40):
        a, b = _COEFFS[s % 7:], _COEFFS[: 20 + s % 9]
        while b:
            a, b = b, _rem(a, b)
        total += len(a)
    mask = (1 << _BITS) - 1
    for h in range(1, 200):
        total += (_A & (((_B >> h) | (_B << (_BITS - h))) & mask)).bit_count()
    x = (np.arange(_N, dtype=np.int64) * 7) & 1023
    np.cumsum(x, out=x)
    y = np.diff(x)
    y.sort()
    return total + int(y[-1])


def probe() -> float:
    """Seconds the probe's work takes now: the median of REPS timings."""
    times = []
    for _ in range(REPS):
        t0 = time.perf_counter()
        _work()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def factor(before: float, after: float) -> float:
    """How much slower than the reference machine at its median speed the
    operation between two probes ran: their mean over REF_S."""
    return (before + after) / 2 / REF_S


class Prober:
    """probe() in a helper process; close() ends it and waits for it."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def __call__(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        return float(self.proc.stdout.readline())

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(probe(), flush=True)
