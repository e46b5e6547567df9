"""Per-layer spans, recorded from outside the program.

`Tracer.install()` replaces every public function of the layer modules with a
timing wrapper, in every `polyimage` module that binds it (so calls made
through `from .x import f` names are seen too), and `uninstall()` puts the
originals back.  Nothing under `src/` changes.

A span's self time is its duration minus the time of the spans it directly
encloses.  The `cli` layer is the root span around one `cli.main(argv)` call:
its self time is the operation's time minus its top-level layer spans.
Spans are aggregated in memory per function (self time, calls) and per
counter, and read from `self_s`, `calls` and `counters` when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("polyarith", "primeimage", "composite", "stats", "verify", "parallel")


def _is_traced_function(obj, module_name: str) -> bool:
    # plain functions and functools caches around them, defined in that module
    return (inspect.isfunction(inspect.unwrap(obj))
            and getattr(obj, "__module__", None) == module_name)


def _bits(counters, args, result):
    # one bit per residue of the prime
    counters["primeimage.compute_image.bits"] += args["p"]


def _bytes(counters, args, result):
    # the packed length-q bitmap
    counters["composite.enumerate_image.bytes"] += (args["modulus"].q + 7) // 8


def _lattice(counters, args, result):
    counters["stats.correlation.lattice_points"] += result.lattice_points
    counters["stats.correlation.excluded"] += result.excluded


COUNTERS = {
    "primeimage.compute_image": _bits,
    "composite.enumerate_image": _bytes,
    "stats.correlation": _lattice,
}


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counters: dict[str, float] = defaultdict(int)
        self._stack: list[float] = []
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[str, object] = {}
        self._modules = [importlib.import_module(f"polyimage.{m}")
                         for m in LAYERS + ("cli", "oracle")]
        self._modules.append(importlib.import_module("polyimage"))
        for layer in LAYERS:
            mod = sys.modules[f"polyimage.{layer}"]
            for attr, obj in vars(mod).items():
                if not attr.startswith("_") and _is_traced_function(obj, mod.__name__):
                    name = f"{layer}.{attr}"
                    self._wrappers[name] = (obj, self._wrap(name, obj))

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn) if count else None
        stack = self._stack
        self_s, calls, counters = self.self_s, self.calls, self.counters
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self_s[name] += dt - child
                calls[name] += 1
                if stack:
                    stack[-1] += dt
            if count is not None:
                count(counters, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        originals = {id(orig): wrapper for orig, wrapper in self._wrappers.values()}
        for mod in self._modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = originals.get(id(obj))
                if wrapper is not None:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, obj = self._patches.pop()
            setattr(mod, attr, obj)

    def root(self, fn, *args):
        """Run one operation under the root `cli` span; returns fn's result."""
        self._stack.append(0.0)
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            dt = time.perf_counter() - t0
            self.self_s["cli"] += dt - self._stack.pop()
            self.calls["cli"] += 1
