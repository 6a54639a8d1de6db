"""Run one isodescent CLI invocation in-process with every layer traced.

Usage: python tracer.py SUMMARY.json -- CLI_ARG ...

Every public function of isodescent.arith, .local, .descent, .family and
.cli is wrapped in a span before isodescent.cli.main(CLI_ARGS) runs.  The
wrappers are installed from here, by rebinding module attributes, so no
file of the program changes.  The CLI's output goes to stdout untouched;
per-function totals go to SUMMARY.json:

    {"functions": {"descent.selmer": {"calls": n, "total_ns": t, "self_ns": s}, ...},
     "counts": {"local.solvable_padic.solvable": n, ...},
     "max_l": l, "exit_code": c}

A span's self time is its duration minus the durations of the spans it
called directly, so the self times of all spans add up to the root span,
cli.main.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from collections import Counter

LAYERS = ("arith", "local", "descent", "family", "cli")


class Tracer:
    def __init__(self) -> None:
        self.stack: list[list] = []  # one [name, child_ns] frame per open span
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_l = 0
        self.selmer_size = 0  # |S| of the Selmer group the running alpha_image got

    def wrap(self, name: str, fn, hook=None):
        stack = self.stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [name, 0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                self.calls[name] += 1
                self.total_ns[name] += elapsed
                self.self_ns[name] += elapsed - frame[1]
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def summary(self) -> dict:
        return {
            "functions": {
                name: {
                    "calls": self.calls[name],
                    "total_ns": self.total_ns[name],
                    "self_ns": self.self_ns[name],
                }
                for name in sorted(self.calls)
            },
            "counts": dict(sorted(self.counts.items())),
            "max_l": self.max_l,
        }


def _parent(tracer: Tracer):
    return tracer.stack[-1][0] if tracer.stack else None


def _hooks() -> dict:
    """Counters taken at span boundaries, keyed by span name."""

    def solvable_padic(tracer, args, result):
        tracer.max_l = max(tracer.max_l, args[1])
        # a certificate today; a plain bool once certificates are dropped
        tracer.counts["local.solvable_padic.solvable"] += bool(getattr(result, "solvable", result))

    def solvable_everywhere_locally(tracer, args, result):
        # selmer tests each candidate class b1 | b with exactly one call
        if _parent(tracer) == "descent.selmer":
            tracer.counts["descent.selmer.candidates"] += 1
            tracer.counts["descent.selmer.accepted"] += bool(result)

    def selmer(tracer, args, result):
        if _parent(tracer) == "descent.alpha_image":
            tracer.selmer_size = len(result.classes)

    def alpha_image(tracer, args, result):
        # Selmer classes with no point within the bound: each of them was
        # searched over the whole height box
        tracer.counts["descent.alpha_image.unproven_classes"] += tracer.selmer_size - len(result)

    def emit(tracer, args, result):
        tracer.counts["cli.emit.bytes"] += len(result)

    return {
        "local.solvable_padic": solvable_padic,
        "local.solvable_everywhere_locally": solvable_everywhere_locally,
        "descent.selmer": selmer,
        "descent.alpha_image": alpha_image,
        "cli.emit": emit,
    }


def _is_traceable(obj, module_name: str) -> bool:
    # plain functions and lru_cache wrappers (descent.selmer); not classes
    traceable = isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")
    return traceable and getattr(obj, "__module__", None) == module_name


def install(tracer: Tracer) -> None:
    """Wrap every public function of the layers wherever a module refers to it.

    Modules import each other's functions by name (cli calls its own copy
    of family.verify_prime), so each reference is rebound, not only the
    defining module's.
    """
    modules = {layer: importlib.import_module(f"isodescent.{layer}") for layer in LAYERS}
    hooks = _hooks()
    wrapped: dict[int, tuple] = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if not attr.startswith("_") and _is_traceable(obj, module.__name__):
                name = f"{layer}.{attr}"
                wrapped[id(obj)] = (obj, tracer.wrap(name, obj, hooks.get(name)))
    for module in (importlib.import_module("isodescent"), *modules.values()):
        for attr, obj in list(vars(module).items()):
            entry = wrapped.get(id(obj))
            if entry is not None and entry[0] is obj:
                setattr(module, attr, entry[1])


def main() -> int:
    if len(sys.argv) < 3 or sys.argv[2] != "--":
        print(__doc__.splitlines()[2], file=sys.stderr)
        return 2
    summary_path, cli_args = sys.argv[1], sys.argv[3:]
    tracer = Tracer()
    install(tracer)
    import isodescent.cli

    code = isodescent.cli.main(cli_args)
    with open(summary_path, "w") as handle:
        json.dump({**tracer.summary(), "exit_code": code}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
