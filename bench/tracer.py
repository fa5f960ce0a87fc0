"""Span tracer for the jhl package that works from outside it.

The tracer replaces selected public functions of jhl with timing wrappers,
in every module namespace and registry dict that binds them, so that calls
made through `from .x import y` bindings are traced too. Each call records a
span (id, parent id, name, start, end). Span stacks are kept per thread; a
span opened on a worker thread with an empty stack takes the innermost open
span of the main thread as its parent, since that span started the pool.
Counters are read from the call arguments.

Run as a script to trace one CLI invocation and write a JSON summary:

    python3 bench/tracer.py SUMMARY.json verify --out DIR --workers 2
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time

# Layer (jhl module) -> traced public functions. Scalar helpers that run once
# per polynomial degree (coeff_a, coeff_b, normalization, ortho_poly_at_one)
# are left out: their wrapper would cost more than their body.
LAYERS = {
    "quadrature": ("build_rule", "auto_order"),
    "basis": ("ortho_table",),
    "semigroup": ("kernel_matrix", "kernel_tensor", "kernel_dt_tensor",
                  "markov_defect", "semigroup_defect"),
    "paths": ("variation_batch", "jump_count_batch", "oscillation_batch"),
    "weights": ("weak_quasinorm", "norm_ratio_max"),
    "verify": ("verify_kernel_decay", "verify_kernel_smoothness", "verify_dt_sup",
               "verify_qn_bounds", "verify_lacunary_tail", "verify_cotlar",
               "verify_poly_bound", "verify_theorem_norms", "majorant_batch"),
    "cli": ("cmd_kernel", "cmd_operators", "cmd_verify", "cmd_norms"),
}


def _count_rule(tracer: "Tracer", args: dict) -> None:
    params, order = args["params"], int(args["order"])
    tracer.add_distinct("quadrature.build_rule", (params.alpha, params.beta, order))
    tracer.set_max("quadrature.build_rule.max_order", order)


def _count_kernel(tracer: "Tracer", args: dict) -> None:
    params = args["params"]
    tracer.add_distinct("semigroup.kernel_matrix",
                        (params.alpha, params.beta, float(args["t"]),
                         int(args["size"]), args["method"], float(args["quad_tol"])))


def _count_paths(tracer: "Tracer", args: dict) -> None:
    shape = getattr(args["values"], "shape", None)
    if not shape:
        return
    tracer.add("paths.variation_batch.paths", math.prod(shape[:-1]))
    tracer.set_max("paths.variation_batch.path_len", shape[-1])


COUNTERS = {
    "quadrature.build_rule": _count_rule,
    "semigroup.kernel_matrix": _count_kernel,
    "paths.variation_batch": _count_paths,
}


def union_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def summarize(spans, wall_start: float, wall_end: float) -> dict:
    """Per span name: calls, total_s and self_s; plus the share of the wall
    under root spans (coverage) and of the roots' time under their children
    (layer_coverage).

    Self time is a span's duration minus the part of its interval covered by
    its child spans, so children running concurrently on two threads are not
    subtracted twice.
    """
    children: dict = {}
    for span_id, parent, name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out: dict = {}
    for span_id, parent, name, start, end in spans:
        kids = children.get(span_id, ())
        self_s = (end - start) - union_length(kids, start, end)
        row = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += self_s
    wall = wall_end - wall_start
    covered = union_length(children.get(None, ()), wall_start, wall_end)
    # The root spans (the cli commands) cover nearly the whole wall, so
    # coverage alone cannot show work that no layer span catches. That work
    # is a root's self time; layer_coverage is the rest of the roots' time.
    roots = [(span_id, start, end) for span_id, parent, _, start, end in spans
             if parent is None]
    root_s = sum(end - start for _, start, end in roots)
    under = sum(union_length(children.get(span_id, ()), start, end)
                for span_id, start, end in roots)
    return {"spans": out, "wall_s": wall, "coverage": covered / wall if wall > 0 else 0.0,
            "layer_coverage": under / root_s if root_s > 0 else 0.0}


class Tracer:
    """Collects spans and counters from wrapped functions."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list = []
        self.counters: dict = {}
        self.missing: list = []
        self._distinct: dict = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._main_stack = self._stack()

    def _stack(self) -> list:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def add(self, key: str, amount) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + amount

    def set_max(self, key: str, value) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, value), value)

    def add_distinct(self, name: str, key) -> None:
        with self._lock:
            self._distinct.setdefault(name, set()).add(key)

    def wrap(self, name: str, fn, counter=None):
        """Return fn wrapped so that each call records a span called `name`."""
        signature = inspect.signature(fn) if counter else None
        spans, ids, clock, main_stack = self.spans, self._ids, self.clock, self._main_stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                top = main_stack[-1:] if stack is not main_stack else ()
                parent = top[0] if top else None
            span_id = next(ids)
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end))
                if counter is not None:
                    self._count(name, counter, signature, args, kwargs)

        return traced

    def _count(self, name: str, counter, signature, args, kwargs) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            counter(self, bound.arguments)
        except (TypeError, KeyError, AttributeError, ValueError):
            # A changed signature loses the counter, not the span or the run.
            with self._lock:
                if f"{name} counter" not in self.missing:
                    self.missing.append(f"{name} counter")

    def install(self, package: str = "jhl") -> None:
        """Wrap every LAYERS function wherever a loaded package module binds it."""
        importlib.import_module(f"{package}.cli")
        modules = [mod for key, mod in list(sys.modules.items())
                   if key == package or key.startswith(package + ".")]
        for layer, names in LAYERS.items():
            home = sys.modules.get(f"{package}.{layer}")
            for fname in names:
                original = getattr(home, fname, None)
                if original is None:
                    self.missing.append(f"{layer}.{fname}")
                    continue
                name = f"{layer}.{fname}"
                wrapper = self.wrap(name, original, COUNTERS.get(name))
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                        elif isinstance(value, dict) and not key.startswith("__"):
                            for k, v in list(value.items()):
                                if v is original:
                                    value[k] = wrapper

    def report(self, wall_start: float, wall_end: float) -> dict:
        out = summarize(self.spans, wall_start, wall_end)
        counters = dict(self.counters)
        for name, keys in self._distinct.items():
            counters[f"{name}.distinct"] = len(keys)
        out["counters"] = counters
        out["missing"] = list(self.missing)
        return out


def main(argv) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["jhl.cli"]
    started = tracer.clock()
    code = cli.main(cli_args)
    ended = tracer.clock()
    report = tracer.report(started, ended)
    report["exit_code"] = code
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
