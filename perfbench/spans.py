"""Span tracer that wraps the program's public functions from outside.

Each wrapped function becomes a span: name, start, end and the span that
caused it. A span's self time is its duration minus the time its child
spans cover. `netcore` calls number in the hundreds of thousands per run,
so they are folded into per-name totals as they close; every other span is
kept in memory and written out when the run ends.

Functions are patched where their callers look them up: a module that
imports a function with `from` holds its own reference, so that reference
is replaced too (for example `piece.experiments.write_pgm`).
"""

from __future__ import annotations

import hashlib
import importlib
import json
import time
from collections import defaultdict

import numpy as np

# (layer metric name, module path of the function, places it is looked up)
TARGETS = (
    ("netcore.forward", "piece.netcore", ("piece.netcore",)),
    ("netcore.backward", "piece.netcore", ("piece.netcore",)),
    ("netcore.adam_step", "piece.netcore", ("piece.netcore",)),
    ("netcore.split_at_tap", "piece.netcore", ("piece.netcore",)),
    ("pipeline.invert_image", "piece.pipeline", ("piece.pipeline",)),
    ("pipeline.select_cf_class", "piece.pipeline", ("piece.pipeline",)),
    ("pipeline.modify_features", "piece.pipeline", ("piece.pipeline",)),
    ("pipeline.visualize", "piece.pipeline", ("piece.pipeline",)),
    ("pipeline.explain", "piece.pipeline", ("piece.pipeline",)),
    ("baselines.min_edit", "piece.baselines", ("piece.baselines",)),
    ("baselines.c_min_edit", "piece.baselines", ("piece.baselines",)),
    ("evalx.mc_dropout", "piece.evalx", ("piece.evalx",)),
    ("evalx.substitutability", "piece.evalx", ("piece.evalx",)),
    ("evalx.nn_dist", "piece.evalx", ("piece.evalx",)),
    ("evalx.im1", "piece.evalx", ("piece.evalx",)),
    ("evalx.im2", "piece.evalx", ("piece.evalx",)),
    ("evalx.sf_l1", "piece.evalx", ("piece.evalx",)),
    ("evalx.pearson", "piece.evalx", ("piece.evalx",)),
    ("hurdle.classify_exceptional", "piece.hurdle", ("piece.pipeline",)),
    ("hurdle.fit_stats", "piece.hurdle", ("piece.cli",)),
    ("training.train_classifier", "piece.training", ("piece.cli",)),
    ("training.train_generator", "piece.training", ("piece.cli",)),
    ("training.train_autoencoders", "piece.training", ("piece.cli",)),
    ("runcfg.load_run", "piece.runcfg", ("piece.runcfg", "piece.cli")),
    ("cli.main", "piece.cli", ("piece.cli",)),
    ("datagen.write_pgm", "piece.datagen", ("piece.cli", "piece.experiments")),
    ("datagen.make_glyphs", "piece.datagen", ("piece.cli",)),
    ("experiments.run_experiment1", "piece.experiments", ("piece.experiments",)),
)

EVALX_OTHER = ("evalx.nn_dist", "evalx.im1", "evalx.im2", "evalx.sf_l1", "evalx.pearson")


def _rows(arr) -> int:
    shape = np.shape(arr)
    return 1 if len(shape) < 2 else shape[0]


def _bucket(rows: int) -> str:
    return "b1" if rows == 1 else ("b8" if rows <= 16 else "b64")


def _digest(*parts) -> str:
    """Content key of a call's inputs; networks count by their layer objects."""
    h = hashlib.sha1()
    for p in parts:
        if isinstance(p, np.ndarray):
            h.update(np.ascontiguousarray(p, dtype=np.float64).tobytes())
        elif hasattr(p, "layers"):
            h.update(repr([id(layer) for layer in p.layers]).encode())
        else:
            h.update(repr(p).encode())
        h.update(b"|")
    return h.hexdigest()


class Tracer:
    def __init__(self):
        self.stack: list = []  # open frames: [span index or None, child seconds]
        self.spans: list = []  # [name, start, end, parent index]
        self.calls: dict = defaultdict(int)
        self.self_s: dict = defaultdict(float)
        self.counts: dict = defaultdict(int)
        self.seen: dict = defaultdict(set)
        self.patched: list = []

    # -- recording -----------------------------------------------------------

    def _wrap(self, name: str, fn, leaf: bool, after):
        stack, spans = self.stack, self.spans
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = None
            if not leaf:
                idx = len(spans)
                parent = next((f[0] for f in reversed(stack) if f[0] is not None), None)
                spans.append([name, 0.0, 0.0, parent])
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                if stack:
                    stack[-1][1] += dur
                own = dur - frame[1]
                calls[name] += 1
                self_s[name] += own
                if idx is not None:
                    spans[idx][1] = t0
                    spans[idx][2] = t1
            if after is not None:
                after(own, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for name, home, lookups in TARGETS:
            attr = name.split(".", 1)[1]
            fn = getattr(importlib.import_module(home), attr)
            wrapper = self._wrap(name, fn, name.startswith("netcore."), self._after(name))
            for where in lookups:
                mod = importlib.import_module(where)
                self.patched.append((mod, attr, getattr(mod, attr)))
                setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patched):
            setattr(mod, attr, original)
        self.patched.clear()

    def _after(self, name: str):
        counts, seen = self.counts, self.seen

        def per_bucket(prefix, rows, own):
            b = _bucket(rows)
            counts[f"{prefix}.{b}.n"] += 1
            self.self_s[f"{prefix}.{b}"] += own

        def duplicate(key):
            if key in seen[name]:
                counts[f"{name}.duplicate_calls"] += 1
            seen[name].add(key)

        if name == "netcore.forward":
            def after(own, args, kwargs, result):
                rows = _rows(args[1])
                counts["netcore.forward.rows"] += rows
                per_bucket(name, rows, own)
            return after
        if name == "netcore.backward":
            def after(own, args, kwargs, result):
                per_bucket(name, _rows(args[1].outputs[-1]), own)
            return after
        if name == "pipeline.select_cf_class":
            def after(own, args, kwargs, result):
                counts["pipeline.select_cf_class.steps"] += result.steps
            return after
        if name == "pipeline.explain":
            def after(own, args, kwargs, result):
                counts["pipeline.explain.backoff_steps"] += result.backoff_steps
            return after
        if name == "pipeline.visualize":
            def after(own, args, kwargs, result):
                duplicate(_digest(*args, *sorted(kwargs.items())))
            return after
        if name.startswith("baselines."):
            def after(own, args, kwargs, result):
                counts["baselines.steps"] += result.steps_taken
                counts["baselines.failed_runs"] += bool(result.failed)
                if name == "baselines.c_min_edit":
                    duplicate(_digest(*args, *sorted(kwargs.items())))
            return after
        return None

    # -- reporting -----------------------------------------------------------

    def totals(self) -> dict:
        """Per-name sums that several traced processes can add together."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "counts": dict(self.counts),
        }

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "fields": ["name", "start", "end", "parent"],
                    "spans": self.spans,
                    "totals": self.totals(),
                },
                fh,
            )


def merge(parts: list) -> dict:
    out = {"calls": defaultdict(int), "self_s": defaultdict(float), "counts": defaultdict(int)}
    for part in parts:
        for key in out:
            for name, value in part[key].items():
                out[key][name] += value
    return out


def layer_metrics(t: dict) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    calls, self_s, counts = t["calls"], t["self_s"], t["counts"]
    m = {}

    def per_call_us(key):
        n = counts.get(f"{key}.n", 0)
        return 1e6 * self_s.get(key, 0.0) / n if n else 0.0

    for fn in ("forward", "backward"):
        name = f"netcore.{fn}"
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        if fn == "forward":
            m[f"{name}.rows"] = (counts.get(f"{name}.rows", 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
        for b in ("b1", "b8", "b64"):
            m[f"{name}.us_per_call.{b}"] = (per_call_us(f"{name}.{b}"), "us")
    n_adam = calls.get("netcore.adam_step", 0)
    m["netcore.adam_step.calls"] = (n_adam, "count")
    m["netcore.adam_step.us_per_call"] = (
        1e6 * self_s.get("netcore.adam_step", 0.0) / n_adam if n_adam else 0.0,
        "us",
    )
    m["netcore.split_at_tap.calls"] = (calls.get("netcore.split_at_tap", 0), "count")

    def pair(name, with_calls=True):
        if with_calls:
            m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")

    for name in (
        "pipeline.invert_image", "pipeline.select_cf_class", "pipeline.modify_features",
        "pipeline.visualize", "pipeline.explain",
        "baselines.min_edit", "baselines.c_min_edit",
        "evalx.mc_dropout", "hurdle.classify_exceptional", "runcfg.load_run",
        "datagen.write_pgm",
    ):
        pair(name)
    m["pipeline.select_cf_class.steps"] = (counts.get("pipeline.select_cf_class.steps", 0), "count")
    m["pipeline.explain.backoff_steps"] = (counts.get("pipeline.explain.backoff_steps", 0), "count")
    for name in ("pipeline.visualize", "baselines.c_min_edit"):
        m[f"{name}.duplicate_calls"] = (counts.get(f"{name}.duplicate_calls", 0), "count")
    m["baselines.steps"] = (counts.get("baselines.steps", 0), "count")
    m["baselines.failed_runs"] = (counts.get("baselines.failed_runs", 0), "count")
    for name in (
        "evalx.substitutability", "hurdle.fit_stats", "training.train_classifier",
        "training.train_generator", "training.train_autoencoders", "cli.main",
        "datagen.make_glyphs", "experiments.run_experiment1",
    ):
        pair(name, with_calls=False)
    m["evalx.other.self_s"] = (sum(self_s.get(n, 0.0) for n in EVALX_OTHER), "s")
    return m
