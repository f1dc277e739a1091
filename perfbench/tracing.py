"""Per-layer spans for the traced run, recorded from outside the library.

Each listed public function or method of ``bitmean`` is replaced, at every
module namespace that binds it (the defining module, the modules that import
it and the package itself), by a wrapper that opens a span. Spans are
aggregated in memory per layer name: exact call counts, self time (span time
minus the time of child spans) and parent -> child call counts. Library source
is never edited; ``Tracer.installed`` restores every binding on exit.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import Counter, defaultdict

from bitmean import channel, distributions, hardness, harness, localization, refine

RESPOND_COUNT = "channel.respond_count"
PROBABILITY_LAYERS = ("channel.query_probability", "channel.uniform_threshold_probability")


def _query_count(args, kwargs, result):
    return kwargs["n"] if "n" in kwargs else args[-1]


def _csv_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


# (layer name, owner, attribute, counter fed by each call or None).  An owner
# that is a module has its function rebound wherever a bitmean module binds
# it; an owner that is a class has its method replaced on that class.
TARGETS = [
    ("refine.estimate_region", refine, "estimate_region", None),
    ("refine.base_estimate", refine, "base_estimate", None),
    ("refine.estimate_mean", refine, "estimate_mean", None),
    ("refine.build_plan", refine, "build_plan", None),
    (RESPOND_COUNT, channel.Agent, "respond_count", ("channel.queries", _query_count)),
    (RESPOND_COUNT, channel.Agent, "respond_count_uniform_threshold",
     ("channel.queries", _query_count)),
    ("channel.query_probability", channel, "query_probability", None),
    ("channel.uniform_threshold_probability", channel, "uniform_threshold_probability",
     None),
    *[("distributions.cdf", cls, attr, None)
      for cls in (distributions.DiscreteMixture, distributions.TwoSidedPareto,
                  distributions.Gaussian)
      for attr in ("cdf", "cdf_strict")],
    *[("distributions.partial_mean", cls, attr, None)
      for cls in (distributions.DiscreteMixture, distributions.TwoSidedPareto,
                  distributions.Gaussian)
      for attr in ("partial_mean", "partial_mean_strict")],
    ("distributions.prob_interval", distributions.Distribution, "prob_interval", None),
    ("localization.localize_median", localization, "localize_median", None),
    ("hardness.nonadaptive_baseline", hardness, "nonadaptive_baseline", None),
    ("hardness.baseline_query_plan", hardness, "baseline_query_plan", None),
    ("hardness.make_pair_grid", hardness, "make_pair_grid", None),
    ("harness.trial_rng", harness, "trial_rng", None),
    *[("harness.runner", harness, attr, None) for attr in ("run_pac", "run_gap")],
    ("harness.write_csv", harness, "write_csv", ("harness.write_csv.bytes", _csv_bytes)),
]

LAYERS = tuple(dict.fromkeys(name for name, _, _, _ in TARGETS))
COUNTERS = ("channel.queries", "harness.write_csv.bytes")


def rebind(original, replacement) -> list:
    """Point every bitmean module global bound to ``original`` at ``replacement``.

    Returns (module, name, previous value) triples for ``restore``.
    """
    undo = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "bitmean" or mod_name.startswith("bitmean.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)
                undo.append((module, attr, value))
    return undo


def restore(undo: list) -> None:
    for owner, attr, value in reversed(undo):
        setattr(owner, attr, value)


class Tracer:
    """In-memory span aggregation; one instance per traced process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.edges: Counter = Counter()
        self.counters: Counter = Counter()
        self._stack = [["<root>", 0.0]]

    def _wrap(self, name, fn, counter):
        stack, calls, self_s, edges = self._stack, self.calls, self.self_s, self.edges
        counters = self.counters
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1]
            if parent[0] == name:
                # Same-layer delegation (e.g. cdf_strict -> cdf) stays one span.
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += elapsed - frame[1]
                edges[parent[0], name] += 1
                parent[1] += elapsed
            if counter is not None:
                counters[counter[0]] += counter[1](args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        undo = []
        try:
            for name, owner, attr, counter in TARGETS:
                original = getattr(owner, attr)
                wrapper = self._wrap(name, original, counter)
                if isinstance(owner, type):
                    setattr(owner, attr, wrapper)
                    undo.append((owner, attr, original))
                else:
                    undo.extend(rebind(original, wrapper))
            yield self
        finally:
            restore(undo)

    def snapshot(self) -> dict:
        """Exact counts and self times so far, keyed by metric name."""
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for counter in COUNTERS:
            out[counter] = self.counters[counter]
        out["channel.prob_cache_misses"] = sum(
            self.edges[RESPOND_COUNT, child] for child in PROBABILITY_LAYERS)
        return out

