"""Per-module spans and counters, recorded from outside the package.

A traced pass replaces the names through which one specfactor module calls
the next (for example `theorems.eigenvalues` or `factors._max_matching_adj`)
with wrappers that record a span per call: its layer, start, end and parent.
Helpers called inside a layer's inner loops stay unwrapped and count in
their caller's self time.  Self time is a span's duration minus that of its
children, so the self times of all layers, the benchmark's own `bench`
layer included, add up to the traced pass's wall time.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

# per-layer metrics the traced run prints, with their units
LAYER_METRICS = {
    "oracle.calls": "count",
    "oracle.time_s": "s",
    "oracle.pairs": "count",
    "matching.calls": "count",
    "matching.time_s": "s",
    "matching.gadget_nodes": "count",
    "factors.calls": "count",
    "factors.self_s": "s",
    "spectral.calls": "count",
    "spectral.time_s": "s",
    "corpus.sampler_time_s": "s",
    "corpus.members": "count",
    "corpus.pairings": "count",
    "corpus.accept_ratio": "ratio",
    "canon.calls": "count",
    "canon.time_s": "s",
    "corpus.enum_self_s": "s",
    "corpus.keep_ratio": "ratio",
    "graph6.calls": "count",
    "graph6.time_s": "s",
    "cli.self_s": "s",
    "theorems.self_s": "s",
    "bench.self_s": "s",
    "bench.traced_pass_s": "s",
    "bench.trace_overhead": "ratio",
}

# the layers' self times; with bench.self_s they add up to the traced pass
SELF_TIME_METRICS = (
    "oracle.time_s",
    "matching.time_s",
    "factors.self_s",
    "spectral.time_s",
    "corpus.sampler_time_s",
    "canon.time_s",
    "corpus.enum_self_s",
    "graph6.time_s",
    "cli.self_s",
    "theorems.self_s",
    "bench.self_s",
)


class _CountingRng:
    """Delegates to the sampler's random.Random, counting stub shuffles."""

    def __init__(self, rng, counters: Counter) -> None:
        self._rng = rng
        self._counters = counters

    def shuffle(self, x) -> None:
        self._counters["corpus.pairings"] += 1
        self._rng.shuffle(x)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    """Spans as [layer, start, end, parent index], named counters, and the
    gadget size of every matching call."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.gadget_sizes: list[int] = []
        self._stack: list[int] = []

    def wrap(self, layer: str, fn, before=None, after=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                args = before(self, args)
            rec = [layer, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if after is not None:
                after(self, args, result)
            return result

        return traced

    @contextmanager
    def root(self):
        """The benchmark's own span around one pass."""
        rec = ["bench", time.perf_counter(), 0.0, -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for layer, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, (layer, start, end, _) in enumerate(self.spans):
            out[layer] = out.get(layer, 0.0) + (end - start) - child[i]
        return out

    def entries(self) -> Counter:
        """Calls into each layer from another layer (recursion not counted)."""
        spans = self.spans
        return Counter(
            layer
            for layer, _, _, parent in spans
            if parent < 0 or spans[parent][0] != layer
        )

    def layer_metrics(self) -> dict[str, float]:
        st = self.self_times()
        calls = self.entries()
        c = self.counters
        pairings = c["corpus.pairings"]
        labelings = calls["canon"]
        wall = sum(end - start for layer, start, end, parent in self.spans if parent < 0)
        return {
            "oracle.calls": calls["oracle"],
            "oracle.time_s": st.get("oracle", 0.0),
            "oracle.pairs": c["oracle.pairs"],
            "matching.calls": calls["matching"],
            "matching.time_s": st.get("matching", 0.0),
            "matching.gadget_nodes": c["matching.gadget_nodes"],
            "factors.calls": calls["factors"],
            "factors.self_s": st.get("factors", 0.0),
            "spectral.calls": calls["spectral"],
            "spectral.time_s": st.get("spectral", 0.0),
            "corpus.sampler_time_s": st.get("corpus.sampler", 0.0),
            "corpus.members": c["corpus.members"],
            "corpus.pairings": pairings,
            "corpus.accept_ratio": c["corpus.members"] / pairings if pairings else 0.0,
            "canon.calls": labelings,
            "canon.time_s": st.get("canon", 0.0),
            "corpus.enum_self_s": st.get("corpus.enum", 0.0),
            "corpus.keep_ratio": c["corpus.kept"] / labelings if labelings else 0.0,
            "graph6.calls": calls["graph6"],
            "graph6.time_s": st.get("graph6", 0.0),
            "cli.self_s": st.get("cli", 0.0),
            "theorems.self_s": st.get("theorems", 0.0),
            "bench.self_s": st.get("bench", 0.0),
            "bench.traced_pass_s": wall,
            # not a metric: written to the trace file only
            "matching.gadget_nodes_per_call": self.gadget_sizes,
        }


def _count_sweep(tracer, args, result) -> None:
    tracer.counters["oracle.pairs"] += 3 ** args[0].n


def _count_gadget(tracer, args, result) -> None:
    tracer.counters["matching.gadget_nodes"] += args[0]
    tracer.gadget_sizes.append(args[0])


def _count_rng(tracer, args):
    degrees, rng, *rest = args
    return (degrees, _CountingRng(rng, tracer.counters), *rest)


def _count_member(tracer, args, result) -> None:
    tracer.counters["corpus.members"] += 1


def _count_kept(tracer, args, result) -> None:
    tracer.counters["corpus.kept"] += len(result)


def _wrap_points():
    """(namespace, attribute, layer, before, after) for every wrapped name."""
    from specfactor import cli, corpus, factors, oracle, theorems

    points = [
        (oracle, "brute_force_deficiency_multi", "oracle", None, _count_sweep),
        (oracle, "optimal_pairs", "oracle", None, _count_sweep),
        (factors, "deficiency", "factors", None, None),
        (factors, "k_factor", "factors", None, None),
        (theorems, "k_factor", "factors", None, None),
        (theorems, "is_k_critical", "factors", None, None),
        (factors, "_max_matching_adj", "matching", None, _count_gadget),
        (theorems, "random_class_member", "corpus.sampler", None, _count_member),
        (corpus, "_pair_degrees", "corpus.sampler", _count_rng, None),
        (corpus, "enumerate_connected_graphs", "corpus.enum", None, _count_kept),
        (corpus, "enumerate_connected_regular", "corpus.enum", None, _count_kept),
        (corpus, "canonical_key", "canon", None, None),
        (corpus, "canonical_labeling", "canon", None, None),
        (cli, "to_graph6", "graph6", None, None),
        (theorems, "to_graph6", "graph6", None, None),
        (cli, "main", "cli", None, None),
    ]
    for name in ("eigenvalues", "rho1", "rho2", "rho1_value"):
        points.append((theorems, name, "spectral", None, None))
    for name in ("verify_thm_2_1", "verify_thm_2_2", "verify_thm_3_2", "verify_thm_3_3"):
        points.append((theorems, name, "theorems", None, None))
    return points


@contextmanager
def installed(tracer: Tracer):
    """Swap every wrap point for its traced wrapper; restore on exit."""
    saved = []
    try:
        for ns, attr, layer, before, after in _wrap_points():
            original = getattr(ns, attr)
            saved.append((ns, attr, original))
            setattr(ns, attr, tracer.wrap(layer, original, before, after))
        yield tracer
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)
