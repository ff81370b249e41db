"""Span tracer that times calls into the program's layers from outside.

`Tracer.install()` replaces every module-level binding of each layer
function in the `hypermagic` package with a timing wrapper, including the
names that modules import from each other (`spectrum.fwht` as well as
`bitops.fwht`), and `uninstall()` puts the originals back. Spans are kept in
memory: (layer, start, end, parent span, request id). A layer's self time is
its span's duration minus the time its child spans cover, so the self times
of all layers add up to the duration of the root `cli.main` spans.

`bitops.superset_table` is an lru_cache; its hits and misses come from its
public `cache_info()`, not from a wrapper.
"""

from __future__ import annotations

import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

ROOT = "cli.main"
SOLVE = "ensembles.solve_edge_budget"
EVALUATOR = "ensembles._avg_m2_log"

# Grouped by the end-to-end metric each layer is expected to move.
LAYERS = (
    # latency_p50_s on exact-states (small class)
    ROOT,
    "phasestate.from_hypergraph",
    "hypergraph.from_text",
    # latency_p90_s, requests_per_s, peak_rss_mib on exact-states; not theory
    "spectrum.full_spectrum",
    "magic.pl_moment",
    "bitops.fwht",
    # requests_per_s and latency_p50_s on ensemble-mc; exact-states medium only
    "spectrum.rank_histogram",
    "spectrum.rank_moment",
    "bitops.gf2_rank_fast",
    "hypergraph.cross_masks",
    # latency_p90_s on ensemble-mc (star class)
    "spectrum.star_trace_sum",
    "hypergraph._edges_at_least_two",  # where spectrum calls into hypergraph
    "bitops.table_to_bits",
    # requests_per_s on ensemble-mc; sampling alone is too small to show
    "ensembles.sample",
    "hypergraph.c_complete",
    "ensembles.state_moment",
    # latency_p90_s and requests_per_s on theory
    EVALUATOR,
    SOLVE,
    # never called today; a routing change that uses it shows on exact-states
    "symmetric.reduced_traces",
)


def _on_full_spectrum(counts, args, result):
    counts["spectrum.full_spectrum.rows"] += result.sq.shape[0]
    counts["closed.full_spectrum.rows"] += 1 << args[0].n  # 2^n masks per call


def _on_rank_histogram(counts, args, result):
    counts["spectrum.rank_histogram.rows"] += int(result.sum())
    counts["closed.rank_histogram.rows"] += 1 << args[0].n


def _on_star(counts, args, result):
    # computed from the argument: one Walsh transform per X mask
    counts["spectrum.star_trace_sum.rows"] += 1 << args[0].n


def _on_fwht(counts, args, result):
    size = args[0].size
    counts["bitops.fwht.elements"] += size
    # computed, not measured: each butterfly stage reads and writes the array
    counts["bitops.fwht.bytes_computed"] += size * args[0].itemsize * 2 * (size.bit_length() - 1)


def _on_main(counts, args, result):
    counts["cli.main.failed"] += int(result != 0)


HOOKS = {
    "spectrum.full_spectrum": _on_full_spectrum,
    "spectrum.rank_histogram": _on_rank_histogram,
    "spectrum.star_trace_sum": _on_star,
    "bitops.fwht": _on_fwht,
    ROOT: _on_main,
}


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "hypermagic" or name.startswith("hypermagic."))]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request_id = -1
        self.calls = {layer: 0 for layer in LAYERS}
        self.self_s = {layer: 0.0 for layer in LAYERS}
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [child seconds, span index]
        self._solves_open = 0
        self._patched: list[tuple] = []
        self.bindings: list[str] = []  # module.attr names wrapped by install()

    def _wrap(self, layer: str, fn):
        hook = HOOKS.get(layer)
        stack = self._stack
        spans = self.spans
        tracer = self

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            index = len(spans)
            spans.append(None)
            frame = [0.0, index]
            stack.append(frame)
            if layer == SOLVE:
                tracer._solves_open += 1
            elif layer == EVALUATOR and tracer._solves_open:
                tracer.counts["solve.evals"] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                spans[index] = (layer, start, end, parent, tracer.request_id)
                tracer.self_s[layer] += duration - frame[0]
                tracer.calls[layer] += 1
                if layer == SOLVE:
                    tracer._solves_open -= 1
            if hook is not None:
                hook(tracer.counts, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of every layer."""
        importlib.import_module("hypermagic.cli")
        modules = _package_modules()
        for layer in LAYERS:
            mod_name, fn_name = layer.split(".")
            original = getattr(importlib.import_module(f"hypermagic.{mod_name}"), fn_name)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        self.bindings = sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._patched)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    # -- reporting ---------------------------------------------------------

    def root_seconds(self) -> float:
        return sum(s[2] - s[1] for s in self.spans if s is not None and s[3] == -1)

    def stats(self) -> dict[str, float]:
        """calls, self_s and counts per layer, named <module>.<function>.<stat>."""
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in ("spectrum.full_spectrum.rows", "spectrum.rank_histogram.rows",
                     "spectrum.star_trace_sum.rows", "bitops.fwht.elements",
                     "bitops.fwht.bytes_computed", "cli.main.failed"):
            out[name] = self.counts.get(name, 0)
        solves = self.calls[SOLVE]
        out["ensembles.solve_edge_budget.evals_per_solve"] = (
            self.counts.get("solve.evals", 0) / solves if solves else 0.0)
        return out

    def spans_array(self) -> dict[str, np.ndarray]:
        ids = {layer: i for i, layer in enumerate(LAYERS)}
        done = [s for s in self.spans if s is not None]
        return {
            "layers": np.asarray(LAYERS),
            "layer": np.asarray([ids[s[0]] for s in done], dtype=np.int16),
            "start": np.asarray([s[1] for s in done], dtype=np.float64),
            "end": np.asarray([s[2] for s in done], dtype=np.float64),
            "parent": np.asarray([s[3] for s in done], dtype=np.int64),
            "request": np.asarray([s[4] for s in done], dtype=np.int32),
        }

