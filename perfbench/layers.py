"""Per-layer split for the traced benchmark run.

The benchmark's own spans wrap calls into each layer's public functions; the
program's existing ``kernel.*``, ``solver.select``, ``greedy.*`` and
``engine.*`` spans fill in the rest.  Self-times come from
:func:`repro.obs.self_time_by_name`.  Every wrapper is installed only for
the duration of one traced operation and removed again afterwards, so the
untraced cycles a traced run alternates with run the program exactly as an
untraced run would.
"""

from __future__ import annotations

import functools
import statistics
from typing import Any, Callable, Dict, List, Optional, Tuple

import repro
import repro.anchored
import repro.anchored.followers
import repro.avt.incremental
import repro.engine.engine
from repro.anchored.anchored_core import AnchoredCoreIndex
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.avt.incremental import IncAVTTracker
from repro.backends import available_backends, get_backend
from repro.cores.maintenance import CoreMaintainer
from repro.engine.engine import StreamingAVTEngine
from repro.obs import self_time_by_name, tracer, write_spans_jsonl

ROOT_SPAN = "bench.op"

#: Span names whose call count and self-time are reported, keyed by metric
#: prefix.  ``kernel.marginal_followers`` sums both span variants.
TIMED_LAYERS: Dict[str, Tuple[str, ...]] = {
    "backends.build_core_index": ("backends.build_core_index",),
    "kernel.commit_anchor": ("kernel.commit_anchor",),
    "kernel.peel": ("kernel.peel",),
    "kernel.marginal_followers": (
        "kernel.marginal_followers",
        "kernel.marginal_followers_with_region",
    ),
    "anchored.candidate_anchors": ("anchored.candidate_anchors",),
    "anchored.compute_followers": ("anchored.compute_followers",),
    "cores.apply_delta": ("cores.apply_delta",),
    "avt.refresh_anchors": ("avt.refresh_anchors",),
    "engine.ingest": ("engine.ingest",),
    "engine.flush": ("engine.flush",),
}
SELF_ONLY = (
    "solver.select",
    "engine.solve.warm",
    "engine.solve.cold",
    "engine.checkpoint.save",
)

#: Every per-layer metric, in report order, with its unit.  Counts and times
#: are per traced operation (one solve, one track, or one engine step).
PER_LAYER_UNITS: Dict[str, str] = {}
for _prefix in TIMED_LAYERS:
    PER_LAYER_UNITS[f"{_prefix}.calls"] = "count/op"
    PER_LAYER_UNITS[f"{_prefix}.self_s"] = "s/op"
PER_LAYER_UNITS.update(
    {
        "anchored.candidate_anchors.returned": "count/op",
        "anchored.greedy.gain_cache_hit_ratio": "ratio",
        "anchored.greedy.visited_vertices": "count/op",
        "cores.apply_delta.edges": "count/op",
        "cores.apply_delta.visited": "count/op",
        "cores.apply_delta.touched": "count/op",
        "cores.refresh_from_graph.calls": "count/op",
        "avt.candidates_evaluated": "count/op",
        "engine.cache.hit_rate": "ratio",
        "engine.cache.promotions": "count/op",
        "engine.cache.invalidations": "count/op",
        "trace.unattributed_share": "ratio",
        "trace.overhead_pct": "%",
    }
)
for _name in SELF_ONLY:
    PER_LAYER_UNITS[f"{_name}.self_s"] = "s/op"


def _spanned(name: str, function: Callable, attrs: Optional[Callable] = None) -> Callable:
    """``function`` run inside a span; ``attrs(args, kwargs, result)`` annotates it."""

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name) as span:
            result = function(*args, **kwargs)
            if attrs is not None:
                span.set(**attrs(args, kwargs, result))
            return result

    return wrapper


def _delta_attrs(args: tuple, kwargs: dict, effect: Any) -> Dict[str, int]:
    delta = args[1]  # every caller passes the delta positionally
    return {
        "edges": delta.num_changes,
        "visited": effect.visited,
        "touched": len(effect.touched),
    }


class LayerTrace:
    """Collects spans and solver counts over the traced operations of a run."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        self.ops = 0
        self.greedy = {"cache_hits": 0, "recomputed": 0, "visited": 0}
        self._undo: List[Tuple[Any, str, bool, Any]] = []

    # -- wrapper installation ------------------------------------------
    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, attr in own, own.get(attr)))
        setattr(owner, attr, replacement)

    def _install(self) -> None:
        for name in available_backends():
            backend = get_backend(name)
            self._patch(
                backend,
                "build_core_index",
                _spanned("backends.build_core_index", backend.build_core_index),
            )
        self._patch(
            AnchoredCoreIndex,
            "candidate_anchors",
            _spanned(
                "anchored.candidate_anchors",
                AnchoredCoreIndex.candidate_anchors,
                lambda args, kwargs, result: {"returned": len(result)},
            ),
        )
        # Callers bind compute_followers by name at import, so every binding
        # is replaced, not only the defining module's.
        followers = _spanned(
            "anchored.compute_followers", repro.anchored.followers.compute_followers
        )
        for module in (
            repro.anchored.followers,
            repro.anchored,
            repro,
            repro.engine.engine,
            repro.avt.incremental,
        ):
            self._patch(module, "compute_followers", followers)
        self._patch(
            CoreMaintainer,
            "apply_delta",
            _spanned("cores.apply_delta", CoreMaintainer.apply_delta, _delta_attrs),
        )
        self._patch(
            CoreMaintainer,
            "refresh_from_graph",
            _spanned("cores.refresh_from_graph", CoreMaintainer.refresh_from_graph),
        )
        # ``_update_anchor_set`` is the swap/fill pass behind both the public
        # ``refresh_anchors`` (engine warm path) and ``track`` (per snapshot).
        self._patch(
            IncAVTTracker,
            "_update_anchor_set",
            _spanned(
                "avt.refresh_anchors",
                IncAVTTracker._update_anchor_set,
                lambda args, kwargs, result: {
                    "candidates": result[1].candidates_evaluated
                },
            ),
        )
        for method in ("ingest_insert", "ingest_remove", "ingest"):
            self._patch(
                StreamingAVTEngine,
                method,
                _spanned("engine.ingest", getattr(StreamingAVTEngine, method)),
            )
        select = GreedyAnchoredKCore.select

        @functools.wraps(select)
        def counted_select(solver: GreedyAnchoredKCore) -> Any:
            result = select(solver)
            self.greedy["cache_hits"] += result.stats.cache_hits
            self.greedy["recomputed"] += result.stats.candidates_recomputed
            self.greedy["visited"] += result.stats.visited_vertices
            return result

        self._patch(GreedyAnchoredKCore, "select", counted_select)

    def _uninstall(self) -> None:
        while self._undo:
            owner, attr, owned, original = self._undo.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def run(self, operation: Callable[[], Any]) -> Any:
        """Run one operation traced, under a ``bench.op`` root span."""
        # A sink sees every span; the tracer's own buffer is bounded and
        # drops spans once full, so it is only drained and discarded.
        sink = self.spans.append
        tracer.add_sink(sink)
        self._install()
        previous = tracer.set_enabled(True)
        try:
            with tracer.span(ROOT_SPAN):
                return operation()
        finally:
            tracer.set_enabled(previous)
            self._uninstall()
            tracer.remove_sink(sink)
            tracer.drain()
            self.ops += 1

    # -- reporting -----------------------------------------------------
    def write(self, path: str) -> int:
        return write_spans_jsonl(self.spans, path)

    def metrics(
        self, overhead_ratios: List[float], engine_counts: Dict[str, float]
    ) -> Dict[str, float]:
        """Every per-layer metric; layers that did not run report 0.

        ``overhead_ratios`` holds, per operation run both ways, its traced
        over its untraced wall time.
        """
        ops = max(self.ops, 1)
        by_name = self_time_by_name(self.spans)
        values: Dict[str, float] = {}
        for prefix, names in TIMED_LAYERS.items():
            entries = [by_name[name] for name in names if name in by_name]
            values[f"{prefix}.calls"] = sum(e["count"] for e in entries) / ops
            values[f"{prefix}.self_s"] = sum(e["self_seconds"] for e in entries) / ops
        for name in SELF_ONLY:
            values[f"{name}.self_s"] = by_name.get(name, {}).get("self_seconds", 0.0) / ops
        values["cores.refresh_from_graph.calls"] = (
            by_name.get("cores.refresh_from_graph", {}).get("count", 0) / ops
        )

        def attr_total(span_name: str, attr: str) -> float:
            return sum(
                span["attrs"].get(attr, 0)
                for span in self.spans
                if span["name"] == span_name
            ) / ops

        values["anchored.candidate_anchors.returned"] = attr_total(
            "anchored.candidate_anchors", "returned"
        )
        for attr in ("edges", "visited", "touched"):
            values[f"cores.apply_delta.{attr}"] = attr_total("cores.apply_delta", attr)
        values["avt.candidates_evaluated"] = attr_total("avt.refresh_anchors", "candidates")
        evaluations = self.greedy["cache_hits"] + self.greedy["recomputed"]
        values["anchored.greedy.gain_cache_hit_ratio"] = (
            self.greedy["cache_hits"] / evaluations if evaluations else 0.0
        )
        values["anchored.greedy.visited_vertices"] = self.greedy["visited"] / ops
        queries = engine_counts.get("queries", 0)
        steps = max(engine_counts.get("steps", 0), 1)
        values["engine.cache.hit_rate"] = (
            engine_counts.get("cache_hits", 0) / queries if queries else 0.0
        )
        values["engine.cache.promotions"] = engine_counts.get("cache_promotions", 0) / steps
        values["engine.cache.invalidations"] = (
            engine_counts.get("cache_invalidations", 0) / steps
        )
        roots = [span for span in self.spans if span["name"] == ROOT_SPAN]
        root_wall = sum(span["duration"] for span in roots)
        root_self = by_name.get(ROOT_SPAN, {}).get("self_seconds", 0.0)
        values["trace.unattributed_share"] = root_self / root_wall if root_wall else 0.0
        values["trace.overhead_pct"] = (
            (statistics.median(overhead_ratios) - 1.0) * 100.0 if overhead_ratios else 0.0
        )
        return {name: values[name] for name in PER_LAYER_UNITS}
