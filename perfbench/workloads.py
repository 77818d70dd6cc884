"""The four benchmark workloads: inputs, closed-loop operations and checks.

A workload builds ``instances`` independent inputs from the run's seed, so
one run averages over several graphs instead of depending on one.  A
*cycle* runs one unit of work on every instance: a cold Greedy solve, a
full IncAVT track, or a full engine replay.  A run repeats at least
``min_cycles`` cycles, so that the series behind the reported 90th
percentile holds at least 100 samples.  Every request is timed through
:class:`Record`; answers are checked afterwards, outside the timed region.
Every program object is built with the default ``backend="auto"``.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro import (
    AVTProblem,
    GreedyAnchoredKCore,
    IncAVTTracker,
    StreamingAVTEngine,
    compute_followers,
    core_numbers,
    load_dataset,
)
from repro.graph.generators import chung_lu_graph

BUDGET = 8
#: Engine statistics summed over replay passes for the per-layer split.
ENGINE_COUNTS = ("queries", "cache_hits", "cache_promotions", "cache_invalidations")

#: ``call(key, body)`` runs one operation, traced or not, and returns its
#: result; ``key`` names the operation so a traced run can pair it with the
#: same operation untraced in another cycle.
Call = Callable[[Any, Callable[[], Any]], Any]


class CheckFailed(Exception):
    """A correctness check failed; the run is reported as incorrect."""


class Record:
    """Latency samples, counts and check outcomes of one run.

    Every time is filed with its *epoch*: the index of the last machine-speed
    sample taken before the operation started (``epoch()``).  Speed samples
    are only taken between operations, so an operation's epoch holds for all
    its figures.  ``rescale`` turns every time into the time on a machine of
    nominal speed, using the speed samples on either side of its epoch, and
    fills ``samples`` and ``nominal_busy_s``.
    """

    def __init__(self, epoch: Callable[[], int]) -> None:
        self.epoch = epoch
        self.samples: Dict[str, List[float]] = defaultdict(list)
        self.counts: Dict[str, float] = defaultdict(float)
        self.busy_s = 0.0
        self.nominal_busy_s = 0.0
        self.last_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self._filed: List[Tuple[str, float, int]] = []
        self._busy_by_epoch: Dict[int, float] = defaultdict(float)

    def timed(self, name: Optional[str], request: Callable[[], Any]) -> Any:
        """Run one request and file its wall time in ms under ``name``.

        The time is also kept in ``last_s`` for callers that file it
        themselves (``name=None``).
        """
        self.attempted += 1
        epoch = self.epoch()
        started = time.perf_counter()
        try:
            result = request()
        except Exception as error:
            self.failed += 1
            self.failures.append(f"{name}: {type(error).__name__}: {error}")
            raise
        self.last_s = time.perf_counter() - started
        self.busy_s += self.last_s
        self._busy_by_epoch[epoch] += self.last_s
        if name is not None:
            self._filed.append((name, self.last_s * 1e3, epoch))
        return result

    def file(self, name: str, value: float) -> None:
        """File a time measured inside the current operation."""
        self._filed.append((name, value, self.epoch()))

    def rescale(self, factor: Callable[[int], float]) -> None:
        """Multiply every filed time by its epoch's ``factor``."""
        for name, value, epoch in self._filed:
            self.samples[name].append(value * factor(epoch))
        self.nominal_busy_s = sum(s * factor(e) for e, s in self._busy_by_epoch.items())

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"check failed: {what}")
            raise CheckFailed(what)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def p90(values: List[float]) -> float:
    """90th percentile (exclusive method); 0 below ten samples."""
    return statistics.quantiles(values, n=10)[-1] if len(values) >= 10 else 0.0


def instance_seed(seed: int, index: int) -> int:
    return seed * 1000 + index


#: One row of the printed table: (name, value, unit, samples, JSON metric).
Row = Tuple[str, float, str, int, str]


class GreedyWorkload:
    """Repeated cold Greedy solves on large prebuilt graphs."""

    name = "greedy-50k"
    why = (
        "Largest static solve that ends in seconds: anchor commits and snapshot "
        "builds dominate; no maintenance, ingest or warm path runs."
    )
    instances = 3
    min_cycles = 5  # 8 commits per solve: 120 behind commit_ms.p90
    num_vertices = 50_000
    k = 4

    def __init__(self) -> None:
        self.graphs: List[Any] = []
        self.first: List[Any] = []

    def setup(self, seed: int, index: int, workdir: str) -> None:
        graph = chung_lu_graph(
            self.num_vertices, 3 * self.num_vertices, seed=instance_seed(seed, index)
        )
        self.graphs.append(graph)

    def num_vertices_of(self) -> int:
        return self.graphs[0].num_vertices

    def cycle(self, rec: Record, call: Call) -> None:
        for index, graph in enumerate(self.graphs):
            gc.collect()
            solver = GreedyAnchoredKCore(graph, k=self.k, budget=BUDGET)

            def solve() -> Any:
                result = rec.timed("solve_ms", solver.select)
                for seconds in result.stats.commit_seconds:
                    rec.file("commit_ms", seconds * 1e3)
                return result

            result = call(index, solve)
            rec.counts["solves"] += 1
            if index == len(self.first):
                expected = compute_followers(graph, self.k, result.anchors, backend="dict")
                rec.check(set(result.followers) == expected, f"graph {index} followers vs dict")
                self.first.append(result)
            else:
                first = self.first[index]
                rec.check(
                    result.anchors == first.anchors and result.followers == first.followers,
                    f"graph {index}: repeated solve returns identical anchors and followers",
                )

    def report(self, rec: Record) -> List[Row]:
        solves, commits = rec.samples["solve_ms"], rec.samples["commit_ms"]
        followers = sum(len(r.followers) for r in self.first)
        anchors = sum(len(r.anchors) for r in self.first)
        return [
            ("solve_s", median(solves) / 1e3, "s", len(solves), ""),
            ("solve_ms.p50", median(solves), "ms", len(solves), "op_ms"),
            ("commit_ms.p50", median(commits), "ms", len(commits), ""),
            ("commit_ms.p90", p90(commits), "ms", len(commits), "item_ms.p90"),
            ("solves_per_s", rec.counts["solves"] / rec.nominal_busy_s, "1/s", len(solves), "throughput_per_s"),
            ("followers_per_anchor", followers / anchors, "ratio", len(self.first), "quality"),
        ]


class TrackWorkload:
    """Repeated full IncAVT tracks over smooth snapshot sequences."""

    name = "avt-track"
    why = (
        "The paper's problem end to end: first Greedy solve, then per-snapshot "
        "maintenance plus IncAVT swap/fill over smooth deltas (no restarts)."
    )
    # A problem's track cost depends on its graph by about 20% either way,
    # so many short problems average better than a few long ones.
    instances = 8
    min_cycles = 2  # 19 snapshots per track: 304 behind snapshot_ms.p90
    k = 3
    snapshots = 20

    def __init__(self) -> None:
        self.problems: List[AVTProblem] = []
        self.first: List[List[Tuple[Any, Any]]] = []

    def setup(self, seed: int, index: int, workdir: str) -> None:
        evolving = load_dataset(
            "gnutella", num_snapshots=self.snapshots, seed=instance_seed(seed, index), scale=5
        )
        self.problems.append(AVTProblem(evolving, k=self.k, budget=BUDGET, name="gnutella"))

    def num_vertices_of(self) -> int:
        return self.problems[0].evolving_graph.base.num_vertices

    def cycle(self, rec: Record, call: Call) -> None:
        for index, problem in enumerate(self.problems):
            gc.collect()

            def track() -> Any:
                result = rec.timed("track_ms", lambda: IncAVTTracker().track(problem))
                for snap in result.snapshots[1:]:
                    rec.file("snapshot_ms", snap.result.stats.runtime_seconds * 1e3)
                return result

            result = call(index, track)
            rec.counts["tracks"] += 1
            rec.counts["snapshots"] += len(result.snapshots)
            answers = [(snap.result.anchors, snap.result.followers) for snap in result.snapshots]
            if index == len(self.first):
                graphs = problem.evolving_graph.snapshots()
                for timestamp, (graph, (anchors, followers)) in enumerate(zip(graphs, answers)):
                    expected = compute_followers(graph, self.k, anchors, backend="dict")
                    rec.check(
                        set(followers) == expected,
                        f"problem {index} snapshot {timestamp} followers vs dict",
                    )
                self.first.append(answers)
            else:
                rec.check(
                    answers == self.first[index],
                    f"problem {index}: repeated track returns identical answers",
                )

    def report(self, rec: Record) -> List[Row]:
        tracks, snaps = rec.samples["track_ms"], rec.samples["snapshot_ms"]
        followers = sum(len(f) for answers in self.first for _, f in answers)
        anchors = sum(len(a) for answers in self.first for a, _ in answers)
        per_track = followers / len(self.first) if self.first else 0.0
        return [
            ("track_s", median(tracks) / 1e3, "s", len(tracks), ""),
            ("track_ms.p50", median(tracks), "ms", len(tracks), "op_ms"),
            ("snapshot_ms.p50", median(snaps), "ms", len(snaps), ""),
            ("snapshot_ms.p90", p90(snaps), "ms", len(snaps), "item_ms.p90"),
            ("snapshots_per_s", rec.counts["snapshots"] / rec.nominal_busy_s, "1/s", len(tracks), "throughput_per_s"),
            ("followers_total", per_track, "count", len(self.first), ""),
            ("followers_per_anchor", followers / anchors, "ratio", len(self.first), "quality"),
        ]


class EngineReplay:
    """Shared replay loop of the engine workloads.

    A pass builds a fresh engine on an instance's base graph and replays its
    deltas, ingesting each event on its own and flushing once per step.  At
    the end of a pass the engine is checked against a from-scratch
    recomputation and against a checkpoint round trip.
    """

    dataset = ""
    scale = 1.0
    snapshots = 0
    instances = 1

    def __init__(self) -> None:
        self.streams: List[Any] = []
        self.engines: List[Optional[StreamingAVTEngine]] = []
        self.engine: Optional[StreamingAVTEngine] = None
        self.index = 0
        self.workdir = ""
        self.engine_counts: Dict[str, float] = defaultdict(float)
        self.quality = [0, 0]  # summed served followers, summed exact followers
        self.served: Dict[Tuple[int, int], List[Tuple[int, bool, Any, Any]]] = {}

    def setup(self, seed: int, index: int, workdir: str) -> None:
        evolving = load_dataset(
            self.dataset,
            num_snapshots=self.snapshots,
            seed=instance_seed(seed, index),
            scale=self.scale,
        )
        self.streams.append(evolving)
        self.engines.append(StreamingAVTEngine(evolving.base))
        self.workdir = workdir

    def num_vertices_of(self) -> int:
        return self.streams[0].base.num_vertices

    def cycle(self, rec: Record, call: Call) -> None:
        for index, evolving in enumerate(self.streams):
            if self.engines[index] is None:
                self.engines[index] = StreamingAVTEngine(evolving.base)
            self.engine, self.index = self.engines[index], index
            for step in range(len(evolving.deltas) + 1):
                delta = evolving.deltas[step - 1] if step else None
                answers = call((index, step), lambda: self.step_body(rec, step, delta))
                self.verify(rec, step, answers)
                self.engine_counts["steps"] += 1
            self.end_pass(rec, index)
            self.engines[index] = None

    def apply(self, rec: Record, delta: Any) -> None:
        """Ingest one delta an event at a time, then flush (timed together)."""
        engine = self.engine

        def ingest_and_flush() -> None:
            for u, v in delta.inserted:
                engine.ingest_insert(u, v)
            for u, v in delta.removed:
                engine.ingest_remove(u, v)
            engine.flush()

        rec.timed("apply_ms", ingest_and_flush)
        rec.counts["events"] += delta.num_changes

    def query(self, rec: Record, k: int, warm: bool) -> Tuple[int, bool, str, Any]:
        """One query, its latency filed under the path the engine took."""
        stats = self.engine.stats
        before = (stats.cache_hits, stats.warm_solves, stats.cold_solves)
        result = rec.timed(None, lambda: self.engine.query(k, BUDGET, warm=warm))
        after = (stats.cache_hits, stats.warm_solves, stats.cold_solves)
        path = ("hit", "warm", "cold")[[a - b for a, b in zip(after, before)].index(1)]
        if path == "hit":
            rec.file("hit_us", rec.last_s * 1e6)
        else:
            rec.file(f"{path}_ms", rec.last_s * 1e3)
        rec.counts["queries"] += 1
        return k, warm, path, result

    def exact(self, k: int) -> Any:
        """A fresh dict-backend Greedy answer on a copy of the live graph."""
        return GreedyAnchoredKCore(self.engine.graph.copy(), k, BUDGET, backend="dict").select()

    def verify(self, rec: Record, step: int, answers: List[Tuple[int, bool, str, Any]]) -> None:
        """Served followers match the live graph; exact answers match Greedy.

        A later pass over a stream replays the same requests, so it must serve
        exactly what the first pass served, which was checked in full.
        """
        served = [(k, warm, result.anchors, result.followers) for k, warm, _, result in answers]
        first = self.served.setdefault((self.index, step), served)
        if first is not served:
            rec.check(
                served == first,
                f"stream {self.index} step {step}: repeated pass serves the first pass's answers",
            )
            return
        graph = self.engine.graph
        for k, warm, path, result in answers:
            expected = compute_followers(graph, k, result.anchors, backend="dict")
            rec.check(set(result.followers) == expected, f"step {step} k={k} followers")
            if not warm or path == "cold":
                fresh = self.exact(k)
                rec.check(
                    result.anchors == fresh.anchors and result.followers == fresh.followers,
                    f"step {step} k={k} exact answer vs dict Greedy",
                )

    def end_pass(self, rec: Record, index: int) -> None:
        engine = self.engine
        rec.check(
            engine.core_numbers() == core_numbers(engine.graph, backend="dict"),
            f"stream {index}: maintained core numbers vs fresh decomposition",
        )
        path = os.path.join(self.workdir, f"{self.name}-{index}.ckpt")
        engine.checkpoint(path)
        restored = rec.timed("restore_ms", lambda: StreamingAVTEngine.restore(path))
        rec.check(
            restored.graph == engine.graph
            and restored.core_numbers() == engine.core_numbers()
            and restored.graph_version == engine.graph_version,
            f"stream {index}: restored graph, cores and version equal the live engine",
        )
        for name in ENGINE_COUNTS:
            self.engine_counts[name] += getattr(engine.stats, name)
        live, again = engine.query(3, BUDGET), restored.query(3, BUDGET)
        rec.check(
            live.anchors == again.anchors and live.followers == again.followers,
            f"stream {index}: restored engine answers like the live engine",
        )

    def served_quality(self) -> float:
        """Served followers over exact followers, summed over the answers compared."""
        return self.quality[0] / self.quality[1] if self.quality[1] else 0.0


class ServeWorkload(EngineReplay):
    """The online read path: warm, cached and exact queries per step."""

    name = "engine-serve"
    why = (
        "Online read path below the auto threshold (dict backend): per step two "
        "warm queries and two cache hits; every 5th step two exact solves."
    )
    dataset = "gnutella"
    scale = 1.0
    # Warm-query cost depends on where each stream's anchors sit, so many
    # short streams average better than a few long ones.
    snapshots = 11
    instances = 12
    min_cycles = 1  # 240 warm queries per cycle, which outlasts a run's seconds

    def step_body(self, rec: Record, step: int, delta: Any) -> List[Tuple[int, bool, str, Any]]:
        if delta is None:
            return [self.query(rec, k, warm=False) for k in (3, 4)]
        self.apply(rec, delta)
        answers = []
        for k in (3, 4):
            warm = self.query(rec, k, warm=True)
            answers += [warm, self.query(rec, k, warm=True)]
            if step % 5 == 0:
                exact = self.query(rec, k, warm=False)
                answers.append(exact)
                self.quality[0] += len(warm[3].followers)
                self.quality[1] += len(exact[3].followers)
        return answers

    def report(self, rec: Record) -> List[Row]:
        warm, cold, hit = rec.samples["warm_ms"], rec.samples["cold_ms"], rec.samples["hit_us"]
        queries = int(rec.counts["queries"])
        return [
            ("warm_ms.p50", median(warm), "ms", len(warm), "op_ms"),
            ("warm_ms.p90", p90(warm), "ms", len(warm), "item_ms.p90"),
            ("cold_ms.p50", median(cold), "ms", len(cold), ""),
            ("hit_us.p50", median(hit), "us", len(hit), ""),
            ("queries_per_s", queries / rec.nominal_busy_s, "1/s", queries, "throughput_per_s"),
            ("warm_quality", self.served_quality(), "ratio", len(cold), "quality"),
        ]


class ChurnWorkload(EngineReplay):
    """The write path: heavy per-step churn, periodic queries and checkpoints."""

    name = "engine-churn"
    why = (
        "Write path: ~180 events per step ingested one at a time and flushed; "
        "a warm query every 20th step and a checkpoint every 10th."
    )
    dataset = "mathoverflow"
    scale = 2.0
    snapshots = 120
    instances = 3
    min_cycles = 1  # 360 steps per cycle; a run's seconds fit several

    def step_body(self, rec: Record, step: int, delta: Any) -> List[Tuple[int, bool, str, Any]]:
        if delta is None:
            return []
        self.apply(rec, delta)
        answers = []
        if step % 20 == 0:
            answers.append(self.query(rec, 3, warm=True))
        if step % 10 == 0:
            path = os.path.join(self.workdir, f"{self.name}.ckpt")
            rec.timed("checkpoint_ms", lambda: self.engine.checkpoint(path))
        return answers

    def verify(self, rec: Record, step: int, answers: List[Tuple[int, bool, str, Any]]) -> None:
        first_pass = (self.index, step) not in self.served
        super().verify(rec, step, answers)
        for k, _, _, result in answers if first_pass else ():
            self.quality[0] += len(result.followers)
            self.quality[1] += len(self.exact(k).followers)

    def report(self, rec: Record) -> List[Row]:
        apply_ms, ckpt = rec.samples["apply_ms"], rec.samples["checkpoint_ms"]
        restore = rec.samples["restore_ms"]
        rate = rec.counts["events"] / (sum(apply_ms) / 1e3) if apply_ms else 0.0
        return [
            ("ingest_events_per_s", rate, "1/s", len(apply_ms), "throughput_per_s"),
            ("apply_ms.p50", median(apply_ms), "ms", len(apply_ms), "op_ms"),
            ("apply_ms.p90", p90(apply_ms), "ms", len(apply_ms), "item_ms.p90"),
            ("checkpoint_ms.p50", median(ckpt), "ms", len(ckpt), ""),
            ("restore_ms.p50", median(restore), "ms", len(restore), ""),
            ("answer_quality", self.served_quality(), "ratio", int(rec.counts["queries"]), "quality"),
        ]


WORKLOADS = {w.name: w for w in (GreedyWorkload, TrackWorkload, ServeWorkload, ChurnWorkload)}
