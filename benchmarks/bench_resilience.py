"""Resilience tier — checkpoint corruption detection and fallback restore.

Not a paper figure: this guards the verified-checkpoint layer.  The
benchmark saves two rotations of a live engine, flips one byte in the newest
file, and times the restore that detects the damage and falls back to the
rotated sibling, next to an intact restore of the same checkpoint.  The
fallback restore must come back with the live engine's core numbers.  Both
latencies are recorded in ``BENCH_resilience.json`` for trending but not
enforced — they are dominated by file I/O.
"""

from __future__ import annotations

import random
import time

from repro.bench.reporting import write_bench_json
from repro.engine import StreamingAVTEngine, load_checkpoint, save_checkpoint
from repro.graph.static import Graph


def _chaos_graph(bench_profile) -> Graph:
    rng = random.Random(bench_profile.seed)
    num_vertices = max(120, int(400 * bench_profile.scale))
    num_edges = num_vertices * 4
    edges = set()
    while len(edges) < num_edges:
        u, v = rng.sample(range(num_vertices), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph(edges=sorted(edges))


def _checkpoint_fallback_latency(graph: Graph, results_dir) -> dict:
    """Detect-and-fall-back cost for a corrupted newest checkpoint."""
    engine = StreamingAVTEngine(graph)
    engine.query(3, 2)
    path = results_dir / "bench_resilience.ckpt"
    save_checkpoint(engine, path, keep=2)
    save_checkpoint(engine, path, keep=2)

    started = time.perf_counter()
    load_checkpoint(path)
    intact_seconds = time.perf_counter() - started

    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    started = time.perf_counter()
    restored = load_checkpoint(path, fallback=True)
    fallback_seconds = time.perf_counter() - started
    for rotation in (path, path.with_name(path.name + ".1")):
        if rotation.exists():
            rotation.unlink()
    return {
        "intact_restore_seconds": intact_seconds,
        "fallback_restore_seconds": fallback_seconds,
        "restored_matches": restored.to_state()["core"] == engine.to_state()["core"],
    }


def run_resilience(bench_profile, results_dir):
    graph = _chaos_graph(bench_profile)
    checkpoint = _checkpoint_fallback_latency(graph, results_dir)

    payload = {
        "workload": {
            "vertices": graph.num_vertices,
            "edges": graph.num_edges,
            "scale": bench_profile.scale,
        },
        "checkpoint_fallback": checkpoint,
    }
    report = "\n".join(
        [
            f"Checkpoint fallback on a random graph "
            f"(n={graph.num_vertices}, m={graph.num_edges}, scale={bench_profile.scale})",
            "",
            f"checkpoint fallback:       {checkpoint['fallback_restore_seconds'] * 1e3:.1f} ms vs "
            f"{checkpoint['intact_restore_seconds'] * 1e3:.1f} ms intact "
            f"(restored state matches: {checkpoint['restored_matches']})",
        ]
    )
    return payload, report


def test_resilience_bench(benchmark, bench_profile, results_dir, record_report):
    payload, report = benchmark.pedantic(
        lambda: run_resilience(bench_profile, results_dir), rounds=1, iterations=1
    )
    record_report("resilience", report)
    write_bench_json(results_dir / "BENCH_resilience.json", "resilience", payload)

    assert payload["checkpoint_fallback"]["restored_matches"]
