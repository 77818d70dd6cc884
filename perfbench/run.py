"""Repository benchmark: closed-loop anchored-vertex-tracking workloads.

Run from the repository root::

    python3 perfbench/run.py --workload greedy-50k --seed 1 --seconds 15 --trace 0

One client issues one request at a time (closed loop, no threads).  The run
builds several input instances from ``--seed``, runs whole cycles of
operations over them until ``--seconds`` of request time have been measured,
checks every answer outside the timed region, and prints a table followed by
one JSON line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced cycles and reports the per-layer split
(see ``perfbench/README.md``).  Spans and the run record are written under
``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESULTS = os.path.join(HERE, "results")
#: A fixed pure-Python loop, run between operations at most every
#: ``REFERENCE_EVERY_S``, measures the machine's speed as it drifts.  Each
#: time is rescaled to a machine on which the loop takes
#: ``REFERENCE_NOMINAL_S``, by the loop's speed just before and just after
#: the operation: on a shared box the speed drifts by up to 1.7x within
#: seconds, which moves raw medians far more than the bounds allow.
REFERENCE_ITERATIONS = 20_000
REFERENCE_REPEATS = 3
REFERENCE_EVERY_S = 0.1
REFERENCE_NOMINAL_S = 0.002
#: Longest a run may spend in its measurement loop, checks included.
WALL_CAP_S = 120.0
#: Each of these changes which code runs, so a measured run refuses them.
REFUSED_ENV = ("REPRO_FAULTS", "REPRO_TRACE", "REPRO_CALIBRATION")
#: Gated metrics and their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "op_ms": "ms",
    "item_ms.p90": "ms",
    "throughput_per_s": "1/s",
    "quality": "ratio",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def refused_environment() -> list:
    return sorted(
        name
        for name in os.environ
        if name in REFUSED_ENV or name.startswith("REPRO_DISABLE_")
    )


def import_program():
    """Import the program from this checkout's ``src`` and nowhere else."""
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
    except ImportError as error:
        fail(f"cannot import the program from {source}: {error}")
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        fail(f"imported repro from {repro.__file__}, not from {source}")
    return repro


def reference_loop_s() -> float:
    """Time of a fixed pure-Python loop: the machine-normalisation unit."""
    started = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total = (total + i * i) % 1_000_003
    return time.perf_counter() - started


def environment(workload, num_vertices: int) -> dict:
    from repro.backends import backend_availability, resolve_backend

    availability = backend_availability()
    return {
        "workload": workload.name,
        "auto_backend": resolve_backend("auto", num_vertices),
        "auto_backend_vertices": num_vertices,
        "numpy_available": availability.get("numpy") is None,
        "numba_available": availability.get("numba") is None,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
    }


class Reference:
    """Samples the reference loop between operations.

    The operations between two samples form an *epoch*; ``factor`` maps an
    epoch's raw times to nominal speed.
    """

    def __init__(self) -> None:
        self.samples: list = []
        self._last = 0.0

    def sample(self) -> None:
        self.samples.append(
            statistics.median(reference_loop_s() for _ in range(REFERENCE_REPEATS))
        )
        self._last = time.perf_counter()

    def sample_if_due(self) -> None:
        if time.perf_counter() - self._last >= REFERENCE_EVERY_S:
            self.sample()

    def epoch(self) -> int:
        return len(self.samples) - 1

    def factor(self, epoch: int) -> float:
        around = self.samples[epoch : epoch + 2]
        return REFERENCE_NOMINAL_S / (sum(around) / len(around))

    def scale(self) -> float:
        """The whole run's speed, for the record only."""
        return REFERENCE_NOMINAL_S / statistics.median(self.samples)


class Alternator:
    """Runs operations; in a traced run every odd-numbered cycle is traced.

    Whole cycles are traced, so every kind of operation is.  The wall time
    of each operation is kept by key and side, so the traced run can report
    its own overhead by comparing each operation with itself untraced.
    """

    def __init__(self, trace, reference: Reference) -> None:
        self.trace = trace
        self.reference = reference
        self.cycle = 0
        self.op_ms: dict = {}

    def __call__(self, key, body):
        traced = self.trace is not None and self.cycle % 2 == 1
        started = time.perf_counter()
        result = self.trace.run(body) if traced else body()
        elapsed_ms = (time.perf_counter() - started) * 1e3
        self.op_ms.setdefault(key, ([], []))[traced].append(elapsed_ms)
        self.reference.sample_if_due()
        return result

    def overhead_ratios(self) -> list:
        """Traced over untraced median wall time, per operation seen both ways."""
        return [
            statistics.median(traced) / statistics.median(untraced)
            for untraced, traced in self.op_ms.values()
            if traced and untraced
        ]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    refused = refused_environment()
    if refused:
        fail(f"refusing to measure with {', '.join(refused)} set")
    import_program()
    from layers import PER_LAYER_UNITS, LayerTrace
    from workloads import WORKLOADS, CheckFailed, Record

    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    os.makedirs(RESULTS, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    workload = WORKLOADS[args.workload]()
    with tempfile.TemporaryDirectory(dir=RESULTS) as workdir:
        # Each instance is set up once from its own seed; the median of
        # their set-up times is ``setup_s``.
        reference = Reference()
        reference.sample()
        setup_times = []
        for index in range(workload.instances):
            epoch = reference.epoch()
            started = time.perf_counter()
            workload.setup(args.seed, index, workdir)
            setup_times.append((time.perf_counter() - started, epoch))
            reference.sample()
        env = environment(workload, workload.num_vertices_of())
        # The inputs live for the whole run: keep the collector from
        # rescanning them, so collection pauses depend on what requests do.
        gc.collect()
        gc.freeze()

        rec = Record(reference.epoch)
        call = Alternator(LayerTrace() if args.trace else None, reference)
        started = time.perf_counter()
        correct = True
        cycles = 0
        try:
            # Whole cycles only, so every instance weighs the same.  A traced
            # run alternates untraced and traced cycles, so it has both.
            min_cycles = max(workload.min_cycles, 2 if args.trace else 1)
            while (
                rec.busy_s < args.seconds or cycles < min_cycles
            ) and time.perf_counter() - started < WALL_CAP_S:
                call.cycle = cycles
                workload.cycle(rec, call)
                cycles += 1
        except CheckFailed:
            correct = False
        except Exception as error:  # a failed request: report it, do not hide it
            correct = False
            rec.failures.append(f"{type(error).__name__}: {error}")
            rec.failed = max(rec.failed, 1)
        reference.sample()  # closes the last epoch
        rec.rescale(reference.factor)
        setup_s = [seconds * reference.factor(epoch) for seconds, epoch in setup_times]
        rec.attempted = max(rec.attempted, 1)
        correct = correct and rec.failed == 0
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        env.update(
            instances=workload.instances,
            cycles=cycles,
            measured_s=rec.busy_s,
            reference_loop_ms=statistics.median(reference.samples) * 1e3,
            reference_samples=len(reference.samples),
            speed_scale=reference.scale(),
        )

    record = {"environment": env, "setup_s": setup_s, "failures": rec.failures}
    print(f"# {workload.name} seed={args.seed} trace={args.trace}: {workload.why}")
    for key, value in env.items():
        print(f"# env {key} = {value}")
    print(
        f"# attempted={rec.attempted} failed={rec.failed} "
        f"error_rate={rec.failed / rec.attempted:.6f}"
    )
    for failure in rec.failures:
        print(f"# FAILURE {failure}")

    if not correct:
        metrics = {}  # the figures of a failed run mean nothing
    elif call.trace is None:
        rows = [
            ("setup_s", statistics.median(setup_s), "s", len(setup_s), "setup_s"),
            ("peak_rss_mb", peak_rss_mb, "MB", 1, "peak_rss_mb"),
            ("error_rate", rec.failed / rec.attempted, "ratio", rec.attempted, ""),
        ] + workload.report(rec)
        print("# times and rates at nominal machine speed (see perfbench/README.md)")
        print(f"# {'metric':<22} {'value':>14} {'unit':<6} {'samples':>8}  reported as")
        for name, value, unit, samples, slot in rows:
            print(f"# {name:<22} {value:>14.6g} {unit:<6} {samples:>8}  {slot}")
        slots = {slot: value for _, value, _, _, slot in rows if slot}
        metrics = {name: {"value": slots[name], "unit": unit} for name, unit in END_TO_END.items()}
        record["rows"] = rows
    else:
        trace = call.trace
        engine_counts = dict(getattr(workload, "engine_counts", {}))
        layer_values = trace.metrics(call.overhead_ratios(), engine_counts)
        record["spans"] = trace.write(os.path.join(RESULTS, f"{tag}.spans.jsonl"))
        print(f"# {'per-layer metric':<40} {'value':>14} unit")
        for name, value in layer_values.items():
            print(f"# {name:<40} {value:>14.6g} {PER_LAYER_UNITS[name]}")
        metrics = {
            name: {"value": value, "unit": PER_LAYER_UNITS[name]}
            for name, value in layer_values.items()
        }
    record["metrics"] = metrics
    with open(os.path.join(RESULTS, f"{tag}.json"), "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, default=str)

    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": rec.attempted,
                "failed": rec.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
