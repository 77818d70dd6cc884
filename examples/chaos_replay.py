"""Chaos replay: checkpoint corruption, verification and fallback restore.

A long-running engine's checkpoint is its only way back after a restart, so
a damaged file must be detected, never silently restored.  This example
replays a dataset through the engine and then walks the checkpoint failure
story:

1. arm a deterministic :class:`repro.resilience.FaultSpec` that flips a byte
   inside the ``core`` section of the newest checkpoint, watch the digest
   verification name the damaged section, then restore from the rotated
   sibling,
2. arm a write failure and watch the save refuse cleanly while the last good
   checkpoint survives.

Set ``REPRO_FAULTS`` (see :mod:`repro.resilience.faults`) to replace step
1's demo plan with your own chaos — the CI chaos job runs exactly that::

    REPRO_FAULTS="checkpoint.bytes:action=corrupt,section=core,rate=0.5,seed=3,times=0" \\
        python examples/chaos_replay.py
"""

from __future__ import annotations

import os

from repro import StreamingAVTEngine, load_dataset
from repro.engine.checkpoint import (
    load_checkpoint,
    read_state,
    rotated_paths,
    save_checkpoint,
)
from repro.errors import CheckpointCorruptionError, CheckpointError
from repro.resilience import FaultSpec, faults

DATASET = "eu_core"
K = 4
BUDGET = 3


def replay(engine: StreamingAVTEngine, evolving) -> int:
    """Replay every delta with interleaved queries; returns queries answered."""
    answered = 0
    result = engine.query(K, BUDGET)
    answered += 1
    print(
        f"  t=0 anchors={list(result.anchors)} followers={result.num_followers} "
        f"[backend={engine.backend}]"
    )
    for step, delta in enumerate(evolving.deltas, start=1):
        engine.ingest(delta)
        for _ in range(2):
            result = engine.query(K, BUDGET)
            answered += 1
        print(
            f"  t={step} anchors={list(result.anchors)} "
            f"followers={result.num_followers} [backend={engine.backend}]"
        )
    return answered


def corrupt_and_fall_back(engine: StreamingAVTEngine, path: str) -> None:
    """Corrupt the newest checkpoint, detect it, restore the rotated sibling."""
    env_plan = os.environ.get("REPRO_FAULTS")
    save_checkpoint(engine, path, keep=2)
    if env_plan:
        print(f"  saving under REPRO_FAULTS={env_plan!r}")
        save_checkpoint(engine, path, keep=2)
    else:
        with faults.inject(
            FaultSpec("checkpoint.bytes", "corrupt", match={"section": "core"})
        ):
            save_checkpoint(engine, path, keep=2)
    try:
        read_state(path)
    except CheckpointCorruptionError as error:
        print(f"  corruption detected in section {error.section!r}: digest mismatch")
    else:
        print("  newest checkpoint verified intact (the fault plan did not fire)")
    try:
        restored = load_checkpoint(path, fallback=True)
    except CheckpointError as error:
        # Possible when a persistent checkpoint.bytes fault corrupted every
        # rotation: the load refuses rather than silently restoring damaged
        # state.
        print(f"  every rotation corrupt — restore refused: {error}")
    else:
        match = restored.core_numbers() == engine.core_numbers()
        print(f"  restored from an intact rotation; core numbers match: {match}")


def failed_write_keeps_last_good(engine: StreamingAVTEngine, path: str) -> None:
    """A failed save raises and leaves the previous checkpoint restorable."""
    save_checkpoint(engine, path, keep=2)
    with faults.inject(FaultSpec("checkpoint.write", "fail")):
        try:
            save_checkpoint(engine, path, keep=2)
        except CheckpointError as error:
            print(f"  save refused: {error}")
    try:
        restored = load_checkpoint(path, fallback=True)
    except CheckpointError as error:
        print(f"  no intact checkpoint left to restore: {error}")
    else:
        print(f"  last good checkpoint still restores (version={restored.graph_version})")


def main() -> None:
    evolving = load_dataset(DATASET, num_snapshots=3, scale=0.3)
    engine = StreamingAVTEngine(evolving.base)
    print(f"Replaying {DATASET} through the engine:")
    answered = replay(engine, evolving)
    print(f"replay done: {answered} queries answered")

    path = "chaos_replay.ckpt"
    try:
        print("\nCheckpoint corruption and fallback:")
        corrupt_and_fall_back(engine, path)
        print("\nCheckpoint write failure:")
        failed_write_keeps_last_good(engine, path)
    finally:
        for rotation in rotated_paths(path, 2):
            if os.path.exists(rotation):
                os.unlink(rotation)


if __name__ == "__main__":
    main()
