"""Fault injection for the checkpoint layer.

:mod:`repro.resilience.faults` is a deterministic, seedable fault-injection
framework (checkpoint write failures, checkpoint byte corruption) armed
programmatically or through ``REPRO_FAULTS``.  The consumer lives where the
failures do: the checkpoint layer verifies section digests and restores from
rotated siblings (:mod:`repro.engine.checkpoint`).
"""

from repro.resilience.faults import (
    FaultPlan,
    FaultSpec,
    active_plan,
    clear_plan,
    fire,
    inject,
    install_plan,
    parse_faults,
)

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "active_plan",
    "clear_plan",
    "fire",
    "inject",
    "install_plan",
    "parse_faults",
]
