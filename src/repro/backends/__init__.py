"""Pluggable execution backends for every hot kernel in the library.

The public API of the library speaks hashable vertex ids over the
adjacency-set :class:`~repro.graph.static.Graph`.  *How* the hot kernels run
— peeling decomposition, k-core cascades, K-order remaining degrees, the
follower cascades and candidate scans of the anchored core index, and the
incremental maintenance traversals — is delegated to an
:class:`~repro.backends.base.ExecutionBackend` looked up in a registry:

``dict``
    The reference implementation straight over the adjacency-set graph.
    No setup cost, no translation; fastest on small graphs.
``compact``
    Flat integer-array kernels over an interned CSR snapshot
    (:mod:`repro.graph.compact`); single-packed-int heap peeling.
``numpy``
    Vectorised kernels over the same ``VertexInterner``/CSR contract with
    numpy arrays (:mod:`repro.backends.numpy_backend`).  Import-gated: the
    package works without numpy and this backend simply reports unavailable.
``numba``
    JIT-compiled kernels over the same CSR contract
    (:mod:`repro.backends.numba_backend`): the packed-heap peel, the support
    cascades and the maintenance traversals run as ``@njit(cache=True)``
    machine code, everything else inherits the compact twins.  Import-gated
    like numpy (needs both numba and numpy); first-use JIT compilation is
    done explicitly at backend construction under a ``kernel.jit_compile``
    obs span so it never pollutes a traced query.

All four produce identical core numbers, identical removal orders and
identical instrumentation counts (``tests/test_backend_equivalence.py``).
``backend="auto"`` — the default everywhere — resolves by graph size and
workload shape, and consults a **measured calibration table**
(:mod:`repro.backends.calibrate`, installed via ``load_calibration()`` or
``REPRO_CALIBRATION``) when one is active; the full policy is documented in
:mod:`repro.backends.registry`.  Custom backends plug in through
:func:`register_backend`.

The built-ins are registered here with lazy factories so that importing
:mod:`repro.backends` stays dependency-free and cycle-free: implementation
modules (which import the graph/cores/anchored layers) only load on first
use.
"""

from __future__ import annotations

import importlib.util
import os
from typing import Optional

from repro.backends.base import (
    BACKEND_AUTO,
    BACKEND_COMPACT,
    BACKEND_DICT,
    BACKEND_NUMBA,
    BACKEND_NUMPY,
    BACKENDS,
    COMPACT_THRESHOLD,
    WORKLOAD_AMORTIZED,
    WORKLOAD_ONE_SHOT,
    CoreIndexKernel,
    ExecutionBackend,
    MaintenanceKernel,
)
from repro.backends.calibrate import (
    CalibrationSpec,
    CalibrationTable,
    SizeBand,
    active_calibration,
    clear_calibration,
    load_calibration,
    run_calibration,
    set_calibration,
)
from repro.backends.registry import (
    available_backends,
    backend_availability,
    backend_info,
    get_backend,
    register_backend,
    registered_backends,
    resolve_backend,
)

__all__ = [
    "BACKEND_AUTO",
    "BACKEND_COMPACT",
    "BACKEND_DICT",
    "BACKEND_NUMBA",
    "BACKEND_NUMPY",
    "BACKENDS",
    "COMPACT_THRESHOLD",
    "WORKLOAD_AMORTIZED",
    "WORKLOAD_ONE_SHOT",
    "CalibrationSpec",
    "CalibrationTable",
    "CoreIndexKernel",
    "ExecutionBackend",
    "MaintenanceKernel",
    "SizeBand",
    "active_calibration",
    "available_backends",
    "backend_availability",
    "backend_info",
    "clear_calibration",
    "get_backend",
    "load_calibration",
    "numba_available",
    "numba_unavailable_reason",
    "numpy_available",
    "numpy_unavailable_reason",
    "register_backend",
    "registered_backends",
    "resolve_backend",
    "run_calibration",
    "set_calibration",
]


def numpy_unavailable_reason() -> Optional[str]:
    """Why the numpy backend is currently unavailable (``None`` = it isn't).

    Distinguishes the explicit ``REPRO_DISABLE_NUMPY`` switch from a missing
    import so operators know whether to install or to un-set.
    """
    if os.environ.get("REPRO_DISABLE_NUMPY"):
        return "disabled via REPRO_DISABLE_NUMPY"
    if importlib.util.find_spec("numpy") is None:
        return "numpy is not installed"
    return None


def numpy_available() -> bool:
    """Whether the optional numpy dependency is importable.

    Setting ``REPRO_DISABLE_NUMPY=1`` forces this to report false even on an
    interpreter that has numpy — the supported way to exercise the no-numpy
    degradation path (auto falls back to compact, ``backend="numpy"`` is
    rejected with an explanation) without uninstalling anything.
    """
    return numpy_unavailable_reason() is None


def numba_unavailable_reason() -> Optional[str]:
    """Why the numba backend is currently unavailable (``None`` = it isn't).

    The compiled tier needs *both* numba and numpy (its kernels operate on
    numpy arrays); ``REPRO_DISABLE_NUMBA=1`` force-disables it the same way
    ``REPRO_DISABLE_NUMPY`` does the numpy tier.
    """
    if os.environ.get("REPRO_DISABLE_NUMBA"):
        return "disabled via REPRO_DISABLE_NUMBA"
    if importlib.util.find_spec("numba") is None:
        return "numba is not installed"
    if importlib.util.find_spec("numpy") is None:
        return "numpy is not installed (the numba kernels run over numpy arrays)"
    return None


def numba_available() -> bool:
    """Whether the optional numba dependency (plus numpy) is importable.

    Setting ``REPRO_DISABLE_NUMBA=1`` forces this to report false even on an
    interpreter that has numba — ``auto`` then falls back to the next tier
    without warnings, and ``backend="numba"`` is rejected with the reason.
    """
    return numba_unavailable_reason() is None


def _make_dict_backend() -> ExecutionBackend:
    from repro.backends.dict_backend import DictBackend

    return DictBackend()


def _make_compact_backend() -> ExecutionBackend:
    from repro.backends.compact_backend import CompactBackend

    return CompactBackend()


def _make_numpy_backend() -> ExecutionBackend:
    from repro.backends.numpy_backend import NumpyBackend

    return NumpyBackend()


def _make_numba_backend() -> ExecutionBackend:
    from repro.backends.numba_backend import NumbaBackend

    return NumbaBackend()


register_backend(BACKEND_DICT, _make_dict_backend)
register_backend(BACKEND_COMPACT, _make_compact_backend)
register_backend(
    BACKEND_NUMPY,
    _make_numpy_backend,
    is_available=numpy_available,
    availability_reason=numpy_unavailable_reason,
)
register_backend(
    BACKEND_NUMBA,
    _make_numba_backend,
    is_available=numba_available,
    availability_reason=numba_unavailable_reason,
)
