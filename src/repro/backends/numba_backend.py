"""The ``numba`` execution backend: JIT-compiled kernels over the CSR contract.

The three hottest kernels in the library run here as ``@njit(cache=True)``
machine-code loops over the same :class:`~repro.graph.compact.VertexInterner`
/ CSR int-array contract the compact and numpy backends share:

* **Peeling** (:func:`_peel_kernel`) is a direct transliteration of
  :func:`repro.cores.decomposition.compact_peel`: a lazy-deletion binary heap
  of packed single-int entries ``degree * n + id``.  Packed keys are unique
  per push (a vertex's effective degree strictly decreases), so *any* correct
  min-heap pops them in the same ascending-key sequence — the hand-rolled
  array heap therefore reproduces the reference ``heapq`` removal order
  bit-for-bit on ordered snapshots (id == tie-break rank).
* **Support cascades** (:func:`_k_core_kernel`, :func:`_marginal_kernel`,
  :func:`_full_shell_kernel`) mirror the compact twins in
  :mod:`repro.cores.decomposition` / :mod:`repro.anchored.followers`,
  including the instrumentation contract: visited = region (or shell) size
  plus cascade removals, exactly what the dict reference logs.
* **Maintenance traversals** (:func:`_insertion_kernel`,
  :func:`_deletion_kernel`) run the Lemma 1-4 subcore searches of
  :class:`~repro.cores.maintenance.CoreMaintainer` over an arena-based
  dynamic adjacency (flat int64 arrays with per-row slack), with
  epoch-stamped scratch arrays instead of per-call sets.  The cascades are
  confluent, so traversal order never changes the returned sets.

Everything else on the :class:`~repro.backends.base.CoreIndexKernel` surface
(candidate scans, shell index upkeep, the incremental anchor commit)
is inherited from the compact kernel — only the hot loops are compiled.

Import gating mirrors the numpy backend: this module is only loaded by the
registry's lazy factory once :func:`repro.backends.numba_available` reports
true.  When numba is absent the ``@njit`` decorator degrades to the identity
function, so the kernels remain importable (and unit-testable) as plain
Python over numpy arrays; the registry still reports the backend unavailable.

JIT compilation is **not** left to the first query: :meth:`NumbaBackend`
compiles every kernel against tiny representative arrays on construction,
inside a ``kernel.jit_compile`` obs span, and records the cost in the
``backend.numba.warmup_seconds`` gauge — so cold-start latency shows up in
traces and bench snapshots instead of polluting the first traced query span.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Iterable, List, Mapping, Optional, Set, Tuple

try:  # pragma: no cover - exercised implicitly by the no-numpy CI job
    import numpy as np
except ImportError:  # pragma: no cover
    np = None

try:  # pragma: no cover - exercised implicitly by the no-numba CI job
    import numba as _numba
except ImportError:  # pragma: no cover
    _numba = None

from repro.backends.base import BACKEND_NUMBA, ExecutionBackend, MaintenanceKernel
from repro.backends.compact_backend import CompactCoreIndexKernel
from repro.cores.decomposition import (
    ANCHOR_CORE,
    CoreDecomposition,
    build_shell_index,
)
from repro.errors import ParameterError
from repro.graph.compact import CompactGraph, VertexInterner
from repro.graph.static import Graph, Vertex

#: Whether the kernels below are actually compiled (vs. plain-Python fallback).
JIT_ENABLED = _numba is not None

if JIT_ENABLED:  # pragma: no cover - requires numba
    _jit = _numba.njit(cache=True)
else:
    def _jit(func):
        """Identity decorator: keeps the kernels importable without numba."""
        return func


# ---------------------------------------------------------------------------
# Packed single-int binary heap (the lazy-deletion peel's only data structure)
# ---------------------------------------------------------------------------
@_jit
def _sift_up(heap, pos):
    """Restore the heap invariant after placing a new entry at ``pos``."""
    entry = heap[pos]
    while pos > 0:
        parent = (pos - 1) >> 1
        if heap[parent] <= entry:
            break
        heap[pos] = heap[parent]
        pos = parent
    heap[pos] = entry


@_jit
def _sift_down(heap, size):
    """Restore the heap invariant after replacing the root (index 0)."""
    entry = heap[0]
    pos = 0
    child = 1
    while child < size:
        if child + 1 < size and heap[child + 1] < heap[child]:
            child += 1
        if heap[child] >= entry:
            break
        heap[pos] = heap[child]
        pos = child
        child = 2 * pos + 1
    heap[pos] = entry


# ---------------------------------------------------------------------------
# Hot kernel 1: the packed-heap peel (compact_peel transliterated)
# ---------------------------------------------------------------------------
@_jit
def _peel_kernel(indptr, indices, is_anchor):
    """Peel a CSR snapshot; return ``(core float64[n], order int64[n])``.

    Entries are ``effective_degree * n + id``: unique per push because a
    vertex's effective degree strictly decreases, so the pop sequence of any
    min-heap equals ascending key order — bit-identical to the ``heapq``
    reference.  Heap capacity ``n + len(indices)`` bounds the initial fill
    plus one push per directed edge relaxation.
    """
    n = indptr.shape[0] - 1
    core = np.zeros(n, np.float64)
    order = np.empty(n, np.int64)
    if n == 0:
        return core, order
    effective = np.empty(n, np.int64)
    for vid in range(n):
        effective[vid] = indptr[vid + 1] - indptr[vid]
    removed = np.zeros(n, np.uint8)
    heap = np.empty(n + indices.shape[0] + 1, np.int64)
    size = 0
    for vid in range(n):
        if is_anchor[vid] == 0:
            heap[size] = effective[vid] * n + vid
            size += 1
            _sift_up(heap, size - 1)
    count = 0
    current_core = 0
    while size > 0:
        entry = heap[0]
        size -= 1
        heap[0] = heap[size]
        if size > 0:
            _sift_down(heap, size)
        degree = entry // n
        vid = entry - degree * n
        if removed[vid] == 1 or degree != effective[vid]:
            continue
        if degree > current_core:
            current_core = degree
        core[vid] = current_core
        order[count] = vid
        count += 1
        removed[vid] = 1
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if is_anchor[neighbour] == 1 or removed[neighbour] == 1:
                continue
            slack = effective[neighbour] - 1
            effective[neighbour] = slack
            heap[size] = slack * n + neighbour
            size += 1
            _sift_up(heap, size - 1)
    for vid in range(n):
        if is_anchor[vid] == 1:
            core[vid] = np.inf
            order[count] = vid
            count += 1
    return core, order


# ---------------------------------------------------------------------------
# Hot kernel 2: support cascades (k-core + follower evaluation)
# ---------------------------------------------------------------------------
@_jit
def _k_core_kernel(indptr, indices, k, is_anchor):
    """One (anchored) k-core deletion cascade; returns the removed flags."""
    n = indptr.shape[0] - 1
    removed = np.zeros(n, np.uint8)
    degrees = np.empty(n, np.int64)
    stack = np.empty(n + indices.shape[0] + 1, np.int64)
    top = 0
    for vid in range(n):
        degrees[vid] = indptr[vid + 1] - indptr[vid]
        if degrees[vid] < k and is_anchor[vid] == 0:
            stack[top] = vid
            top += 1
    while top > 0:
        top -= 1
        vid = stack[top]
        if removed[vid] == 1:
            continue
        removed[vid] = 1
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if removed[neighbour] == 1 or is_anchor[neighbour] == 1:
                continue
            degrees[neighbour] -= 1
            if degrees[neighbour] < k:
                stack[top] = neighbour
                top += 1
    return removed


@_jit
def _marginal_kernel(
    indptr, indices, core, k, candidate, mark, support, removed_mark, epoch, region_buf
):
    """Region-restricted follower cascade (compact_marginal_followers twin).

    ``mark`` / ``removed_mark`` / ``support`` are caller-owned scratch arrays
    stamped with ``epoch`` instead of cleared, so repeated evaluations never
    pay an O(n) reset.  Region ids land in ``region_buf`` (discovery order);
    removals are flagged via ``removed_mark == epoch``.  Returns
    ``(region_count, removed_count, visited)`` with the dict reference's
    visited contract: one per region pop plus one per cascade removal.
    """
    target = k - 1.0
    visited = 0
    region_count = 0
    stack = np.empty(indptr.shape[0] + indices.shape[0] + 1, np.int64)
    top = 0
    for position in range(indptr[candidate], indptr[candidate + 1]):
        neighbour = indices[position]
        if core[neighbour] == target and mark[neighbour] != epoch:
            mark[neighbour] = epoch
            region_buf[region_count] = neighbour
            region_count += 1
            stack[top] = neighbour
            top += 1
    while top > 0:
        top -= 1
        current = stack[top]
        visited += 1
        for position in range(indptr[current], indptr[current + 1]):
            neighbour = indices[position]
            if (
                core[neighbour] == target
                and mark[neighbour] != epoch
                and neighbour != candidate
            ):
                mark[neighbour] = epoch
                region_buf[region_count] = neighbour
                region_count += 1
                stack[top] = neighbour
                top += 1
    if region_count == 0:
        return 0, 0, visited

    for idx in range(region_count):
        vid = region_buf[idx]
        count = 0
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if neighbour == candidate:
                count += 1
            elif core[neighbour] >= k:
                count += 1
            elif mark[neighbour] == epoch:
                count += 1
        support[vid] = count

    top = 0
    removed_count = 0
    for idx in range(region_count):
        vid = region_buf[idx]
        if support[vid] < k:
            stack[top] = vid
            top += 1
    while top > 0:
        top -= 1
        vid = stack[top]
        if removed_mark[vid] == epoch:
            continue
        removed_mark[vid] = epoch
        removed_count += 1
        visited += 1
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if mark[neighbour] == epoch and removed_mark[neighbour] != epoch:
                support[neighbour] -= 1
                if support[neighbour] < k:
                    stack[top] = neighbour
                    top += 1
    return region_count, removed_count, visited


@_jit
def _full_shell_kernel(
    indptr, indices, core, k, candidate, mark, support, removed_mark, epoch, shell_buf
):
    """Whole-shell follower cascade (compact_full_shell_followers twin).

    Same scratch-array protocol as :func:`_marginal_kernel`; visited covers
    every shell vertex plus the cascade removals (the OLAK instrumentation).
    """
    target = k - 1.0
    n = indptr.shape[0] - 1
    shell_count = 0
    for vid in range(n):
        if core[vid] == target and vid != candidate:
            mark[vid] = epoch
            shell_buf[shell_count] = vid
            shell_count += 1
    visited = shell_count
    if shell_count == 0:
        return 0, 0, visited

    for idx in range(shell_count):
        vid = shell_buf[idx]
        count = 0
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if neighbour == candidate:
                count += 1
            elif core[neighbour] >= k:
                count += 1
            elif mark[neighbour] == epoch:
                count += 1
        support[vid] = count

    stack = np.empty(indptr.shape[0] + indices.shape[0] + 1, np.int64)
    top = 0
    removed_count = 0
    for idx in range(shell_count):
        vid = shell_buf[idx]
        if support[vid] < k:
            stack[top] = vid
            top += 1
    while top > 0:
        top -= 1
        vid = stack[top]
        if removed_mark[vid] == epoch:
            continue
        removed_mark[vid] = epoch
        removed_count += 1
        visited += 1
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if mark[neighbour] == epoch and removed_mark[neighbour] != epoch:
                support[neighbour] -= 1
                if support[neighbour] < k:
                    stack[top] = neighbour
                    top += 1
    return shell_count, removed_count, visited


@_jit
def _deg_plus_kernel(indptr, indices, rank):
    """K-order ``deg+``: per-vertex count of neighbours ranked after it."""
    n = indptr.shape[0] - 1
    out = np.full(n, -1, np.int64)
    for vid in range(n):
        own = rank[vid]
        if own < 0:
            continue
        count = 0
        for position in range(indptr[vid], indptr[vid + 1]):
            if rank[indices[position]] > own:
                count += 1
        out[vid] = count
    return out


# ---------------------------------------------------------------------------
# Hot kernel 3: maintenance traversals (Lemmas 1-4) over an arena adjacency
# ---------------------------------------------------------------------------
@_jit
def _insertion_kernel(
    row_ptr, row_len, arena, icore, u, v, cand_mark, support, evict_mark, epoch, cand_buf
):
    """Insertion traversal: subcore DFS, support counts, eviction cascade.

    Twin of ``CompactMaintenanceKernel.process_insertion``; candidates land in
    ``cand_buf`` (``cand_mark == epoch``), evictions are flagged via
    ``evict_mark == epoch`` and survivors' core numbers are raised in-place.
    Returns the candidate count (the visited set).  The cascades are
    confluent, so the stack traversal order matches the set-based twins.
    """
    root_core = icore[u] if icore[u] < icore[v] else icore[v]
    stack = np.empty(row_ptr.shape[0] + arena.shape[0] + 2, np.int64)
    cand_count = 0
    top = 0
    if icore[u] == root_core:
        cand_mark[u] = epoch
        cand_buf[cand_count] = u
        cand_count += 1
        stack[top] = u
        top += 1
    if icore[v] == root_core and cand_mark[v] != epoch:
        cand_mark[v] = epoch
        cand_buf[cand_count] = v
        cand_count += 1
        stack[top] = v
        top += 1
    while top > 0:
        top -= 1
        current = stack[top]
        base = row_ptr[current]
        for offset in range(row_len[current]):
            neighbour = arena[base + offset]
            if icore[neighbour] == root_core and cand_mark[neighbour] != epoch:
                cand_mark[neighbour] = epoch
                cand_buf[cand_count] = neighbour
                cand_count += 1
                stack[top] = neighbour
                top += 1

    for idx in range(cand_count):
        w = cand_buf[idx]
        count = 0
        base = row_ptr[w]
        for offset in range(row_len[w]):
            neighbour = arena[base + offset]
            if icore[neighbour] > root_core or cand_mark[neighbour] == epoch:
                count += 1
        support[w] = count

    top = 0
    for idx in range(cand_count):
        w = cand_buf[idx]
        if support[w] <= root_core:
            stack[top] = w
            top += 1
    while top > 0:
        top -= 1
        w = stack[top]
        if evict_mark[w] == epoch:
            continue
        evict_mark[w] = epoch
        base = row_ptr[w]
        for offset in range(row_len[w]):
            neighbour = arena[base + offset]
            if cand_mark[neighbour] == epoch and evict_mark[neighbour] != epoch:
                support[neighbour] -= 1
                if support[neighbour] <= root_core:
                    stack[top] = neighbour
                    top += 1

    risen = root_core + 1
    for idx in range(cand_count):
        w = cand_buf[idx]
        if evict_mark[w] != epoch:
            icore[w] = risen
    return cand_count


@_jit
def _deletion_kernel(
    row_ptr,
    row_len,
    arena,
    icore,
    u,
    v,
    visit_mark,
    support_mark,
    dropped_mark,
    support,
    epoch,
    visit_buf,
):
    """Deletion cascade: lazy support counts, drop everything under-supported.

    Twin of ``CompactMaintenanceKernel.process_deletion``; visited vertices
    land in ``visit_buf`` (``visit_mark == epoch``), drops are flagged via
    ``dropped_mark == epoch`` and their core numbers are lowered in-place.
    ``support_mark`` stamps lazy support initialisation (the twin's
    ``x not in support`` test).  Returns the visited count.
    """
    root_core = icore[u] if icore[u] < icore[v] else icore[v]
    stack = np.empty(arena.shape[0] + 4, np.int64)
    visit_count = 0
    top = 0
    for seed_index in range(2):
        w = u if seed_index == 0 else v
        if icore[w] != root_core or dropped_mark[w] == epoch:
            continue
        if visit_mark[w] != epoch:
            visit_mark[w] = epoch
            visit_buf[visit_count] = w
            visit_count += 1
        if support_mark[w] != epoch:
            support_mark[w] = epoch
            count = 0
            base = row_ptr[w]
            for offset in range(row_len[w]):
                if icore[arena[base + offset]] >= root_core:
                    count += 1
            support[w] = count
        if support[w] < root_core:
            dropped_mark[w] = epoch
            stack[top] = w
            top += 1
    while top > 0:
        top -= 1
        w = stack[top]
        base = row_ptr[w]
        for offset in range(row_len[w]):
            x = arena[base + offset]
            if icore[x] != root_core or dropped_mark[x] == epoch:
                continue
            if visit_mark[x] != epoch:
                visit_mark[x] = epoch
                visit_buf[visit_count] = x
                visit_count += 1
            if support_mark[x] != epoch:
                support_mark[x] = epoch
                count = 0
                x_base = row_ptr[x]
                for x_offset in range(row_len[x]):
                    if icore[arena[x_base + x_offset]] >= root_core:
                        count += 1
                support[x] = count
            support[x] -= 1
            if support[x] < root_core:
                dropped_mark[x] = epoch
                stack[top] = x
                top += 1
        icore[w] = root_core - 1
    return visit_count


# ---------------------------------------------------------------------------
# Core-index kernel: compact state + compiled hot paths
# ---------------------------------------------------------------------------
class NumbaCoreIndexKernel(CompactCoreIndexKernel):
    """Anchored-core-index state with the hot loops JIT-compiled.

    Inherits the compact kernel's state (ordered CSR snapshot, shell index,
    lazily derived shell orders, the local anchor commit) and overrides
    exactly the hot paths: refresh runs :func:`_peel_kernel` and seeds every
    shell order from its removal order, the follower evaluations run
    the compiled cascades over a float64 mirror of the core numbers, with
    epoch-stamped scratch arrays shared across calls.
    """

    def __init__(self, graph: Graph) -> None:
        super().__init__(graph)
        cgraph = self._cgraph
        n = cgraph.num_vertices
        self._np_indptr = np.asarray(cgraph.indptr, dtype=np.int64)
        self._np_indices = np.asarray(cgraph.indices, dtype=np.int64)
        self._np_core = np.zeros(n, dtype=np.float64)
        # Epoch-stamped scratch: never cleared, so repeated candidate
        # evaluations cost O(region), not O(n).
        self._mark = np.zeros(n, dtype=np.int64)
        self._support = np.zeros(n, dtype=np.int64)
        self._removed_mark = np.zeros(n, dtype=np.int64)
        self._region_buf = np.empty(n, dtype=np.int64)
        self._epoch = 0

    def refresh(self, anchors: Set[Vertex]) -> None:
        interner = self._cgraph.interner
        self._anchor_ids = {interner.id_of(anchor) for anchor in anchors}
        n = self._cgraph.num_vertices
        is_anchor = np.zeros(n, dtype=np.uint8)
        for anchor_id in self._anchor_ids:
            is_anchor[anchor_id] = 1
        core_arr, order_arr = _peel_kernel(self._np_indptr, self._np_indices, is_anchor)
        self._np_core = core_arr
        # Mirror into the inherited list state so every compact query method
        # (candidate scans, shell index, the commit splice) works unchanged.
        core_ids = core_arr.tolist()
        self._core_ids = core_ids
        self._shell_ids = build_shell_index(enumerate(core_ids))
        self._orders.seed(order_arr.tolist(), core_ids)
        self._core_map_cache = None

    def commit_anchor(
        self, vertex: Vertex, anchors: Set[Vertex]
    ) -> Optional[FrozenSet[Vertex]]:
        touched = super().commit_anchor(vertex, anchors)
        # Patch the float64 mirror for exactly the spliced region.
        if touched is not None:
            id_of = self._cgraph.interner.id_of
            core_ids = self._core_ids
            np_core = self._np_core
            for moved in touched:
                vid = id_of(moved)
                np_core[vid] = core_ids[vid]
        return touched

    def plain_k_core(self, k: int) -> Set[Vertex]:
        no_anchors = np.zeros(self._cgraph.num_vertices, dtype=np.uint8)
        removed = _k_core_kernel(self._np_indptr, self._np_indices, k, no_anchors)
        survivors = np.flatnonzero(removed == 0)
        return self._cgraph.interner.translate(int(vid) for vid in survivors)

    def _run_marginal(self, k: int, candidate_id: int):
        """Run the compiled marginal cascade; returns the raw kernel outputs."""
        self._epoch += 1
        return _marginal_kernel(
            self._np_indptr,
            self._np_indices,
            self._np_core,
            k,
            candidate_id,
            self._mark,
            self._support,
            self._removed_mark,
            self._epoch,
            self._region_buf,
        )

    def _gained_from_region(self, region_count: int) -> Set[int]:
        removed_mark = self._removed_mark
        epoch = self._epoch
        region_buf = self._region_buf
        return {
            int(region_buf[idx])
            for idx in range(region_count)
            if removed_mark[region_buf[idx]] != epoch
        }

    def marginal_followers(
        self, k: int, candidate: Vertex, full_shell: bool
    ) -> Tuple[Set[Vertex], int]:
        if k < 1:
            raise ParameterError("k must be >= 1 for follower computation")
        candidate_id = self._cgraph.interner.id_of(candidate)
        if self._np_core[candidate_id] >= k:
            return set(), 0
        if full_shell:
            self._epoch += 1
            member_count, _, visited = _full_shell_kernel(
                self._np_indptr,
                self._np_indices,
                self._np_core,
                k,
                candidate_id,
                self._mark,
                self._support,
                self._removed_mark,
                self._epoch,
                self._region_buf,
            )
        else:
            member_count, _, visited = self._run_marginal(k, candidate_id)
        gained_ids = self._gained_from_region(member_count)
        return self._cgraph.interner.translate(gained_ids), int(visited)

    def marginal_followers_with_region(
        self, k: int, candidate: Vertex
    ) -> Tuple[Set[Vertex], int, Optional[FrozenSet[Vertex]]]:
        if k < 1:
            raise ParameterError("k must be >= 1 for follower computation")
        candidate_id = self._cgraph.interner.id_of(candidate)
        if self._np_core[candidate_id] >= k:
            return set(), 0, frozenset()
        region_count, _, visited = self._run_marginal(k, candidate_id)
        gained_ids = self._gained_from_region(region_count)
        translate = self._cgraph.interner.translate
        region = translate(int(self._region_buf[idx]) for idx in range(region_count))
        return translate(gained_ids), int(visited), frozenset(region)


# ---------------------------------------------------------------------------
# Maintenance kernel: arena adjacency + compiled traversals
# ---------------------------------------------------------------------------
class NumbaMaintenanceKernel(MaintenanceKernel):
    """Maintenance traversals compiled over an arena-based dynamic adjacency.

    The adjacency lives in four flat int64 arrays — ``row_ptr`` / ``row_len``
    / ``row_cap`` index into an append-only ``arena`` of neighbour ids — so
    the compiled traversals walk raw memory.  Rows relocate to the arena tail
    with doubled capacity when they overflow (amortised O(1) per insertion);
    removal is an O(deg) swap-with-last.  The maintainer only forwards
    structurally new/removed edges (the graph mutation is its guard), so rows
    hold no duplicates.

    Traversal semantics are the confluent twins of
    :class:`~repro.backends.compact_backend.CompactMaintenanceKernel`; the
    equivalence suite keeps all twins identical.
    """

    _GROWTH_SLACK = 2

    def __init__(self, graph: Graph, core: Dict[Vertex, int]) -> None:
        self.interner = VertexInterner(graph.vertices())
        ids = self.interner._ids
        n = len(self.interner)
        degrees = [0] * n
        for vertex in graph.vertices():
            degrees[ids[vertex]] = graph.degree(vertex)
        self._row_ptr = np.zeros(max(n, 1), dtype=np.int64)
        self._row_len = np.zeros(max(n, 1), dtype=np.int64)
        self._row_cap = np.zeros(max(n, 1), dtype=np.int64)
        offset = 0
        for vid in range(n):
            cap = degrees[vid] + self._GROWTH_SLACK
            self._row_ptr[vid] = offset
            self._row_cap[vid] = cap
            offset += cap
        self._arena = np.zeros(max(offset, 1), dtype=np.int64)
        self._arena_used = offset
        for vertex in graph.vertices():
            vid = ids[vertex]
            base = self._row_ptr[vid]
            length = 0
            for neighbour in graph.neighbors(vertex):
                self._arena[base + length] = ids[neighbour]
                length += 1
            self._row_len[vid] = length
        self._icore = np.zeros(max(n, 1), dtype=np.int64)
        for vertex, value in core.items():
            vid = ids.get(vertex)
            if vid is not None:
                self._icore[vid] = value
        self._num_vertices = n
        # Epoch-stamped scratch for the traversals.
        self._mark_a = np.zeros(max(n, 1), dtype=np.int64)
        self._mark_b = np.zeros(max(n, 1), dtype=np.int64)
        self._mark_c = np.zeros(max(n, 1), dtype=np.int64)
        self._support = np.zeros(max(n, 1), dtype=np.int64)
        self._out_buf = np.empty(max(n, 1), dtype=np.int64)
        self._epoch = 0

    # -- array growth ------------------------------------------------------
    def _grow_vertex_arrays(self, needed: int) -> None:
        current = self._row_ptr.shape[0]
        if needed <= current:
            return
        new_size = max(needed, current * 2)
        for attr in ("_row_ptr", "_row_len", "_row_cap", "_icore",
                     "_mark_a", "_mark_b", "_mark_c", "_support"):
            old = getattr(self, attr)
            grown = np.zeros(new_size, dtype=np.int64)
            grown[: old.shape[0]] = old
            setattr(self, attr, grown)
        out = np.empty(new_size, dtype=np.int64)
        out[: self._out_buf.shape[0]] = self._out_buf
        self._out_buf = out

    def _reserve_arena(self, extra: int) -> None:
        needed = self._arena_used + extra
        if needed <= self._arena.shape[0]:
            return
        grown = np.zeros(max(needed, self._arena.shape[0] * 2), dtype=np.int64)
        grown[: self._arena_used] = self._arena[: self._arena_used]
        self._arena = grown

    def _append_neighbour(self, vid: int, neighbour: int) -> None:
        length = int(self._row_len[vid])
        if length == self._row_cap[vid]:
            # Relocate the row to the arena tail with doubled capacity.
            new_cap = max(int(self._row_cap[vid]) * 2, self._GROWTH_SLACK)
            self._reserve_arena(new_cap)
            old_base = int(self._row_ptr[vid])
            new_base = self._arena_used
            self._arena[new_base : new_base + length] = self._arena[
                old_base : old_base + length
            ]
            self._row_ptr[vid] = new_base
            self._row_cap[vid] = new_cap
            self._arena_used = new_base + new_cap
        self._arena[self._row_ptr[vid] + length] = neighbour
        self._row_len[vid] = length + 1

    def _drop_neighbour(self, vid: int, neighbour: int) -> None:
        base = int(self._row_ptr[vid])
        length = int(self._row_len[vid])
        for offset in range(length):
            if self._arena[base + offset] == neighbour:
                self._arena[base + offset] = self._arena[base + length - 1]
                self._row_len[vid] = length - 1
                return

    # -- structure upkeep ---------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        vid = self.interner.intern(vertex)
        if vid < self._num_vertices:
            return
        self._grow_vertex_arrays(vid + 1)
        self._reserve_arena(self._GROWTH_SLACK)
        self._row_ptr[vid] = self._arena_used
        self._row_len[vid] = 0
        self._row_cap[vid] = self._GROWTH_SLACK
        self._arena_used += self._GROWTH_SLACK
        self._icore[vid] = 0
        self._num_vertices = vid + 1

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        u_id = self.interner.id_of(u)
        v_id = self.interner.id_of(v)
        self._append_neighbour(u_id, v_id)
        self._append_neighbour(v_id, u_id)

    def remove_edge(self, u: Vertex, v: Vertex) -> None:
        u_id = self.interner.id_of(u)
        v_id = self.interner.id_of(v)
        self._drop_neighbour(u_id, v_id)
        self._drop_neighbour(v_id, u_id)

    # -- views ---------------------------------------------------------------
    def core(self, vertex: Vertex) -> int:
        vid = self.interner.get_id(vertex)
        if vid < 0:
            raise KeyError(vertex)
        return int(self._icore[vid])

    def core_get(self, vertex: Vertex, default: Optional[int] = None) -> Optional[int]:
        vid = self.interner.get_id(vertex)
        return default if vid < 0 else int(self._icore[vid])

    def core_numbers(self) -> Dict[Vertex, int]:
        vertices = self.interner.vertices
        return {
            vertices[vid]: int(self._icore[vid]) for vid in range(self._num_vertices)
        }

    def k_core_vertices(self, k: int) -> Set[Vertex]:
        vertices = self.interner.vertices
        return {
            vertices[vid]
            for vid in range(self._num_vertices)
            if self._icore[vid] >= k
        }

    def shell_vertices(self, k: int) -> Set[Vertex]:
        vertices = self.interner.vertices
        return {
            vertices[vid]
            for vid in range(self._num_vertices)
            if self._icore[vid] == k
        }

    # -- traversals -----------------------------------------------------------
    def process_insertion(self, u: Vertex, v: Vertex) -> Tuple[Set[Vertex], Set[Vertex]]:
        u_id = self.interner.id_of(u)
        v_id = self.interner.id_of(v)
        self._epoch += 1
        cand_count = _insertion_kernel(
            self._row_ptr,
            self._row_len,
            self._arena,
            self._icore,
            u_id,
            v_id,
            self._mark_a,
            self._support,
            self._mark_b,
            self._epoch,
            self._out_buf,
        )
        vertices = self.interner.vertices
        evict_mark = self._mark_b
        epoch = self._epoch
        visited = set()
        increased = set()
        for idx in range(cand_count):
            vid = int(self._out_buf[idx])
            visited.add(vertices[vid])
            if evict_mark[vid] != epoch:
                increased.add(vertices[vid])
        return increased, visited

    def process_deletion(self, u: Vertex, v: Vertex) -> Tuple[Set[Vertex], Set[Vertex]]:
        u_id = self.interner.id_of(u)
        v_id = self.interner.id_of(v)
        self._epoch += 1
        visit_count = _deletion_kernel(
            self._row_ptr,
            self._row_len,
            self._arena,
            self._icore,
            u_id,
            v_id,
            self._mark_a,
            self._mark_c,
            self._mark_b,
            self._support,
            self._epoch,
            self._out_buf,
        )
        vertices = self.interner.vertices
        dropped_mark = self._mark_b
        epoch = self._epoch
        visited = set()
        dropped = set()
        for idx in range(visit_count):
            vid = int(self._out_buf[idx])
            visited.add(vertices[vid])
            if dropped_mark[vid] == epoch:
                dropped.add(vertices[vid])
        return dropped, visited


# ---------------------------------------------------------------------------
# The backend
# ---------------------------------------------------------------------------
#: Process-wide warmup bookkeeping: the kernels compile once per interpreter.
_WARMED_UP = False
_WARMUP_SECONDS = 0.0


def warmup_kernels(force: bool = False) -> float:
    """Compile every JIT kernel against tiny representative arrays.

    Runs once per process (subsequent calls are free unless ``force``); the
    compilation happens inside a ``kernel.jit_compile`` obs span and the cost
    is recorded in the ``backend.numba.warmup_seconds`` gauge, so cold-start
    latency is attributed to backend construction, never to the first traced
    query.  Returns the seconds the warmup took (0.0 when already warm or
    when running un-jitted).
    """
    global _WARMED_UP, _WARMUP_SECONDS
    if _WARMED_UP and not force:
        return 0.0
    from repro.obs import global_registry, tracer

    started = time.perf_counter()
    with tracer.span("kernel.jit_compile", backend=BACKEND_NUMBA, jit=JIT_ENABLED):
        # A triangle plus a pendant: exercises every branch type signature.
        indptr = np.asarray([0, 2, 4, 7, 8], dtype=np.int64)
        indices = np.asarray([1, 2, 0, 2, 0, 1, 3, 2], dtype=np.int64)
        no_anchor = np.zeros(4, dtype=np.uint8)
        core, _order = _peel_kernel(indptr, indices, no_anchor)
        _k_core_kernel(indptr, indices, 2, no_anchor)
        mark = np.zeros(4, dtype=np.int64)
        support = np.zeros(4, dtype=np.int64)
        removed_mark = np.zeros(4, dtype=np.int64)
        buf = np.empty(4, dtype=np.int64)
        _marginal_kernel(indptr, indices, core, 3, 3, mark, support, removed_mark, 1, buf)
        _full_shell_kernel(
            indptr, indices, core, 3, 3, mark, support, removed_mark, 2, buf
        )
        _deg_plus_kernel(indptr, indices, np.asarray([0, 1, 2, 3], dtype=np.int64))
        # The same four-vertex graph as an arena adjacency (cap 3 per row).
        row_ptr = np.asarray([0, 3, 6, 9], dtype=np.int64)
        row_len = np.asarray([2, 2, 3, 1], dtype=np.int64)
        arena = np.zeros(12, dtype=np.int64)
        arena[0:2] = (1, 2)
        arena[3:5] = (0, 2)
        arena[6:9] = (0, 1, 3)
        arena[9:10] = (2,)
        icore = np.asarray([2, 2, 2, 1], dtype=np.int64)
        mark_c = np.zeros(4, dtype=np.int64)
        _insertion_kernel(
            row_ptr, row_len, arena, icore.copy(), 2, 3,
            mark, support, removed_mark, 3, buf,
        )
        _deletion_kernel(
            row_ptr, row_len, arena, icore.copy(), 0, 1,
            mark, mark_c, removed_mark, support, 4, buf,
        )
    elapsed = time.perf_counter() - started
    _WARMED_UP = True
    _WARMUP_SECONDS = elapsed
    global_registry().gauge("backend.numba.warmup_seconds", backend=BACKEND_NUMBA).set(
        elapsed
    )
    return elapsed


class NumbaBackend(ExecutionBackend):
    """JIT-compiled kernels over interned CSR snapshots (requires numba)."""

    name = BACKEND_NUMBA

    def __init__(self) -> None:
        if np is None:  # pragma: no cover - guarded by numba_available()
            raise ImportError("the numba backend requires numpy")
        warmup_kernels()

    @staticmethod
    def _snapshot_arrays(cgraph: CompactGraph):
        indptr = np.asarray(cgraph.indptr, dtype=np.int64)
        indices = np.asarray(cgraph.indices, dtype=np.int64)
        return indptr, indices

    def decompose(self, graph: Graph, anchors: FrozenSet[Vertex] = frozenset()):
        anchor_set = frozenset(anchors)
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        indptr, indices = self._snapshot_arrays(cgraph)
        is_anchor = np.zeros(cgraph.num_vertices, dtype=np.uint8)
        interner = cgraph.interner
        for anchor in anchor_set:
            is_anchor[interner.id_of(anchor)] = 1
        core_arr, order_arr = _peel_kernel(indptr, indices, is_anchor)
        vertices = interner.vertices
        core = {
            vertices[vid]: (ANCHOR_CORE if is_anchor[vid] else float(core_arr[vid]))
            for vid in range(len(vertices))
        }
        order = tuple(vertices[int(vid)] for vid in order_arr)
        return CoreDecomposition(core=core, order=order, anchors=anchor_set)

    def k_core(self, graph: Graph, k: int, anchors: Iterable[Vertex] = ()) -> Set[Vertex]:
        cgraph = CompactGraph.from_graph(graph, ordered=False)
        indptr, indices = self._snapshot_arrays(cgraph)
        is_anchor = np.zeros(cgraph.num_vertices, dtype=np.uint8)
        for anchor in anchors:
            is_anchor[cgraph.interner.id_of(anchor)] = 1
        removed = _k_core_kernel(indptr, indices, k, is_anchor)
        survivors = np.flatnonzero(removed == 0)
        return cgraph.interner.translate(int(vid) for vid in survivors)

    def remaining_degrees(
        self, graph: Graph, rank: Mapping[Vertex, int]
    ) -> Dict[Vertex, int]:
        cgraph = CompactGraph.from_graph(graph, ordered=False)
        return self._remaining_degrees(cgraph, rank)

    @staticmethod
    def _remaining_degrees(
        cgraph: CompactGraph, rank: Mapping[Vertex, int]
    ) -> Dict[Vertex, int]:
        indptr, indices = NumbaBackend._snapshot_arrays(cgraph)
        vertices = cgraph.interner.vertices
        rank_arr = np.asarray(
            [rank.get(vertex, -1) for vertex in vertices], dtype=np.int64
        )
        deg_plus = _deg_plus_kernel(indptr, indices, rank_arr)
        return {
            vertices[vid]: int(deg_plus[vid])
            for vid in range(len(vertices))
            if deg_plus[vid] >= 0
        }

    def korder(self, graph: Graph):
        """One CSR snapshot amortised over both the peel and the deg+ pass."""
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        indptr, indices = self._snapshot_arrays(cgraph)
        no_anchor = np.zeros(cgraph.num_vertices, dtype=np.uint8)
        core_arr, order_arr = _peel_kernel(indptr, indices, no_anchor)
        vertices = cgraph.interner.vertices
        decomposition = CoreDecomposition(
            core={vertices[vid]: float(core_arr[vid]) for vid in range(len(vertices))},
            order=tuple(vertices[int(vid)] for vid in order_arr),
        )
        rank_arr = np.empty(len(vertices), dtype=np.int64)
        for position, vid in enumerate(order_arr):
            rank_arr[vid] = position
        deg_plus = _deg_plus_kernel(indptr, indices, rank_arr)
        rank_of = {
            vertices[vid]: int(deg_plus[vid]) for vid in range(len(vertices))
        }
        return decomposition, rank_of

    def build_core_index(self, graph: Graph) -> NumbaCoreIndexKernel:
        return NumbaCoreIndexKernel(graph)

    def build_maintenance(
        self, graph: Graph, core: Dict[Vertex, int]
    ) -> NumbaMaintenanceKernel:
        return NumbaMaintenanceKernel(graph, core)
