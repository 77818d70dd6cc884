"""Core decomposition (Algorithm 1 of the paper) and anchored variants.

The k-core of a graph is its maximal subgraph in which every vertex has degree
at least ``k`` (Definition 1); the core number of a vertex is the largest ``k``
for which it belongs to the k-core (Definition 2).  This module implements the
classic peeling algorithm (repeatedly remove a minimum-degree vertex), which
also yields the vertex removal order that seeds the K-order index of
Section 4.1.

It additionally implements *anchored* core decomposition: the same peeling
process in which a designated anchor set is never removed (anchored vertices
"meet the requirement of k-core regardless of the degree constraint",
Section 2.1).  Anchored vertices receive the core value
:data:`ANCHOR_CORE` (infinity).

Execution is dispatched through the :mod:`repro.backends` registry: every
function here accepts ``backend=`` (a registered name, ``"auto"``, or an
:class:`~repro.backends.ExecutionBackend` instance) and calls the resolved
backend's kernel.  All registered backends produce *identical* core numbers
**and** identical removal orders — the compact/numpy/numba snapshots intern
vertices in tie-break order so the integer id doubles as the deterministic
tie-break rank, and the numba tier's compiled packed-heap peel pops the same
unique ascending keys as the :mod:`heapq` reference here.  This module also
hosts the flat integer-array kernel primitives (:func:`compact_peel`,
:func:`compact_k_core_ids`) that the compact backend is built from.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import (
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    List,
    Mapping,
    MutableSequence,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.backends import (
    BACKEND_AUTO,
    WORKLOAD_AMORTIZED,
    WORKLOAD_ONE_SHOT,
    ExecutionBackend,
    get_backend,
)
from repro.errors import ParameterError
from repro.graph.compact import CompactGraph
from repro.graph.static import Graph, Vertex
from repro.obs import tracer

#: Core value assigned to anchored vertices — they can never be peeled.
ANCHOR_CORE: float = math.inf


@dataclass(frozen=True)
class CoreDecomposition:
    """Result of a (possibly anchored) core decomposition.

    Attributes
    ----------
    core:
        Mapping from vertex to core number.  Anchored vertices map to
        :data:`ANCHOR_CORE`.
    order:
        The removal order: vertices in the order the peeling process deleted
        them (anchored vertices, which are never deleted, appear last in a
        deterministic order).
    anchors:
        The anchor set used for the decomposition (empty for the plain case).
    """

    core: Mapping[Vertex, float]
    order: Tuple[Vertex, ...]
    anchors: FrozenSet[Vertex] = frozenset()

    def core_of(self, vertex: Vertex) -> float:
        """Return the core number of ``vertex``."""
        return self.core[vertex]

    def k_core_vertices(self, k: int) -> Set[Vertex]:
        """Return the vertices of the k-core (anchors always qualify)."""
        return {vertex for vertex, value in self.core.items() if value >= k}

    def shell_vertices(self, k: int) -> Set[Vertex]:
        """Return the k-shell: vertices with core number exactly ``k``."""
        return {vertex for vertex, value in self.core.items() if value == k}

    def shells(self) -> Dict[int, List[Vertex]]:
        """Return ``{core value: vertices in removal order}`` for finite cores."""
        grouped: Dict[int, List[Vertex]] = {}
        for vertex in self.order:
            value = self.core[vertex]
            if value == ANCHOR_CORE:
                continue
            grouped.setdefault(int(value), []).append(vertex)
        return grouped

    def degeneracy(self) -> int:
        """Return the largest finite core number (0 for an empty graph)."""
        finite = [int(value) for value in self.core.values() if value != ANCHOR_CORE]
        return max(finite, default=0)


def core_decomposition(
    graph: Graph, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> CoreDecomposition:
    """Run core decomposition on ``graph``.

    Vertices of equal current degree are peeled in a deterministic order so
    repeated runs produce identical removal orders.  The dict backend's
    lazy-deletion heap is O(m log n), more than fast enough for the
    pure-Python experiment scale; the compact and numpy backends run the
    same peeling over flat int / numpy arrays.
    """
    return anchored_core_decomposition(graph, anchors=(), backend=backend)


def anchored_core_decomposition(
    graph: Graph,
    anchors: Iterable[Vertex],
    backend: Union[str, ExecutionBackend] = BACKEND_AUTO,
) -> CoreDecomposition:
    """Run core decomposition in which ``anchors`` are never removed.

    Anchored vertices still contribute to their neighbours' degrees throughout
    the peeling, which is exactly the anchored k-core semantics of
    Definition 4: the anchored k-core for any ``k`` is
    ``{v : core(v) >= k}`` with anchors mapped to infinity.  Every registered
    backend produces the same mapping and the same removal order.
    """
    anchor_set = frozenset(anchors)
    for anchor in anchor_set:
        if not graph.has_vertex(anchor):
            raise ParameterError(f"anchor {anchor!r} is not a vertex of the graph")
    return get_backend(
        backend, graph.num_vertices, workload=WORKLOAD_AMORTIZED
    ).decompose(graph, anchor_set)


# ---------------------------------------------------------------------------
# Compact (flat integer-array) kernels
# ---------------------------------------------------------------------------
def compact_peel(
    cgraph: CompactGraph, anchor_ids: Iterable[int] = ()
) -> Tuple[List[float], List[int]]:
    """Peel a compact snapshot; return ``(core values, removal order)`` by id.

    ``cgraph`` must be *ordered* (id == tie-break rank) so that the packed
    single-int heap entries ``degree * n + id`` reproduce the dict backend's
    deterministic removal order exactly.  Anchored ids receive
    :data:`ANCHOR_CORE` and are appended to the order last, sorted by id.
    """
    if not cgraph.ordered:
        raise ParameterError("compact_peel requires an ordered CompactGraph")
    n = cgraph.num_vertices
    core: List[float] = [0] * n
    order: List[int] = []
    if n == 0:
        return core, order

    indptr = cgraph.indptr
    indices = cgraph.indices
    effective = list(cgraph.degrees)
    is_anchor = bytearray(n)
    for anchor_id in anchor_ids:
        is_anchor[anchor_id] = 1
    removed = bytearray(n)

    heap = [effective[vid] * n + vid for vid in range(n) if not is_anchor[vid]]
    heapq.heapify(heap)
    heappush = heapq.heappush
    heappop = heapq.heappop

    current_core = 0
    while heap:
        entry = heappop(heap)
        degree, vid = divmod(entry, n)
        if removed[vid] or degree != effective[vid]:
            continue
        if degree > current_core:
            current_core = degree
        core[vid] = current_core
        order.append(vid)
        removed[vid] = 1
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if is_anchor[neighbour] or removed[neighbour]:
                continue
            slack = effective[neighbour] - 1
            effective[neighbour] = slack
            heappush(heap, slack * n + neighbour)

    for vid in range(n):
        if is_anchor[vid]:
            core[vid] = ANCHOR_CORE
            order.append(vid)
    return core, order


def build_shell_index(items: Iterable[Tuple[object, float]]) -> Dict[float, Set[object]]:
    """``{core value: member set}`` from ``(member, core value)`` pairs.

    The shell index behind the kernels' O(#levels)/O(|shell|) size queries;
    rebuilt on every full refresh and patched by :func:`apply_shell_moves`
    on incremental commits.
    """
    shells: Dict[float, Set[object]] = {}
    for member, value in items:
        members = shells.get(value)
        if members is None:
            members = shells[value] = set()
        members.add(member)
    return shells


def apply_shell_moves(shells, touched, core) -> None:
    """Move every touched member from its old shell to its current one.

    ``touched`` is the ``[(member, old core value)]`` list an incremental
    commit returns, ``core`` the already-updated core lookup (mapping or
    id-indexed array).  Emptied shells are dropped so iteration over the
    index never visits dead levels.
    """
    for member, old in touched:
        members = shells.get(old)
        if members is not None:
            members.discard(member)
            if not members:
                del shells[old]
        value = core[member]
        members = shells.get(value)
        if members is None:
            members = shells[value] = set()
        members.add(member)


def compact_shell_order_ids(
    indptr: Sequence[int],
    indices: Sequence[int],
    core: Sequence[float],
    members: List[int],
    level: int,
) -> List[int]:
    """Removal order within one shell (the Phase-B reconstruction).

    With core numbers fixed, the reference heap peel's order restricted to
    shell ``level`` is reproduced by a packed-heap cascade over the
    same-shell subgraph: members ascend by id (id == tie-break rank on
    ordered snapshots), each starts at its count of ``core >= level``
    neighbours (anchors are infinity and count), and only same-shell
    removals decrement — the invariant the numpy backend already builds
    its whole order reconstruction on.
    """
    size = len(members)
    position = {vid: local for local, vid in enumerate(members)}
    eff_local = [0] * size
    adjacency: List[List[int]] = [[] for _ in range(size)]
    for local, vid in enumerate(members):
        count = 0
        for slot in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[slot]
            value = core[neighbour]
            if value >= level:
                count += 1
                if value == level:
                    neighbour_local = position.get(neighbour)
                    if neighbour_local is not None:
                        adjacency[local].append(neighbour_local)
        eff_local[local] = count

    heap = [eff_local[local] * size + local for local in range(size)]
    heapq.heapify(heap)
    heappush = heapq.heappush
    heappop = heapq.heappop
    popped = bytearray(size)
    shell_order: List[int] = []
    while heap:
        entry = heappop(heap)
        degree, local = divmod(entry, size)
        if popped[local] or degree != eff_local[local]:
            continue
        popped[local] = 1
        shell_order.append(members[local])
        for neighbour in adjacency[local]:
            if not popped[neighbour]:
                slack = eff_local[neighbour] - 1
                eff_local[neighbour] = slack
                heappush(heap, slack * size + neighbour)
    return shell_order


def incremental_anchor_commit(
    neighbours: Iterable,
    core,
    new_anchor,
    risers: Callable[[int], Iterable],
) -> Tuple[List[Tuple[object, float]], Set[int]]:
    """Apply one anchor commit to the core numbers, touching only the
    affected region — the incremental path behind
    :meth:`CoreIndexKernel.commit_anchor` for every built-in kernel.

    ``neighbours`` iterates the new anchor's neighbours and ``core`` maps a
    vertex to its core value: the id-array kernels pass their CSR row and a
    list or numpy array indexed by id (vertices are ids), the dict kernel
    passes ``graph.neighbors(x)`` and its ``{vertex: core}`` mapping.

    **Core numbers.**  For a *single* added anchor every core rise is exactly
    ``+1``, and the risers at level ``j`` are exactly the anchor's level-``j``
    followers: a level-``j`` follower has old core ``j - 1`` (the single-
    anchor shell lemma behind :func:`repro.anchored.followers.marginal_followers`),
    so a vertex can rise at only one level, and the riser sets are computed
    independently on the *old* core numbers, one follower cascade per level
    ``j - 1 ∈ {core(u) : u ∈ N(anchor), core(u) >= core(anchor)}`` (other
    levels provably gain nothing: below, the anchor was already in the
    j-core; above, the anchor has no shell-``(j-1)`` neighbour to seed a
    region).  ``risers(j)`` is the kernel's own follower cascade for the new
    anchor at degree constraint ``j`` over the still-unmodified ``core``
    (:func:`repro.anchored.followers.marginal_followers`,
    :func:`~repro.anchored.followers.compact_marginal_followers` or its
    vectorised numpy twin).

    **Affected shells.**  With the core numbers fixed, the reference heap
    peel's order restricted to one shell is a cascade over the same-shell
    subgraph (see :func:`compact_shell_order_ids`), so a shell's internal
    order can change only if its membership changed (it gained or lost a
    riser or the anchor) or a member's starting degree changed (a
    neighbour's core value crossed the shell level — for a ``+1`` riser from
    ``a`` that is only shell ``a + 1``; for the anchor, finite → infinity,
    every shell above its old core that contains one of its neighbours).
    Exactly those levels are returned; the caller drops their cached orders
    (:class:`ShellOrderStore`) and every other shell keeps its order
    verbatim.  No order is computed here.

    Mutates ``core`` so it equals a full anchored peel with the enlarged
    anchor set and returns ``(touched, affected levels)``: ``touched`` is
    ``[(vertex, previous core value)]`` for every vertex whose core number
    changed (the new anchor included, finite → infinity).
    """
    x = new_anchor
    anchor_core = core[x]

    # Candidate levels and order-affected shells, read off the OLD state.
    levels: Set[int] = set()
    affected: Set[int] = {int(anchor_core)}
    for neighbour in neighbours:
        value = core[neighbour]
        if value == ANCHOR_CORE:
            continue
        if value >= anchor_core:
            levels.add(int(value) + 1)
        if value > anchor_core:
            # The anchor's own rise (finite -> infinity) crosses this
            # neighbour's shell level, changing its starting degree there.
            affected.add(int(value))

    touched: List[Tuple[object, float]] = [(x, anchor_core)]
    risers_by_level: Dict[int, List[object]] = {}
    for j in levels:
        lifted = list(risers(j))
        if lifted:
            risers_by_level[j] = lifted
            affected.add(j - 1)
            affected.add(j)
            touched.extend((v, float(j - 1)) for v in lifted)

    # All riser cascades read the old core numbers (level independence: a
    # level-j cascade never tests a value a +1 rise at another level could
    # flip), so the writes happen only now.
    for j, lifted in risers_by_level.items():
        for v in lifted:
            core[v] = j
    core[x] = ANCHOR_CORE
    return touched, affected


class ShellOrderStore:
    """Lazily materialised per-shell removal orders of a core-index kernel.

    The reference removal order is the ascending concatenation of per-shell
    orders followed by the anchors in tie-break order, and every shell's
    order is a function of the core numbers alone
    (:func:`compact_shell_order_ids`).  The store therefore keeps ``{level:
    ordered members}`` for *clean* shells only, plus ``positions[v]``, each
    member's position within its own shell (valid for members of clean
    shells).  An anchor commit drops the levels it affected
    (:meth:`discard`); a shell is re-derived by the backend's
    ``materialise(level)`` only when a reader asks for it (:meth:`order`),
    inside a ``kernel.shell_order`` span.  ``positions`` is a list or a
    numpy int array indexed by id, or a dict keyed by vertex.  The
    materialiser is passed per read rather than held, so a kernel and its
    store never form a reference cycle.
    """

    __slots__ = ("positions", "_orders")

    def __init__(self, positions: Union[MutableSequence[int], Dict[object, int]]) -> None:
        self.positions = positions
        self._orders: Dict[int, Sequence[int]] = {}

    def seed(self, order: Iterable[int], core: Sequence[float]) -> None:
        """Mark every shell clean from a full removal order (anchors skipped)."""
        orders: Dict[int, List[int]] = {}
        for vid in order:
            value = core[vid]
            if value == ANCHOR_CORE:
                continue
            level = int(value)
            members = orders.get(level)
            if members is None:
                members = orders[level] = []
            members.append(vid)
        for members in orders.values():
            self._place(members)
        self._orders = orders

    def clear(self) -> None:
        """Mark every shell dirty."""
        self._orders = {}

    def discard(self, levels: Iterable[int]) -> None:
        """Mark ``levels`` dirty; their orders are re-derived on next read."""
        orders = self._orders
        for level in levels:
            orders.pop(level, None)

    def order(
        self, level: int, materialise: Callable[[int], Sequence[int]]
    ) -> Sequence[int]:
        """Shell ``level``'s members in removal order, materialised if dirty."""
        members = self._orders.get(level)
        if members is None:
            with tracer.span("kernel.shell_order", level=level) as span:
                members = materialise(level)
                self._place(members)
                span.set(members=len(members))
            self._orders[level] = members
        return members

    def removal_order(
        self,
        levels: Iterable[int],
        anchors: Iterable,
        materialise: Callable[[int], Sequence],
        key: Optional[Callable] = None,
    ) -> List:
        """The full removal order: ``levels`` ascending, then ``anchors``
        sorted by ``key`` (ids ascend as they are; hashable vertices pass
        :func:`~repro.ordering.tie_break_key`)."""
        order: List = []
        for level in sorted(levels):
            order.extend(self.order(level, materialise))
        order.extend(sorted(anchors, key=key))
        return order

    def _place(self, members: Sequence) -> None:
        positions = self.positions
        if isinstance(positions, (list, dict)):
            for position, vid in enumerate(members):
                positions[vid] = position
        elif len(members):
            positions[list(members)] = range(len(members))


def compact_k_core_ids(
    cgraph: CompactGraph, k: int, anchor_ids: Iterable[int] = ()
) -> Set[int]:
    """Return the (anchored) k-core of a compact snapshot as a set of ids.

    Runs the direct O(n + m) deletion cascade over the flat arrays; anchored
    ids are never removed.  Works on ordered and unordered snapshots alike
    (the result is an order-independent set).
    """
    n = cgraph.num_vertices
    indptr = cgraph.indptr
    indices = cgraph.indices
    degrees = list(cgraph.degrees)
    is_anchor = bytearray(n)
    for anchor_id in anchor_ids:
        is_anchor[anchor_id] = 1
    removed = bytearray(n)
    queue = [vid for vid in range(n) if degrees[vid] < k and not is_anchor[vid]]
    while queue:
        vid = queue.pop()
        if removed[vid]:
            continue
        removed[vid] = 1
        for position in range(indptr[vid], indptr[vid + 1]):
            neighbour = indices[position]
            if removed[neighbour] or is_anchor[neighbour]:
                continue
            degrees[neighbour] -= 1
            if degrees[neighbour] < k:
                queue.append(neighbour)
    return {vid for vid in range(n) if not removed[vid]}


def core_numbers(
    graph: Graph, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> Dict[Vertex, int]:
    """Return ``{vertex: core number}`` with plain integer values."""
    decomposition = core_decomposition(graph, backend=backend)
    return {vertex: int(value) for vertex, value in decomposition.core.items()}


def k_core(
    graph: Graph, k: int, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> Set[Vertex]:
    """Return the vertex set of the k-core of ``graph``.

    Implemented as a direct peeling cascade, which is faster than a full
    decomposition when only a single ``k`` is needed.  The default
    ``"auto"`` policy is workload-aware (see :mod:`repro.backends.registry`):
    a one-shot cascade cannot amortise building a snapshot, so ``auto``
    resolves to the dict backend at any size.  Consumers that hold a
    reusable snapshot — e.g.
    :class:`~repro.anchored.anchored_core.AnchoredCoreIndex` — run the
    snapshot-native cascade through their backend kernel instead.
    """
    if k < 0:
        raise ParameterError("k must be non-negative")
    return get_backend(backend, graph.num_vertices, workload=WORKLOAD_ONE_SHOT).k_core(
        graph, k
    )


def k_shell(
    graph: Graph, k: int, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> Set[Vertex]:
    """Return the k-shell of ``graph`` (vertices whose core number equals ``k``)."""
    decomposition = core_decomposition(graph, backend=backend)
    return decomposition.shell_vertices(k)


def degeneracy(
    graph: Graph, backend: Union[str, ExecutionBackend] = BACKEND_AUTO
) -> int:
    """Return the degeneracy of ``graph`` (its largest non-empty core index)."""
    return core_decomposition(graph, backend=backend).degeneracy()
