"""Property tests for the delta-refresh subsystem (PR 5).

Two referees keep the incremental paths honest:

* **Kernel-level**: after any random anchor sequence, a kernel driven purely
  through :meth:`~repro.anchored.anchored_core.AnchoredCoreIndex.commit_anchor`
  must be observationally identical — core numbers, removal ranks, candidate
  sets, shell queries — to a kernel rebuilt with a full refresh for the same
  anchor set, on every registered backend; and the returned touched set must
  be exactly the core-number diff.
* **Solver-level**: the memoized Greedy (``incremental=True``, the default)
  must select bit-identical anchors and followers and report bit-identical
  instrumentation (``candidates_evaluated``, ``visited_vertices``) as the
  PR-4 full-recompute path (``incremental=False``), on seeded random graphs
  across every backend — while actually recomputing fewer cascades.

The same vertex-pool strategies as ``tests/test_backend_equivalence.py`` are
used so the interner paths (sparse ints, strings, mixed types) stay covered.
Those graphs have at most 12 vertices, so a deterministic mid-size referee
(3000-vertex Chung–Lu graphs, hub anchors whose neighbours span many shells)
and a locality check of the lazily materialised shell orders follow them.
The dict kernel's bucket peel is checked against the reference heap peel
(:func:`~repro.backends.dict_backend.dict_anchored_peel`) on the same pools.
"""

from __future__ import annotations

import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.anchored.anchored_core import AnchoredCoreIndex
from repro.anchored.greedy import GreedyAnchoredKCore
from repro.backends import CoreIndexKernel, numba_available, numpy_available
from repro.backends.dict_backend import (
    DictBackend,
    DictCoreIndexKernel,
    dict_anchored_peel,
    dict_core_numbers,
)
from repro.graph.generators import chung_lu_graph
from repro.graph.static import Graph
from repro.obs import tracer
from repro.ordering import tie_break_key

SETTINGS = settings(
    max_examples=int(os.environ.get("REPRO_HYPOTHESIS_EXAMPLES", "50")),
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

BACKENDS = [
    "dict",
    "compact",
    pytest.param(
        "numpy",
        marks=pytest.mark.skipif(not numpy_available(), reason="numpy is not installed"),
    ),
]

VERTEX_POOLS = (
    list(range(12)),
    [3, 7, 1000, 9999, -5, 0, 42, 18, 2, 61],
    ["alice", "bob", "carol", "dave", "erin", "frank", "grace", "heidi"],
    [0, 1, 2, "x", "y", "z", 77, "alice", -3, "bob"],
)


@st.composite
def graphs(draw) -> Graph:
    pool = draw(st.sampled_from(VERTEX_POOLS))
    num_vertices = draw(st.integers(min_value=1, max_value=len(pool)))
    vertices = pool[:num_vertices]
    possible_edges = [
        (u, v) for i, u in enumerate(vertices) for v in vertices[i + 1 :]
    ]
    edges = draw(
        st.lists(st.sampled_from(possible_edges), max_size=3 * num_vertices, unique=True)
        if possible_edges
        else st.just([])
    )
    return Graph(edges=edges, vertices=vertices)


@st.composite
def commit_scenarios(draw):
    """A graph, a degree constraint and a sequence of anchors to commit."""
    graph = draw(graphs())
    k = draw(st.integers(min_value=1, max_value=4))
    universe = sorted(graph.vertices(), key=tie_break_key)
    anchors = draw(st.lists(st.sampled_from(universe), max_size=4, unique=True))
    return graph, k, anchors


@st.composite
def anchored_graphs(draw):
    """A graph and any anchor subset (isolated vertices included)."""
    graph = draw(graphs())
    universe = sorted(graph.vertices(), key=tie_break_key)
    anchors = draw(st.lists(st.sampled_from(universe), unique=True))
    return graph, frozenset(anchors)


@SETTINGS
@given(scenario=anchored_graphs())
def test_bucket_core_numbers_match_heap_peel(scenario):
    """The core index's bucket peel equals the reference heap peel's cores."""
    graph, anchors = scenario
    assert dict_core_numbers(graph, anchors) == dict_anchored_peel(graph, anchors).core


def _assert_index_state_equal(incremental: AnchoredCoreIndex, full: AnchoredCoreIndex):
    assert dict(incremental.core_numbers()) == dict(full.core_numbers())
    inc_ranks = incremental.kernel.removal_ranks()
    full_ranks = full.kernel.removal_ranks()
    assert inc_ranks is not None and full_ranks is not None
    assert dict(inc_ranks) == dict(full_ranks)
    assert incremental.candidate_anchors() == full.candidate_anchors()
    assert incremental.candidate_anchors(order_pruning=False) == full.candidate_anchors(
        order_pruning=False
    )
    assert incremental.all_non_core_vertices() == full.all_non_core_vertices()
    assert incremental.anchored_core_size() == full.anchored_core_size()
    assert incremental.shell() == full.shell()


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(scenario=commit_scenarios())
def test_commit_anchor_matches_full_refresh(backend, scenario):
    """commit_anchor state == full refresh state after every single commit."""
    graph, k, anchors = scenario
    incremental = AnchoredCoreIndex(graph, k, backend=backend)
    committed = []
    for anchor in anchors:
        before = dict(incremental.core_numbers())
        touched = incremental.commit_anchor(anchor)
        committed.append(anchor)
        full = AnchoredCoreIndex(graph, k, anchors=committed, backend=backend)
        _assert_index_state_equal(incremental, full)
        # The touched set is the exact core-number diff (built-in kernels
        # never fall back to the unknown-change None).
        after = dict(incremental.core_numbers())
        expected = {
            vertex for vertex, value in after.items() if before[vertex] != value
        }
        assert touched == frozenset(expected)


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(scenario=commit_scenarios())
def test_commit_existing_anchor_is_noop(backend, scenario):
    graph, k, anchors = scenario
    if not anchors:
        return
    index = AnchoredCoreIndex(graph, k, backend=backend)
    index.commit_anchor(anchors[0])
    before = dict(index.core_numbers())
    assert index.commit_anchor(anchors[0]) == frozenset()
    assert dict(index.core_numbers()) == before


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(scenario=commit_scenarios())
def test_shell_histogram_queries_match_core_numbers(backend, scenario):
    """count/shell queries agree with the core map after incremental commits."""
    graph, k, anchors = scenario
    index = AnchoredCoreIndex(graph, k, backend=backend)
    for anchor in anchors:
        index.commit_anchor(anchor)
    core = dict(index.core_numbers())
    kernel = index.kernel
    for level in range(0, 6):
        assert kernel.count_core_at_least(level) == sum(
            1 for value in core.values() if value >= level
        )
        assert kernel.shell_vertices(level) == {
            vertex for vertex, value in core.items() if value == level
        }
        assert kernel.vertices_with_core_at_least(level) == {
            vertex for vertex, value in core.items() if value >= level
        }


@pytest.mark.parametrize("backend", BACKENDS)
@SETTINGS
@given(scenario=commit_scenarios(), budget=st.integers(min_value=0, max_value=4))
def test_greedy_memoized_equals_full_recompute(backend, scenario, budget):
    """Memoized Greedy == PR-4 Greedy: anchors, followers, stats.visited."""
    graph, k, initial_anchors, = scenario
    memoized = GreedyAnchoredKCore(
        graph, k, budget, backend=backend, incremental=True
    ).select()
    full = GreedyAnchoredKCore(
        graph, k, budget, backend=backend, incremental=False
    ).select()
    assert memoized.anchors == full.anchors
    assert memoized.followers == full.followers
    assert memoized.anchored_core_size == full.anchored_core_size
    assert memoized.stats.candidates_evaluated == full.stats.candidates_evaluated
    assert memoized.stats.visited_vertices == full.stats.visited_vertices
    # The full path recomputes every evaluation; the memoized path never
    # recomputes more than that.
    assert full.stats.candidates_recomputed == full.stats.candidates_evaluated
    assert full.stats.cache_hits == 0
    assert (
        memoized.stats.candidates_recomputed + memoized.stats.cache_hits
        == memoized.stats.candidates_evaluated
    )


def test_memoization_avoids_cascades_on_a_real_instance():
    """On a non-trivial graph most evaluations come from the gain cache."""
    graph = chung_lu_graph(1500, 4500, seed=11)
    result = GreedyAnchoredKCore(graph, 4, 6, backend="compact").select()
    stats = result.stats
    assert stats.iterations > 1
    assert stats.cache_hits > 0
    assert stats.candidates_recomputed < stats.candidates_evaluated
    assert len(stats.commit_seconds) == stats.iterations
    # And the selection is still exactly the full-recompute selection.
    baseline = GreedyAnchoredKCore(
        graph, 4, 6, backend="compact", incremental=False
    ).select()
    assert result.anchors == baseline.anchors
    assert result.followers == baseline.followers
    assert result.stats.visited_vertices == baseline.stats.visited_vertices


# ---------------------------------------------------------------------------
# Mid-size referee: hub anchors, many shells, every id-array backend
# ---------------------------------------------------------------------------
#: The id-array backends (everything but the dict reference) available here.
ID_ARRAY_BACKENDS = (
    ["compact"]
    + (["numpy"] if numpy_available() else [])
    + (["numba"] if numba_available() else [])
)
MIDSIZE_VERTICES = 3000
MIDSIZE_BUDGET = 6


def _midsize_state(index: AnchoredCoreIndex):
    return (
        dict(index.core_numbers()),
        dict(index.kernel.removal_ranks()),
        index.candidate_anchors(),
        index.candidate_anchors(order_pruning=False),
        index.shell(),
        index.followers(),
    )


@pytest.mark.parametrize("k", [2, 3, 4, 6])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_midsize_commits_match_dict_full_refresh(seed, k):
    """Commit by commit, every kernel (dict included) equals a dict full
    refresh, whose removal ranks in turn equal the reference heap peel's.

    The commit sequence brackets Greedy's anchors with the four highest-degree
    vertices: a hub's neighbours sit in many shells, so its commit runs riser
    cascades at many levels and dirties many shell orders at once.
    """
    graph = chung_lu_graph(MIDSIZE_VERTICES, 3 * MIDSIZE_VERTICES, seed=seed)
    reference = GreedyAnchoredKCore(graph, k, MIDSIZE_BUDGET, backend="dict").select()
    for backend in ID_ARRAY_BACKENDS:
        outcome = GreedyAnchoredKCore(graph, k, MIDSIZE_BUDGET, backend=backend).select()
        assert outcome.anchors == reference.anchors, backend
        assert outcome.followers == reference.followers, backend
        assert outcome.stats.candidates_evaluated == reference.stats.candidates_evaluated
        assert outcome.stats.visited_vertices == reference.stats.visited_vertices

    hubs = sorted(graph.vertices(), key=lambda v: (-graph.degree(v), tie_break_key(v)))[:4]
    sequence = hubs[:2] + [a for a in reference.anchors if a not in hubs] + hubs[2:]
    indexes = {
        backend: AnchoredCoreIndex(graph, k, backend=backend)
        for backend in ["dict"] + ID_ARRAY_BACKENDS
    }
    for position, anchor in enumerate(sequence):
        full = AnchoredCoreIndex(graph, k, anchors=sequence[: position + 1], backend="dict")
        expected = _midsize_state(full)
        oracle = dict_anchored_peel(graph, frozenset(sequence[: position + 1]))
        assert expected[1] == {v: rank for rank, v in enumerate(oracle.order)}
        for backend, index in indexes.items():
            index.commit_anchor(anchor)
            assert _midsize_state(index) == expected, (backend, position)


@pytest.fixture
def traced():
    previous = tracer.set_enabled(True)
    tracer.drain()
    yield
    tracer.drain()
    tracer.set_enabled(previous)


def _shell_order_levels():
    return [
        entry["attrs"]["level"]
        for entry in tracer.drain()
        if entry["name"] == "kernel.shell_order"
    ]


@pytest.mark.parametrize("backend", ["dict"] + ID_ARRAY_BACKENDS)
def test_commits_materialise_no_shell_order(backend, traced):
    """A commit only marks shells dirty; a pruned scan reads shell k - 1 only."""
    k = 4
    graph = chung_lu_graph(MIDSIZE_VERTICES, 3 * MIDSIZE_VERTICES, seed=5)
    hub = max(graph.vertices(), key=lambda v: (graph.degree(v), tie_break_key(v)))
    index = AnchoredCoreIndex(graph, k, backend=backend)
    index.candidate_anchors()
    tracer.drain()
    for anchor in [hub] + sorted(index.candidate_anchors(), key=tie_break_key)[:3]:
        index.commit_anchor(anchor)
        assert _shell_order_levels() == []
        index.candidate_anchors(order_pruning=False)
        assert _shell_order_levels() == []
        index.candidate_anchors()
        assert _shell_order_levels() in ([], [k - 1])
    # A second read of a clean shell materialises nothing.
    index.candidate_anchors()
    assert _shell_order_levels() == []


# ---------------------------------------------------------------------------
# Custom-backend fallback: kernels that do not implement commit_anchor
# ---------------------------------------------------------------------------
class _FallbackKernel(DictCoreIndexKernel):
    """A dict kernel with the incremental path hidden (protocol defaults)."""

    def commit_anchor(self, vertex, anchors):
        return CoreIndexKernel.commit_anchor(self, vertex, anchors)

    def marginal_followers_with_region(self, k, candidate):
        return CoreIndexKernel.marginal_followers_with_region(self, k, candidate)


class _FallbackBackend(DictBackend):
    name = "dict-fallback"

    def build_core_index(self, graph):
        return _FallbackKernel(graph)


@SETTINGS
@given(scenario=commit_scenarios(), budget=st.integers(min_value=0, max_value=3))
def test_custom_backend_without_incremental_path_keeps_working(scenario, budget):
    """The protocol defaults (full refresh, None touched/region) stay exact."""
    graph, k, _ = scenario
    fallback = GreedyAnchoredKCore(
        graph, k, budget, backend=_FallbackBackend(), incremental=True
    ).select()
    reference = GreedyAnchoredKCore(
        graph, k, budget, backend="dict", incremental=False
    ).select()
    assert fallback.anchors == reference.anchors
    assert fallback.followers == reference.followers
    assert fallback.stats.candidates_evaluated == reference.stats.candidates_evaluated
    assert fallback.stats.visited_vertices == reference.stats.visited_vertices
    # Nothing is cacheable without a region, so nothing may be served stale.
    assert fallback.stats.cache_hits == 0


@SETTINGS
@given(scenario=commit_scenarios())
def test_fallback_commit_returns_none_and_full_state(scenario):
    graph, k, anchors = scenario
    index = AnchoredCoreIndex(graph, k, backend=_FallbackBackend())
    committed = []
    for anchor in anchors:
        touched = index.commit_anchor(anchor)
        committed.append(anchor)
        assert touched is None
        full = AnchoredCoreIndex(graph, k, anchors=committed, backend="dict")
        assert dict(index.core_numbers()) == dict(full.core_numbers())
        assert index.candidate_anchors() == full.candidate_anchors()
