"""Unit tests for the execution-backend protocol, registry and auto policy."""

from __future__ import annotations

import pytest

from repro.anchored.greedy import GreedyAnchoredKCore
from repro.backends import (
    BACKEND_COMPACT,
    BACKEND_DICT,
    BACKEND_NUMBA,
    BACKEND_NUMPY,
    COMPACT_THRESHOLD,
    WORKLOAD_AMORTIZED,
    WORKLOAD_ONE_SHOT,
    available_backends,
    backend_availability,
    backend_info,
    get_backend,
    numba_available,
    numpy_available,
    register_backend,
    registered_backends,
    resolve_backend,
)
from repro.backends import registry as backend_registry
from repro.backends.dict_backend import DictBackend
from repro.cores.maintenance import CoreMaintainer
from repro.engine import StreamingAVTEngine
from repro.errors import ParameterError
from repro.graph.dynamic import EdgeDelta
from repro.graph.static import Graph

needs_numpy = pytest.mark.skipif(not numpy_available(), reason="numpy is not installed")


def _expected_auto_winner() -> str:
    """What the fixed ladder should pick on a large amortised workload."""
    if numba_available():
        return BACKEND_NUMBA
    if numpy_available():
        return BACKEND_NUMPY
    return BACKEND_COMPACT


@pytest.fixture
def scratch_registry():
    """Let a test register throwaway backends without leaking them."""
    before = dict(backend_registry._REGISTRY)
    instances = dict(backend_registry._INSTANCES)
    yield
    backend_registry._REGISTRY.clear()
    backend_registry._REGISTRY.update(before)
    backend_registry._INSTANCES.clear()
    backend_registry._INSTANCES.update(instances)


class TestRegistry:
    def test_builtins_are_registered(self):
        names = registered_backends()
        assert BACKEND_DICT in names and BACKEND_COMPACT in names and BACKEND_NUMPY in names
        assert BACKEND_NUMBA in names

    def test_available_backends_reflects_numpy_gate(self):
        names = available_backends()
        assert BACKEND_DICT in names and BACKEND_COMPACT in names
        assert (BACKEND_NUMPY in names) == numpy_available()
        assert (BACKEND_NUMBA in names) == numba_available()

    def test_backend_info_rows(self):
        rows = {row["name"]: row for row in backend_info()}
        assert set(rows) == set(registered_backends())
        assert rows[BACKEND_DICT] == {"name": BACKEND_DICT, "available": True, "reason": None}
        assert rows[BACKEND_NUMPY]["available"] == numpy_available()

    def test_get_backend_passes_instances_through(self):
        instance = get_backend("dict")
        assert get_backend(instance, 10**9) is instance

    def test_get_backend_caches_instances(self):
        assert get_backend("compact") is get_backend("compact", 5)

    def test_unknown_backend_raises(self):
        with pytest.raises(ParameterError):
            get_backend("warp")
        with pytest.raises(ParameterError):
            resolve_backend("warp", 0)

    def test_duplicate_registration_raises_unless_replaced(self, scratch_registry):
        register_backend("scratch", DictBackend)
        with pytest.raises(ParameterError):
            register_backend("scratch", DictBackend)
        register_backend("scratch", DictBackend, replace=True)

    def test_auto_name_is_reserved(self):
        with pytest.raises(ParameterError):
            register_backend("auto", DictBackend)

    def test_unavailable_backend_rejected_by_name_and_skipped_by_auto(
        self, scratch_registry
    ):
        register_backend("vapour", DictBackend, is_available=lambda: False)
        assert "vapour" not in available_backends()
        with pytest.raises(ParameterError):
            get_backend("vapour")
        assert resolve_backend("auto", COMPACT_THRESHOLD) != "vapour"

    def test_auto_never_picks_a_custom_backend(self, scratch_registry):
        register_backend("custom", DictBackend)
        assert resolve_backend("auto", COMPACT_THRESHOLD) == _expected_auto_winner()

    def test_availability_is_probed_even_for_cached_instances(self, scratch_registry):
        available = True
        register_backend("flaky", DictBackend, is_available=lambda: available)
        assert get_backend("flaky") is get_backend("flaky")  # instance cached
        available = False
        with pytest.raises(ParameterError):
            get_backend("flaky")

    def test_custom_backend_usable_end_to_end(self, scratch_registry):
        class TracingBackend(DictBackend):
            name = "tracing"
            index_builds = 0

            def build_core_index(self, graph):
                TracingBackend.index_builds += 1
                return super().build_core_index(graph)

        register_backend("tracing", TracingBackend)
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
        result = GreedyAnchoredKCore(graph, 2, 1, backend="tracing").select()
        assert TracingBackend.index_builds == 1
        reference = GreedyAnchoredKCore(graph, 2, 1, backend="dict").select()
        assert result.anchors == reference.anchors


class TestAutoPolicy:
    def test_small_graphs_resolve_to_dict(self):
        assert resolve_backend("auto", COMPACT_THRESHOLD - 1) == BACKEND_DICT

    def test_large_amortised_workloads_pick_highest_priority(self):
        expected = _expected_auto_winner()
        assert resolve_backend("auto", COMPACT_THRESHOLD) == expected
        assert (
            resolve_backend("auto", COMPACT_THRESHOLD, workload=WORKLOAD_AMORTIZED)
            == expected
        )

    def test_one_shot_cascades_stay_on_dict_at_any_size(self):
        assert resolve_backend("auto", 10**9, workload=WORKLOAD_ONE_SHOT) == BACKEND_DICT

    def test_explicit_names_bypass_the_policy(self):
        assert resolve_backend("dict", 10**9) == BACKEND_DICT
        assert resolve_backend("compact", 1, workload=WORKLOAD_ONE_SHOT) == BACKEND_COMPACT

    def test_unknown_workload_raises(self):
        with pytest.raises(ParameterError):
            resolve_backend("auto", 10, workload="batch")

    def test_korder_with_supplied_decomposition_stays_on_dict_under_auto(
        self, monkeypatch
    ):
        """A lone deg+ pass is one-shot work: auto must not build a snapshot."""
        from repro.cores.decomposition import core_decomposition
        from repro.cores.korder import KOrder
        from repro.graph.compact import CompactGraph

        graph = Graph(edges=[(i, i + 1) for i in range(COMPACT_THRESHOLD + 10)])
        decomposition = core_decomposition(graph, backend="dict")

        def boom(*args, **kwargs):
            raise AssertionError("snapshot built for a one-shot deg+ pass")

        monkeypatch.setattr(CompactGraph, "from_graph", classmethod(boom))
        korder = KOrder(graph, decomposition=decomposition, backend="auto")
        assert korder.remaining_degree(0) == 1


class TestEngineReResolution:
    """The ROADMAP footgun: an engine started empty must not stay on dict."""

    @staticmethod
    def _growth_delta(num_vertices: int) -> EdgeDelta:
        return EdgeDelta.from_iterables(
            inserted=[(i, i + 1) for i in range(num_vertices - 1)], removed=[]
        )

    def test_empty_auto_engine_upgrades_after_crossing_threshold(self):
        engine = StreamingAVTEngine(backend="auto", batch_size=None)
        assert engine.backend == BACKEND_DICT
        engine.ingest(self._growth_delta(COMPACT_THRESHOLD + 64))
        engine.flush()
        assert engine.backend == _expected_auto_winner()
        # The maintainer migrated (state intact, traversals keep working).
        engine._maintainer.validate()
        engine.ingest_insert(0, 2)
        engine.flush()
        answer = engine.query(k=1, budget=0, warm=False)
        assert answer.anchored_core_size == COMPACT_THRESHOLD + 64

    def test_explicit_dict_engine_never_upgrades(self):
        engine = StreamingAVTEngine(backend="dict", batch_size=None)
        engine.ingest(self._growth_delta(COMPACT_THRESHOLD + 64))
        engine.flush()
        assert engine.backend == BACKEND_DICT

    def test_small_auto_engine_stays_on_dict(self):
        engine = StreamingAVTEngine(backend="auto", batch_size=None)
        engine.ingest(self._growth_delta(16))
        engine.flush()
        assert engine.backend == BACKEND_DICT

    def test_checkpoint_with_unregistered_backend_instance_fails_fast(self, tmp_path):
        from repro.errors import CheckpointError

        class OrphanBackend(DictBackend):
            name = "orphan"

        engine = StreamingAVTEngine(backend=OrphanBackend(), batch_size=None)
        engine.ingest_insert(0, 1)
        with pytest.raises(CheckpointError):
            engine.checkpoint(tmp_path / "orphan.ckpt")

    def test_checkpoint_with_registered_backend_instance_round_trips(
        self, tmp_path, scratch_registry
    ):
        class AdoptedBackend(DictBackend):
            name = "adopted"

        register_backend("adopted", AdoptedBackend)
        engine = StreamingAVTEngine(backend=AdoptedBackend(), batch_size=None)
        engine.ingest_insert(0, 1)
        engine.flush()
        path = tmp_path / "adopted.ckpt"
        engine.checkpoint(path)
        restored = StreamingAVTEngine.restore(path)
        assert restored.backend == "adopted"
        assert restored.core_numbers() == engine.core_numbers()

    def test_restored_engine_re_resolves_from_checkpoint(self, tmp_path):
        engine = StreamingAVTEngine(backend="auto", batch_size=None)
        engine.ingest(self._growth_delta(COMPACT_THRESHOLD + 64))
        engine.flush()
        path = tmp_path / "grown.ckpt"
        engine.checkpoint(path)
        restored = StreamingAVTEngine.restore(path)
        # The checkpoint stores the *policy* ("auto"); the restored engine
        # resolves it against the restored (large) graph immediately.
        assert restored.backend == engine.backend


class TestMaintainerSwitch:
    def test_switch_to_same_backend_is_noop(self):
        maintainer = CoreMaintainer(Graph(edges=[(0, 1)]), backend="dict")
        assert not maintainer.switch_backend("dict")
        assert maintainer.backend == BACKEND_DICT

    def test_switch_migrates_without_recomputation(self):
        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)])
        maintainer = CoreMaintainer(graph, backend="dict")
        # Corrupt one maintained value: a migration must carry it over
        # verbatim (proving no decomposition re-ran), not silently heal it.
        maintainer._kernel._core[3] = 7
        assert maintainer.switch_backend("compact")
        assert maintainer.core(3) == 7


@needs_numpy
class TestNumpyKernels:
    def test_numpy_graph_shares_interner_contract(self):
        from repro.backends.numpy_backend import NumpyGraph
        from repro.graph.compact import CompactGraph

        graph = Graph(edges=[(1, 2), (2, 3)], vertices=[1, 2, 3, 99])
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        ngraph = NumpyGraph(cgraph)
        assert ngraph.interner is cgraph.interner
        assert ngraph.indptr.tolist() == cgraph.indptr
        assert ngraph.indices.tolist() == cgraph.indices
        assert ngraph.num_vertices == 4 and ngraph.num_edges == 2
        assert ngraph.row.shape[0] == 2 * graph.num_edges

    def test_numpy_peel_matches_compact_peel(self):
        from repro.backends.numpy_backend import NumpyGraph, numpy_peel
        from repro.cores.decomposition import compact_peel
        from repro.graph.compact import CompactGraph

        graph = Graph(
            edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3), (5, 6)],
            vertices=list(range(7)) + ["lonely"],
        )
        cgraph = CompactGraph.from_graph(graph, ordered=True)
        core_c, order_c = compact_peel(cgraph, anchor_ids=[0])
        core_n, order_n = numpy_peel(NumpyGraph(cgraph), anchor_ids=[0])
        assert core_n.tolist() == core_c
        assert order_n == order_c

    def test_numpy_peel_empty_graph(self):
        from repro.backends.numpy_backend import NumpyGraph, numpy_peel

        core, order = numpy_peel(NumpyGraph.from_graph(Graph()))
        assert core.tolist() == [] and order == []

    def test_numpy_k_core_matches_compact(self):
        from repro.backends.numpy_backend import NumpyGraph, numpy_k_core_ids
        from repro.cores.decomposition import compact_k_core_ids
        from repro.graph.compact import CompactGraph

        graph = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3)], vertices=[0, 1, 2, 3, 9])
        cgraph = CompactGraph.from_graph(graph, ordered=False)
        ngraph = NumpyGraph(cgraph)
        for k in range(4):
            assert set(numpy_k_core_ids(ngraph, k).tolist()) == compact_k_core_ids(
                cgraph, k
            )


class TestAvailabilityReasons:
    """The registry reports *why* a tier is skipped, not just that it is."""

    def test_available_backends_report_no_reason(self):
        report = backend_availability()
        assert report[BACKEND_DICT] is None
        assert report[BACKEND_COMPACT] is None

    def test_missing_import_reason(self, monkeypatch):
        # The env switch takes precedence, so clear it to probe the
        # import-gate reason itself (the suite may run under
        # REPRO_DISABLE_NUMBA=1 to exercise the fallback path).
        monkeypatch.delenv("REPRO_DISABLE_NUMBA", raising=False)
        report = backend_availability()
        if numba_available():
            assert report[BACKEND_NUMBA] is None
        else:
            assert report[BACKEND_NUMBA] == "numba is not installed"

    def test_env_disable_reasons(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        monkeypatch.setenv("REPRO_DISABLE_NUMPY", "1")
        report = backend_availability()
        assert report[BACKEND_NUMBA] == "disabled via REPRO_DISABLE_NUMBA"
        assert report[BACKEND_NUMPY] == "disabled via REPRO_DISABLE_NUMPY"

    def test_get_backend_error_names_the_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        with pytest.raises(ParameterError, match="disabled via REPRO_DISABLE_NUMBA"):
            get_backend(BACKEND_NUMBA)

    def test_disabled_numba_falls_back_without_warnings(self, monkeypatch, recwarn):
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        resolved = resolve_backend("auto", COMPACT_THRESHOLD)
        assert resolved == (BACKEND_NUMPY if numpy_available() else BACKEND_COMPACT)
        get_backend("auto", COMPACT_THRESHOLD)
        assert not recwarn.list

    def test_generic_reason_without_provider(self, scratch_registry):
        register_backend("vapourware", DictBackend, is_available=lambda: False)
        assert backend_availability()["vapourware"] == "a runtime dependency is missing"

    def test_backend_info_includes_reason_column(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_NUMBA", "1")
        rows = {row["name"]: row for row in backend_info()}
        assert rows[BACKEND_NUMBA]["reason"] == "disabled via REPRO_DISABLE_NUMBA"
        assert rows[BACKEND_DICT]["reason"] is None


@needs_numpy
class TestNumbaKernels:
    """Direct-instance checks of the compiled tier's kernels.

    :class:`~repro.backends.numba_backend.NumbaBackend` only *requires*
    numpy — without numba the same kernels run interpreted (the ``_jit``
    decorator degrades to identity), so these tests exercise the exact code
    the JIT compiles even on interpreters without numba, while the registry
    gate keeps ``backend="numba"`` unavailable there.
    """

    @pytest.fixture
    def backend(self):
        from repro.backends.numba_backend import NumbaBackend

        return NumbaBackend()

    @pytest.fixture
    def graph(self):
        from repro.graph.generators import chung_lu_graph

        return chung_lu_graph(160, 480, seed=11)

    def test_decompose_matches_compact_bit_identically(self, backend, graph):
        reference = get_backend("compact").decompose(graph, frozenset({3}))
        result = backend.decompose(graph, frozenset({3}))
        assert dict(result.core) == dict(reference.core)
        assert result.order == reference.order

    def test_k_core_matches_compact(self, backend, graph):
        for k in (1, 2, 3):
            assert backend.k_core(graph, k) == get_backend("compact").k_core(graph, k)

    def test_core_index_kernel_matches_compact(self, backend, graph):
        k = 3
        numba_kernel = backend.build_core_index(graph)
        compact_kernel = get_backend("compact").build_core_index(graph)
        for kernel in (numba_kernel, compact_kernel):
            kernel.refresh(set())
        assert numba_kernel.core_numbers() == compact_kernel.core_numbers()
        assert numba_kernel.removal_ranks() == compact_kernel.removal_ranks()
        assert numba_kernel.plain_k_core(k) == compact_kernel.plain_k_core(k)
        candidates = sorted(numba_kernel.candidate_anchors(k, True))[:6]
        assert candidates == sorted(compact_kernel.candidate_anchors(k, True))[:6]
        for candidate in candidates:
            for full_shell in (False, True):
                got = numba_kernel.marginal_followers(k, candidate, full_shell)
                want = compact_kernel.marginal_followers(k, candidate, full_shell)
                assert got == want, (candidate, full_shell)
        anchor = candidates[0]
        assert numba_kernel.commit_anchor(anchor, k) == compact_kernel.commit_anchor(
            anchor, k
        )
        assert numba_kernel.core_numbers() == compact_kernel.core_numbers()

    def test_maintenance_matches_dict_through_the_maintainer(self, backend, graph):
        # Through CoreMaintainer, the owner of the kernel contract: the dict
        # kernel reads the maintainer-mutated graph while compact/numba keep
        # their own arena adjacency, so the maintainer is the only fair rig.
        numba_maintainer = CoreMaintainer(graph, backend=backend)
        dict_maintainer = CoreMaintainer(graph, backend="dict")
        edges = list(graph.edges())[:12]
        for u, v in edges:
            assert numba_maintainer.remove_edge(u, v) == dict_maintainer.remove_edge(
                u, v
            ), (u, v)
            assert numba_maintainer.core_numbers() == dict_maintainer.core_numbers()
            assert numba_maintainer.insert_edge(u, v) == dict_maintainer.insert_edge(
                u, v
            )
            assert numba_maintainer.core_numbers() == dict_maintainer.core_numbers()
        numba_maintainer.validate()

    def test_warmup_records_span_and_gauge(self):
        from repro.backends.numba_backend import JIT_ENABLED, warmup_kernels
        from repro.obs import global_registry

        elapsed = warmup_kernels(force=True)
        assert elapsed >= 0.0
        snapshot = global_registry().snapshot()
        gauges = [
            metric
            for metric in snapshot
            if metric["name"] == "backend.numba.warmup_seconds"
        ]
        assert gauges, "warmup gauge missing from the global registry"
        assert gauges[0]["labels"] == {"backend": BACKEND_NUMBA}
        # Repeat calls are free once warm: no recompilation per construction.
        assert warmup_kernels() == 0.0
        assert isinstance(JIT_ENABLED, bool)
