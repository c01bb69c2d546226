"""Unit tests for Algorithm 2, the one-k-swap pass."""

from __future__ import annotations

import json
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_mis
from repro.core.one_k_swap import one_k_swap
from repro.errors import SolverError
from repro.graphs.cascade import cascade_initial_independent_set, cascade_swap_graph
from repro.graphs.generators import (
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi_gnm,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.validation.checks import is_independent_set, is_maximal_independent_set
from swap_sweep import (
    FAMILIES,
    ORDERS,
    SOURCES,
    KillAfterBatches,
    KilledScan,
    close_source,
    run_swap_pass,
    strip_history,
    sweep_graph,
    sweep_order,
    sweep_source,
)


def figure2_graph() -> Graph:
    """The swap-conflict example of Figure 2.

    Vertices 0 (v1) and 3 (v4) are in the initial IS; v1 can be exchanged
    with {v2, v3} and v4 with {v5, v6}, but v3 and v5 are adjacent, so the
    two swaps conflict and only one may be performed.
    """

    # v1=0, v2=1, v3=2, v4=3, v5=4, v6=5
    return Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5), (2, 4)])


class TestOneKSwapBasics:
    def test_improves_a_seeded_star_swap(self):
        # Initial set {centre}; the swap replaces it by all leaves.
        graph = star_graph(5)
        result = one_k_swap(graph, initial={0})
        assert result.size == 5
        assert 0 not in result.independent_set

    def test_never_decreases_the_initial_size(self):
        for seed in range(5):
            graph = erdos_renyi_gnm(120, 360, seed=seed)
            start = greedy_mis(graph)
            result = one_k_swap(graph, initial=start)
            assert result.size >= start.size
            assert result.initial_size == start.size

    def test_output_is_maximal_independent(self):
        for seed in range(5):
            graph = erdos_renyi_gnm(150, 500, seed=seed)
            result = one_k_swap(graph)
            assert is_independent_set(graph, result.independent_set)
            assert is_maximal_independent_set(graph, result.independent_set)

    def test_empty_and_trivial_graphs(self):
        assert one_k_swap(empty_graph(4)).size == 4
        assert one_k_swap(complete_graph(5)).size == 1
        assert one_k_swap(path_graph(2)).size == 1

    def test_default_initial_is_greedy(self):
        graph = erdos_renyi_gnm(100, 300, seed=3)
        explicit = one_k_swap(graph, initial=greedy_mis(graph))
        implicit = one_k_swap(graph)
        assert implicit.size == explicit.size

    def test_invalid_initial_vertex_rejected(self):
        with pytest.raises(SolverError):
            one_k_swap(path_graph(3), initial={7})

    def test_known_optimum_graphs_never_exceed_optimum(self, known_optimum_graph):
        graph, optimum = known_optimum_graph
        result = one_k_swap(graph)
        assert result.size <= optimum
        assert is_maximal_independent_set(graph, result.independent_set)


class TestSwapConflictResolution:
    def test_figure2_conflict_allows_exactly_one_swap(self):
        graph = figure2_graph()
        result = one_k_swap(graph, initial={0, 3}, order="id")
        # One of the two conflicting 1-2 swaps is performed; the final set
        # has 3 vertices (the paper's Example 1 ends with {v2, v3, v4}).
        assert result.size == 3
        assert is_independent_set(graph, result.independent_set)

    def test_figure2_without_conflict_edge_allows_both_swaps(self):
        # Removing the conflicting edge (v3, v5) lets both swaps happen.
        graph = Graph(6, [(0, 1), (0, 2), (3, 4), (3, 5)])
        result = one_k_swap(graph, initial={0, 3}, order="id")
        assert result.size == 4


class TestCascadeBehaviour:
    def test_cascade_graph_requires_one_round_per_triple(self):
        num_triples = 4
        graph = cascade_swap_graph(num_triples)
        initial = cascade_initial_independent_set(num_triples)
        result = one_k_swap(graph, initial=initial, order="id")
        assert result.size == 2 * num_triples
        # One 1-2 swap cascades per round (plus a final no-op round).
        assert result.num_rounds >= num_triples

    def test_max_rounds_early_stop(self):
        num_triples = 5
        graph = cascade_swap_graph(num_triples)
        initial = cascade_initial_independent_set(num_triples)
        limited = one_k_swap(graph, initial=initial, order="id", max_rounds=1)
        full = one_k_swap(graph, initial=initial, order="id")
        assert limited.num_rounds == 1
        assert limited.size < full.size
        assert is_independent_set(graph, limited.independent_set)


class TestOneKSwapTelemetry:
    def test_round_stats_are_consistent(self):
        graph = erdos_renyi_gnm(200, 700, seed=9)
        result = one_k_swap(graph)
        assert result.num_rounds >= 1
        total_gain = sum(r.gained for r in result.rounds)
        assert total_gain == result.size - result.initial_size
        assert result.rounds[-1].is_size_after == result.size

    def test_round_indices_are_sequential(self):
        graph = erdos_renyi_gnm(200, 700, seed=10)
        result = one_k_swap(graph)
        assert [r.round_index for r in result.rounds] == list(range(1, result.num_rounds + 1))

    def test_no_random_lookups_needed(self):
        graph = erdos_renyi_gnm(200, 700, seed=11)
        result = one_k_swap(graph)
        assert result.io.random_vertex_lookups == 0

    def test_memory_model_is_two_words_per_vertex(self):
        graph = erdos_renyi_gnm(100, 200, seed=12)
        result = one_k_swap(graph)
        assert result.memory_bytes == graph.num_vertices * 5

    def test_runs_from_file_reader(self):
        graph = erdos_renyi_gnm(150, 500, seed=13)
        reader = AdjacencyFileReader(write_adjacency_file(graph))
        result = one_k_swap(reader)
        assert is_maximal_independent_set(graph, result.independent_set)
        assert result.io.sequential_scans >= 3


# ----------------------------------------------------------------------
# Cross-backend parity fence
# ----------------------------------------------------------------------
def _run_one_k(graph, kind, order, tmp_dir, backend, initial=None, **options):
    return run_swap_pass(one_k_swap, graph, kind, order, tmp_dir, backend, initial, **options)


class TestOneKBackendParity:
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(min_value=0, max_value=10_000),
        order_kind=st.sampled_from(ORDERS),
        source_kind=st.sampled_from(SOURCES),
        max_rounds=st.sampled_from([1, 4, None]),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    # The oscillation guard stops an unbounded run on a repeated state.
    @example(family="gnm", seed=85, order_kind="degree", source_kind="text", max_rounds=None)
    @example(
        family="star_clique", seed=437, order_kind="degree", source_kind="memmap",
        max_rounds=None,
    )
    def test_numpy_matches_python_reference(
        self, family, seed, order_kind, source_kind, max_rounds
    ):
        pytest.importorskip("numpy")
        graph = sweep_graph(family, seed)
        order = sweep_order(graph, order_kind, seed)
        with tempfile.TemporaryDirectory() as tmp_dir:
            expected, expected_snaps = _run_one_k(
                graph, source_kind, order, tmp_dir, "python", max_rounds=max_rounds
            )
            actual, actual_snaps = _run_one_k(
                graph, source_kind, order, tmp_dir, "numpy", max_rounds=max_rounds
            )
        assert actual.independent_set == expected.independent_set
        assert actual.rounds == expected.rounds
        assert actual.io == expected.io
        assert actual.extras == expected.extras
        assert [s["oscillation"] for s in actual_snaps] == [
            s["oscillation"] for s in expected_snaps
        ]
        # Unbounded runs keep a fingerprint history in each backend's own
        # encoding; everything else in the snapshots must agree exactly.
        if max_rounds is None:
            assert strip_history(actual_snaps) == strip_history(expected_snaps)
        else:
            assert actual_snaps == expected_snaps
        assert is_maximal_independent_set(graph, actual.independent_set)

    def test_oscillation_example_stops_on_the_guard(self):
        graph = sweep_graph("gnm", 85)
        result, snapshots = _run_one_k(graph, "memory", "degree", "", "numpy", max_rounds=None)
        assert result.extras == {"oscillation_guard": 1.0}
        assert snapshots[-1]["oscillation"]


    def test_post_swap_insertion_unblocks_a_later_seed(self):
        # Post-swap scan in id order from a crafted round boundary: 0 is
        # inserted, which lifts 1 from its base label A (one IS
        # neighbour) to N (two), which unblocks the insertion of 2.
        graph = Graph(4, [(0, 1), (1, 2), (1, 3)])
        snapshot = {
            "pass": "one_k_swap",
            "initial_size": 1,
            "state": [2, 2, 2, 1],
            "isn": [-1] * 4,
            "rounds": [],
            "current_size": 1,
            "can_swap": True,
            "oscillation": False,
            "history": None,
        }
        runs = {}
        for backend in ("python", "numpy"):
            snaps = []
            result = one_k_swap(
                graph, order="id", backend=backend, resume_state=dict(snapshot),
                on_round=snaps.append, max_rounds=1,
            )
            runs[backend] = (result.independent_set, result.rounds, snaps)
        assert runs["numpy"] == runs["python"]
        assert runs["python"][2][0]["state"] == [1, 2, 1, 1]


class TestOneKKillResume:
    @pytest.mark.parametrize("source_kind", ["memory", "text"])
    def test_mid_scan_kill_then_resume_matches_uninterrupted(self, tmp_path, source_kind):
        pytest.importorskip("numpy")
        # The adversarial cascade start performs one 1-2 swap per round;
        # 64-byte batches split every scan into several batches.
        graph = cascade_swap_graph(12)
        initial = cascade_initial_independent_set(12)

        def run(budget, resume_state=None):
            """The pass over a source dying after ``budget`` batches (-1: never)."""

            snapshots = []
            source = sweep_source(graph, source_kind, "degree", str(tmp_path))
            proxy = KillAfterBatches(source, budget, batch_bytes=64)
            try:
                result = one_k_swap(
                    proxy, initial=initial, backend="numpy", max_rounds=None,
                    on_round=snapshots.append, resume_state=resume_state,
                )
            except KilledScan:
                result = None
            finally:
                close_source(source)
            return result, snapshots, proxy.scan_sizes

        reference, snapshots, scan_sizes = run(-1)
        assert sum(r.one_k_swaps for r in reference.rounds) >= 3
        # The labelling, each round's pre- and post-swap scans and the
        # completion, each split into several batches.
        assert len(scan_sizes) == 2 * len(snapshots) + 2
        assert min(scan_sizes) >= 3
        # One kill point inside every scan, at its middle batch.
        kill_points = [
            sum(scan_sizes[:i]) + size // 2 for i, size in enumerate(scan_sizes)
        ]
        killed_runs = 0
        for kill_at in kill_points:
            killed, killed_snaps, _ = run(kill_at)
            assert killed is None
            assert killed_snaps == snapshots[: len(killed_snaps)]
            if not killed_snaps:
                continue
            # Resume from the last durable snapshot (JSON round trip).
            resumed, resumed_snaps, _ = run(-1, json.loads(json.dumps(killed_snaps[-1])))
            killed_runs += 1
            assert resumed.independent_set == reference.independent_set
            assert resumed.rounds == reference.rounds
            assert resumed.extras == reference.extras
            assert killed_snaps + resumed_snaps == snapshots
        # Every scan after the first round's post-swap scan has a snapshot.
        assert killed_runs == 2 * len(snapshots) - 1
