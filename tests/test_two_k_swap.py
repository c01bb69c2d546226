"""Unit tests for Algorithms 3 & 4, the two-k-swap pass."""

from __future__ import annotations

import json
import random
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.greedy import greedy_mis
from repro.core.one_k_swap import one_k_swap
from repro.core.two_k_swap import two_k_swap
from repro.errors import SolverError
from repro.graphs.cascade import cascade_initial_independent_set, cascade_swap_graph
from repro.graphs.generators import (
    complete_bipartite_graph,
    complete_graph,
    cycle_graph,
    empty_graph,
    erdos_renyi_gnm,
    path_graph,
    star_graph,
)
from repro.graphs.graph import Graph
from repro.graphs.plrg import plrg_graph_with_vertex_count
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
    star_clique_graph,
    strip_history,
    sweep_graph,
    sweep_order,
    sweep_source,
)


def figure7_graph() -> Graph:
    """The 2-k-swap example of Figure 7.

    Vertices 1 and 2 (v2 and v3 in the paper) form the IS pair that can be
    exchanged against four vertices {v4, v5, v6, v8}; vertex 6 (v7)
    conflicts and stays out; vertex 0 (v1) is an independent pendant.
    """

    # v1=0, v2=1, v3=2, v4=3, v5=4, v6=5, v7=6, v8=7
    # v4, v5, v6, v8 are each adjacent to both v2 and v3; v7 is adjacent to
    # v5 and v6; v1 is adjacent to v2 (degree 1).
    return Graph(
        8,
        [
            (0, 1),
            (3, 1), (3, 2),
            (4, 1), (4, 2),
            (5, 1), (5, 2),
            (7, 1), (7, 2),
            (6, 4), (6, 5),
        ],
    )


class TestTwoKSwapBasics:
    def test_two_two_swap_on_bipartite_pair(self):
        # IS = the 2-side of K_{2,3}: a 2-3 swap replaces it by the 3-side.
        graph = complete_bipartite_graph(2, 3)
        result = two_k_swap(graph, initial={0, 1})
        assert result.size == 3
        assert result.independent_set == frozenset({2, 3, 4})

    def test_figure7_example_reaches_size_five(self):
        graph = figure7_graph()
        result = two_k_swap(graph, initial={0, 1, 2}, order="id")
        # Paper's Example 3: the larger IS is {v1, v4, v5, v6, v8}.
        assert result.size == 5
        assert result.independent_set == frozenset({0, 3, 4, 5, 7})

    def test_never_decreases_the_initial_size(self):
        for seed in range(5):
            graph = erdos_renyi_gnm(120, 360, seed=seed)
            start = greedy_mis(graph)
            result = two_k_swap(graph, initial=start)
            assert result.size >= start.size

    def test_output_is_maximal_independent(self):
        for seed in range(5):
            graph = erdos_renyi_gnm(150, 500, seed=seed)
            result = two_k_swap(graph)
            assert is_independent_set(graph, result.independent_set)
            assert is_maximal_independent_set(graph, result.independent_set)

    def test_at_least_as_large_as_one_k_swap_on_power_law_graphs(self):
        for seed in range(3):
            graph = plrg_graph_with_vertex_count(1_200, 2.0, seed=seed)
            one_k = one_k_swap(graph)
            two_k = two_k_swap(graph)
            assert two_k.size >= one_k.size

    def test_trivial_graphs(self):
        assert two_k_swap(empty_graph(3)).size == 3
        assert two_k_swap(complete_graph(4)).size == 1
        assert two_k_swap(star_graph(6)).size == 6
        assert two_k_swap(path_graph(9)).size == 5
        assert two_k_swap(cycle_graph(8)).size == 4

    def test_invalid_initial_vertex_rejected(self):
        with pytest.raises(SolverError):
            two_k_swap(path_graph(3), initial={9})

    def test_known_optimum_graphs_never_exceed_optimum(self, known_optimum_graph):
        graph, optimum = known_optimum_graph
        result = two_k_swap(graph)
        assert result.size <= optimum
        assert is_maximal_independent_set(graph, result.independent_set)


class TestTwoKSwapTelemetry:
    def test_round_stats_are_consistent(self):
        graph = erdos_renyi_gnm(200, 700, seed=21)
        result = two_k_swap(graph)
        assert result.num_rounds >= 1
        assert sum(r.gained for r in result.rounds) == result.size - result.initial_size
        assert result.rounds[-1].is_size_after == result.size

    def test_sc_telemetry_reported(self):
        graph = figure7_graph()
        result = two_k_swap(graph, initial={0, 1, 2}, order="id")
        assert result.extras["max_sc_vertices"] >= 2
        assert result.rounds[0].two_k_swaps >= 1

    def test_sc_size_stays_below_vertex_count(self):
        graph = plrg_graph_with_vertex_count(1_500, 2.0, seed=4)
        result = two_k_swap(graph)
        assert result.extras["max_sc_vertices"] <= graph.num_vertices

    def test_memory_model_includes_sc(self):
        graph = erdos_renyi_gnm(100, 250, seed=22)
        result = two_k_swap(graph)
        expected = 100 * (1 + 8) + int(result.extras["max_sc_vertices"]) * 4
        assert result.memory_bytes == expected

    def test_max_rounds_limits_rounds(self):
        graph = erdos_renyi_gnm(300, 1_200, seed=23)
        limited = two_k_swap(graph, max_rounds=1)
        assert limited.num_rounds <= 1
        assert is_independent_set(graph, limited.independent_set)

    def test_runs_from_file_reader(self):
        graph = erdos_renyi_gnm(150, 500, seed=24)
        reader = AdjacencyFileReader(write_adjacency_file(graph))
        result = two_k_swap(reader)
        assert is_maximal_independent_set(graph, result.independent_set)
        assert result.io.sequential_scans >= 3

    def test_random_lookups_only_for_skeleton_verification(self):
        # The safety re-verification may need a handful of random lookups,
        # but never anywhere near one per vertex.
        graph = plrg_graph_with_vertex_count(1_500, 2.0, seed=5)
        result = two_k_swap(graph)
        assert result.io.random_vertex_lookups <= graph.num_vertices // 10


# ----------------------------------------------------------------------
# Cross-backend parity fence
# ----------------------------------------------------------------------
def _run_two_k(graph, kind, order, tmp_dir, backend, initial=None, **options):
    return run_swap_pass(two_k_swap, graph, kind, order, tmp_dir, backend, initial, **options)


class TestTwoKBackendParity:
    @given(
        family=st.sampled_from(FAMILIES),
        seed=st.integers(min_value=0, max_value=10_000),
        order_kind=st.sampled_from(ORDERS),
        source_kind=st.sampled_from(SOURCES),
        max_pairs_per_key=st.sampled_from([1, 2, 8]),
        max_partner_checks=st.sampled_from([1, 2, 64]),
    )
    @settings(max_examples=120, deadline=None, derandomize=True)
    # A 2-3 promotion whose partner lies outside the scanned batch.
    @example(
        family="gnm", seed=5039, order_kind="random", source_kind="text",
        max_pairs_per_key=1, max_partner_checks=64,
    )
    def test_numpy_matches_python_reference(
        self, family, seed, order_kind, source_kind, max_pairs_per_key, max_partner_checks
    ):
        pytest.importorskip("numpy")
        graph = sweep_graph(family, seed)
        order = sweep_order(graph, order_kind, seed)
        options = dict(
            max_rounds=4,
            max_pairs_per_key=max_pairs_per_key,
            max_partner_checks=max_partner_checks,
        )
        with tempfile.TemporaryDirectory() as tmp_dir:
            expected, expected_snaps = _run_two_k(
                graph, source_kind, order, tmp_dir, "python", **options
            )
            actual, actual_snaps = _run_two_k(
                graph, source_kind, order, tmp_dir, "numpy", **options
            )
        assert actual.independent_set == expected.independent_set
        assert actual.rounds == expected.rounds
        assert actual.io == expected.io
        assert actual.extras == expected.extras
        assert actual_snaps == expected_snaps
        assert is_maximal_independent_set(graph, actual.independent_set)

    def test_unbounded_rounds_match_apart_from_fingerprint_encoding(self):
        # max_rounds=None arms the oscillation guard, whose fingerprints
        # hash each backend's own encoding; everything else must agree.
        for seed in range(4):
            graph = star_clique_graph(seed)
            runs = {
                backend: _run_two_k(graph, "memory", "degree", "", backend, max_rounds=None)
                for backend in ("python", "numpy")
            }
            expected, expected_snaps = runs["python"]
            actual, actual_snaps = runs["numpy"]
            assert actual.independent_set == expected.independent_set
            assert actual.rounds == expected.rounds
            assert actual.io == expected.io
            assert actual.extras == expected.extras
            assert strip_history(actual_snaps) == strip_history(expected_snaps)

    def test_post_swap_insertion_reaches_a_later_seed(self):
        # Post-swap scan in id order from a crafted round boundary: 0 is
        # inserted, which lifts 1 to three IS neighbours (N, not its base
        # label A), which unblocks the insertion of 2: a seed whose
        # blocker drops by one after the batch-start count.
        graph = Graph(5, [(0, 1), (1, 2), (1, 3), (1, 4)])
        snapshot = {
            "pass": "two_k_swap",
            "initial_size": 2,
            "state": [2, 2, 2, 1, 1],
            "isn1": [-1] * 5,
            "isn2": [-1] * 5,
            "rounds": [],
            "current_size": 2,
            "can_swap": True,
            "max_sc_vertices": 0,
            "oscillation": False,
            "history": None,
        }
        runs = {}
        for backend in ("python", "numpy"):
            snaps = []
            result = two_k_swap(
                graph, order="id", backend=backend, resume_state=dict(snapshot),
                on_round=snaps.append, max_rounds=1,
            )
            runs[backend] = (result.independent_set, result.rounds, snaps)
        assert runs["numpy"] == runs["python"]
        assert runs["python"][2][0]["state"] == [1, 2, 1, 1, 1]


class TestTwoKKillResume:
    @pytest.mark.parametrize("source_kind", ["memory", "text"])
    def test_mid_round_kill_then_resume_matches_uninterrupted(self, tmp_path, source_kind):
        pytest.importorskip("numpy")
        # The adversarial cascade start needs one 2-3 swap per round.
        graph = cascade_swap_graph(8)
        initial = cascade_initial_independent_set(8)
        options = dict(max_rounds=None)
        reference, snapshots = _run_two_k(
            graph, source_kind, "degree", str(tmp_path), "numpy", initial, **options
        )
        assert sum(r.two_k_swaps for r in reference.rounds) >= 3
        probe = sweep_source(graph, source_kind, "degree", str(tmp_path))
        batches_per_scan = sum(1 for _ in probe.scan_batches())
        close_source(probe)
        # One kill point inside every scan of the pass (the labelling and
        # each round's pre- and post-swap scans), at its middle batch.
        killed_runs = 0
        first = batches_per_scan // 2
        for kill_at in range(first, batches_per_scan * 20, batches_per_scan):
            killed_snaps = []
            source = sweep_source(graph, source_kind, "degree", str(tmp_path))
            try:
                two_k_swap(
                    KillAfterBatches(source, kill_at), initial=initial,
                    backend="numpy", on_round=killed_snaps.append, **options
                )
                continue  # the pass finished before the kill point
            except KilledScan:
                pass
            finally:
                close_source(source)
            assert killed_snaps == snapshots[: len(killed_snaps)]
            if not killed_snaps:
                continue
            # Resume from the last durable snapshot (JSON round trip).
            resumed, resumed_snaps = _run_two_k(
                graph, source_kind, "degree", str(tmp_path), "numpy",
                resume_state=json.loads(json.dumps(killed_snaps[-1])), **options
            )
            killed_runs += 1
            assert resumed.independent_set == reference.independent_set
            assert resumed.rounds == reference.rounds
            assert resumed.extras == reference.extras
            assert killed_snaps + resumed_snaps == snapshots
        assert killed_runs >= 2 * (len(snapshots) - 1)
