"""Unit tests for the adjacency-file writer and sequential-scan reader."""

from __future__ import annotations

import pytest

from repro.errors import FormatError, StorageError
from repro.graphs.generators import erdos_renyi_gnm, path_graph, star_graph
from repro.graphs.graph import Graph
from repro.storage import format as fmt
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file


@pytest.fixture
def sample_graph() -> Graph:
    return erdos_renyi_gnm(50, 120, seed=9)


class TestWriter:
    def test_written_size_matches_formula(self, sample_graph):
        device = write_adjacency_file(sample_graph)
        assert device.size == fmt.file_size_bytes(
            sample_graph.num_vertices, sample_graph.num_edges
        )

    def test_write_to_disk_and_reopen(self, sample_graph, tmp_path):
        path = tmp_path / "graph.adj"
        device = write_adjacency_file(sample_graph, str(path))
        device.close()
        reader = AdjacencyFileReader(str(path))
        assert reader.num_vertices == sample_graph.num_vertices
        assert reader.num_edges == sample_graph.num_edges
        reader.close()

    def test_default_order_is_degree_ascending(self, sample_graph):
        device = write_adjacency_file(sample_graph)
        reader = AdjacencyFileReader(device)
        degrees = [len(neighbors) for _, neighbors in reader.scan()]
        assert degrees == sorted(degrees)

    def test_explicit_id_order(self, sample_graph):
        device = write_adjacency_file(sample_graph, order=range(sample_graph.num_vertices))
        reader = AdjacencyFileReader(device)
        assert reader.scan_order() == list(range(sample_graph.num_vertices))

    def test_invalid_order_rejected(self, sample_graph):
        with pytest.raises(StorageError):
            write_adjacency_file(sample_graph, order=[0, 0, 1])

    def test_neighbor_lists_sorted_by_neighbor_degree(self):
        # Star + pendant chain: the centre's first neighbour should be the
        # lowest-degree one when sort_neighbors_by_degree is enabled.
        graph = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])
        device = write_adjacency_file(graph, order=range(5))
        reader = AdjacencyFileReader(device)
        records = dict(reader.scan())
        first_neighbor = records[0][0]
        assert graph.degree(first_neighbor) == min(
            graph.degree(v) for v in graph.neighbors(0)
        )


class TestReader:
    def test_roundtrip_preserves_graph(self, sample_graph):
        device = write_adjacency_file(sample_graph)
        reader = AdjacencyFileReader(device)
        assert reader.to_graph() == sample_graph

    def test_scan_counts_one_sequential_scan(self, sample_graph):
        device = write_adjacency_file(sample_graph)
        reader = AdjacencyFileReader(device)
        for _ in reader.scan():
            pass
        assert reader.stats.sequential_scans == 1
        for _ in reader.scan():
            pass
        assert reader.stats.sequential_scans == 2

    def test_scan_yields_every_vertex_once(self, sample_graph):
        device = write_adjacency_file(sample_graph)
        reader = AdjacencyFileReader(device)
        vertices = [vertex for vertex, _ in reader.scan()]
        assert sorted(vertices) == list(range(sample_graph.num_vertices))

    def test_random_neighbor_lookup(self, sample_graph):
        device = write_adjacency_file(sample_graph)
        reader = AdjacencyFileReader(device)
        assert set(reader.neighbors(10)) == set(sample_graph.neighbors(10))
        assert reader.stats.random_vertex_lookups == 1
        assert reader.degree(10) == sample_graph.degree(10)

    def test_lookup_of_unknown_vertex_raises(self):
        graph = path_graph(4)
        device = write_adjacency_file(graph)
        reader = AdjacencyFileReader(device)
        with pytest.raises(StorageError):
            reader.neighbors(99)

    def test_context_manager_closes(self, sample_graph, tmp_path):
        path = tmp_path / "graph.adj"
        write_adjacency_file(sample_graph, str(path)).close()
        with AdjacencyFileReader(str(path)) as reader:
            assert reader.num_vertices == sample_graph.num_vertices

    def test_star_graph_records(self):
        graph = star_graph(4)
        device = write_adjacency_file(graph, order=range(5))
        reader = AdjacencyFileReader(device)
        records = dict(reader.scan())
        assert set(records[0]) == {1, 2, 3, 4}
        assert records[2] == (0,)


class TestNeighbourRange:
    """A neighbour id outside ``[0, n)`` is a typed format error, never an IndexError."""

    @staticmethod
    def _corrupt_file(tmp_path, neighbour: int) -> str:
        # Overwrite the first neighbour word of the first non-empty record.
        graph = erdos_renyi_gnm(40, 60, seed=3)
        path = str(tmp_path / "graph.adj")
        write_adjacency_file(graph, path).close()
        data = bytearray(open(path, "rb").read())
        offset = fmt.HEADER_SIZE
        while True:
            _, degree = fmt.unpack_record_header(
                bytes(data[offset : offset + fmt.RECORD_HEADER_SIZE])
            )
            if degree:
                break
            offset += fmt.RECORD_HEADER_SIZE + fmt.VERTEX_ID_BYTES * degree
        first = offset + fmt.RECORD_HEADER_SIZE
        data[first : first + fmt.VERTEX_ID_BYTES] = neighbour.to_bytes(
            fmt.VERTEX_ID_BYTES, "little"
        )
        with open(path, "wb") as handle:
            handle.write(data)
        return path

    @pytest.mark.parametrize("neighbour", [40, 1000])
    @pytest.mark.parametrize("backend", ["numpy", "python"])
    @pytest.mark.parametrize("pipeline", ["greedy", "one_k_swap", "two_k_swap"])
    def test_solve_raises_format_error(self, tmp_path, neighbour, backend, pipeline):
        if backend == "numpy":
            pytest.importorskip("numpy")
        from repro.core.greedy import greedy_mis
        from repro.core.one_k_swap import one_k_swap
        from repro.core.two_k_swap import two_k_swap

        solve = {"greedy": greedy_mis, "one_k_swap": one_k_swap, "two_k_swap": two_k_swap}
        path = self._corrupt_file(tmp_path, neighbour)
        with AdjacencyFileReader(path) as reader:
            with pytest.raises(FormatError, match=f"record .* neighbour {neighbour} outside"):
                solve[pipeline](reader, backend=backend)

