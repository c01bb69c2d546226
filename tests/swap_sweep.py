"""Inputs shared by the one-k and two-k cross-backend parity fences.

Graph families, scan orders and scan sources for the derandomized
hypothesis sweeps, plus a source proxy that kills a pass mid-scan for the
kill/resume drills.
"""

from __future__ import annotations

import os
import random

from repro.core.greedy import greedy_mis
from repro.graphs.cascade import cascade_swap_graph
from repro.graphs.generators import erdos_renyi_gnm
from repro.graphs.graph import Graph
from repro.graphs.plrg import plrg_graph_with_vertex_count
from repro.storage.adjacency_file import AdjacencyFileReader, write_adjacency_file
from repro.storage.binary_format import MemmapAdjacencySource
from repro.storage.converters import adjacency_to_binary
from repro.storage.scan import as_scan_source

FAMILIES = ["gnm", "plrg", "cascade", "star_clique"]
ORDERS = ["degree", "id", "random"]
SOURCES = ["memory", "text", "memmap"]


def star_clique_graph(seed: int) -> Graph:
    """Stars, cliques and K_{2,m} blocks glued by a few random edges.

    K_{2,m} blocks give many two-anchor "A" vertices sharing one IS pair
    (the 2-3 skeletons), stars give hub anchors with long member lists,
    cliques give dense conflict neighbourhoods.
    """

    rng = random.Random(seed)
    edges = set()
    n = 0
    for _ in range(rng.randint(2, 6)):
        kind = rng.choice(("star", "clique", "k2m"))
        size = rng.randint(2, 9)
        if kind == "star":
            edges.update((n, n + i) for i in range(1, size + 1))
            n += size + 1
        elif kind == "clique":
            edges.update((n + i, n + j) for i in range(size) for j in range(i + 1, size))
            n += size
        else:
            edges.update((n + side, n + 2 + i) for side in (0, 1) for i in range(size))
            n += size + 2
    for _ in range(rng.randint(0, n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return Graph(n, sorted(edges))


def sweep_graph(family: str, seed: int) -> Graph:
    if family == "gnm":
        n = 20 + seed % 60
        return erdos_renyi_gnm(n, n * (1 + seed % 3), seed=seed)
    if family == "plrg":
        beta = 2.0 + (seed % 3) / 10
        return plrg_graph_with_vertex_count(40 + seed % 120, beta, seed=seed)
    if family == "cascade":
        return cascade_swap_graph(2 + seed % 12)
    return star_clique_graph(seed)


def sweep_order(graph: Graph, order_kind: str, seed: int):
    """A named scan order, or a seeded random permutation for ``random``."""

    if order_kind == "random":
        n = graph.num_vertices
        return random.Random(seed).sample(range(n), n)
    return order_kind


def sweep_source(graph: Graph, kind: str, order, tmp_dir: str):
    """A fresh scan source of ``kind`` over ``graph`` in scan ``order``.

    File sources use 32-byte blocks, so records straddle scan batches.
    """

    if kind == "memory":
        return as_scan_source(graph, order=order)
    records = order if not isinstance(order, str) else (
        range(graph.num_vertices) if order == "id" else None
    )
    text = os.path.join(tmp_dir, "graph.adj")
    if not os.path.exists(text):
        write_adjacency_file(graph, text, order=records, block_size=32).close()
    if kind == "text":
        return AdjacencyFileReader(text, block_size=32)
    binary = os.path.join(tmp_dir, "graph.csr")
    if not os.path.exists(binary):
        adjacency_to_binary(text, binary, block_size=32)
    return MemmapAdjacencySource(binary, block_size=32)


def close_source(source) -> None:
    getattr(source, "close", lambda: None)()


def strip_history(snapshots):
    """Snapshots with the oscillation-guard history reduced to its length.

    The guard's fingerprints hash each backend's own encoding, so only
    the number of remembered configurations is comparable across backends.
    """

    return [
        {**s, "history": None if s["history"] is None else len(s["history"])}
        for s in snapshots
    ]


class KilledScan(Exception):
    pass


class KillAfterBatches:
    """Scan source proxy whose ``scan_batches`` dies after ``budget`` batches.

    ``batch_bytes`` overrides the batch size the pass asks for, so even a
    small graph spans several batches per scan; ``scan_sizes`` records the
    batch count of every completed scan.
    """

    def __init__(self, source, budget: int, batch_bytes=None) -> None:
        self._source = source
        self.budget = budget
        self.batch_bytes = batch_bytes
        self.scan_sizes = []

    def __getattr__(self, name):
        return getattr(self._source, name)

    def scan_batches(self, max_batch_bytes=None):
        if self.batch_bytes is not None:
            max_batch_bytes = self.batch_bytes
        count = 0
        for batch in self._source.scan_batches(max_batch_bytes):
            if self.budget == 0:
                raise KilledScan()
            self.budget -= 1
            count += 1
            yield batch
        self.scan_sizes.append(count)


def run_swap_pass(swap, graph, kind, order, tmp_dir, backend, initial=None, **options):
    """Run ``swap`` (a one-k or two-k entry point) on a fresh sweep source.

    Starts from the scan-order greedy set unless ``initial`` is given and
    returns the result with every ``on_round`` snapshot.
    """

    source = sweep_source(graph, kind, order, tmp_dir)
    snapshots = []
    try:
        result = swap(
            source,
            initial=greedy_mis(graph, order=order) if initial is None else initial,
            backend=backend,
            on_round=snapshots.append,
            **options,
        )
    finally:
        close_source(source)
    return result, snapshots
