"""Seeded benchmark inputs and the independent output checks.

Everything here runs in the benchmark's own process before any timing:
graphs and update streams are generated from the workload seed, written
to the files the program under test receives, and the results the
program returns are checked against them with plain numpy (no code of
the program under test decides whether its own output is correct).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.graphs.graph import Graph
from repro.graphs.plrg import PLRGParameters, plrg_graph
from repro.storage.adjacency_file import write_adjacency_file


def gnm_graph(num_vertices: int, num_edges: int, rng: np.random.Generator) -> Graph:
    """A uniform G(n, m) graph: ``num_edges`` distinct edges, no self loops."""

    keys = np.zeros(0, dtype=np.int64)
    while keys.size < num_edges:
        u = rng.integers(0, num_vertices, 2 * num_edges)
        v = rng.integers(0, num_vertices, 2 * num_edges)
        fresh = (np.minimum(u, v) * num_vertices + np.maximum(u, v))[u != v]
        merged = np.concatenate([keys, fresh])
        _, first = np.unique(merged, return_index=True)
        keys = merged[np.sort(first)]
    keys = keys[:num_edges]
    return Graph(num_vertices, np.stack([keys // num_vertices, keys % num_vertices], 1))


def plrg(num_vertices: int, seed: int, beta: float = 2.1) -> Graph:
    """The paper's power-law random graph P(alpha, beta) with ~n vertices."""

    return plrg_graph(PLRGParameters.from_vertex_count(num_vertices, beta), seed=seed)


def write_text(graph: Graph, path: str) -> str:
    """Write ``graph`` as a degree-ordered text adjacency file (``SEXTADJ1``)."""

    write_adjacency_file(graph, path).close()
    return path


def edge_arrays(graph: Graph) -> Tuple[np.ndarray, np.ndarray]:
    """Both endpoint arrays of every undirected edge, ``u < v``."""

    offsets, targets = graph.csr_arrays()
    sources = np.repeat(np.arange(graph.num_vertices), np.diff(offsets))
    keep = sources < targets
    return sources[keep], np.asarray(targets)[keep]


def profile(graph: Graph) -> Dict[str, float]:
    """The cheap graph profile every result records: n, m, mean and max degree."""

    degrees = np.diff(graph.csr_arrays()[0])
    n = graph.num_vertices
    return {
        "n": n,
        "m": graph.num_edges,
        "avg_degree": round(2 * graph.num_edges / n, 4) if n else 0.0,
        "max_degree": int(degrees.max()) if n else 0,
    }


def check_mis(
    num_vertices: int, u: np.ndarray, v: np.ndarray, chosen: np.ndarray
) -> Optional[str]:
    """Why ``chosen`` is not a maximal independent set, or ``None`` if it is."""

    chosen = np.asarray(chosen, dtype=np.int64)
    if chosen.size and (chosen.min() < 0 or chosen.max() >= num_vertices):
        return "vertex id out of range"
    selected = np.zeros(num_vertices, dtype=bool)
    selected[chosen] = True
    if int(selected.sum()) != chosen.size:
        return "duplicate vertices"
    clashes = int(np.count_nonzero(selected[u] & selected[v]))
    if clashes:
        return f"not independent: {clashes} edges inside the set"
    covered = selected.copy()
    covered[u[selected[v]]] = True
    covered[v[selected[u]]] = True
    uncovered = int(np.count_nonzero(~covered))
    if uncovered:
        return f"not maximal: {uncovered} vertices could join the set"
    return None


# ----------------------------------------------------------------------
# Update streams
# ----------------------------------------------------------------------
Update = Tuple[str, int, int]


def update_stream(
    graph: Graph, count: int, insert_fraction: float, rng: np.random.Generator
) -> List[Update]:
    """A mixed stream: random-pair insertions and deletions of original edges."""

    n = graph.num_vertices
    u, v = edge_arrays(graph)
    inserts = rng.random(count) < insert_fraction
    a = rng.integers(0, n, count)
    b = (a + rng.integers(1, n, count)) % n  # never equal to a
    picks = rng.integers(0, u.size, count)
    a = np.where(inserts, a, u[picks])
    b = np.where(inserts, b, v[picks])
    ops = np.where(inserts, "+", "-")
    return list(zip(ops.tolist(), a.tolist(), b.tolist()))


def write_updates(updates: Sequence[Update], path: str) -> str:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("".join(f"{op} {a} {b}\n" for op, a, b in updates))
    return path


def final_edges(
    graph: Graph, updates: Sequence[Update], batch_size: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Replay the stream semantics: per batch, every insertion, then every deletion."""

    n = graph.num_vertices
    u, v = edge_arrays(graph)
    edges = set((u * n + v).tolist())
    for start in range(0, len(updates), batch_size):
        batch = updates[start : start + batch_size]
        edges.update(min(a, b) * n + max(a, b) for op, a, b in batch if op == "+")
        edges.difference_update(
            min(a, b) * n + max(a, b) for op, a, b in batch if op == "-"
        )
    keys = np.fromiter(edges, dtype=np.int64, count=len(edges))
    return keys // n, keys % n
