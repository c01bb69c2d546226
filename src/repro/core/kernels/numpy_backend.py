"""Vectorized NumPy kernel backend.

The backend runs the paper's algorithms as ndarray sweeps through two
interchangeable executions:

* **in-memory** — directly against the int64 CSR arrays of an
  :class:`~repro.storage.scan.InMemoryAdjacencyScan`;
* **block-batched (semi-external)** — against the
  :class:`~repro.storage.scan.AdjacencyBatch` chunks a file-backed source
  yields through ``scan_batches``, so the vectorized kernels run on true
  adjacency files without materialising the graph.  Per-vertex arrays
  (states, ISN, counters) stay in memory — the semi-external model — while
  the edge data streams through in block-sized ndarray fragments, charged
  to ``IOStats`` exactly like the record-streaming reference.

Every full-graph O(n)/O(E) sweep is an ndarray operation:

* the greedy exclusion writes are fancy-indexed stores into a ``uint8``
  state bitmap;
* "A"-vertex labelling (the count of IS neighbours per vertex) is one
  ``np.bincount`` over the batch's edge slots, and the identity of a
  unique IS neighbour falls out of a weighted bincount (the sum of IS
  neighbour ids *is* the neighbour when the count is one);
* pointer counts, swap commits (P→IS, R→N) and set sizes are mask
  operations.

The swap rounds are sequential by definition — earlier vertices preempt
later ones — yet almost every outcome is already fixed by the state at
the start of a scan batch.  Both swap passes therefore run their round
scans on ``scan_batches`` for in-memory and file sources alike, as bulk
classification plus a scalar event loop that replays, in scan order,
only the candidates an earlier change of the batch can reach:

* the one-k pre-swap scan (:mod:`repro.core.kernels.one_k_scan`) decides
  each "A" candidate from its P neighbours, its anchor's state and the
  1-2 condition; a promotion reaches its later neighbours and, while the
  anchor is IS, every later candidate at the anchor;
* the two-k pre-swap scan (:mod:`repro.core.kernels.two_k_scan`) adds
  the swap-candidate pairs, from one ragged join of the lexsorted
  ``(anchor, member)`` index;
* the post-swap scan of both (:mod:`repro.core.kernels.relabel`) is
  vectorized base labelling plus a sparse event loop over the 0↔1
  insertions.

Both executions produce results bit-identical to the ``python`` reference
backend, including the per-round telemetry and the ``IOStats`` counters.
The property tests in ``tests/test_kernel_backends.py``,
``tests/test_semi_external.py`` and the one-k / two-k parity sweeps
enforce this on randomized graphs.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    decode_history,
    decode_rounds,
    encode_history,
    encode_rounds,
    register_backend,
    validate_swap_resume,
)
from repro.core.kernels.ndarrays import (
    int_bincount,
    local_sources,
    ragged_slots,
)
from repro.core.kernels.python_backend import normalize_updates as _scalar_normalize
from repro.core.kernels.one_k_scan import OneKRound
from repro.core.kernels.relabel import relabel_batch
from repro.core.kernels.two_k_scan import TwoKRound
from repro.core.result import RoundStats
from repro.core.states import VertexState as S
from repro.errors import GraphError, SolverError
from repro.storage.scan import InMemoryAdjacencyScan

__all__ = ["NumpyBackend"]

# Plain-int state codes (VertexState values) for fast uint8 array compares.
_IS = int(S.IS)
_NON = int(S.NON_IS)
_PRO = int(S.PROTECTED)
_RET = int(S.RETROGRADE)

#: Chunk size of the in-memory greedy scan: vertices already excluded are
#: skipped in bulk instead of paying one Python iteration each.
_GREEDY_CHUNK = 8192

def _fingerprint(*arrays) -> bytes:
    """Digest of the solver state used by the oscillation guard."""

    digest = hashlib.blake2b(digest_size=16)
    for array in arrays:
        digest.update(array.tobytes())
    return digest.digest()


class NumpyBackend(KernelBackend):
    """Vectorized kernels over in-memory CSR arrays or block-batched scans."""

    name = "numpy"

    def supports(self, source) -> bool:
        """In-memory sources and every source with block-batched scans."""

        return isinstance(source, InMemoryAdjacencyScan) or hasattr(
            source, "scan_batches"
        )

    def supports_graph(self, graph) -> bool:
        """Graphs whose CSR arrays are int64 ndarrays (the numpy build)."""

        offsets, targets = graph.csr_arrays()
        return isinstance(offsets, np.ndarray) and isinstance(targets, np.ndarray)

    # ------------------------------------------------------------------
    # Algorithm 1: greedy.
    # ------------------------------------------------------------------
    def greedy_pass(self, source) -> FrozenSet[int]:
        if isinstance(source, InMemoryAdjacencyScan):
            return self._greedy_in_memory(source)
        return self._greedy_batched(source)

    @staticmethod
    def _greedy_commit(state, rank_of, cand, lens, nbrs) -> None:
        """Resolve one chunk of still-initial candidates and commit it.

        The greedy scan is sequential by definition — a vertex joins the
        set only if no earlier neighbour did — but the sequential
        dependency is *local*: a candidate that is still unexcluded when
        its chunk starts can only be rejected by an earlier candidate of
        the same chunk (an accepted vertex from an earlier chunk would
        already have excluded it).  So the (rare) intra-chunk conflicts
        are resolved with a scalar fold over the chunk-internal edges
        only, and acceptances/exclusions then commit as two fancy stores
        — a neighbour of an accepted vertex can never itself be accepted,
        so the exclusion store needs no mask.
        """

        c = cand.size
        rank_of[cand] = np.arange(c, dtype=np.int64)
        nbr_rank = rank_of[nbrs]
        rank_of[cand] = -1

        accepted = np.ones(c, dtype=bool)
        internal = nbr_rank >= 0
        if internal.any():
            src_rank = np.repeat(np.arange(c, dtype=np.int64), lens)[internal]
            dst_rank = nbr_rank[internal]
            earlier = dst_rank < src_rank
            # Edges arrive sorted by source rank, so each source sees
            # the final verdict of all earlier ranks.
            flags: List[bool] = accepted.tolist()
            for s, d in zip(src_rank[earlier].tolist(), dst_rank[earlier].tolist()):
                if flags[d] and flags[s]:
                    flags[s] = False
            accepted = np.asarray(flags, dtype=bool)

        state[cand[accepted]] = 1
        state[nbrs[np.repeat(accepted, lens)]] = 2

    def _greedy_in_memory(self, source) -> FrozenSet[int]:
        graph = source.graph
        offsets, targets = graph.csr_arrays()
        order = source.order_array()
        n = graph.num_vertices
        state = np.zeros(n, dtype=np.uint8)

        rank_of = np.full(n, -1, dtype=np.int64)
        for start in range(0, order.size, _GREEDY_CHUNK):
            chunk = order[start : start + _GREEDY_CHUNK]
            cand = chunk[state[chunk] == 0]
            if cand.size == 0:
                continue
            lens = offsets[cand + 1] - offsets[cand]
            cum = np.concatenate(([0], np.cumsum(lens)))
            gather = np.arange(cum[-1], dtype=np.int64) + np.repeat(
                offsets[cand] - cum[:-1], lens
            )
            self._greedy_commit(state, rank_of, cand, lens, targets[gather])
        source.stats.record_scan()

        return frozenset(np.flatnonzero(state == 1).tolist())

    def _greedy_batched(self, source) -> FrozenSet[int]:
        """Greedy over block-batched chunks; the batch is the scan chunk."""

        n = source.num_vertices
        state = np.zeros(n, dtype=np.uint8)
        rank_of = np.full(n, -1, dtype=np.int64)
        for verts, local_offsets, tgts in source.scan_batches():
            if verts.size and (int(verts.max()) >= n or int(verts.min()) < 0):
                bad = verts[(verts >= n) | (verts < 0)][0]
                raise SolverError(
                    f"scan produced vertex {int(bad)} outside the declared range of "
                    f"{n} vertices"
                )
            mask = state[verts] == 0
            if not mask.any():
                continue
            cand = verts[mask]
            lens = (local_offsets[1:] - local_offsets[:-1])[mask]
            cum = np.concatenate(([0], np.cumsum(lens)))
            gather = np.arange(cum[-1], dtype=np.int64) + np.repeat(
                local_offsets[:-1][mask] - cum[:-1], lens
            )
            self._greedy_commit(state, rank_of, cand, lens, tgts[gather])
        # scan_batches charges the sequential scan on exhaustion.

        return frozenset(np.flatnonzero(state == 1).tolist())

    # ------------------------------------------------------------------
    # Algorithm 2: one-k-swap.
    # ------------------------------------------------------------------
    def one_k_swap_pass(
        self,
        source,
        initial_set: FrozenSet[int],
        max_rounds: Optional[int],
        resume: Optional[dict] = None,
        on_round=None,
        telemetry: Optional[Dict[str, int]] = None,
    ) -> Tuple[FrozenSet[int], Tuple[RoundStats, ...], bool]:
        # Both executions share one batched body: an in-memory source
        # serves its CSR through the same ``scan_batches`` interface.
        n = source.num_vertices
        local_index = np.full(n, -1, dtype=np.int64)

        if resume is None:
            state = np.full(n, _NON, dtype=np.uint8)
            if initial_set:
                state[
                    np.fromiter(initial_set, dtype=np.int64, count=len(initial_set))
                ] = _IS
            isn = np.full(n, -1, dtype=np.int64)
            # Lines 1-3: the post-swap labelling without 0-1 swaps.
            for verts, local_offsets, tgts in source.scan_batches():
                relabel_batch(
                    state, isn, None, verts, local_offsets, tgts, local_index, False
                )

            rounds: List[RoundStats] = []
            initial_size = len(initial_set)
            current_size = initial_size
            can_swap = True
            oscillation = False
            history = {_fingerprint(state, isn)} if max_rounds is None else None
        else:
            # Restore the loop exactly where an ``on_round`` snapshot was
            # taken; the labelling scan already happened before it.
            validate_swap_resume(resume, "one_k_swap", n)
            state = np.asarray(resume["state"], dtype=np.uint8)
            isn = np.asarray(resume["isn"], dtype=np.int64)
            rounds = decode_rounds(resume["rounds"])
            initial_size = int(resume["initial_size"])
            current_size = int(resume["current_size"])
            can_swap = bool(resume["can_swap"])
            oscillation = bool(resume["oscillation"])
            history = decode_history(resume["history"])

        def _snapshot() -> dict:
            return {
                "pass": "one_k_swap",
                "initial_size": initial_size,
                "state": state.tolist(),
                "isn": isn.tolist(),
                "rounds": encode_rounds(rounds),
                "current_size": current_size,
                "can_swap": can_swap,
                "oscillation": oscillation,
                "history": encode_history(history),
            }

        bulk_decided = 0
        replayed = 0
        while (
            not oscillation
            and can_swap
            and (max_rounds is None or len(rounds) < max_rounds)
        ):
            # Pre-swap scan (lines 7-14): bulk classification plus the
            # scan-order event loop, one batch at a time.
            scan = OneKRound(state, isn, local_index)
            for verts, local_offsets, tgts in source.scan_batches():
                scan.scan_batch(verts, local_offsets, tgts)
            bulk_decided += scan.bulk_decided
            replayed += scan.replayed

            # Swap phase (lines 15-19), fully vectorized.
            retro = state == _RET
            state[state == _PRO] = _IS
            state[retro] = _NON
            one_k_swaps = int(retro.sum())
            can_swap = one_k_swaps > 0

            # Post-swap scan (lines 20-28).
            zero_one_swaps = 0
            for verts, local_offsets, tgts in source.scan_batches():
                zero_one_swaps += relabel_batch(
                    state, isn, None, verts, local_offsets, tgts, local_index, True
                )

            new_size = int((state == _IS).sum())
            rounds.append(
                RoundStats(
                    round_index=len(rounds) + 1,
                    gained=new_size - current_size,
                    one_k_swaps=one_k_swaps,
                    two_k_swaps=0,
                    zero_one_swaps=zero_one_swaps,
                    is_size_after=new_size,
                )
            )
            current_size = new_size

            if history is not None and can_swap:
                fingerprint = _fingerprint(state, isn)
                if fingerprint in history:
                    oscillation = True
                else:
                    history.add(fingerprint)
            if on_round is not None:
                on_round(_snapshot())

        if telemetry is not None:
            telemetry["bulk_decided"] = bulk_decided
            telemetry["replayed"] = replayed

        completion_gain = self._completion_pass(source, state)
        if completion_gain and rounds:
            last = rounds[-1]
            rounds[-1] = RoundStats(
                round_index=last.round_index,
                gained=last.gained + completion_gain,
                one_k_swaps=last.one_k_swaps,
                two_k_swaps=last.two_k_swaps,
                zero_one_swaps=last.zero_one_swaps + completion_gain,
                is_size_after=last.is_size_after + completion_gain,
            )

        independent_set = frozenset(np.flatnonzero(state == _IS).tolist())
        return independent_set, tuple(rounds), oscillation

    # ------------------------------------------------------------------
    # Algorithms 3 & 4: two-k-swap.
    # ------------------------------------------------------------------
    def two_k_swap_pass(
        self,
        source,
        initial_set: FrozenSet[int],
        max_rounds: Optional[int],
        max_pairs_per_key: int,
        max_partner_checks: int,
        resume: Optional[dict] = None,
        on_round=None,
        telemetry: Optional[Dict[str, int]] = None,
    ) -> Tuple[FrozenSet[int], Tuple[RoundStats, ...], int, bool]:
        # Both executions share one batched body: an in-memory source
        # serves its CSR through the same ``scan_batches`` interface.
        n = source.num_vertices
        local_index = np.full(n, -1, dtype=np.int64)

        if resume is None:
            state = np.full(n, _NON, dtype=np.uint8)
            if initial_set:
                state[
                    np.fromiter(initial_set, dtype=np.int64, count=len(initial_set))
                ] = _IS
            # ISN as a sorted pair per vertex (-1 = absent): isn1 < isn2.
            isn1 = np.full(n, -1, dtype=np.int64)
            isn2 = np.full(n, -1, dtype=np.int64)
            # Lines 1-3: the post-swap labelling without 0-1 swaps.
            for verts, local_offsets, tgts in source.scan_batches():
                relabel_batch(
                    state, isn1, isn2, verts, local_offsets, tgts, local_index, False
                )

            rounds: List[RoundStats] = []
            initial_size = len(initial_set)
            current_size = initial_size
            can_swap = True
            max_sc_vertices = 0
            oscillation = False
            history = {_fingerprint(state, isn1, isn2)} if max_rounds is None else None
        else:
            validate_swap_resume(resume, "two_k_swap", n)
            state = np.asarray(resume["state"], dtype=np.uint8)
            isn1 = np.asarray(resume["isn1"], dtype=np.int64)
            isn2 = np.asarray(resume["isn2"], dtype=np.int64)
            rounds = decode_rounds(resume["rounds"])
            initial_size = int(resume["initial_size"])
            current_size = int(resume["current_size"])
            can_swap = bool(resume["can_swap"])
            max_sc_vertices = int(resume["max_sc_vertices"])
            oscillation = bool(resume["oscillation"])
            history = decode_history(resume["history"])

        def _snapshot() -> dict:
            return {
                "pass": "two_k_swap",
                "initial_size": initial_size,
                "state": state.tolist(),
                "isn1": isn1.tolist(),
                "isn2": isn2.tolist(),
                "rounds": encode_rounds(rounds),
                "current_size": current_size,
                "can_swap": can_swap,
                "max_sc_vertices": max_sc_vertices,
                "oscillation": oscillation,
                "history": encode_history(history),
            }

        bulk_decided = 0
        replayed = 0
        while (
            not oscillation
            and can_swap
            and (max_rounds is None or len(rounds) < max_rounds)
        ):
            # Pre-swap scan (Algorithm 4): bulk classification plus the
            # scan-order event loop, one batch at a time.
            scan = TwoKRound(
                state, isn1, isn2, source, max_pairs_per_key, max_partner_checks,
                local_index,
            )
            for verts, local_offsets, tgts in source.scan_batches():
                scan.scan_batch(verts, local_offsets, tgts)
            bulk_decided += scan.bulk_decided
            replayed += scan.replayed
            sc_vertices = scan.sc.peak_vertices
            max_sc_vertices = max(max_sc_vertices, sc_vertices)

            # Swap phase (Algorithm 3 lines 10-14), fully vectorized.
            retro = state == _RET
            state[state == _PRO] = _IS
            state[retro] = _NON
            can_swap = bool(retro.any())

            # Post-swap scan (Algorithm 3 lines 15-23).
            zero_one_swaps = 0
            for verts, local_offsets, tgts in source.scan_batches():
                zero_one_swaps += relabel_batch(
                    state, isn1, isn2, verts, local_offsets, tgts, local_index, True
                )

            new_size = int((state == _IS).sum())
            rounds.append(
                RoundStats(
                    round_index=len(rounds) + 1,
                    gained=new_size - current_size,
                    one_k_swaps=scan.one_k_swaps,
                    two_k_swaps=scan.two_k_swaps,
                    zero_one_swaps=zero_one_swaps,
                    is_size_after=new_size,
                    sc_vertices=sc_vertices,
                )
            )
            current_size = new_size

            if history is not None and can_swap:
                fingerprint = _fingerprint(state, isn1, isn2)
                if fingerprint in history:
                    oscillation = True
                else:
                    history.add(fingerprint)
            if on_round is not None:
                on_round(_snapshot())

        if telemetry is not None:
            telemetry["bulk_decided"] = bulk_decided
            telemetry["replayed"] = replayed

        completion_gain = self._completion_pass(source, state)
        if completion_gain and rounds:
            last = rounds[-1]
            rounds[-1] = RoundStats(
                round_index=last.round_index,
                gained=last.gained + completion_gain,
                one_k_swaps=last.one_k_swaps,
                two_k_swaps=last.two_k_swaps,
                zero_one_swaps=last.zero_one_swaps + completion_gain,
                is_size_after=last.is_size_after + completion_gain,
                sc_vertices=last.sc_vertices,
            )

        independent_set = frozenset(np.flatnonzero(state == _IS).tolist())
        return independent_set, tuple(rounds), max_sc_vertices, oscillation

    # ------------------------------------------------------------------
    # Shared final 0↔1 completion pass.
    # ------------------------------------------------------------------
    @staticmethod
    def _completion_pass(source, state) -> int:
        """Insert every vertex with no IS neighbour, in scan order.

        Each batch's IS-neighbour counts start from one vectorized
        bincount; a vertex whose count is positive can never become
        insertable (the set only grows), so the scalar pass touches only
        the zero-count candidates and bumps its neighbours' counts on each
        insertion.  In-memory sources run the same batched body.
        """

        n = source.num_vertices
        cnt = np.zeros(n, dtype=np.int64)
        completion_gain = 0
        for verts, local_offsets, tgts in source.scan_batches():
            lens = local_offsets[1:] - local_offsets[:-1]
            local_src = local_sources(verts.size, lens)
            cnt[verts] = np.bincount(
                local_src[state[tgts] == _IS], minlength=verts.size
            )
            vertex_list = verts.tolist()
            offset_list = local_offsets.tolist()
            candidates = (state[verts] != _IS) & (cnt[verts] == 0)
            for i in np.flatnonzero(candidates).tolist():
                v = vertex_list[i]
                if cnt[v] != 0:
                    continue
                state[v] = _IS
                cnt[tgts[offset_list[i] : offset_list[i + 1]]] += 1
                completion_gain += 1
        return completion_gain

    # ------------------------------------------------------------------
    # In-memory comparators (Tables 5-6).
    # ------------------------------------------------------------------
    def local_search_pass(
        self,
        graph,
        initial_set: FrozenSet[int],
        max_iterations: int,
    ) -> Tuple[FrozenSet[int], int]:
        n = graph.num_vertices
        if n == 0:
            return frozenset(), 0
        offsets, targets = graph.csr_arrays()
        edge_src = graph.edge_sources_array()
        degrees = graph.degrees_array()
        selected = np.zeros(n, dtype=bool)
        if initial_set:
            selected[
                np.fromiter(initial_set, dtype=np.int64, count=len(initial_set))
            ] = True
        # tight[u] = #selected neighbours; isn_sum[u] = sum of their ids,
        # so a loose vertex (unselected, tight == 1) names its unique IS
        # neighbour in O(1) — the weighted-bincount trick of the one-k pass.
        sel_slot = selected[targets]
        src_sel = edge_src[sel_slot]
        tight = np.bincount(src_sel, minlength=n).astype(np.int64)
        isn_sum = int_bincount(src_sel, targets[sel_slot], n)

        def _select(vertex: int) -> None:
            selected[vertex] = True
            nbrs = targets[offsets[vertex] : offsets[vertex + 1]]
            tight[nbrs] += 1
            isn_sum[nbrs] += vertex

        # Initial maximalisation in ascending (degree, id) order: only the
        # initially-free vertices can ever become insertable (tight never
        # decreases while inserting), so the scalar loop touches just them.
        order = graph.degree_ascending_order_array()
        for v in order[(~selected[order]) & (tight[order] == 0)].tolist():
            if not selected[v] and tight[v] == 0:
                _select(v)

        iterations = 0
        improved = True
        while improved and iterations < max_iterations:
            improved = False
            # One vectorized sweep prefilter: IS vertices with fewer than
            # two loose neighbours cannot move, so the sweep only walks
            # the (few) eligible ones.  Vertices that *gain* loose
            # neighbours mid-sweep are merged in through a heap of
            # "dirtied" ids still ahead of the sweep cursor — the owner of
            # every loose flip is isn_sum of the flipped vertex — keeping
            # the ascending examination order of the reference without
            # touching the other snapshot members at all.
            loose_slot = (~selected[targets]) & (tight[targets] == 1)
            loose_count = np.bincount(edge_src[loose_slot], minlength=n)
            # The reference examines the IS snapshot taken at sweep start;
            # vertices selected mid-sweep wait for the next sweep, so
            # dirtied owners outside this snapshot must not be examined.
            snapshot = selected.copy()
            pending = np.flatnonzero(selected & (loose_count >= 2)).tolist()
            queued = set(pending)
            dirty_heap: List[int] = []
            position = 0
            while position < len(pending) or dirty_heap:
                if dirty_heap and (
                    position >= len(pending) or dirty_heap[0] < pending[position]
                ):
                    vertex = heapq.heappop(dirty_heap)
                else:
                    vertex = pending[position]
                    position += 1
                if not selected[vertex]:
                    continue
                nbrs = targets[offsets[vertex] : offsets[vertex + 1]]
                cand = nbrs[(~selected[nbrs]) & (tight[nbrs] == 1)]
                if cand.size < 2:
                    continue
                pair = None
                for index, first in enumerate(cand.tolist()[:-1]):
                    rest = cand[index + 1 :]
                    non_adjacent = rest[
                        ~np.isin(rest, targets[offsets[first] : offsets[first + 1]])
                    ]
                    if non_adjacent.size:
                        pair = (first, int(non_adjacent[0]))
                        break
                if pair is None:
                    continue
                # Commit the (1,2) swap.
                selected[vertex] = False
                tight[nbrs] -= 1
                isn_sum[nbrs] -= vertex
                _select(pair[0])
                _select(pair[1])
                iterations += 1
                improved = True
                inserted = []
                freed = nbrs[(~selected[nbrs]) & (tight[nbrs] == 0)]
                if freed.size:
                    freed = freed[np.lexsort((freed, degrees[freed]))]
                    for u in freed.tolist():
                        if not selected[u] and tight[u] == 0:
                            _select(u)
                            inserted.append(u)
                # Every vertex whose tight count changed may have flipped
                # to loose; its unique IS neighbour gains a candidate and
                # re-enters the sweep if its id is still ahead (owners
                # already passed are caught by the next sweep's prefilter).
                changed = [nbrs]
                for moved in (pair[0], pair[1], *inserted):
                    changed.append(targets[offsets[moved] : offsets[moved + 1]])
                flips = np.concatenate(changed)
                flips = flips[(~selected[flips]) & (tight[flips] == 1)]
                for owner in isn_sum[flips].tolist():
                    if owner > vertex and owner not in queued and snapshot[owner]:
                        queued.add(owner)
                        heapq.heappush(dirty_heap, owner)
                if iterations >= max_iterations:
                    break

        independent_set = frozenset(np.flatnonzero(selected).tolist())
        return independent_set, iterations

    def dynamic_update_pass(self, graph) -> Tuple[int, ...]:
        n = graph.num_vertices
        if n == 0:
            return ()
        offsets, targets = graph.csr_arrays()
        base_degree = np.diff(offsets)
        degree = base_degree.copy()
        alive = np.ones(n, dtype=bool)
        max_degree = int(degree.max())

        # Bucket queue over current degrees, holding ndarray chunks with
        # possibly-stale entries (filtered against `degree` on inspection).
        buckets: List[List[np.ndarray]] = [[] for _ in range(max_degree + 1)]
        order = np.argsort(degree, kind="stable")
        bounds = np.searchsorted(degree[order], np.arange(max_degree + 2))
        for d in range(max_degree + 1):
            chunk = order[bounds[d] : bounds[d + 1]]
            if chunk.size:
                buckets[d].append(chunk)

        selection: List[int] = []
        cursor = 0
        remaining = n
        sentinel = np.iinfo(np.int64).max
        first_touch = np.full(n, sentinel, dtype=np.int64)
        while remaining and cursor <= max_degree:
            pieces = buckets[cursor]
            if not pieces:
                cursor += 1
                continue
            buckets[cursor] = []
            batch = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            batch = batch[alive[batch] & (degree[batch] == cursor)]
            if batch.size == 0:
                continue
            if batch.size > 1:
                batch = np.sort(batch)
            round_min = cursor
            round_selection: List[int] = []
            while batch.size:
                m = batch.size
                index = np.arange(m, dtype=np.int64)
                lens = base_degree[batch]
                slots = ragged_slots(offsets[batch], lens)
                owner = np.repeat(index, lens)
                neighbor = targets[slots]
                live_mask = alive[neighbor]
                nbr_live = neighbor[live_mask]
                owner_live = owner[live_mask]
                # ------------------------------------------------------
                # Exact bulk acceptance: a snapshot member is selected in
                # the sequential round order iff no *selected* earlier
                # member touches its closed live neighbourhood.  Validity
                # only shrinks, so every member whose closed neighbourhood
                # is first touched by itself is provably selected; their
                # zones are disjoint and commit in bulk, the rest defer to
                # the next fixpoint iteration.  `owner_live` is ascending,
                # so a reversed fancy store leaves the first toucher.
                # ------------------------------------------------------
                first_touch[nbr_live[::-1]] = owner_live[::-1]
                first_touch[batch] = np.minimum(first_touch[batch], index)
                threat = first_touch[batch]
                if nbr_live.size:
                    neighbor_min = np.full(m, sentinel, dtype=np.int64)
                    np.minimum.at(neighbor_min, owner_live, first_touch[nbr_live])
                    threat = np.minimum(threat, neighbor_min)
                accept_mask = threat == index
                accepted_count = int(np.count_nonzero(accept_mask))
                first_touch[batch] = sentinel
                first_touch[nbr_live] = sentinel
                if accepted_count < max(8, m // 8):
                    # Conflict-dense snapshot (e.g. long induced paths):
                    # bulk acceptance would degenerate to quadratic
                    # re-scans, so finish the round with the scalar rule.
                    round_min, removed_total = _scalar_round(
                        batch, cursor, degree, alive, offsets, targets,
                        buckets, round_selection, round_min,
                    )
                    remaining -= removed_total
                    break
                accepted = batch[accept_mask]
                round_selection.extend(accepted.tolist())
                alive[accepted] = False
                remaining -= accepted_count
                removed = nbr_live[accept_mask[owner_live]]
                if removed.size:
                    alive[removed] = False
                    remaining -= int(removed.size)
                    second = targets[
                        ragged_slots(offsets[removed], base_degree[removed])
                    ]
                    second = second[alive[second]]
                    if second.size:
                        affected, counts = np.unique(second, return_counts=True)
                        degree[affected] -= counts
                        new_degrees = degree[affected]
                        regroup = np.argsort(new_degrees, kind="stable")
                        affected = affected[regroup]
                        new_degrees = new_degrees[regroup]
                        low = int(new_degrees[0])
                        high = int(new_degrees[-1])
                        edges = np.searchsorted(
                            new_degrees, np.arange(low, high + 2)
                        )
                        for i, d in enumerate(range(low, high + 1)):
                            chunk = affected[edges[i] : edges[i + 1]]
                            if chunk.size:
                                buckets[d].append(chunk)
                        if low < round_min:
                            round_min = low
                deferred = batch[~accept_mask]
                if deferred.size:
                    deferred = deferred[
                        alive[deferred] & (degree[deferred] == cursor)
                    ]
                batch = deferred
            # Fixpoint iterations accept out of id order; the sequential
            # order within a round is ascending id, so restore it.
            round_selection.sort()
            selection.extend(round_selection)
            cursor = round_min
        return tuple(selection)

    # ------------------------------------------------------------------
    # Streaming dynamic MIS: wave-batched update application.
    # ------------------------------------------------------------------
    def supports_maintainer(self, maintainer) -> bool:
        """Maintainers whose flat state arrays are ndarrays (the numpy build)."""

        return isinstance(maintainer._selected, np.ndarray)

    def normalize_updates_pass(self, updates, *, strict):
        """Vectorized validate + dedupe of one update-batch side.

        Bit-identical to the scalar helper: the first malformed pair
        raises the same :class:`GraphError` (or is dropped when not
        strict), and duplicates of the same undirected edge keep only the
        first occurrence in its original orientation.  Small, ragged or
        non-numeric inputs fall back to the scalar helper.
        """

        if isinstance(updates, np.ndarray):
            arr = updates
        else:
            if not isinstance(updates, (list, tuple)) or len(updates) < 64:
                return _scalar_normalize(updates, strict=strict)
            try:
                # fromiter over a flattened chain beats np.asarray on a
                # list of pairs by ~2x (no per-sequence type inspection).
                # fromiter would silently truncate ragged rows, so the
                # pair shape is checked up front.
                if not all(len(pair) == 2 for pair in updates):
                    return _scalar_normalize(updates, strict=strict)
                arr = np.fromiter(
                    itertools.chain.from_iterable(updates),
                    dtype=np.int64,
                    count=2 * len(updates),
                ).reshape(-1, 2)
            except (TypeError, ValueError, OverflowError):
                return _scalar_normalize(updates, strict=strict)
        if arr.ndim != 2 or arr.shape[1] != 2 or arr.dtype.kind not in "iu":
            return _scalar_normalize(updates, strict=strict)
        arr = arr.astype(np.int64, copy=False)
        if not arr.shape[0]:
            return []
        u, v = arr[:, 0], arr[:, 1]
        bad = (u == v) | (u < 0) | (v < 0)
        if bad.any():
            if strict:
                k = int(np.argmax(bad))
                # Match the scalar helper's check order for the message.
                if int(u[k]) == int(v[k]):
                    raise GraphError("self loops are not allowed")
                raise GraphError("vertex ids must be non-negative")
            arr = arr[~bad]
            if not arr.shape[0]:
                return []
            u, v = arr[:, 0], arr[:, 1]
        lo = np.minimum(u, v)
        hi = np.maximum(u, v)
        span = int(hi.max()) + 1
        if span > 2**31:
            return _scalar_normalize(updates, strict=strict)
        _, first = np.unique(lo * span + hi, return_index=True)
        if first.size == arr.shape[0]:
            kept = arr
        else:
            first.sort()
            kept = arr[first]
        return list(zip(kept[:, 0].tolist(), kept[:, 1].tolist()))

    def dynamic_apply_pass(self, maintainer, insertions, deletions) -> None:
        """Dependency-partitioned vectorized waves with batched evictions.

        Each update window is pre-scanned once to split it into maximal
        *sub-waves*: prefixes in which no update touches a vertex whose
        selection flag an earlier update of the same sub-wave can flip.
        Every row is classified against the window-start state as

        * **quiet** — cannot flip any selection flag (covered endpoints,
          no eviction for insertions; no endpoint starved of selected
          neighbours for deletions, with the per-row *prefix-cumulative*
          tightness loss accounted exactly);
        * **conflict** — flips flags through the scalar rule (insertion
          eviction + re-saturation, deletion flip-select), committed
          *batched*: the eviction tie-break, tightness scatters and
          re-saturation run as ndarray operations whose per-row results
          are provably equal to the scalar path because admitted conflict
          rows have pairwise-disjoint touch zones;
        * **hard** (insertions only) — needs vertex creation or a
          coverage pre-select and goes through the scalar per-edge method.

        A first-touch scan (``np.minimum.at`` over the rows' touch zones)
        finds the first row that reads or writes state an earlier row of
        the window can change; everything before it commits as one
        sub-wave, in journal order.  Selected set, tightness, journal and
        drift counters are bit-identical to the python backend's scalar
        loop; :class:`~repro.core.kernels.base.WaveTelemetry` on the
        maintainer records how the scheduler spent the stream.
        """

        if len(insertions) or len(deletions):
            maintainer.wave.chunks += 1
        self._insert_waves(maintainer, insertions)
        self._delete_waves(maintainer, deletions)

    #: Wave-window bounds: the window doubles on a full-prefix commit
    #: (larger scatters amortise better) and re-anchors to twice the
    #: committed prefix on a cut (persisted across ``apply_updates``
    #: calls through ``maintainer._wave_state``).
    _WAVE_WINDOW_MIN = 64
    _WAVE_WINDOW_MAX = 65536
    #: When the window is already at its minimum and the head row still
    #: needs the scalar path (vertex creation / coverage pre-select),
    #: the stream is hard-dense: burn this many updates through the
    #: scalar loop before paying for another classification scan.
    _WAVE_SCALAR_BURST = 256

    def _insert_waves(self, m, insertions) -> None:
        count = len(insertions)
        if not count:
            return
        pairs = np.asarray(insertions, dtype=np.int64).reshape(count, 2)
        wave = m.wave
        idx = 0
        window = m._wave_state.get("insert_window", self._WAVE_WINDOW_MIN)
        while idx < count:
            chunk = pairs[idx : idx + window]
            prefix = self._insert_subwave(m, chunk)
            if prefix:
                wave.sub_waves += 1
                idx += prefix
                if prefix == len(chunk):
                    window = min(window * 2, self._WAVE_WINDOW_MAX)
                else:
                    window = max(
                        self._WAVE_WINDOW_MIN,
                        min(self._WAVE_WINDOW_MAX, 2 * prefix),
                    )
            else:
                # Hard head: vertex creation and coverage pre-selects
                # only happen on the scalar path.
                burst = (
                    self._WAVE_SCALAR_BURST
                    if window == self._WAVE_WINDOW_MIN
                    else 1
                )
                for x, y in pairs[idx : idx + burst].tolist():
                    m.insert_edge(x, y)
                    idx += 1
                    wave.scalar_fallbacks += 1
                window = max(window // 2, self._WAVE_WINDOW_MIN)
        m._wave_state["insert_window"] = window

    def _insert_subwave(self, m, chunk) -> int:
        """Classify one insertion window and commit its longest safe prefix.

        Rows are *hard* (need vertex creation or a coverage pre-select),
        *conflict* (both endpoints selected: eviction + re-saturation) or
        *quiet* (pure counter bookkeeping).  The window is truncated at
        the first hard row, the first-touch scan cuts it at the first row
        an earlier row can disturb, and the remaining prefix commits as
        one sub-wave.  Returns the committed length — 0 iff the head row
        is hard and must go through the scalar path.
        """

        n = chunk.shape[0]
        u, v = chunk[:, 0], chunk[:, 1]
        cap = m._capacity
        inb = (u < cap) & (v < cap)
        cu = np.where(inb, u, 0)
        cv = np.where(inb, v, 0)
        sel_u = m._selected[cu] & inb
        sel_v = m._selected[cv] & inb
        easy = inb & m._present[cu] & m._present[cv]
        easy &= (sel_u | (m._tight[cu] > 0)) & (sel_v | (m._tight[cv] > 0))
        # Two selected endpoints of an existing edge would violate
        # independence, so conflict rows are always new edges — no
        # duplicate check needed before the batched eviction commit.
        conflict = easy & sel_u & sel_v
        limit = n if easy.all() else int(np.argmin(easy))
        if limit == 0:
            return 0
        conflict = conflict[:limit]
        cidx = np.flatnonzero(conflict)
        if not cidx.size:
            self._commit_insert_quiet(m, chunk[:limit])
            return limit
        rows_c = chunk[cidx]
        uc, vc = rows_c[:, 0], rows_c[:, 1]
        deg = m._degree
        # Both endpoints gain one degree from the row's own insert, so
        # the post-insert tie-break equals the pre-insert comparison.
        evict = np.where(deg[uc] >= deg[vc], uc, vc)
        nbr_vals, nbr_lens = _gather_adjacency(m, evict)
        nbr_row = np.repeat(cidx, nbr_lens)
        # Saturation candidates: unselected neighbours whose only
        # selected neighbour is the evicted vertex itself.
        cand_mask = (~m._selected[nbr_vals]) & (m._tight[nbr_vals] == 1)
        cand_vals = nbr_vals[cand_mask]
        cand_row = nbr_row[cand_mask]
        snbr_vals, snbr_lens = _gather_adjacency(m, cand_vals)
        zone_vert = np.concatenate([rows_c.ravel(), nbr_vals, snbr_vals])
        zone_owner = np.concatenate(
            [np.repeat(cidx, 2), nbr_row, np.repeat(cand_row, snbr_lens)]
        )
        qidx = np.flatnonzero(~conflict)
        quiet_vert = chunk[:limit][~conflict].ravel()
        quiet_owner = np.repeat(qidx, 2)
        # A conflict row reads its endpoints (degree tie-break, selection
        # state) and the evicted vertex's neighbourhood (candidate
        # classification and candidate-candidate adjacency); the
        # second-ring saturation scatters are value-blind writes, so they
        # register in the zone but never force a cut by themselves.  A
        # quiet row can only be disturbed through selection flips: the
        # evicted vertices and their saturation candidates (which also
        # bound every vertex an eviction can uncover).
        p = self._first_violation(
            m,
            limit,
            zone_vert,
            zone_owner,
            quiet_vert,
            quiet_owner,
            np.concatenate([rows_c.ravel(), nbr_vals]),
            np.concatenate([np.repeat(cidx, 2), nbr_row]),
            np.concatenate([evict, cand_vals]),
            np.concatenate([cidx, cand_row]),
        )
        quiet_rows = chunk[:p][~conflict[:p]]
        if quiet_rows.shape[0]:
            self._commit_insert_quiet(m, quiet_rows)
        if cidx.size and int(cidx[0]) < p:
            self._commit_insert_conflicts(
                m, p, cidx, rows_c, evict,
                nbr_vals, nbr_row, cand_vals, cand_row, snbr_vals, snbr_lens,
            )
        return p

    #: First-touch sentinel: larger than any window row index.
    _FT_SENTINEL = np.int64(2**62)

    @classmethod
    def _first_violation(
        cls,
        m,
        limit,
        zone_vert,
        zone_owner,
        quiet_vert,
        quiet_owner,
        conf_read_vert,
        conf_read_owner,
        flip_vert,
        flip_owner,
    ) -> int:
        """First window row whose state an earlier row can disturb.

        Writes and reads are tracked separately so sub-waves only break
        where a *read* crosses an earlier *write*:

        - ``zone_*``: every vertex a conflict row writes (one owner row
          index per touched vertex) — registered, never tested.
        - ``quiet_*``: the quiet rows' endpoint writes (also their only
          reads).
        - ``conf_read_*``: the vertices a conflict row's classification
          and commit actually read.  A conflict row is violated when any
          earlier row (quiet or conflict) writes one of them.
        - ``flip_*``: the conflict writes a quiet row can observe — for
          inserts the possible selection flips (evicted vertex plus its
          saturation candidates), for deletes the full conflict zone.  A
          quiet row is violated when an earlier conflict row lands a
          flip write on one of its endpoints; quiet/quiet overlaps are
          commuting counter increments and never cut.

        Returns ``limit`` when the whole window is mutually consistent.
        The per-vertex first-touch minima land in two capacity-sized
        scratch arrays kept on the maintainer (touched entries are reset
        to the sentinel afterwards), so the scan is pure scatters — no
        sort/unique compression.
        """

        scratch = getattr(m, "_wave_scratch", None)
        if scratch is None or scratch[0].size < m._capacity:
            scratch = (
                np.full(m._capacity, cls._FT_SENTINEL, dtype=np.int64),
                np.full(m._capacity, cls._FT_SENTINEL, dtype=np.int64),
            )
            m._wave_scratch = scratch
        ft_any, ft_flip = scratch
        np.minimum.at(ft_any, zone_vert, zone_owner)
        np.minimum.at(ft_any, quiet_vert, quiet_owner)
        np.minimum.at(ft_flip, flip_vert, flip_owner)
        row_min = np.full(limit, cls._FT_SENTINEL, dtype=np.int64)
        np.minimum.at(row_min, conf_read_owner, ft_any[conf_read_vert])
        np.minimum.at(row_min, quiet_owner, ft_flip[quiet_vert])
        ft_any[zone_vert] = cls._FT_SENTINEL
        ft_any[quiet_vert] = cls._FT_SENTINEL
        ft_flip[flip_vert] = cls._FT_SENTINEL
        bad = np.flatnonzero(row_min < np.arange(limit, dtype=np.int64))
        return int(bad[0]) if bad.size else limit

    @staticmethod
    def _edge_exists_rows(m, rows) -> np.ndarray:
        """Vectorized current-graph membership of each ``(a, b)`` row.

        Base-CSR membership is a fancy-indexed binary search — every row
        walks its own ``[offsets[a], offsets[a+1])`` segment, all rows in
        lockstep, so the loop runs ``log2(max degree)`` vectorized steps
        rather than one Python bisect per row.  The dynamic overlay then
        corrects the verdict with per-row dict probes (the overlay is the
        small part of the graph by design).
        """

        if rows.shape[0] < 8:
            return np.fromiter(
                (m._has_edge(x, y) for x, y in rows.tolist()),
                dtype=bool,
                count=rows.shape[0],
            )
        a, b = rows[:, 0], rows[:, 1]
        base_n = m._base_n
        if base_n and m._base_offsets is not None and len(m._base_targets):
            offsets, targets = m._base_offsets, m._base_targets
            in_base = (a < base_n) & (b < base_n)
            av = np.where(in_base, a, 0)
            lo = np.where(in_base, offsets[av], 0)
            seg_end = np.where(in_base, offsets[av + 1], 0)
            hi = seg_end
            # Each row binary-searches its own (sorted) CSR segment, all
            # rows advancing in lockstep; segments are short and
            # contiguous, so the probes stay cache-local instead of
            # jumping across a graph-sized key table.
            last = np.int64(len(targets) - 1)
            while True:
                active = lo < hi
                if not active.any():
                    break
                mid = (lo + hi) >> 1
                less = targets[np.minimum(mid, last)] < b
                lo = np.where(active & less, mid + 1, lo)
                hi = np.where(active & ~less, mid, hi)
            exists = (
                in_base
                & (lo < seg_end)
                & (targets[np.minimum(lo, last)] == b)
            )
        else:
            exists = np.zeros(rows.shape[0], dtype=bool)
        added, removed = m._added, m._removed
        if added or removed:
            # Only rows whose source vertex ever had an overlay entry can
            # disagree with the base verdict.
            idxs = np.flatnonzero(m._overlay_dirty[a])
            if idxs.size:
                add_get = added.get
                rem_get = removed.get
                for k, x, y in zip(
                    idxs.tolist(), a[idxs].tolist(), b[idxs].tolist()
                ):
                    s = add_get(x)
                    if s and y in s:
                        exists[k] = True
                    elif exists[k]:
                        s = rem_get(x)
                        if s and y in s:
                            exists[k] = False
        return exists

    @staticmethod
    def _commit_insert_conflicts(
        m, p, cidx, rows_c, evict,
        nbr_vals, nbr_row, cand_vals, cand_row, snbr_vals, snbr_lens,
    ) -> None:
        """Batched eviction + re-saturation of the admitted conflict rows.

        Admitted rows have pairwise-disjoint touch zones, so the scalar
        per-row sequence (insert, evict the higher-degree endpoint,
        greedily re-select starved neighbours smallest-degree-first)
        decomposes into order-free tightness scatters plus one tiny
        acceptance loop per row over its saturation candidates; the
        journal is emitted in ascending row order, exactly as the scalar
        loop would write it.
        """

        keep = cidx < p
        rows = rows_c[keep]
        e_rows = evict[keep]
        deg = m._degree
        kept_rows = cidx[keep]
        cstarts = np.searchsorted(cand_row, kept_rows, side="left").tolist()
        cends = np.searchsorted(cand_row, kept_rows, side="right").tolist()
        snbr_off = np.concatenate(([0], np.cumsum(snbr_lens))).tolist()
        acc_mask = np.zeros(cand_vals.size, dtype=bool)
        cand_list = cand_vals.tolist()
        journal: List[Tuple[str, int]] = []
        n_selects = 0
        for i, e in enumerate(e_rows.tolist()):
            journal.append(("unselect", e))
            lo, hi = cstarts[i], cends[i]
            if hi == lo:
                continue
            if hi - lo == 1:
                # A lone candidate is always accepted.
                acc_mask[lo] = True
                journal.append(("select", cand_list[lo]))
                n_selects += 1
                continue
            cands = cand_vals[lo:hi]
            order = np.argsort(deg[cands] * np.int64(m._capacity) + cands)
            accepted: Set[int] = set()
            for j in order.tolist():
                y = cand_list[lo + j]
                seg = snbr_vals[snbr_off[lo + j] : snbr_off[lo + j + 1]]
                # A candidate adjacent to an earlier accept is tight again.
                if accepted and not accepted.isdisjoint(seg.tolist()):
                    continue
                accepted.add(y)
                acc_mask[lo + j] = True
                journal.append(("select", y))
                n_selects += 1
        np.add.at(deg, rows.ravel(), 1)
        # Net tightness of insert + evict: the evicted end keeps the new
        # edge's +1, the surviving end cancels (+1 insert, -1 unselect),
        # every pre-insert neighbour of the evicted vertex loses one.
        np.add.at(m._tight, e_rows, 1)
        nbr_commit = nbr_vals[nbr_row < p]
        if nbr_commit.size:
            np.subtract.at(m._tight, nbr_commit, 1)
        m._store_selected(e_rows, False)
        if n_selects:
            m._store_selected(cand_vals[acc_mask], True)
            gained = snbr_vals[np.repeat(acc_mask, snbr_lens)]
            if gained.size:
                np.add.at(m._tight, gained, 1)
        m._journal_extend(journal)
        _overlay_record_inserts(m, rows)
        m._num_edges += rows.shape[0]
        m.stats.edges_inserted += rows.shape[0]
        m.stats.evictions += rows.shape[0]
        m.stats.additions += n_selects
        m.wave.batched_evictions += rows.shape[0]
        m.wave.batched_selects += n_selects

    @classmethod
    def _commit_insert_quiet(cls, m, rows) -> None:
        # Duplicates of existing edges are no-ops under invariants (both
        # endpoints of a quiet insertion are covered, so the pre-insert
        # selection step of insert_edge cannot fire either).
        exists = cls._edge_exists_rows(m, rows)
        if exists.any():
            rows = rows[~exists]
            if not rows.shape[0]:
                return
        a, b = rows[:, 0], rows[:, 1]
        np.add.at(m._degree, rows.ravel(), 1)
        sel_b = m._selected[b]
        sel_a = m._selected[a]
        if sel_b.any():
            np.add.at(m._tight, a[sel_b], 1)
        if sel_a.any():
            np.add.at(m._tight, b[sel_a], 1)
        _overlay_record_inserts(m, rows)
        m._num_edges += rows.shape[0]
        m.stats.edges_inserted += rows.shape[0]

    def _delete_waves(self, m, deletions) -> None:
        count = len(deletions)
        if not count:
            return
        pairs = np.asarray(deletions, dtype=np.int64).reshape(count, 2)
        wave = m.wave
        idx = 0
        window = m._wave_state.get("delete_window", self._WAVE_WINDOW_MIN)
        while idx < count:
            chunk = pairs[idx : idx + window]
            prefix = self._delete_subwave(m, chunk)
            if prefix:
                wave.sub_waves += 1
                idx += prefix
                if prefix == len(chunk):
                    window = min(window * 2, self._WAVE_WINDOW_MAX)
                else:
                    window = max(
                        self._WAVE_WINDOW_MIN,
                        min(self._WAVE_WINDOW_MAX, 2 * prefix),
                    )
            else:  # pragma: no cover - a head row is never violated
                x, y = pairs[idx].tolist()
                m.delete_edge(x, y)
                idx += 1
                wave.scalar_fallbacks += 1
        m._wave_state["delete_window"] = window

    def _delete_subwave(self, m, chunk) -> int:
        """Classify one deletion window and commit its longest safe prefix.

        Dead rows (missing edge or vertex) are order-free no-ops.  Live
        rows are quiet when neither endpoint runs out of selected
        neighbours — tested against the *prefix-cumulative* tightness
        loss at the row's own position (a searchsorted over per-vertex
        loss events), so quiet/quiet interactions are exact.  The rest
        are conflict rows: the deletion starves exactly one endpoint,
        which re-saturation immediately selects back.  The first-touch
        scan cuts the window at the first disturbed row; everything
        before commits batched.
        """

        n = chunk.shape[0]
        live = self._live_mask(m, chunk)
        if not live.any():
            return n
        lidx = np.flatnonzero(live)
        rows_l = chunk[live]
        a, b = rows_l[:, 0], rows_l[:, 1]
        sel_a = m._selected[a]
        sel_b = m._selected[b]
        # Loss events: committing live row r decrements tight[x] for each
        # endpoint x whose other endpoint is selected.  Packed (vertex,
        # row) keys make "losses of x at rows <= r" one searchsorted.
        ev_vert = np.concatenate([a[sel_b], b[sel_a]])
        ev_row = np.concatenate([lidx[sel_b], lidx[sel_a]])
        span = np.int64(n + 1)
        keys = np.sort(ev_vert * span + ev_row)
        loss_a = np.searchsorted(keys, a * span + lidx, side="right")
        loss_a -= np.searchsorted(keys, a * span)
        loss_b = np.searchsorted(keys, b * span + lidx, side="right")
        loss_b -= np.searchsorted(keys, b * span)
        quiet_a = sel_a | (m._tight[a] - loss_a > 0)
        quiet_b = sel_b | (m._tight[b] - loss_b > 0)
        quiet = quiet_a & quiet_b
        if quiet.all():
            self._commit_delete_quiet(m, rows_l)
            return n
        crow = ~quiet
        cidx = lidx[crow]
        fail_vert = np.concatenate([a[~quiet_a], b[~quiet_b]])
        fail_row = np.concatenate([lidx[~quiet_a], lidx[~quiet_b]])
        fnbr_vals, fnbr_lens = _gather_adjacency(m, fail_vert)
        zone_vert = np.concatenate([rows_l[crow].ravel(), fnbr_vals])
        zone_owner = np.concatenate(
            [np.repeat(cidx, 2), np.repeat(fail_row, fnbr_lens)]
        )
        quiet_vert = rows_l[quiet].ravel()
        quiet_owner = np.repeat(lidx[quiet], 2)
        # A conflict deletion's classification and commit read only its
        # own endpoints: the prefix-cumulative loss math accounts for
        # every earlier quiet row exactly, and any structure change to
        # the failing endpoint's neighbourhood necessarily writes at the
        # endpoint itself.  Quiet rows keep the full conflict zone as
        # their flip set — a re-selection's tightness scatters can change
        # the loss-based classification anywhere in the zone.
        conf_vert = rows_l[crow].ravel()
        conf_owner = np.repeat(cidx, 2)
        p = self._first_violation(
            m,
            n,
            zone_vert,
            zone_owner,
            quiet_vert,
            quiet_owner,
            conf_vert,
            conf_owner,
            zone_vert,
            zone_owner,
        )
        qmask = quiet & (lidx < p)
        if qmask.any():
            self._commit_delete_quiet(m, rows_l[qmask])
        if bool((fail_row < p).any()):
            self._commit_delete_conflicts(
                m, p, rows_l, lidx, fail_vert, fail_row, fnbr_vals, fnbr_lens
            )
        return p

    @staticmethod
    def _commit_delete_conflicts(
        m, p, rows_l, lidx, fail_vert, fail_row, fnbr_vals, fnbr_lens
    ) -> None:
        """Batched flip-select commit of the admitted conflict deletions.

        Every admitted conflict deletion starves exactly one unselected
        endpoint ``f`` (its only selected neighbour was the other
        endpoint ``s``), and re-saturation selects ``f`` right back:
        degree/tightness effects land as scatters and the journal gets
        one ``("select", f)`` per row in ascending row order.
        """

        keep = fail_row < p
        fn_commit = fnbr_vals[np.repeat(keep, fnbr_lens)]
        f_vert = fail_vert[keep]
        f_row = fail_row[keep]
        order = np.argsort(f_row)
        f_vert = f_vert[order]
        f_row = f_row[order]
        rows = rows_l[np.searchsorted(lidx, f_row)]
        s_vert = rows[:, 0] + rows[:, 1] - f_vert
        np.subtract.at(m._degree, rows.ravel(), 1)
        # The removed edge costs f its only selected neighbour ...
        np.subtract.at(m._tight, f_vert, 1)
        # ... and selecting f back raises all its post-delete neighbours:
        # +1 over the pre-delete neighbourhood minus the s endpoint.
        if fn_commit.size:
            np.add.at(m._tight, fn_commit, 1)
        np.subtract.at(m._tight, s_vert, 1)
        m._store_selected(f_vert, True)
        m._journal_extend([("select", int(y)) for y in f_vert.tolist()])
        _overlay_record_deletes(m, rows)
        m._num_edges -= rows.shape[0]
        m.stats.edges_deleted += rows.shape[0]
        m.stats.additions += rows.shape[0]
        m.wave.batched_selects += rows.shape[0]

    @classmethod
    def _live_mask(cls, m, chunk) -> np.ndarray:
        """Rows of ``chunk`` whose edge currently exists between present vertices."""

        cap = m._capacity
        u, v = chunk[:, 0], chunk[:, 1]
        live = (u < cap) & (v < cap)
        if live.any():
            cu = np.where(live, u, 0)
            cv = np.where(live, v, 0)
            live &= m._present[cu] & m._present[cv]
            idxs = np.nonzero(live)[0]
            if idxs.size:
                live[idxs] = cls._edge_exists_rows(m, chunk[idxs])
        return live

    @staticmethod
    def _commit_delete_quiet(m, rows) -> None:
        a, b = rows[:, 0], rows[:, 1]
        np.subtract.at(m._degree, rows.ravel(), 1)
        sel_b = m._selected[b]
        sel_a = m._selected[a]
        if sel_b.any():
            np.subtract.at(m._tight, a[sel_b], 1)
        if sel_a.any():
            np.subtract.at(m._tight, b[sel_a], 1)
        _overlay_record_deletes(m, rows)
        m._num_edges -= rows.shape[0]
        m.stats.edges_deleted += rows.shape[0]


def _overlay_record_inserts(m, rows) -> None:
    """Record committed edge insertions in the delta overlay.

    A re-inserted base edge cancels its ``removed`` entry instead of
    gaining an ``added`` one; the no-``removed`` fast path skips those
    probes entirely (the common state on insert-dominated streams).
    """

    added, removed = m._added, m._removed
    if removed:
        rem_get = removed.get
        add_get = added.get
        for x, y in rows.tolist():
            rem = rem_get(x)
            if rem and y in rem:
                rem.discard(y)
            else:
                s = add_get(x)
                if s is None:
                    added[x] = {y}
                else:
                    s.add(y)
            rem = rem_get(y)
            if rem and x in rem:
                rem.discard(x)
            else:
                s = add_get(y)
                if s is None:
                    added[y] = {x}
                else:
                    s.add(x)
    else:
        add_get = added.get
        for x, y in rows.tolist():
            s = add_get(x)
            if s is None:
                added[x] = {y}
            else:
                s.add(y)
            s = add_get(y)
            if s is None:
                added[y] = {x}
            else:
                s.add(x)
    m._overlay_dirty[rows.ravel()] = True


def _overlay_record_deletes(m, rows) -> None:
    """Record committed edge deletions in the delta overlay (mirror case)."""

    added, removed = m._added, m._removed
    if added:
        add_get = added.get
        rem_get = removed.get
        for x, y in rows.tolist():
            add = add_get(x)
            if add and y in add:
                add.discard(y)
            else:
                s = rem_get(x)
                if s is None:
                    removed[x] = {y}
                else:
                    s.add(y)
            add = add_get(y)
            if add and x in add:
                add.discard(x)
            else:
                s = rem_get(y)
                if s is None:
                    removed[y] = {x}
                else:
                    s.add(x)
    else:
        rem_get = removed.get
        for x, y in rows.tolist():
            s = rem_get(x)
            if s is None:
                removed[x] = {y}
            else:
                s.add(y)
            s = rem_get(y)
            if s is None:
                removed[y] = {x}
            else:
                s.add(x)
    m._overlay_dirty[rows.ravel()] = True


def _gather_adjacency(m, verts):
    """Concatenated current neighbour lists of ``verts`` → (values, lens).

    The CSR base contributes one vectorized ragged gather; vertices with
    delta-overlay entries (the small part of the graph by design) have
    their segment replaced by the maintainer's scalar neighbour scan.
    """

    base_n = m._base_n
    offsets, targets = m._base_offsets, m._base_targets
    if base_n and offsets is not None:
        in_base = verts < base_n
        vb = np.where(in_base, verts, 0)
        starts = np.where(in_base, offsets[vb], 0)
        lens = np.where(in_base, offsets[vb + 1] - offsets[vb], 0)
        values = targets[ragged_slots(starts, lens)]
    else:
        lens = np.zeros(verts.size, dtype=np.int64)
        values = np.empty(0, dtype=np.int64)
    if m._added or m._removed:
        dirty = np.flatnonzero(m._overlay_dirty[verts])
        if dirty.size:
            values, lens = _patch_dirty_segments(m, verts, values, lens, dirty)
    return values, lens


def _patch_dirty_segments(m, verts, values, lens, dirty):
    """Apply the delta overlay to the dirty segments of a ragged gather.

    The Python loop only walks each dirty vertex's (small) overlay sets;
    the O(degree) work — locating removed edges in the sorted base
    segments and splicing added ones in — happens in a handful of
    vectorized operations over the whole gather at once.
    """

    has_removed = bool(m._removed)
    has_added = bool(m._added)
    get_removed = m._removed.get
    get_added = m._added.get
    rem_keys: List[int] = []
    add_vals: List[int] = []
    add_counts = np.zeros(dirty.size, dtype=np.int64)
    cap = m._capacity
    for k, vv in enumerate(verts[dirty].tolist()):
        if has_removed:
            rem = get_removed(vv)
            if rem:
                base = k * cap
                rem_keys.extend(base + w for w in rem)
        if has_added:
            add = get_added(vv)
            if add:
                add_vals.extend(add)
                add_counts[k] = len(add)
    new_lens = lens.copy()
    if rem_keys:
        ends = np.cumsum(lens)
        d_lens = lens[dirty]
        slot_idx = ragged_slots(ends[dirty] - d_lens, d_lens)
        # Segment values are ascending and owners non-decreasing, so the
        # packed (owner, neighbour) keys are globally sorted; every
        # removed overlay entry is a live base edge, so each search hits.
        keys = np.repeat(
            np.arange(dirty.size, dtype=np.int64) * cap, d_lens
        ) + values[slot_idx]
        rk = np.asarray(rem_keys, dtype=np.int64)
        rk.sort()
        keep = np.ones(values.size, dtype=bool)
        keep[slot_idx[np.searchsorted(keys, rk)]] = False
        values = values[keep]
        new_lens[dirty] -= np.bincount(rk // cap, minlength=dirty.size)
    if add_vals:
        new_lens[dirty] += add_counts
        new_ends = np.cumsum(new_lens)
        add_idx = ragged_slots(
            new_ends[dirty] - add_counts, add_counts
        )
        out = np.empty(values.size + len(add_vals), dtype=np.int64)
        add_slot = np.zeros(out.size, dtype=bool)
        add_slot[add_idx] = True
        out[add_idx] = np.asarray(add_vals, dtype=np.int64)
        out[~add_slot] = values
        values = out
    return values, new_lens


def _scalar_round(batch, cursor, degree, alive, offsets, targets,
                  buckets, round_selection, round_min):
    """Finish one DynamicUpdate round with the reference's scalar loop.

    Returns the updated round minimum degree and the number of vertices
    removed (selected plus neighbours) while finishing the round.
    """

    removed_total = 0
    for vertex in batch.tolist():
        if not alive[vertex] or degree[vertex] != cursor:
            continue
        alive[vertex] = False
        removed_total += 1
        round_selection.append(vertex)
        pushes: Dict[int, List[int]] = {}
        for neighbor in targets[offsets[vertex] : offsets[vertex + 1]].tolist():
            if not alive[neighbor]:
                continue
            alive[neighbor] = False
            removed_total += 1
            for second in targets[
                offsets[neighbor] : offsets[neighbor + 1]
            ].tolist():
                if alive[second]:
                    new_degree = int(degree[second]) - 1
                    degree[second] = new_degree
                    pushes.setdefault(new_degree, []).append(second)
                    if new_degree < round_min:
                        round_min = new_degree
        for new_degree, vertices in pushes.items():
            buckets[new_degree].append(np.asarray(vertices, dtype=np.int64))
    return round_min, removed_total


register_backend(NumpyBackend())
