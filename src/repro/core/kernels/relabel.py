"""The post-swap scan shared by the one-k and two-k passes, over ndarrays.

Algorithm 2 lines 20-28 and Algorithm 3 lines 15-23 are the same scan up
to the number of IS anchors an "A" vertex may have: one-k labels a vertex
A when it has exactly one IS neighbour, two-k when it has one or two.
Everything else is shared — a scanned vertex with no IS or A neighbour is
inserted (the 0-1 swap), every other non-A vertex becomes N.  Without
insertions the same scan is the initial labelling of lines 1-3.

:func:`relabel_batch` runs it over one scan batch as vectorized base
labelling plus a sparse, scan-order event loop over the 0-1 insertions;
the result is bit-identical to the python reference.
"""

from __future__ import annotations

import heapq
from typing import Dict, Set

import numpy as np

from repro.core.kernels.ndarrays import int_bincount, local_sources, ragged_slots
from repro.core.states import VertexState as S

__all__ = ["relabel_batch"]

_IS = int(S.IS)
_NON = int(S.NON_IS)
_ADJ = int(S.ADJACENT)

_EMPTY = np.empty(0, dtype=np.int64)


def relabel_batch(state, isn1, isn2, verts, local_offsets, tgts, local_index,
                  insert: bool) -> int:
    """Post-swap scan of one batch; returns the 0-1 swaps.

    ``isn2`` is ``None`` for the one-k pass (A iff exactly one IS
    neighbour, anchored in ``isn1``) and the second-anchor array for the
    two-k pass (A iff one or two IS neighbours, ``isn1 < isn2``).

    Every scanned (non-IS) vertex takes its base label from the batch-start
    IS-neighbour count — A with its anchors (the unique neighbour, or for
    two the smaller id from a per-record minimum and the larger from the
    id sum), N otherwise — in one vectorized store.  Earlier batches are
    already final in the live state, so a vertex deviates from its base
    label only through a 0-1 insertion earlier in its own batch, and
    insertions start only at zero-count vertices.  A sparse event loop
    walks those seeds and everything an insertion reaches in scan order,
    carrying the exact count/sum/min/blocker corrections the serial scan
    would see.  With ``insert`` false this is the initial labelling (no
    0-1 swaps).
    """

    n = state.size
    r = verts.size
    max_anchors = 1 if isn2 is None else 2
    lens = local_offsets[1:] - local_offsets[:-1]
    src = local_sources(r, lens)
    # Index gathers: ``flatnonzero`` plus two takes beat two boolean masks.
    is_slot = np.flatnonzero(state[tgts] == _IS)
    sel = src[is_slot]
    is_nbrs = tgts[is_slot]
    cnt = np.bincount(sel, minlength=r)
    nbr_sum = int_bincount(sel, is_nbrs, r)
    nbr_min = None
    if isn2 is not None:
        # Smallest IS neighbour per record (n = none): the IS slots are
        # grouped by record, so one reduceat over the non-empty groups.
        nbr_min = np.full(r, n, dtype=np.int64)
        has_is = np.flatnonzero(cnt)
        if has_is.size:
            nbr_min[has_is] = np.minimum.reduceat(
                is_nbrs, (np.cumsum(cnt) - cnt)[has_is]
            )
    vstate = state[verts]
    scanned = np.flatnonzero(vstate != _IS)
    count = cnt[scanned]
    one = count == 1
    labelled_adj = (count >= 1) & (count <= max_anchors)
    seeds = scanned[count == 0] if insert else _EMPTY

    if seeds.size:
        # Blocker (IS or A neighbours) of each seed at its own scan turn,
        # if every earlier vertex of the batch took its base label.
        seed_lens = lens[seeds]
        seed_nbrs = tgts[ragged_slots(local_offsets[seeds], seed_lens)]
        seed_src = local_sources(seeds.size, seed_lens)
        nbr_state = state[seed_nbrs]
        blocking = (nbr_state == _IS) | (nbr_state == _ADJ)
        local_index[verts] = np.arange(r, dtype=np.int64)
        nbr_local = local_index[seed_nbrs]
        delta = np.zeros(r, dtype=np.int64)
        delta[scanned] = labelled_adj.astype(np.int64) - (vstate[scanned] == _ADJ)
        earlier = (nbr_local >= 0) & (nbr_local < seeds[seed_src])
        seed_blocker = np.bincount(
            seed_src[blocking], minlength=seeds.size
        ) + int_bincount(
            seed_src[earlier], delta[nbr_local[earlier]], seeds.size
        )

    scanned_v = verts[scanned]
    state[scanned_v] = np.where(labelled_adj, _ADJ, _NON)
    if isn2 is None:
        isn1[scanned_v] = np.where(one, nbr_sum[scanned], -1)
    else:
        two = count == 2
        low = nbr_min[scanned]
        isn1[scanned_v] = np.where(one, nbr_sum[scanned], np.where(two, low, -1))
        isn2[scanned_v] = np.where(two, nbr_sum[scanned] - low, -1)
    if not seeds.size:
        return 0

    try:
        return _insertion_events(
            state, isn1, isn2, verts, local_offsets, tgts, local_index,
            cnt, nbr_sum, nbr_min, seeds, seed_blocker,
        )
    finally:
        local_index[verts] = -1


def _insertion_events(state, isn1, isn2, verts, local_offsets, tgts, local,
                      cnt, nbr_sum, nbr_min, seeds, seed_blocker) -> int:
    """Scan-order 0-1 insertions of one post-swap batch (see ``relabel_batch``)."""

    n = state.size
    max_anchors = 1 if isn2 is None else 2
    state = memoryview(state)
    isn1 = memoryview(isn1)
    if isn2 is not None:
        isn2 = memoryview(isn2)
        nbr_min = memoryview(nbr_min)
    verts = memoryview(verts)
    offsets = memoryview(local_offsets)
    tgts = memoryview(tgts)
    local = memoryview(local)
    cnt = memoryview(cnt)
    nbr_sum = memoryview(nbr_sum)

    heap = seeds.tolist()  # ascending: a valid heap
    blocker0 = dict(zip(heap, seed_blocker.tolist()))
    done: Set[int] = set()
    extra_cnt: Dict[int, int] = {}
    extra_sum: Dict[int, int] = {}
    extra_min: Dict[int, int] = {}
    corr: Dict[int, int] = {}
    inserted = 0
    while heap:
        i = heapq.heappop(heap)
        if i in done:
            continue
        done.add(i)
        v = verts[i]
        base = cnt[i]
        live = base + extra_cnt.get(i, 0)
        if 1 <= live <= max_anchors:
            total = nbr_sum[i] + extra_sum.get(i, 0)
            if live == 1:
                isn1[v] = total
                if isn2 is not None:
                    isn2[v] = -1
            else:
                low = min(nbr_min[i], extra_min.get(i, n))
                isn1[v] = low
                isn2[v] = total - low
            state[v] = _ADJ
            blocks = 1
        else:
            state[v] = _NON
            isn1[v] = -1
            if isn2 is not None:
                isn2[v] = -1
            blocks = 0
            if live == 0 and blocker0[i] + corr.get(i, 0) == 0:
                # 0-1 swap: no live neighbour is IS or A.
                state[v] = _IS
                inserted += 1
                blocks = 1
                for u in tgts[offsets[i] : offsets[i + 1]]:
                    j = local[u]
                    if j > i:
                        extra_cnt[j] = extra_cnt.get(j, 0) + 1
                        extra_sum[j] = extra_sum.get(j, 0) + v
                        extra_min[j] = min(extra_min.get(j, n), v)
                        heapq.heappush(heap, j)
        deviation = blocks - (1 <= base <= max_anchors)
        if deviation:
            for u in tgts[offsets[i] : offsets[i + 1]]:
                j = local[u]
                if j > i:
                    corr[j] = corr.get(j, 0) + deviation
    return inserted
