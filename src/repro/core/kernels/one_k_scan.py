"""Event-driven one-k-swap pre-swap scan (Algorithm 2 lines 7-14) over ndarrays.

The numpy backend's one-k pass runs each round as two batched sweeps of
the scan order (``scan_batches`` serves in-memory and file-backed
sources alike): :class:`OneKRound` is the pre-swap scan, and the
post-swap scan is :func:`~repro.core.kernels.relabel.relabel_batch`,
shared with the two-k pass.  Both are bit-identical to the python
reference.
"""

from __future__ import annotations

import heapq
from typing import Set

import numpy as np

from repro.core.kernels.ndarrays import local_sources, ragged_slots
from repro.core.states import VertexState as S

__all__ = ["OneKRound"]

_IS = int(S.IS)
_NON = int(S.NON_IS)
_ADJ = int(S.ADJACENT)
_PRO = int(S.PROTECTED)
_CON = int(S.CONFLICT)
_RET = int(S.RETROGRADE)

# What a candidate does at its scan turn.
_INERT = 0  # nothing: stays A
_DROP = 1  # no anchor (defensive): A -> N
_CONFLICT = 2  # case (i), a P neighbour: A -> C
_SWAP = 3  # case (ii), a 1-2 skeleton: A -> P, anchor IS -> R
_FOLLOW = 4  # case (iii), anchor already R: A -> P


class OneKRound:
    """One round of the one-k pre-swap scan, event-driven per batch.

    A candidate's outcome reads its neighbours' P flags, the anchor's
    state and pointer count, and how many of its neighbours are A at the
    same anchor.  Within the scan only candidates change state, and only
    their own (A→P/C, N for the defensive no-anchor case) and their
    anchor's (IS→R), so each batch runs in two phases:

    * **bulk classification** of every "A" candidate against the
      batch-start state, with vectorized compares: P neighbour, anchor
      state, and the 1-2 condition
      ``pointer_count[anchor] - 1 - adjacent_partners > 0``;
    * a **scan-order event loop** over the candidates whose outcome is a
      state change.  A candidate no earlier change of the batch could
      reach applies its classified outcome; a reached one is replayed
      live.  A change reaches the later candidates of the batch adjacent
      to a new P vertex, and — while the anchor is still IS, so its
      pointer count or state matters — every later candidate at the
      anchor.  Same-anchor partners of a candidate share its anchor, so
      the anchor push also covers their ``adjacent_partners``.

    The scalar code reads the numpy buffers through zero-copy memoryviews.
    """

    def __init__(self, state, isn, local_index) -> None:
        self.state = state
        self.isn = isn
        #: n-sized, all -1 between batches: batch-local candidate index.
        self.local_index = local_index
        # |ISN^-1(w)| for every IS vertex w, as one bincount.
        adjacent = isn[(state == _ADJ) & (isn >= 0)]
        self.pointer_count = np.bincount(adjacent, minlength=state.size).astype(
            np.int64
        )
        self.bulk_decided = 0
        self.replayed = 0

    def scan_batch(self, verts, local_offsets, tgts) -> None:
        """Run Algorithm 2 lines 7-14 over the "A" candidates of one batch."""

        state = self.state
        isn = self.isn
        rec = np.flatnonzero(state[verts] == _ADJ)
        k = rec.size
        if k == 0:
            return
        cand = verts[rec]
        anchor = isn[cand]
        lens = local_offsets[rec + 1] - local_offsets[rec]
        nbr_starts = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(lens, out=nbr_starts[1:])
        nbrs = tgts[ragged_slots(local_offsets[rec], lens)]
        src = local_sources(k, lens)
        nstate = state[nbrs]

        anchored = anchor >= 0
        safe_anchor = np.where(anchored, anchor, 0)
        anchor_state = np.where(anchored, state[safe_anchor], _NON)
        anchor_is = anchor_state == _IS
        has_pro = np.zeros(k, dtype=bool)
        has_pro[src[nstate == _PRO]] = True
        slot = np.flatnonzero((nstate == _ADJ) & anchor_is[src])
        slot = slot[isn[nbrs[slot]] == anchor[src[slot]]]
        adjacent_partners = np.bincount(src[slot], minlength=k)
        one_two = anchor_is & (
            self.pointer_count[safe_anchor] - 1 - adjacent_partners > 0
        )
        outcome = np.select(
            (~anchored, has_pro, one_two, anchor_state == _RET),
            (_DROP, _CONFLICT, _SWAP, _FOLLOW),
            _INERT,
        ).astype(np.int8)
        if outcome.any():
            self._event_loop(cand, anchor, nbrs, nbr_starts, outcome)
        else:
            self.bulk_decided += k

    def _event_loop(self, cand, anchor, nbrs, nbr_starts, outcome) -> None:
        """Scan-order commit of the state-changing candidates of one batch."""

        k = cand.size
        index = np.arange(k, dtype=np.int64)
        local_index = self.local_index
        local_index[cand] = index
        # Candidates grouped by anchor, ascending inside each group: the
        # later candidates at a candidate's anchor follow its rank up to
        # the group end.
        by_anchor = np.argsort(anchor, kind="stable")
        sorted_anchor = anchor[by_anchor]
        rank = np.empty(k, dtype=np.int64)
        rank[by_anchor] = index
        group_end = np.searchsorted(sorted_anchor, sorted_anchor, side="right")[rank]

        state = memoryview(self.state)
        isn = memoryview(self.isn)
        pointer_count = memoryview(self.pointer_count)
        cand_v = memoryview(cand)
        nbr_v = memoryview(nbrs)
        nbr_at = memoryview(nbr_starts)
        local = memoryview(local_index)
        group_v = memoryview(by_anchor)
        rank_v = memoryview(rank)
        group_end_v = memoryview(group_end)
        planned = memoryview(outcome)

        active = outcome != _INERT
        heap = np.flatnonzero(active).tolist()  # ascending: a valid heap
        queued = bytearray(active.tobytes())
        dirty = bytearray(k)
        touched: Set[int] = set()

        def push(j: int) -> None:
            if not dirty[j]:
                dirty[j] = 1
                if not queued[j]:
                    queued[j] = 1
                    heapq.heappush(heap, j)

        replayed = 0
        try:
            while heap:
                c = heapq.heappop(heap)
                v = cand_v[c]
                a = isn[v]
                if not dirty[c]:
                    action = planned[c]
                else:
                    # Replay Algorithm 2 lines 7-14 against the live state.
                    replayed += 1
                    nb = nbr_v[nbr_at[c] : nbr_at[c + 1]]
                    if a < 0:
                        action = _DROP
                    elif any(state[u] == _PRO for u in nb):
                        action = _CONFLICT
                    elif state[a] == _IS:
                        adjacent = 0
                        for u in nb:
                            if state[u] == _ADJ and isn[u] == a:
                                adjacent += 1
                        if pointer_count[a] - 1 - adjacent > 0:
                            action = _SWAP
                        else:
                            action = _INERT
                    elif state[a] == _RET:
                        action = _FOLLOW
                    else:
                        action = _INERT

                if action == _INERT:
                    continue
                if action == _DROP:
                    state[v] = _NON
                    continue
                if state[a] == _IS and a not in touched:
                    # The candidate leaves A while its anchor is IS: that
                    # moves what every later candidate at the anchor reads.
                    # Pushing them all at once makes a repeat touch a no-op.
                    touched.add(a)
                    for j in group_v[rank_v[c] + 1 : group_end_v[c]]:
                        push(j)
                pointer_count[a] -= 1
                if action == _CONFLICT:
                    state[v] = _CON
                    continue
                state[v] = _PRO
                if action == _SWAP:
                    state[a] = _RET
                # A new P vertex: its later candidate neighbours see case (i).
                for u in nbr_v[nbr_at[c] : nbr_at[c + 1]]:
                    j = local[u]
                    if j > c:
                        push(j)
        finally:
            local_index[cand] = -1
        self.replayed += replayed
        self.bulk_decided += k - replayed
