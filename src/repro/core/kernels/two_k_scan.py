"""Event-driven two-k-swap round scans (Algorithms 3 and 4) over ndarrays.

The numpy backend's two-k pass runs each round as two batched sweeps of
the scan order (:meth:`~repro.storage.scan.InMemoryAdjacencyScan.scan_batches`
serves in-memory and file-backed sources alike):

* :class:`TwoKRound` — the pre-swap scan of Algorithm 4.  Each batch's
  "A" candidates are classified against the batch-start state with
  vectorized compares, and only those whose outcome can differ from
  "nothing happens" — or whose inputs an earlier promotion or conflict
  touched — are replayed, in scan order, by a scalar event loop;
* :func:`~repro.core.kernels.relabel.relabel_batch` — the post-swap
  scan of Algorithm 3 lines 15-23 (and the initial labelling of lines
  1-3), shared with the one-k pass: vectorized base labelling plus a
  sparse event loop over the 0-1 insertions.

Both produce results bit-identical to the python reference: sets, round
telemetry, swap-candidate store peaks and the random lookups charged by
the skeleton re-verification.
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_left, bisect_right
from typing import Set

import numpy as np

from repro.core.kernels.ndarrays import local_sources, ragged_slots
from repro.core.kernels.sc_store import SwapCandidateStore
from repro.core.states import VertexState as S

__all__ = ["TwoKRound"]

_IS = int(S.IS)
_ADJ = int(S.ADJACENT)
_PRO = int(S.PROTECTED)
_CON = int(S.CONFLICT)
_RET = int(S.RETROGRADE)

_EMPTY = np.empty(0, dtype=np.int64)


def _member(values, pool):
    """``np.isin(values, pool)`` by sort + binary search.

    ``np.isin`` may take a ``np.unique`` path that imports ``numpy.ma``
    on first use, a one-off megabyte the scan does not need.
    """

    if pool.size == 0:
        return np.zeros(values.size, dtype=bool)
    pool = np.sort(pool)
    return pool[np.minimum(np.searchsorted(pool, values), pool.size - 1)] == values


def _earlier_match(keys, idx, query, query_idx):
    """Whether each ``query`` key occurs in ``keys`` at an index below ``query_idx``."""

    if keys.size == 0:
        return np.zeros(query.size, dtype=bool)
    order = np.lexsort((idx, keys))
    keys = keys[order]
    first = np.ones(keys.size, dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    unique = keys[first]
    earliest = idx[order][first]
    at = np.minimum(np.searchsorted(unique, query), unique.size - 1)
    return (unique[at] == query) & (earliest[at] < query_idx)


class TwoKRound:
    """One round of the two-k pre-swap scan (Algorithm 4), event-driven.

    Algorithm 4 is sequential: a candidate's outcome may depend on any
    earlier promotion through shared anchors, neighbourhoods and the swap
    candidate (SC) store.  Yet almost every outcome is already fixed by
    the state at the start of the candidate's scan batch, so each batch
    runs in two phases:

    * **bulk classification** against the batch-start state, with
      vectorized compares.  A candidate is *inert* when it has no P
      neighbour, its 1-2 and all-retrograde conditions fail, it adds no
      SC pair and no SC key it would read can exist yet.  The SC pairs of
      the two-anchor candidates come from one ragged join over
      ``members(w1) + members(w2)``, truncated to ``max_partner_checks``
      like the reference's partner loop;
    * a **scan-order event loop** over the rest.  A candidate that only
      adds SC pairs replays its predicted adds into the store; every other
      active candidate runs Algorithm 4 against the live state.  Each state
      change pushes the later candidates of the batch whose inputs it
      touched — the neighbours of a new P vertex, and every candidate
      anchored at an anchor whose state, single-anchor count or member
      states moved — and a pushed candidate is replayed in full.

    Within a pre-swap scan, states only move A→P/C and IS→R, so a partner
    or key that is invalid at batch start stays invalid: classification can
    over-report work, never miss it.  The store sees the reference's exact
    add/free sequence, so its key order and ``peak_vertices`` match too.
    The scalar code reads the numpy buffers through zero-copy memoryviews.
    """

    def __init__(
        self,
        state,
        isn1,
        isn2,
        source,
        max_pairs_per_key: int,
        max_partner_checks: int,
        local_index,
    ) -> None:
        n = state.size
        self.state = state
        self.isn1 = isn1
        self.isn2 = isn2
        self.source = source
        self.max_partner_checks = max(int(max_partner_checks), 0)
        self.sc = SwapCandidateStore(max_pairs_per_key=max_pairs_per_key)
        self.protected: Set[int] = set()
        self.one_k_swaps = 0
        self.two_k_swaps = 0
        self.bulk_decided = 0
        self.replayed = 0
        #: n-sized, all -1 between batches: batch-local candidate index.
        self.local_index = local_index

        # The membership join: every "A" vertex contributes the pairs
        # (anchor, vertex) for its one or two IS anchors; sorting by
        # (anchor, member) yields members(w) as one contiguous ascending
        # slice per anchor — identical content and order to the
        # reference's insertion-ordered dict-of-lists.
        adj_idx = np.flatnonzero(state == _ADJ)
        first_anchor = isn1[adj_idx]
        second_anchor = isn2[adj_idx]
        has_second = second_anchor >= 0
        anchors = np.concatenate((first_anchor, second_anchor[has_second]))
        members = np.concatenate((adj_idx, adj_idx[has_second]))
        order = np.lexsort((members, anchors))
        self.mem_sorted = members[order]
        self.mem_starts = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(anchors, minlength=n), out=self.mem_starts[1:])
        self.single_count = np.bincount(
            first_anchor[~has_second], minlength=n
        ).astype(np.int64)

    def scan_batch(self, verts, local_offsets, tgts) -> None:
        """Run Algorithm 4 over the "A" candidates of one scan batch."""

        state = self.state
        isn1 = self.isn1
        isn2 = self.isn2
        rec = np.flatnonzero(state[verts] == _ADJ)
        k = rec.size
        if k == 0:
            return
        cand = verts[rec]
        w1 = isn1[cand]
        w2 = isn2[cand]
        lens = local_offsets[rec + 1] - local_offsets[rec]
        nbr_starts = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(lens, out=nbr_starts[1:])
        nbrs = tgts[ragged_slots(local_offsets[rec], lens)]
        src = local_sources(k, lens)
        nstate = state[nbrs]

        two = w2 >= 0
        s1 = state[w1]
        s2 = np.where(two, state[np.where(two, w2, 0)], _RET)
        single_is = ~two & (s1 == _IS)
        both_is = (s1 == _IS) & (s2 == _IS)
        # Line 3-4: a P neighbour.
        has_pro = np.zeros(k, dtype=bool)
        has_pro[src[nstate == _PRO]] = True
        # Line 9-10: the 1-2 skeleton condition.
        slot = np.flatnonzero((nstate == _ADJ) & single_is[src])
        partner = nbrs[slot]
        slot = slot[(isn2[partner] < 0) & (isn1[partner] == w1[src[slot]])]
        adjacent_partners = np.bincount(src[slot], minlength=k)
        one_two = single_is & (self.single_count[w1] - 1 - adjacent_partners > 0)
        # Line 11-12: every anchor already retrograde.
        retro = (s1 == _RET) & (s2 == _RET)
        # Line 1-2: the predicted SC adds.
        owners, partners = self._partner_join(cand, w1, w2, both_is, nbrs, src)
        adds = np.zeros(k, dtype=bool)
        adds[owners] = True
        replay = has_pro | one_two | retro
        replay |= self._reads_store(w1, w2, single_is, both_is, adds)
        self._event_loop(cand, w1, w2, nbrs, nbr_starts, owners, partners,
                         replay, adds & ~replay)

    def _partner_join(self, cand, w1, w2, both_is, nbrs, src):
        """Algorithm 4 line 1-2 for every two-anchor candidate at once.

        Returns ``(owners, partners)``: the batch-local index of each
        candidate and the partner of each SC pair it would add, in the
        reference's add order (scan order, then partner-list order).
        """

        joined = np.flatnonzero(both_is)
        limit = self.max_partner_checks
        if joined.size == 0 or limit == 0:
            return _EMPTY, _EMPTY
        state = self.state
        isn1 = self.isn1
        isn2 = self.isn2
        mem = self.mem_sorted
        starts = self.mem_starts
        low = w1[joined]
        high = w2[joined]
        low_len = np.minimum(starts[low + 1] - starts[low], limit)
        high_len = np.minimum(starts[high + 1] - starts[high], limit - low_len)
        total = low_len + high_len
        out_start = np.cumsum(total) - total
        partners = np.empty(int(total.sum()), dtype=np.int64)
        partners[ragged_slots(out_start, low_len)] = mem[
            ragged_slots(starts[low], low_len)
        ]
        partners[ragged_slots(out_start + low_len, high_len)] = mem[
            ragged_slots(starts[high], high_len)
        ]
        owners = np.repeat(joined, total)
        a = w1[owners]
        b = w2[owners]
        p1 = isn1[partners]
        p2 = isn2[partners]
        keep = (partners != cand[owners]) & (state[partners] == _ADJ)
        keep &= (p1 == a) | (p1 == b)
        keep &= (p2 < 0) | (p2 == a) | (p2 == b)
        owners = owners[keep]
        partners = partners[keep]
        if owners.size:
            # Partners adjacent to their candidate, as one membership test
            # of (candidate, vertex) codes.
            n = state.size
            slot = both_is[src]
            adjacent = _member(owners * n + partners, src[slot] * n + nbrs[slot])
            owners = owners[~adjacent]
            partners = partners[~adjacent]
        return owners, partners

    def _reads_store(self, w1, w2, single_is, both_is, adds):
        """Candidates whose Algorithm 4 line 5-8 may find a stored pair.

        A single-anchor candidate reads every key at its anchor, a
        two-anchor candidate the pairs under its own key.  Either can be
        live at the candidate's turn only if it was stored before this
        batch or an earlier candidate of the batch is predicted to add it.
        """

        n = self.state.size
        sc = self.sc
        reads = np.zeros(w1.size, dtype=bool)
        add_idx = np.flatnonzero(adds)
        single = np.flatnonzero(single_is)
        if single.size:
            keyed = np.fromiter(sc.keyed_anchors(), dtype=np.int64)
            reads[single] = _member(w1[single], keyed) | _earlier_match(
                np.concatenate((w1[add_idx], w2[add_idx])),
                np.concatenate((add_idx, add_idx)),
                w1[single],
                single,
            )
        pair = np.flatnonzero(both_is)
        if pair.size:
            codes = w1 * n + w2
            stored = np.fromiter(
                (min(key) * n + max(key) for key in sc.live_keys()), dtype=np.int64
            )
            reads[pair] = _member(codes[pair], stored) | _earlier_match(
                codes[add_idx], add_idx, codes[pair], pair
            )
        return reads

    def _event_loop(self, cand, w1, w2, nbrs, nbr_starts, owners, partners,
                    replay, add_only) -> None:
        """Scan-order replay of the active candidates of one batch."""

        k = cand.size
        active = replay | add_only
        local_index = self.local_index
        local_index[cand] = np.arange(k, dtype=np.int64)
        # Candidates grouped by anchor, ascending within each group.
        two = np.flatnonzero(w2 >= 0)
        by_anchor = np.concatenate((w1, w2[two]))
        anchored = np.concatenate((np.arange(k, dtype=np.int64), two))
        order = np.lexsort((anchored, by_anchor))
        anchor_keys = memoryview(by_anchor[order])
        anchor_cand = memoryview(anchored[order])
        pair_lo = memoryview(np.searchsorted(owners, np.arange(k + 1, dtype=np.int64)))

        state = memoryview(self.state)
        isn1 = memoryview(self.isn1)
        isn2 = memoryview(self.isn2)
        single_count = memoryview(self.single_count)
        mem = memoryview(self.mem_sorted)
        mem_starts = memoryview(self.mem_starts)
        cand_v = memoryview(cand)
        nbr_v = memoryview(nbrs)
        nbr_at = memoryview(nbr_starts)
        partner_v = memoryview(partners)
        local = memoryview(local_index)
        sc = self.sc
        protected = self.protected
        source = self.source
        limit = self.max_partner_checks

        heap = np.flatnonzero(active).tolist()  # ascending: a valid heap
        queued = bytearray(active.tobytes())
        dirty = bytearray(k)
        pure = bytearray(add_only.tobytes())
        touched: Set[int] = set()
        cur = -1

        def push(i: int) -> None:
            if i > cur and not dirty[i]:
                dirty[i] = 1
                if not queued[i]:
                    queued[i] = 1
                    heapq.heappush(heap, i)

        def touch_anchor(a: int) -> None:
            # Pushing every later candidate at once makes a repeat touch
            # of the same anchor in this batch a no-op.
            if a < 0 or a in touched:
                return
            touched.add(a)
            for j in range(bisect_left(anchor_keys, a), bisect_right(anchor_keys, a)):
                push(anchor_cand[j])

        def promote(x: int) -> None:
            """``x``: A -> P, with its single-anchor and neighbour pushes."""

            state[x] = _PRO
            protected.add(x)
            a = isn1[x]
            b = isn2[x]
            if b < 0:
                single_count[a] -= 1
            touch_anchor(a)
            touch_anchor(b)
            i = local[x]
            if i >= 0:
                for u in nbr_v[nbr_at[i] : nbr_at[i + 1]]:
                    j = local[u]
                    if j >= 0:
                        push(j)
            else:
                hits = np.flatnonzero(nbrs == x)
                if hits.size:
                    for j in (np.searchsorted(nbr_starts, hits, side="right") - 1).tolist():
                        push(j)

        def verify_no_protected_neighbor(x: int) -> bool:
            if not protected:
                return True
            return not any(u in protected for u in source.neighbors(x))

        replayed = 0
        try:
            while heap:
                c = heapq.heappop(heap)
                cur = c
                v = cand_v[c]
                if pure[c] and not dirty[c]:
                    key = frozenset((isn1[v], isn2[v]))
                    for j in range(pair_lo[c], pair_lo[c + 1]):
                        sc.add(key, (v, partner_v[j]))
                    continue

                replayed += 1
                if state[v] != _ADJ:
                    continue
                a1 = isn1[v]
                a2 = isn2[v]
                nb = nbr_v[nbr_at[c] : nbr_at[c + 1]]
                neighbor_set = None

                # Line 1-2: record swap candidates.
                if a2 >= 0 and state[a1] == _IS and state[a2] == _IS:
                    key = frozenset((a1, a2))
                    neighbor_set = set(nb)
                    checked = 0
                    for partner in itertools.chain(
                        mem[mem_starts[a1] : mem_starts[a1 + 1]],
                        mem[mem_starts[a2] : mem_starts[a2 + 1]],
                    ):
                        if checked >= limit:
                            break
                        checked += 1
                        if partner == v or partner in neighbor_set:
                            continue
                        if state[partner] != _ADJ:
                            continue
                        p1 = isn1[partner]
                        p2 = isn2[partner]
                        if p1 != a1 and p1 != a2:
                            continue
                        if p2 >= 0 and p2 != a1 and p2 != a2:
                            continue
                        sc.add(key, (v, partner))

                # Line 3-4: conflict with an earlier P vertex.
                if any(state[u] == _PRO for u in nb):
                    state[v] = _CON
                    if a2 < 0:
                        single_count[a1] -= 1
                    touch_anchor(a1)
                    touch_anchor(a2)
                    continue

                # Line 5-8: complete a 2-3 swap skeleton.
                if a2 >= 0:
                    keys = (frozenset((a1, a2)),)
                else:
                    keys = sc.keys_for_anchor(a1)
                promoted = False
                for key in keys:
                    kl, kh = sorted(key)
                    if state[kl] != _IS or state[kh] != _IS:
                        continue
                    for first_v, second_v in sc.pairs(key):
                        if v == first_v or v == second_v:
                            continue
                        if neighbor_set is None:
                            neighbor_set = set(nb)
                        if first_v in neighbor_set or second_v in neighbor_set:
                            continue
                        if state[first_v] != _ADJ or state[second_v] != _ADJ:
                            continue
                        if isn1[first_v] != kl or isn2[first_v] != kh:
                            continue
                        s1 = isn1[second_v]
                        s2 = isn2[second_v]
                        if s1 != kl and s1 != kh:
                            continue
                        if s2 >= 0 and s2 != kl and s2 != kh:
                            continue
                        if not (
                            verify_no_protected_neighbor(first_v)
                            and verify_no_protected_neighbor(second_v)
                        ):
                            continue
                        for member in (v, first_v, second_v):
                            promote(member)
                        state[kl] = _RET
                        state[kh] = _RET
                        touch_anchor(kl)
                        touch_anchor(kh)
                        sc.free(key)
                        self.two_k_swaps += 1
                        promoted = True
                        break
                    if promoted:
                        break
                if promoted:
                    continue

                # Line 9-10: fall back to a 1-2 swap skeleton.
                if a2 < 0 and state[a1] == _IS:
                    adjacent = 0
                    for u in nb:
                        if state[u] == _ADJ and isn1[u] == a1 and isn2[u] < 0:
                            adjacent += 1
                    if single_count[a1] - 1 - adjacent > 0:
                        promote(v)
                        state[a1] = _RET
                        touch_anchor(a1)
                        self.one_k_swaps += 1
                        continue

                # Line 11-12: all IS neighbours already retrograde.
                if state[a1] == _RET and (a2 < 0 or state[a2] == _RET):
                    promote(v)
        finally:
            local_index[cand] = -1
        self.replayed += replayed
        self.bulk_decided += k - replayed

