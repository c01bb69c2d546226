"""Parallel kernel passes: sharded round bodies, bit-identical results.

:class:`ParallelKernel` wraps a serial backend (numpy or python) and
re-executes its greedy and one-k-swap passes with the O(E)
work sharded across a :class:`~repro.core.parallel.pool.ParallelPool` of
forked processes over the shared record-major CSR.  The contract is
*bit-identity* with the wrapped backend: same independent sets, same
per-round :class:`RoundStats`, same oscillation fingerprints and
``on_round`` snapshots, and the same modeled ``IOStats`` (every logical
sequential scan of the serial execution is replayed through the sources'
``charge_scan`` hooks; per-worker deltas of the striped text fill are
merged in rank order so they telescope to the serial charges).

The sequential dependencies of the swap rounds are restructured, not
approximated:

* the one-k pre-swap scan runs as a *conflict-free wave*: candidates are
  processed in scan-order windows cut at the first duplicate-anchor or
  intra-window-adjacency hazard, and each hazard-free prefix is decided
  with vectorized compares — exactly the serial outcome, because a
  candidate's serial decision depends only on earlier candidates that
  share its anchor or its neighbourhood;
* the one-k post-swap scan is decomposed into vectorized base labelling
  (``cnt == 1`` decides A/N) plus a sparse event loop over the only
  vertices whose serial outcome can deviate: the zero-count insertion
  candidates and the vertices reachable from an actual insertion.  The
  event loop propagates exact ``blocker``/count corrections in scan
  order, so insertions happen for precisely the serial vertex set.  The
  base count/sum/blocker arrays themselves are maintained
  *incrementally* across rounds (one sharded labelling sweep per pass,
  then exact integer delta scatters over the vertices that changed
  class), so a round costs work proportional to what changed rather
  than one O(E) sweep;
* greedy runs as a decided-flag fixpoint: a vertex enters the set once
  all earlier neighbours are excluded, is excluded once an earlier
  neighbour enters.  Decisions are monotone, so the workers' stale reads
  are harmless and the unique fixpoint is the scan-order greedy set;
* two-k-swap is not sharded: the pass runs the wrapped backend
  unchanged (the numpy backend's event-driven scans already do scalar
  work only where a promotion reaches).

Fingerprints and snapshot history entries are encoded per delegate
backend (the numpy and python backends hash different canonical
encodings of the same state), so a parallel run is checkpoint-compatible
with the serial backend it wraps in both directions.
"""

from __future__ import annotations

import atexit
import hashlib
import heapq
from collections import OrderedDict
from typing import FrozenSet, List, Optional, Tuple

import numpy as np

from repro.core.kernels.base import (
    KernelBackend,
    decode_history,
    decode_rounds,
    encode_history,
    encode_rounds,
    validate_swap_resume,
)
from repro.core.parallel.csr import SharedCSR, materialize_csr, plan_text_stripes
from repro.core.kernels.ndarrays import ragged_slots
from repro.core.parallel.pool import ParallelPool
from repro.core.result import RoundStats
from repro.core.states import VertexState as S
from repro.storage import format as fmt
from repro.storage.adjacency_file import AdjacencyFileReader
from repro.storage.scan import batch_bounds

_IS = int(S.IS)
_NON = int(S.NON_IS)
_ADJ = int(S.ADJACENT)
_PRO = int(S.PROTECTED)
_CON = int(S.CONFLICT)
_RET = int(S.RETROGRADE)

#: Candidate window of the one-k pre-swap wave.  Hazards (duplicate
#: anchors, intra-window adjacency) cut the window into conflict-free
#: prefixes; larger windows amortise the vectorized checks better but
#: waste more work when hazards are dense.
_WAVE_WINDOW = 8192

__all__ = ["ParallelKernel"]


def _scatter_neighbors(csr, recs, values=None):
    """Per-vertex sums over the concatenated neighbour lists of ``recs``.

    Returns the length-``num_vertices`` int64 array ``out`` with
    ``out[u] = sum over k with u adjacent to record recs[k] of values[k]``
    (``values`` defaults to all ones).  The weighted bincount goes through
    float64, which is exact for these small integer weights and
    vertex-id-bounded sums.
    """

    indptr = csr.indptr
    lens = indptr[recs + 1] - indptr[recs]
    nbrs = csr.indices[ragged_slots(indptr[recs], lens)]
    if values is None:
        return np.bincount(nbrs, minlength=csr.num_vertices).astype(
            np.int64, copy=False
        )
    return np.bincount(
        nbrs,
        weights=np.repeat(values, lens).astype(np.float64),
        minlength=csr.num_vertices,
    ).astype(np.int64)


def _scatter_cnt_sum(csr, recs, values):
    """Count and weighted-sum scatters of one record set, one gather.

    Returns ``(cnt_inc, sum_inc)`` — the per-vertex neighbour-count and
    neighbour-``values``-sum increments contributed by ``recs`` — sharing
    a single ragged gather of the neighbour lists (the two quantities are
    always applied together when IS membership changes).
    """

    indptr = csr.indptr
    lens = indptr[recs + 1] - indptr[recs]
    nbrs = csr.indices[ragged_slots(indptr[recs], lens)]
    cnt_inc = np.bincount(nbrs, minlength=csr.num_vertices).astype(
        np.int64, copy=False
    )
    sum_inc = np.bincount(
        nbrs,
        weights=np.repeat(values, lens).astype(np.float64),
        minlength=csr.num_vertices,
    ).astype(np.int64)
    return cnt_inc, sum_inc


def _blake2b16(*chunks: bytes) -> bytes:
    digest = hashlib.blake2b(digest_size=16)
    for chunk in chunks:
        digest.update(chunk)
    return digest.digest()


def _fingerprint_one_k(backend_name: str, state, isn) -> bytes:
    """Oscillation fingerprint in the wrapped backend's encoding."""

    if backend_name == "python":
        isn_repr = repr([None if x < 0 else x for x in isn.tolist()])
        return _blake2b16(state.tobytes(), isn_repr.encode())
    return _blake2b16(state.tobytes(), isn.tobytes())


class _Session:
    """One pass's materialised CSR, worker pool and scan-charge ledger."""

    def __init__(self, source, workers: int) -> None:
        self.source = source
        self.workers = int(workers)
        self.csr: Optional[SharedCSR] = None
        self.pool: Optional[ParallelPool] = None
        # True when materialisation already performed (and charged) the
        # pass's first sequential scan, so the first scan point is free.
        self._first_scan_charged = False

    def open(self) -> "_Session":
        source = self.source
        try:
            if isinstance(source, AdjacencyFileReader):
                stripes = plan_text_stripes(source, self.workers)
                if stripes is not None:
                    self._open_striped_text(source, stripes)
                    return self
            self.csr, self._first_scan_charged = materialize_csr(source)
            self.pool = ParallelPool(self.csr, self.workers)
        except BaseException:
            self.close()
            raise
        return self

    def _open_striped_text(self, reader: AdjacencyFileReader, stripes) -> None:
        """Fill the shared CSR from worker byte stripes of the file.

        Only possible on a *warm* reader (record degrees cached by an
        earlier scan): the parent lays out ``indptr`` from the degree
        cache before forking, each worker physically reads and parses its
        stripe, and the modeled per-stripe ``IOStats`` deltas — each
        seeded with its predecessor's end-of-read cursor — are merged in
        rank order, telescoping to exactly one serial sequential scan.
        """

        degrees = reader.record_degrees_array()
        csr = SharedCSR.allocate_for_text(reader)
        self.csr = csr
        csr.indptr[0] = 0
        np.cumsum(degrees, out=csr.indptr[1:])
        record_bytes = fmt.RECORD_HEADER_SIZE + fmt.VERTEX_ID_BYTES * degrees
        starts = np.zeros(degrees.size + 1, dtype=np.int64)
        np.cumsum(record_bytes, out=starts[1:])
        bounds = batch_bounds(record_bytes, reader.batch_bytes())
        text_plan = (reader.raw_backing(), reader.block_size, starts, bounds)
        self.pool = ParallelPool(csr, self.workers, text_plan=text_plan)

        # Rank 0 starts wherever the device cursor really is (a scan that
        # follows another scan begins with a seek, exactly like serial);
        # later ranks are seeded with their predecessor's end-of-read
        # state from the stripe plan.
        cursor_offset, cursor_last = reader.sequential_cursor()
        payloads = []
        for rank, (lo, hi, byte_start, prev_last) in enumerate(stripes):
            if rank == 0:
                payloads.append((lo, hi, cursor_offset, cursor_last))
            else:
                payloads.append((lo, hi, byte_start, prev_last))
        deltas = self.pool.broadcast("fill_text", payloads)
        stats = reader.stats
        for delta in deltas:
            stats.merge(delta)
        stats.record_scan()
        end_offset = fmt.HEADER_SIZE + int(starts[-1])
        reader.restore_sequential_cursor(
            (end_offset, (end_offset - 1) // reader.block_size)
        )
        csr._finish()
        self._first_scan_charged = True

    def charge_scan(self) -> None:
        """Replay one logical sequential scan onto the source's counters."""

        if self._first_scan_charged:
            self._first_scan_charged = False
            return
        charge = getattr(self.source, "charge_scan", None)
        if charge is None or not charge():  # pragma: no cover - all sources replay
            self.source.stats.record_scan()

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool = None
        if self.csr is not None:
            self.csr.close()
            self.csr = None


#: Sessions kept warm between passes, keyed by ``(id(source), workers)``.
#: A pipeline (greedy → one-k) over one source then materialises
#: the shared CSR and forks the worker pool once instead of per pass.  The
#: cached session pins the source object, so an ``id`` is never recycled
#: while its entry is live; entries are closed on eviction (LRU), when a
#: pass raises (worker state may be inconsistent), and at interpreter
#: exit.
_SESSION_CACHE: "OrderedDict[Tuple[int, int], _Session]" = OrderedDict()
_SESSION_CACHE_LIMIT = 4


def _acquire_session(source, workers: int) -> _Session:
    key = (id(source), int(workers))
    session = _SESSION_CACHE.get(key)
    if session is not None:
        if getattr(source, "closed", False):
            del _SESSION_CACHE[key]
            session.close()
        else:
            _SESSION_CACHE.move_to_end(key)
            return session
    session = _Session(source, workers).open()
    _SESSION_CACHE[key] = session
    while len(_SESSION_CACHE) > _SESSION_CACHE_LIMIT:
        _, old = _SESSION_CACHE.popitem(last=False)
        old.close()
    return session


def _evict_session(session: _Session) -> None:
    for key, cached in list(_SESSION_CACHE.items()):
        if cached is session:
            del _SESSION_CACHE[key]
            break
    session.close()


def _close_all_sessions() -> None:
    while _SESSION_CACHE:
        _, session = _SESSION_CACHE.popitem(last=False)
        session.close()


atexit.register(_close_all_sessions)


class ParallelKernel(KernelBackend):
    """Kernel backend running the sharded passes of a serial delegate.

    ``name`` mirrors the delegate so checkpoints written under
    parallelism resume on the serial backend (and vice versa) — worker
    count is an execution property, not part of the algorithm state.
    """

    def __init__(self, delegate: KernelBackend, workers: int) -> None:
        self._delegate = delegate
        self.workers = int(workers)
        self.name = delegate.name

    # ------------------------------------------------------------------
    # Delegated capabilities
    # ------------------------------------------------------------------
    def supports(self, source) -> bool:
        return self._delegate.supports(source)

    def supports_graph(self, graph) -> bool:
        return self._delegate.supports_graph(graph)

    def local_search_pass(self, *args, **kwargs):
        return self._delegate.local_search_pass(*args, **kwargs)

    def dynamic_update_pass(self, *args, **kwargs):
        return self._delegate.dynamic_update_pass(*args, **kwargs)

    def supports_maintainer(self, maintainer) -> bool:
        return self._delegate.supports_maintainer(maintainer)

    def normalize_updates_pass(self, *args, **kwargs):
        return self._delegate.normalize_updates_pass(*args, **kwargs)

    def dynamic_apply_pass(self, *args, **kwargs):
        # Update application is inherently serial state maintenance; the
        # sharded passes add nothing, so it rides the delegate unchanged.
        return self._delegate.dynamic_apply_pass(*args, **kwargs)

    def two_k_swap_pass(self, *args, **kwargs):
        # The serial event-driven two-k scans beat a sharded rerun of the
        # scalar loop, so the pass rides the delegate unchanged.
        return self._delegate.two_k_swap_pass(*args, **kwargs)

    # ------------------------------------------------------------------
    # Algorithm 1: greedy (wave-iterated fixpoint)
    # ------------------------------------------------------------------
    def greedy_pass(self, source) -> FrozenSet[int]:
        session = _acquire_session(source, self.workers)
        try:
            pool = session.pool
            pool.state[:] = 0
            pool.greedy_run()
            result = frozenset(np.flatnonzero(pool.state == 1).tolist())
            session.charge_scan()
            pool.fold_metrics()
            return result
        except BaseException:
            _evict_session(session)
            raise

    # ------------------------------------------------------------------
    # Algorithm 2: one-k-swap
    # ------------------------------------------------------------------
    def one_k_swap_pass(
        self,
        source,
        initial_set: FrozenSet[int],
        max_rounds: Optional[int],
        resume: Optional[dict] = None,
        on_round=None,
    ) -> Tuple[FrozenSet[int], Tuple[RoundStats, ...], bool]:
        session = _acquire_session(source, self.workers)
        try:
            result = self._one_k(
                session, initial_set, max_rounds, resume, on_round
            )
            session.pool.fold_metrics()
            return result
        except BaseException:
            _evict_session(session)
            raise

    def _one_k(self, session, initial_set, max_rounds, resume, on_round):
        source = session.source
        csr = session.csr
        pool = session.pool
        n = csr.num_vertices
        state = pool.state
        pos = csr.pos
        order = csr.order

        if resume is None:
            state[:] = _NON
            if initial_set:
                state[
                    np.fromiter(initial_set, dtype=np.int64, count=len(initial_set))
                ] = _IS
            isn = np.full(n, -1, dtype=np.int64)

            # Labelling (lines 1-3): sharded IS-neighbour counts/sums.
            pool.broadcast("label1")
            cnt = pool.cnt
            nbr_sum = pool.nbr_sum
            a_mask = (state != _IS) & (cnt == 1)
            state[a_mask] = _ADJ
            isn[a_mask] = nbr_sum[a_mask]
            session.charge_scan()

            rounds: List[RoundStats] = []
            initial_size = len(initial_set)
            current_size = initial_size
            can_swap = True
            oscillation = False
            history = (
                {_fingerprint_one_k(self.name, state, isn)}
                if max_rounds is None
                else None
            )
        else:
            validate_swap_resume(resume, "one_k_swap", n)
            state[:] = np.asarray(resume["state"], dtype=np.uint8)
            isn = np.asarray(resume["isn"], dtype=np.int64)
            rounds = decode_rounds(resume["rounds"])
            initial_size = int(resume["initial_size"])
            current_size = int(resume["current_size"])
            can_swap = bool(resume["can_swap"])
            oscillation = bool(resume["oscillation"])
            history = decode_history(resume["history"])
            # Rebuild the count/sum arrays for the restored state (round
            # boundaries only ever hold IS / A / N states).
            pool.broadcast("label1")
            cnt = pool.cnt
            nbr_sum = pool.nbr_sum

        # ``isadj[u]`` = number of neighbours of ``u`` whose state is IS
        # or A — the post-swap ``blocker`` base.  It is seeded once from
        # the labelling and then maintained by exact integer deltas; the
        # serial per-round bincount over every edge disappears.
        isadj = cnt.copy()
        adj_verts = np.flatnonzero(state == _ADJ)
        if adj_verts.size:
            isadj += _scatter_neighbors(csr, pos[adj_verts])

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

        member_pos = np.full(n, -1, dtype=np.int64)

        while (
            not oscillation
            and can_swap
            and (max_rounds is None or len(rounds) < max_rounds)
        ):
            can_swap = False

            adj_mask = state == _ADJ
            pointer_count = np.bincount(
                isn[adj_mask & (isn >= 0)], minlength=n
            ).astype(np.int64)

            con_recs, pro_recs, def_recs, ret_verts = self._one_k_preswap_wave(
                csr, state, isn, pointer_count, member_pos
            )
            session.charge_scan()

            # Swap phase (lines 15-19).
            retro = state == _RET
            state[state == _PRO] = _IS
            state[retro] = _NON
            one_k_swaps = int(retro.sum())
            can_swap = one_k_swaps > 0

            # Exact incremental maintenance of the post-swap base arrays:
            # promoted candidates (A -> P -> IS) join the set, retreating
            # anchors (IS -> R -> N) leave it, and every candidate that
            # stopped blocking (A -> C, the defensive A -> N, and the
            # anchors) drops out of the IS|A neighbour counts.
            if pro_recs.size:
                pro_cnt, pro_sum = _scatter_cnt_sum(csr, pro_recs, order[pro_recs])
                cnt += pro_cnt
                nbr_sum += pro_sum
            if ret_verts.size:
                ret_recs = pos[ret_verts]
                ret_cnt, ret_sum = _scatter_cnt_sum(csr, ret_recs, ret_verts)
                cnt -= ret_cnt
                nbr_sum -= ret_sum
                isadj -= ret_cnt
            if con_recs.size:
                isadj -= _scatter_neighbors(csr, con_recs)
            if def_recs.size:
                isadj -= _scatter_neighbors(csr, def_recs)

            zero_one_swaps = self._one_k_post(
                session, state, isn, cnt, nbr_sum, isadj
            )
            session.charge_scan()

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
                fingerprint = _fingerprint_one_k(self.name, state, isn)
                if fingerprint in history:
                    oscillation = True
                else:
                    history.add(fingerprint)
            if on_round is not None:
                on_round(_snapshot())

        completion_gain = self._completion(session, state, cnt)
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

    @staticmethod
    def _one_k_preswap_wave(csr, state, isn, pointer_count, member_pos):
        """Algorithm 2 lines 7-14 as conflict-free vectorized prefixes.

        A candidate's serial decision reads only (a) the PRO flags and
        same-anchor-A membership of its neighbours, (b) its anchor's
        state and pointer count.  Every state that can change mid-scan
        belongs to *candidates* (A vertices) or their anchors, so the
        whole scan factors over the candidate-candidate adjacency:

        * ``partner0`` (same-anchor A neighbours at round start) and the
          earlier-candidate dependency edges are computed once per round
          from a single ragged gather;
        * the scan is cut into segments at each candidate whose ``prev``
          (nearest earlier candidate-neighbour) falls inside the current
          segment — within a segment no member observes another, so its
          case-(i) flags and partner corrections follow exactly from the
          recorded outcomes of earlier segments along the dependency
          edges (no per-window re-gather of neighbour state at all);
        * the remaining coupling runs through shared anchors only and
          resolves as a vectorized fold over each same-anchor group:
          before a group's first promotion the anchor's pointer count has
          been decremented only by the group's earlier case-(i) members,
          and after the first promotion the anchor is RETROGRADE so every
          later non-case-(i) member promotes unconditionally — the first
          promotion index per group is a segmented minimum.

        Returns ``(con_recs, pro_recs, def_recs, ret_verts)`` — the
        records of candidates that became C, became P, were defensively
        dropped to N, and the vertex ids of anchors that retreated — the
        exact transition sets the caller scatters into the incrementally
        maintained count/sum/blocker arrays.
        """

        order = csr.order
        indptr = csr.indptr
        indices = csr.indices
        empty = np.empty(0, dtype=np.int64)
        con_out: List[np.ndarray] = []
        pro_out: List[np.ndarray] = []
        ret_out: List[np.ndarray] = []
        def_recs = empty
        cand_rec = np.flatnonzero(state[order] == _ADJ)
        if cand_rec.size == 0:
            return empty, empty, empty, empty
        cand = order[cand_rec]
        anchors_all = isn[cand]
        negative = anchors_all < 0
        if negative.any():  # pragma: no cover - defensive, like the serial guard
            state[cand[negative]] = _NON
            def_recs = cand_rec[negative]
            keep = ~negative
            cand = cand[keep]
            cand_rec = cand_rec[keep]
            anchors_all = anchors_all[keep]

        total = cand.size
        # One ragged gather of every candidate's neighbour list for the
        # whole round.
        lens_all = indptr[cand_rec + 1] - indptr[cand_rec]
        nbrs_all = indices[ragged_slots(indptr[cand_rec], lens_all)]
        src_all = np.repeat(np.arange(total, dtype=np.int64), lens_all)

        # Candidate index of every neighbour (-1 = not a candidate),
        # through the n-sized scratch.
        member_pos[cand] = np.arange(total, dtype=np.int64)
        nbr_ci = member_pos[nbrs_all]
        member_pos[cand] = -1

        # Candidate-candidate edges carry all mid-scan interaction: the
        # same-anchor ones define partner0 (adjacent partners at round
        # start — every A vertex is a candidate), and the earlier-pointing
        # ones are the dependency edges outcomes propagate along.
        cc = np.flatnonzero(nbr_ci >= 0)
        e_src = src_all[cc]
        e_ci = nbr_ci[cc]
        e_same = anchors_all[e_ci] == anchors_all[e_src]
        partner0 = np.bincount(e_src[e_same], minlength=total)
        earlier = e_ci < e_src
        d_src = e_src[earlier]
        d_from = e_ci[earlier]
        d_same = e_same[earlier]
        # prev[j]: the latest earlier candidate-neighbour of j (or -1);
        # d_src is nondecreasing, so each j's dependencies are contiguous.
        prev = np.full(total, -1, dtype=np.int64)
        if d_src.size:
            d_new = np.empty(d_src.size, dtype=bool)
            d_new[0] = True
            np.not_equal(d_src[1:], d_src[:-1], out=d_new[1:])
            d_starts = np.flatnonzero(d_new)
            prev[d_src[d_starts]] = np.maximum.reduceat(d_from, d_starts)

        out_pro = np.zeros(total, dtype=bool)
        out_gone = np.zeros(total, dtype=bool)  # left A this round (P or C)

        s = 0
        while s < total:
            # Find the segment end: the first candidate whose nearest
            # earlier candidate-neighbour falls inside [s, ...).  Scanned
            # in bounded chunks so a cut near the front stays cheap.
            cut = total
            lo = s + 1
            hi = min(s + _WAVE_WINDOW, total)
            while lo < total:
                rel = prev[lo:hi] >= s
                pos_hit = int(np.argmax(rel)) if rel.size else 0
                if rel.size and rel[pos_hit]:
                    cut = lo + pos_hit
                    break
                if hi == total:
                    break
                lo = hi
                hi = min(hi + _WAVE_WINDOW, total)
            m = cut - s
            seg = slice(s, cut)
            cands_p = cand[seg]
            anchors_p = anchors_all[seg]
            w_rec = cand_rec[seg]

            # Case-(i) flags and partner corrections from the recorded
            # outcomes of earlier segments, along the dependency edges.
            e0, e1 = np.searchsorted(d_src, (s, cut))
            if e1 > e0:
                tj = d_src[e0:e1] - s
                ti = d_from[e0:e1]
                case_i = np.bincount(tj[out_pro[ti]], minlength=m) > 0
                gone_edge = out_gone[ti] & d_same[e0:e1]
                adjacent_partners = partner0[seg] - np.bincount(
                    tj[gone_edge], minlength=m
                )
            else:
                case_i = np.zeros(m, dtype=bool)
                adjacent_partners = partner0[seg]

            # Same-anchor group fold.  Within a group (scan order), only
            # case-(i) members decrement the pointer before the first
            # promotion, so the serial promotion condition at in-group
            # position j is pc0 - (case-i count before j) - 1 - adj > 0;
            # from the first promotion on, the anchor is RETROGRADE and
            # every later non-case-(i) member promotes too.
            perm = np.argsort(anchors_p, kind="stable")
            a_sorted = anchors_p[perm]
            new_seg = np.empty(m, dtype=bool)
            new_seg[0] = True
            np.not_equal(a_sorted[1:], a_sorted[:-1], out=new_seg[1:])
            seg_start = np.flatnonzero(new_seg)
            gid = np.cumsum(new_seg) - 1
            seg_anchor = a_sorted[seg_start]
            case_s = case_i[perm]
            adj_s = adjacent_partners[perm]
            pc0 = pointer_count[seg_anchor]
            seg_state = state[seg_anchor]
            seg_is = seg_state == _IS
            anchor_is = seg_is[gid]
            anchor_ret = (seg_state == _RET)[gid]
            cum = np.cumsum(case_s.astype(np.int64))
            c_excl = cum - case_s - (cum[seg_start] - case_s[seg_start])[gid]
            iota_m = np.arange(m, dtype=np.int64)
            cond = (~case_s) & anchor_is & ((pc0[gid] - c_excl - 1 - adj_s) > 0)
            first_fire = np.minimum.reduceat(np.where(cond, iota_m, m), seg_start)
            fired_s = (~case_s) & (
                (anchor_is & (iota_m >= first_fire[gid])) | anchor_ret
            )
            fired = np.empty(m, dtype=bool)
            fired[perm] = fired_s

            state[cands_p[case_i]] = _CON
            state[cands_p[fired]] = _PRO
            ret_anchors = seg_anchor[seg_is & (first_fire < m)]
            state[ret_anchors] = _RET
            # Group anchors are pairwise distinct, so the fancy in-place
            # decrement cannot collide.
            pointer_count[seg_anchor] -= np.add.reduceat(
                (case_s | fired_s).astype(np.int64), seg_start
            )
            out_pro[seg] = fired
            out_gone[seg] = fired | case_i
            if case_i.any():
                con_out.append(w_rec[case_i])
            if fired.any():
                pro_out.append(w_rec[fired])
            if ret_anchors.size:
                ret_out.append(ret_anchors)

            s = cut

        def _cat(parts: List[np.ndarray]) -> np.ndarray:
            return np.concatenate(parts) if parts else empty

        return _cat(con_out), _cat(pro_out), def_recs, _cat(ret_out)

    @staticmethod
    def _one_k_post(session, state, isn, cnt, nbr_sum, isadj) -> int:
        """Algorithm 2 lines 20-28 via base labelling + sparse event loop.

        ``cnt`` / ``nbr_sum`` / ``isadj`` are the incrementally maintained
        post-swap base arrays (bit-identical to what a fresh sharded sweep
        would produce).  A scanned vertex deviates from its vectorized A/N
        labelling only if an *insertion* reached it first — and insertions
        start exclusively at zero-count vertices.  The event loop walks
        those seeds (plus everything an insertion touches) in scan order,
        maintaining the exact live count/sum/blocker values the serial
        loop would see.  On return the three arrays have been advanced to
        the round's final state, ready for the next round.  Returns the
        number of 0-1 swaps.
        """

        csr = session.csr
        blocker = isadj
        order = csr.order
        pos = csr.pos
        indptr = csr.indptr
        indices = csr.indices

        order_state = state[order]
        scanned_rec = np.flatnonzero(order_state != _IS)
        if scanned_rec.size == 0:
            return 0
        scanned = order[scanned_rec]
        was_adj = order_state[scanned_rec] == _ADJ
        base_cnt = cnt[scanned]
        becomes_adj = base_cnt == 1

        # delta0: the blocker change each scanned vertex would contribute
        # if it followed its base labelling (A adds one, leaving A removes
        # one).  Unscanned (IS) vertices contribute zero.
        delta0 = np.zeros(csr.num_vertices, dtype=np.int64)
        delta0[scanned] = becomes_adj.astype(np.int64) - was_adj.astype(np.int64)

        # Insertion seeds: zero-count scanned vertices, with their blocker
        # value at their own scan position assuming every earlier
        # neighbour follows the base labelling.
        seed_rec = scanned_rec[base_cnt == 0]
        blocker0 = {}
        if seed_rec.size:
            seed_lens = indptr[seed_rec + 1] - indptr[seed_rec]
            seed_nbrs = indices[ragged_slots(indptr[seed_rec], seed_lens)]
            earlier = pos[seed_nbrs] < np.repeat(seed_rec, seed_lens)
            seed_src = np.repeat(
                np.arange(seed_rec.size, dtype=np.int64), seed_lens
            )
            base_corr = np.bincount(
                seed_src[earlier],
                weights=delta0[seed_nbrs[earlier]].astype(np.float64),
                minlength=seed_rec.size,
            ).astype(np.int64)
            blocker0 = dict(
                zip(seed_rec.tolist(), (blocker[order[seed_rec]] + base_corr).tolist())
            )

        # Base labelling, vectorized (the event loop overrides deviations).
        state[scanned] = np.where(becomes_adj, _ADJ, _NON).astype(np.uint8)
        isn[scanned] = np.where(becomes_adj, nbr_sum[scanned], -1)

        heap = seed_rec.tolist()  # ascending, already a valid heap
        seeds = set(heap)
        done = set()
        extra_cnt: dict = {}
        extra_sum: dict = {}
        corr: dict = {}
        inserted_recs: List[int] = []
        while heap:
            rec = heapq.heappop(heap)
            if rec in done:
                continue
            done.add(rec)
            v = int(order[rec])
            extra = extra_cnt.get(rec, 0)
            live_cnt = int(cnt[v]) + extra
            if live_cnt == 1:
                state[v] = _ADJ
                isn[v] = int(nbr_sum[v]) + extra_sum.get(rec, 0)
                blocks = 1
            else:
                state[v] = _NON
                isn[v] = -1
                blocks = 0
                if (
                    rec in seeds
                    and extra == 0
                    and blocker0[rec] + corr.get(rec, 0) == 0
                ):
                    # 0-1 swap: no live neighbour is IS or A.
                    state[v] = _IS
                    inserted_recs.append(rec)
                    blocks = 1
                    nbrs = indices[indptr[rec] : indptr[rec + 1]]
                    for w_rec in pos[nbrs].tolist():
                        if w_rec > rec:
                            extra_cnt[w_rec] = extra_cnt.get(w_rec, 0) + 1
                            extra_sum[w_rec] = extra_sum.get(w_rec, 0) + v
                            heapq.heappush(heap, w_rec)
            deviation = blocks - (1 if int(cnt[v]) == 1 else 0)
            if deviation:
                # Fold the deviation into delta0 as well: after the loop
                # delta0[v] is exactly (blocks final - blocked before),
                # the vertex's true IS|A-membership change this scan.
                delta0[v] += deviation
                nbrs = indices[indptr[rec] : indptr[rec + 1]]
                for w_rec in pos[nbrs].tolist():
                    if w_rec > rec:
                        corr[w_rec] = corr.get(w_rec, 0) + deviation

        # Advance the maintained arrays to the round's final state: the
        # inserted vertices join the IS set, and every vertex whose IS|A
        # membership changed adjusts its neighbours' blocker base.
        if inserted_recs:
            recs = np.asarray(inserted_recs, dtype=np.int64)
            ins_cnt, ins_sum = _scatter_cnt_sum(csr, recs, order[recs])
            cnt += ins_cnt
            nbr_sum += ins_sum
        changed = np.flatnonzero(delta0)
        if changed.size:
            isadj += _scatter_neighbors(csr, pos[changed], delta0[changed])
        return len(inserted_recs)

    # ------------------------------------------------------------------
    # Shared final 0-1 completion pass
    # ------------------------------------------------------------------
    @staticmethod
    def _completion(session, state, cnt=None) -> int:
        """Final 0-1 maximalization sweep, decomposed around contention.

        A zero-count vertex is inserted by the serial sweep iff none of
        its *earlier-scanned* zero-count vertices were inserted before it
        — greedy MIS over the candidate-induced subgraph in scan order.
        Candidates with no earlier candidate neighbour at all are
        committed vectorized; only the (typically few) contested ones run
        through the scalar fold.
        """

        pool = session.pool
        csr = session.csr
        if cnt is None:
            pool.broadcast("cnt_is")
            cnt = pool.cnt
        order = csr.order
        pos = csr.pos
        indptr = csr.indptr
        indices = csr.indices
        cand_rec = np.flatnonzero((state[order] != _IS) & (cnt[order] == 0))
        if cand_rec.size == 0:
            session.charge_scan()
            return 0
        verts = order[cand_rec]
        lens = indptr[cand_rec + 1] - indptr[cand_rec]
        nbrs = indices[ragged_slots(indptr[cand_rec], lens)]
        src = np.repeat(np.arange(cand_rec.size, dtype=np.int64), lens)
        in_cand = np.zeros(csr.num_vertices, dtype=bool)
        in_cand[verts] = True
        earlier = in_cand[nbrs] & (pos[nbrs] < cand_rec[src])
        contested = np.bincount(src[earlier], minlength=cand_rec.size) > 0
        inserted = np.zeros(csr.num_vertices, dtype=bool)
        free = verts[~contested]
        state[free] = _IS
        inserted[free] = True
        gain = int(free.size)
        if contested.any():
            e_nbrs = nbrs[earlier]
            e_src = src[earlier]
            bounds = np.searchsorted(
                e_src, np.arange(cand_rec.size + 1, dtype=np.int64)
            )
            for i in np.flatnonzero(contested).tolist():
                if not inserted[e_nbrs[bounds[i] : bounds[i + 1]]].any():
                    v = int(verts[i])
                    state[v] = _IS
                    inserted[v] = True
                    gain += 1
        session.charge_scan()
        return gain
