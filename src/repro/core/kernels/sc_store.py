"""Per-round swap-candidate store shared by the two-k-swap backends."""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, FrozenSet, List, Set, Tuple

__all__ = ["SwapCandidateStore"]

_PairKey = FrozenSet[int]
_Pair = Tuple[int, int]


class SwapCandidateStore:
    """Per-round store of swap-candidate pairs, keyed by the IS pair ``{w1, w2}``.

    The store keeps, per key, at most ``max_pairs_per_key`` pairs — one
    valid pair suffices to complete a skeleton, and the cap keeps the
    memory bound of Lemma 6 comfortable.  The peak number of vertices held
    is tracked for the Figure 10 experiment.
    """

    def __init__(self, max_pairs_per_key: int = 8) -> None:
        self.max_pairs_per_key = max_pairs_per_key
        self._pairs: Dict[_PairKey, List[_Pair]] = {}
        self._keys_by_anchor: Dict[int, Set[_PairKey]] = defaultdict(set)
        self._total_vertices = 0
        self.peak_vertices = 0

    def add(self, key: _PairKey, pair: _Pair) -> None:
        """Record a candidate pair under ``key`` (ignored once the key is full)."""

        bucket = self._pairs.setdefault(key, [])
        if len(bucket) >= self.max_pairs_per_key or pair in bucket:
            return
        bucket.append(pair)
        self._total_vertices += 2
        self.peak_vertices = max(self.peak_vertices, self._total_vertices)
        for anchor in key:
            self._keys_by_anchor[anchor].add(key)

    def keys_for_anchor(self, anchor: int) -> Tuple[_PairKey, ...]:
        """All keys that contain the IS vertex ``anchor``."""

        return tuple(self._keys_by_anchor.get(anchor, ()))

    def keyed_anchors(self) -> List[int]:
        """IS vertices that belong to at least one stored key."""

        return [anchor for anchor, keys in self._keys_by_anchor.items() if keys]

    def live_keys(self) -> List[_PairKey]:
        """Keys that currently hold at least one pair."""

        return [key for key, bucket in self._pairs.items() if bucket]

    def pairs(self, key: _PairKey) -> Tuple[_Pair, ...]:
        """The candidate pairs currently stored under ``key``."""

        return tuple(self._pairs.get(key, ()))

    def free(self, key: _PairKey) -> None:
        """Drop every pair stored under ``key`` (Algorithm 4, line 8)."""

        bucket = self._pairs.pop(key, None)
        if bucket:
            self._total_vertices -= 2 * len(bucket)
        for anchor in key:
            self._keys_by_anchor.get(anchor, set()).discard(key)

    @property
    def total_vertices(self) -> int:
        """Number of vertices currently held across all pairs."""

        return self._total_vertices
