"""Segmented ndarray helpers shared by the vectorized kernels.

Every helper works on a CSR fragment: per-record slot counts ``lens`` or
offsets ``local_offsets`` over a flat array of neighbour slots.
"""

from __future__ import annotations

import numpy as np

__all__ = ["int_bincount", "local_sources", "ragged_slots"]


def int_bincount(values, weights, minlength: int):
    """Weighted bincount cast back to int64 (weights are small exact ints)."""

    return np.bincount(values, weights=weights, minlength=minlength).astype(np.int64)


def local_sources(num_records: int, lens):
    """Batch-local source index of every CSR slot (``bincount`` key)."""

    return np.repeat(np.arange(num_records, dtype=np.int64), lens)


def ragged_slots(starts, lens):
    """CSR slot indices of the concatenated slices ``[s_k, s_k + l_k)``."""

    total = int(lens.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    reps = np.repeat(np.arange(starts.size, dtype=np.int64), lens)
    local = np.arange(total, dtype=np.int64) - np.repeat(
        np.cumsum(lens) - lens, lens
    )
    return starts[reps] + local
