"""Frozen copy of the polynomial string hash (see __init__.py).

    doc hash    h(d)   = mix( sum_i b_i * P**i  ^  len(d) * C )

computed per slice of documents from per-document byte positions, a
``P**pos`` gather and one cumulative sum.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_P = np.uint64(0x9E3779B97F4A7C15)          # odd -> invertible mod 2**64
_P_INV = np.uint64(pow(0x9E3779B97F4A7C15, -1, 1 << 64))
_LEN_MIX = np.uint64(0xC2B2AE3D27D4EB4F)
_SLICE_BYTES = 8 << 20                      # 8 MB of text per vectorized slice


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public-domain constant set), vectorized."""
    h = h.astype(np.uint64, copy=True)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def string_view(col) -> tuple[np.ndarray, np.ndarray]:
    """(offsets[n+1]: int64, data: uint8) numpy views of an Arrow string
    column — zero-copy apart from combining two or more chunks.

    Nulls are rewritten to true empty strings first: the Arrow format only
    guarantees monotonic offsets, so a null slot may span garbage bytes
    (arrays produced by some kernels do) and would otherwise hash
    nondeterministically.  ``fill_null`` is skipped entirely on the common
    null-free path (null_count == 0 is a cheap metadata check)."""
    if isinstance(col, pa.ChunkedArray):
        col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    if col.null_count:
        import pyarrow.compute as _pc

        col = _pc.fill_null(col, "")
    n = len(col)
    bufs = col.buffers()
    off_dtype = np.int64 if pa.types.is_large_string(col.type) else np.int32
    offsets = np.frombuffer(bufs[1], dtype=off_dtype)[col.offset:col.offset + n + 1].astype(np.int64)
    data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
    return offsets, data


def _pow_tables(maxlen: int) -> tuple[np.ndarray, np.ndarray]:
    """P**i and P**-i for i in [0, maxlen], uint64 (wraps mod 2**64)."""
    pow_t = np.empty(maxlen + 1, dtype=np.uint64)
    ipow_t = np.empty(maxlen + 1, dtype=np.uint64)
    pow_t[0] = ipow_t[0] = 1
    if maxlen:
        np.cumprod(np.full(maxlen, _P, dtype=np.uint64), out=pow_t[1:])
        np.cumprod(np.full(maxlen, _P_INV, dtype=np.uint64), out=ipow_t[1:])
    return pow_t, ipow_t


def _doc_slices(offsets: np.ndarray) -> list[tuple[int, int]]:
    """Split [0, n) docs into runs whose combined bytes <= _SLICE_BYTES
    (a single over-long doc gets its own slice)."""
    n = len(offsets) - 1
    slices = []
    lo = 0
    while lo < n:
        hi = int(np.searchsorted(offsets, offsets[lo] + _SLICE_BYTES, side="right")) - 1
        hi = max(hi, lo + 1)
        slices.append((lo, min(hi, n)))
        lo = min(hi, n)
    return slices


def hash_strings(col, *, seed: int = 0) -> np.ndarray:
    """uint64 content hash per string (nulls hash as empty strings)."""
    offsets, data = (col if isinstance(col, tuple) else string_view(col))
    n = len(offsets) - 1
    out = np.empty(n, dtype=np.uint64)
    for lo, hi in _doc_slices(offsets):
        s, e = offsets[lo], offsets[hi]
        b = data[s:e].astype(np.uint64)
        lens = offsets[lo + 1:hi + 1] - offsets[lo:hi]
        pos = np.arange(e - s, dtype=np.int64) - np.repeat(offsets[lo:hi] - s, lens)
        pow_t, _ = _pow_tables(int(lens.max()) if len(lens) else 0)
        contrib = b * pow_t[pos]
        A = np.concatenate(([np.uint64(0)], np.cumsum(contrib, dtype=np.uint64)))
        h = A[offsets[lo + 1:hi + 1] - s] - A[offsets[lo:hi] - s]
        out[lo:hi] = h ^ (lens.astype(np.uint64) * _LEN_MIX)
    out ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return _mix64(out)
