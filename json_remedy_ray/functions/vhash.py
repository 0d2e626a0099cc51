"""Vectorized 64-bit string hashing over raw Arrow buffers.

One hashing core shared by exact dedup, MinHash shingling, SimHash,
winnowing fingerprints and host-bucket partitioning — replaces the
per-row / per-byte Python hashing loops flagged in round 1
(`hashlib.blake2b` per shingle, `pd.util.hash_array` over `to_pylist()`).

Scheme: little-endian polynomial hash mod 2**64 with an odd multiplier
(invertible, so window hashes are position-independent) plus a
splitmix64 finalizer for avalanche.  Everything is computed from numpy
views of the Arrow string buffers — zero copies of the text, no Python
objects in the hot path.

    doc hash    h(d)   = mix( sum_i b_i * P**i  ^  len(d) * C )
    window hash w(j,k)  = (A[j+k] - A[j]) * P**-pos_j, position-free,
                          where A = cumsum(b_i * P**pos_i) per slice

A slice's doc sums need no per-doc byte positions: ``G = P**g`` over
the slice's global byte positions g (one in-place cumprod), ``b * G``
in place, one ``np.add.reduceat`` over the non-empty docs' starts, and
a per-doc multiply by the inverse of ``G[start]`` (odd, so invertible
mod 2**64; five Newton steps per doc) give the same sums as the
per-doc positions above.  Empty docs sum to 0.

Memory is bounded by slicing each batch into runs of documents whose
combined byte length is <= _SLICE_BYTES; each slice is fully vectorized.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

_P = np.uint64(0x9E3779B97F4A7C15)          # odd -> invertible mod 2**64
_P_INV = np.uint64(pow(0x9E3779B97F4A7C15, -1, 1 << 64))
_LEN_MIX = np.uint64(0xC2B2AE3D27D4EB4F)
_SLICE_BYTES = 8 << 20                      # 8 MB of text per vectorized slice

_MERSENNE = np.uint64((1 << 61) - 1)


def _mix64(h: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public-domain constant set), vectorized."""
    h = h.astype(np.uint64, copy=True)
    h ^= h >> np.uint64(30)
    h *= np.uint64(0xBF58476D1CE4E5B9)
    h ^= h >> np.uint64(27)
    h *= np.uint64(0x94D049BB133111EB)
    h ^= h >> np.uint64(31)
    return h


def as_array(col) -> pa.Array:
    """A column as one ``pa.Array``: a single chunk as it is (no copy; it
    may carry ``.offset != 0``), two or more chunks combined.
    ``ChunkedArray.combine_chunks()`` copies even a single chunk."""
    if isinstance(col, pa.ChunkedArray):
        return col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
    return col


def string_view(col) -> tuple[np.ndarray, np.ndarray]:
    """(offsets[n+1]: int64, data: uint8) numpy views of an Arrow string
    column — zero-copy apart from combining two or more chunks.

    Nulls are rewritten to true empty strings first: the Arrow format only
    guarantees monotonic offsets, so a null slot may span garbage bytes
    (arrays produced by some kernels do) and would otherwise hash
    nondeterministically.  ``fill_null`` is skipped entirely on the common
    null-free path (null_count == 0 is a cheap metadata check)."""
    col = as_array(col)
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


def _inv_odd(a: np.ndarray) -> np.ndarray:
    """Inverse mod 2**64 of odd uint64 values by Newton's iteration
    ``x *= 2 - a*x``: ``x = a`` is right in the low 3 bits (a*a = 1 mod 8)
    and each step doubles that, so five steps cover 64 bits."""
    x = a.copy()
    for _ in range(5):
        x *= np.uint64(2) - a * x
    return x


def hash_strings(col, *, seed: int = 0) -> np.ndarray:
    """uint64 content hash per string (nulls hash as empty strings)."""
    offsets, data = (col if isinstance(col, tuple) else string_view(col))
    n = len(offsets) - 1
    out = np.zeros(n, dtype=np.uint64)
    for lo, hi in _doc_slices(offsets):
        s, e = offsets[lo], offsets[hi]
        starts = offsets[lo:hi] - s
        lens = offsets[lo + 1:hi + 1] - offsets[lo:hi]
        ne = np.flatnonzero(lens)
        if len(ne):
            # G = P**g over the slice's global byte positions g; a doc's
            # sum of b_i * P**(start+i) is P**start times its hash
            G = np.empty(e - s, dtype=np.uint64)
            G[0] = 1
            G[1:] = _P
            np.cumprod(G, out=G)
            g_start = G[starts[ne]]
            np.multiply(data[s:e], G, out=G)
            # non-empty starts are strictly increasing, so each reduceat
            # segment is exactly one doc (empty docs in between own no bytes)
            out[lo + ne] = np.add.reduceat(G, starts[ne]) * _inv_odd(g_start)
        out[lo:hi] ^= lens.astype(np.uint64) * _LEN_MIX
    out ^= np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    return _mix64(out)


def rolling_hashes(col, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Position-independent hashes of every k-byte window of every doc.

    Returns (W: uint64 flat array, win_offsets: int64[n+1]).  Docs shorter
    than k are space-padded to k and contribute exactly ONE window, so
    every doc has >= 1 window (reduceat-safe segments)."""
    offsets, data = (col if isinstance(col, tuple) else string_view(col))
    n = len(offsets) - 1
    lens = offsets[1:] - offsets[:-1]
    win_counts = np.maximum(lens - k + 1, 1).astype(np.int64)
    win_offsets = np.concatenate(([0], np.cumsum(win_counts)))
    W = np.empty(int(win_offsets[-1]), dtype=np.uint64)

    # padding contribution for short docs: 0x20 * sum_{i=len}^{k-1} P**i
    pow_k, ipow_k = _pow_tables(k)
    pad_cum = np.concatenate(([np.uint64(0)], np.cumsum(pow_k[:k], dtype=np.uint64)))
    # pad_add[L] = 32 * (sum_{i<k} P**i - sum_{i<L} P**i)
    pad_add = np.uint64(32) * (pad_cum[k] - pad_cum[:k + 1])

    for lo, hi in _doc_slices(offsets):
        s, e = offsets[lo], offsets[hi]
        b = data[s:e].astype(np.uint64)
        sl_lens = lens[lo:hi]
        sl_starts = offsets[lo:hi] - s
        sl_ends = offsets[lo + 1:hi + 1] - s
        pos = np.arange(e - s, dtype=np.int64) - np.repeat(sl_starts, sl_lens)
        maxlen = int(sl_lens.max()) if len(sl_lens) else 0
        pow_t, ipow_t = _pow_tables(maxlen)
        contrib = b * pow_t[pos]
        A = np.concatenate(([np.uint64(0)], np.cumsum(contrib, dtype=np.uint64)))

        long_mask = sl_lens >= k
        # --- long docs: all windows, fully vectorized
        if long_mask.any():
            valid = pos <= np.repeat(np.where(long_mask, sl_lens - k, -1), sl_lens)
            j = np.nonzero(valid)[0]
            w = (A[j + k] - A[j]) * ipow_t[pos[j]]
            # scatter into W at the right per-doc offsets
            doc_of = np.searchsorted(sl_ends, j, side="right")
            dst = win_offsets[lo + doc_of] + pos[j]
            W[dst] = w
        # --- short docs: one padded window each
        if not long_mask.all():
            sidx = np.nonzero(~long_mask)[0]
            h = A[sl_ends[sidx]] - A[sl_starts[sidx]] + pad_add[sl_lens[sidx]]
            W[win_offsets[lo + sidx]] = h
    return _mix64(W), win_offsets


_MINHASH_CHUNK_WINDOWS = 32_768   # ~256 KB of uint64 — L2-resident


def minhash_from_windows(W: np.ndarray, win_offsets: np.ndarray,
                         a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(n_docs, num_perm) uint64 minhash matrix, bit-identical to the
    naive one-pass-per-permutation formulation but CACHE-BLOCKED: the
    window array is processed in ~256 KB chunks (split on doc
    boundaries) with all num_perm permutations applied while the chunk
    is L2-resident — the naive loop streams num_perm x len(W) x 8 B
    through DRAM and is bandwidth-bound (measured 2.3x slower on
    realistic blocks; this kernel dominates corpus-scale MinHash).

    The permutation family is multiply-add mod 2**64 with odd ``a`` — a
    true bijection on uint64 (Dietzfelbinger multiply-shift family), and
    ~4x faster than a Mersenne modulo per element."""
    starts = win_offsets[:-1].astype(np.int64)
    offs = win_offsets.astype(np.int64)
    n = len(starts)
    num_perm = len(a)
    sig = np.empty((n, num_perm), dtype=np.uint64)
    a = a | np.uint64(1)                  # odd -> bijective permutation
    with np.errstate(over="ignore"):
        lo = 0
        while lo < n:
            # one searchsorted per CHUNK, not a Python compare per doc
            hi = int(np.searchsorted(
                offs, offs[lo] + _MINHASH_CHUNK_WINDOWS, side="right")) - 1
            hi = min(max(hi, lo + 1), n)  # oversized doc still advances
            s, e = offs[lo], offs[hi]
            Wc = W[s:e]
            st = starts[lo:hi] - s
            for p in range(num_perm):
                vals = a[p] * Wc + b[p]
                sig[lo:hi, p] = np.minimum.reduceat(vals, st)
            lo = hi
    return sig


def winnow_positions(W: np.ndarray, win_offsets: np.ndarray,
                     window: int = 4) -> tuple[np.ndarray, np.ndarray]:
    """Winnowing (Schleimer et al. 2003) over per-doc hash sequences.

    Returns (flat selected GLOBAL positions into W, fp_offsets[n+1]).
    Leftmost-min tie-break => selected positions are non-decreasing, so
    distinct == drop-consecutive-duplicates (matches the scalar spec)."""
    n = len(win_offsets) - 1
    counts = (win_offsets[1:] - win_offsets[:-1]).astype(np.int64)
    starts = win_offsets[:-1].astype(np.int64)
    total = int(win_offsets[-1])
    if total == 0:
        return np.empty(0, np.int64), np.zeros(n + 1, np.int64)
    # sliding argmin over the flat array; rows spanning doc boundaries are
    # discarded below.  sliding_window_view is a VIEW: no copy.
    w = min(window, total)
    sw = np.lib.stride_tricks.sliding_window_view(W, w)
    amin = np.argmin(sw, axis=1) + np.arange(len(sw), dtype=np.int64)

    # Fully vectorized selection (the per-doc Python loop here was the
    # last hot spot of textstats_batch — 41 of its 66 us/doc):
    #   big docs (count > window): window-start rows [s, e-window] of
    #     `amin`, keep first-of-doc + change points (leftmost-min
    #     tie-break makes picks non-decreasing, so distinct ==
    #     drop-consecutive-dups);
    #   small docs (count <= window): one fingerprint — the leftmost
    #     position of the min hash, via masked minimum.reduceat.
    big_idx = np.nonzero(counts > window)[0]
    small_idx = np.nonzero(counts <= window)[0]

    fp_counts = np.zeros(n, dtype=np.int64)
    picked = picked_doc = np.empty(0, np.int64)
    if len(big_idx):
        m = counts[big_idx] - window + 1            # window-start rows per doc
        row_doc = np.repeat(big_idx, m)
        base = np.cumsum(m) - m
        row_pos = (np.arange(int(m.sum()), dtype=np.int64)
                   - np.repeat(base, m) + np.repeat(starts[big_idx], m))
        j = amin[row_pos]
        first = np.empty(len(j), dtype=bool)
        first[0] = True
        np.not_equal(row_doc[1:], row_doc[:-1], out=first[1:])
        change = np.empty(len(j), dtype=bool)
        change[0] = True
        np.not_equal(j[1:], j[:-1], out=change[1:])
        keep = first | change
        picked = j[keep]
        picked_doc = row_doc[keep]
        fp_counts += np.bincount(picked_doc, minlength=n)
    first_small = np.empty(0, np.int64)
    if len(small_idx):
        scnt = counts[small_idx]
        seg_starts = np.cumsum(scnt) - scnt
        pos = (np.arange(int(scnt.sum()), dtype=np.int64)
               - np.repeat(seg_starts, scnt) + np.repeat(starts[small_idx], scnt))
        vals = W[pos]
        minv = np.minimum.reduceat(vals, seg_starts)
        is_min = vals == np.repeat(minv, scnt)
        pos_masked = np.where(is_min, pos, np.iinfo(np.int64).max)
        first_small = np.minimum.reduceat(pos_masked, seg_starts)
        fp_counts[small_idx] = 1

    fp_offsets = np.concatenate(([0], np.cumsum(fp_counts)))
    sel = np.empty(int(fp_offsets[-1]), dtype=np.int64)
    if len(picked):
        # rank of each pick within its doc -> scatter to the doc's slot
        run_starts = np.concatenate(([0], np.cumsum(np.bincount(picked_doc, minlength=n))))
        rank = np.arange(len(picked), dtype=np.int64) - run_starts[picked_doc]
        sel[fp_offsets[picked_doc] + rank] = picked
    if len(small_idx):
        sel[fp_offsets[small_idx]] = first_small
    return sel, fp_offsets


def simhash_from_token_hashes(tok_hashes: np.ndarray,
                              tok_offsets: np.ndarray) -> np.ndarray:
    """uint64 SimHash per doc from per-token hashes: unpack token hashes
    to a (n_tokens, 64) bit matrix, segment-sum per doc, majority vote.
    Docs with zero tokens hash to 0."""
    n = len(tok_offsets) - 1
    counts = (tok_offsets[1:] - tok_offsets[:-1]).astype(np.int64)
    out = np.zeros(n, dtype=np.uint64)
    ne = np.nonzero(counts > 0)[0]
    if len(tok_hashes) and len(ne):
        # reduceat over NON-EMPTY docs only: their starts are strictly
        # increasing and in range, so segments are exact (an empty doc
        # between two non-empty ones contributes no rows).  One fast 1-D
        # pass per bit — 2-D axis-0 reduceat is ~10x slower (strided).
        starts = tok_offsets[:-1][ne].astype(np.int64)
        half = counts[ne]                            # majority threshold: 2*ones > count
        for b in range(64):
            bitvec = ((tok_hashes >> np.uint64(b)) & np.uint64(1)).astype(np.int64)
            ones = np.add.reduceat(bitvec, starts)
            out[ne] |= (2 * ones > half).astype(np.uint64) << np.uint64(b)
    return out


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array (numpy<2 has no bitwise_count)."""
    return np.unpackbits(x.view(np.uint8)).reshape(len(x), 64).sum(axis=1)
