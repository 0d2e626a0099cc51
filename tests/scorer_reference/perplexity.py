"""Frozen copy of the byte-bigram perplexity batch scorer (see __init__.py)."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# Embedded seed corpus (filler English written for this repo) — gives
# common English byte transitions realistic mass.
_SEED_TEXT = """
the quick brown fox jumps over the lazy dog and then runs far away to the
river where many small animals live in the tall green grass near the old
stone bridge people often walk there in the morning and talk about the
weather the news and the little things that make a day feel long or short
it is a quiet place with good light and the sound of water moving slowly
over smooth rocks children play on the path and dogs chase birds that rise
from the field when the wind turns cold everyone goes home to warm rooms
and bright windows where dinner waits on wooden tables and stories are told
"""


_MICRO = 1_000_000  # log-prob quantization: micro-nats per unit


def _build_logp_micro(alpha: float = 0.1) -> np.ndarray:
    """256x256 int64 table of MICRO-NAT log-probs (round(logp * 1e6)).

    Quantizing to integers makes every per-document total an EXACT int64
    sum: batch cumsum-difference == scalar per-doc sum bit-for-bit, and
    a DuckDB oracle can reproduce the totals from the same table (the
    round-2 verdict ask — this was the last gate-less scoring stage).
    The float ppl is then a deterministic function exp(-(micro/1e6)/n)
    of those integers on both paths."""
    seed = " ".join(_SEED_TEXT.lower().split()).encode("utf-8")
    arr = np.frombuffer(seed, dtype=np.uint8)
    bigrams = Counter(zip(arr[:-1].tolist(), arr[1:].tolist()))
    unigrams = Counter(arr.tolist())
    v = 256
    logp = np.full((v, v), math.log(alpha / (alpha * v)), dtype=np.float64)
    for (a, b), c in bigrams.items():
        logp[a, b] = math.log((c + alpha) / (unigrams[a] + alpha * v))
    return np.round(logp * _MICRO).astype(np.int64)


class PerplexityScorer:
    def __init__(self, text_col: str = "text", alpha: float = 0.1):
        self.text_col = text_col
        self.logp_micro = _build_logp_micro(alpha)

    # ---- vectorized batch core: one gather over the whole Arrow buffer
    def _batch_nll(self, col: pa.Array) -> tuple[np.ndarray, np.ndarray, int]:
        """(nll_micro int64 per doc, byte lens int64 per doc, n)."""
        lowered = pc.utf8_lower(pc.fill_null(col, "") if col.null_count else col)
        if isinstance(lowered, pa.ChunkedArray):
            lowered = lowered.combine_chunks()
        n = len(lowered)
        bufs = lowered.buffers()
        off_dtype = np.int64 if pa.types.is_large_string(lowered.type) else np.int32
        offsets = np.frombuffer(bufs[1], dtype=off_dtype)[lowered.offset:lowered.offset + n + 1]
        data = np.frombuffer(bufs[2], dtype=np.uint8) if bufs[2] is not None else np.empty(0, np.uint8)
        starts = offsets[:-1].astype(np.int64)
        ends = offsets[1:].astype(np.int64)
        lens = ends - starts
        if len(data) < 2:
            return np.zeros(n, dtype=np.int64), lens, n
        lp = self.logp_micro[data[:-1], data[1:]]    # all adjacent byte pairs
        cs = np.cumsum(lp)                           # EXACT int64 prefix sums
        # one sentinel past the end: a TRAILING empty doc has
        # starts == len(data), one past the last prefix sum (latent
        # IndexError in the pre-quantization version of this path)
        cum = np.concatenate(([0], cs, cs[-1:]))
        # pairs fully inside a doc: positions [start, end-2] of lp
        totals = cum[np.maximum(ends - 1, starts)] - cum[starts]
        return -totals, lens, n

    def _batch_ppl(self, col: pa.Array) -> np.ndarray:
        nll, lens, n = self._batch_nll(col)
        counts = np.maximum(lens - 1, 1).astype(np.float64)
        ppl = np.minimum(np.exp((nll / _MICRO) / counts), 3.4e38)
        ppl[lens < 2] = np.inf  # after the cap: scalar parity (ppl_one -> inf)
        return ppl.astype(np.float32)

    def nll_batch(self, batch: pa.Table) -> pa.Table:
        """SQL-twin output: exact integers only (doc_id join keys stay in
        the caller's table)."""
        col = batch[self.text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        nll, lens, _ = self._batch_nll(col)
        nll = np.where(lens >= 2, nll, 0)
        batch = batch.append_column("nll_micro", pa.array(nll, type=pa.int64()))
        batch = batch.append_column(
            "n_pairs", pa.array(np.maximum(lens - 1, 0), type=pa.int64()))
        return batch

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.text_col]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        ppl = self._batch_ppl(col)
        return batch.append_column("ppl", pa.array(ppl, type=pa.float32()))
