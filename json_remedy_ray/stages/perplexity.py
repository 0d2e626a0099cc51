"""KenLM-style n-gram perplexity scoring — vectorized batch stage.

New design (SURVEY §2.9).  A BYTE-bigram language model with add-alpha
smoothing stands in for a KenLM binary (not available in this
container); the 256x256 log-prob table is built deterministically once
per worker from an embedded seed text.  Byte-level (not char-level) is
deliberate: the whole batch scores as ONE flat 65,536-entry gather over
the Arrow string buffer (index ``b0 | (b1 << 8)`` per byte pair) plus
one ``np.add.reduceat`` segment sum per document — zero per-document
Python.  Swapping in a real KenLM changes only the table construction.

The model reads lowercased text, but no lowered copy of the column is
made: the batch path reads the ``TextScan`` bytes the other scorers
read (``stages/textscan.py``).  ASCII rows are scored straight from
them through a case-folded copy of the table (``[A-Z]`` bytes index
the ``[a-z]`` entries), which is their lowercase exactly; only the
non-ASCII rows, where Arrow's lowercase can change bytes and byte
lengths (``İ`` -> ``i``), are lowered, with ``utf8_lower`` on the
scan's ``sub``.

Scores are deterministic pure functions of the text, so task retries
are safe.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from json_remedy_ray.functions.vhash import string_view
from json_remedy_ray.stages.textscan import TextScan

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
    sum: batch segment sum == scalar per-doc sum bit-for-bit, and
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
        # the batch path gathers from flat int32 copies indexed by
        # b0 | (b1 << 8), the little-endian uint16 the pair's two bytes
        # read as: every entry fits (the smallest is round(ln(1/256) * 1e6)),
        # in half the cache of the int64 table; the sums stay int64
        self._logp_flat = self.logp_micro.T.ravel().astype(np.int32)
        # the same entries indexed by bytes before an ASCII lowercase
        fold = np.arange(256)
        fold[65:91] += 32  # [A-Z] -> [a-z]
        self._logp_fold = self.logp_micro[fold[:, None], fold].T.ravel().astype(np.int32)

    # ---- scalar reference (tests + single-doc API)
    def nll_micro_one(self, text: str) -> tuple[int, int]:
        """(total micro-nat NLL, n_pairs) — the exact-integer core."""
        b = np.frombuffer((text or "").lower().encode("utf-8"), dtype=np.uint8)
        if len(b) < 2:
            return 0, max(len(b) - 1, 0)
        total = int(self.logp_micro[b[:-1], b[1:]].sum())
        return -total, len(b) - 1

    def ppl_one(self, text: str) -> float:
        if not text:
            return float("inf")
        b = text.lower().encode("utf-8")
        if len(b) < 2:
            return float("inf")
        nll, n_pairs = self.nll_micro_one(text)
        return float(math.exp((nll / _MICRO) / n_pairs))

    # ---- vectorized batch core: one flat gather over the whole Arrow
    # buffer, one segment sum per doc
    def nll_scan(self, scan: TextScan) -> tuple[np.ndarray, np.ndarray]:
        """(nll_micro int64 per doc, 0 under 2 bytes; lowercased byte
        lens int64 per doc) of the text ``scan`` reads."""
        nll, lens = _pair_sums(scan.rel, scan.b, self._logp_fold)
        if len(scan.other):
            off, data = string_view(pc.utf8_lower(scan.sub))
            nll[scan.other], lens[scan.other] = _pair_sums(
                off - off[0], data[off[0]:off[-1]], self._logp_flat)
        return nll, lens

    def append_scores(self, batch: pa.Table, scan: TextScan) -> pa.Table:
        """``batch`` with ``ppl`` computed from ``scan`` (a scan of its text column)."""
        nll, lens = self.nll_scan(scan)
        counts = np.maximum(lens - 1, 1).astype(np.float64)
        ppl = np.minimum(np.exp((nll / _MICRO) / counts), 3.4e38)
        ppl[lens < 2] = np.inf  # after the cap: scalar parity (ppl_one -> inf)
        return batch.append_column("ppl", pa.array(ppl.astype(np.float32), type=pa.float32()))

    def nll_batch(self, batch: pa.Table) -> pa.Table:
        """SQL-twin output: exact integers only (doc_id join keys stay in
        the caller's table)."""
        nll, lens = self.nll_scan(TextScan(batch[self.text_col]))
        batch = batch.append_column("nll_micro", pa.array(nll, type=pa.int64()))
        batch = batch.append_column(
            "n_pairs", pa.array(np.maximum(lens - 1, 0), type=pa.int64()))
        return batch

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.append_scores(batch, TextScan(batch[self.text_col]))


def _pair_sums(rel: np.ndarray, b: np.ndarray, logp_flat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(-sum of ``logp_flat[b0 | (b1 << 8)]`` over each row's adjacent
    byte pairs, 0 under 2 bytes; byte lens) for rows ``b[rel[i]:rel[i + 1]]``."""
    lens = np.diff(rel)
    nll = np.zeros(len(lens), dtype=np.int64)
    scored = np.flatnonzero(lens >= 2)
    if not len(scored):
        return nll, lens
    # all adjacent byte pairs, as one index b0 | (b1 << 8) each: a
    # little-endian uint16 view at byte stride, no copy
    pairs = np.ndarray((len(b) - 1,), dtype="<u2", buffer=b, strides=(1,))
    # every uint16 index is in range: mode='clip' only skips the bounds check
    lp = np.take(logp_flat, pairs, mode="clip")
    # a doc's pairs are lp[start, end - 1); the segments in between
    # (the pair across a boundary, docs under 2 bytes) are dropped
    bounds = np.empty(2 * len(scored), dtype=np.int64)
    bounds[0::2] = rel[scored]
    bounds[1::2] = rel[scored + 1] - 1
    if bounds[-1] == len(lp):  # the last doc runs to the end of lp
        bounds = bounds[:-1]
    nll[scored] = -np.add.reduceat(lp, bounds, dtype=np.int64)[0::2]  # EXACT int64 sums
    return nll, lens


# ---- corpus-TRAINED word-bigram LM (the CCNet workflow) -------------
# The fixed byte-bigram scorer above is the model-holding actor-pool
# stage; this family TRAINS the n-gram model on the corpus itself and
# scores every document under it — train-then-score, the actual
# KenLM-style pipeline shape.  Contract (mirrored exactly by the SQL
# oracle, the DSIR convention): tokens are lowered whitespace words;
# p(w2|w1) = (c(w1,w2) + 1) / (c1(w1) + V) with c1 the corpus count of
# history w1 over bigram occurrences and V the count of DISTINCT
# second tokens; each pair's ln is quantized to int64 micro-nats
# (floor(x * 1e6 + 0.5)) BEFORE summing, so per-doc NLL is an exact
# integer.  Vocab-bounded driver table at test scale; the open-vocab
# swap is md5 buckets (stages/dsir.md5_bucket_of), kernel unchanged.

_BIGRAM_SEP = "\x1f"


def _doc_bigrams(col):
    """(w1 array, w2 array, parent doc index) for one block's
    within-doc adjacent token pairs — one split, two slices."""
    from json_remedy_ray.stages.textstats import ws_split_lower

    flat, parents = ws_split_lower(col)
    m = len(flat) - 1
    if m < 1:
        e = pa.array([], type=pa.string())
        return e, e, np.empty(0, np.int64)
    same = parents[:-1] == parents[1:]
    w1 = flat.slice(0, m).filter(pa.array(same))
    w2 = flat.slice(1, m).filter(pa.array(same))
    return w1, w2, parents[:-1][same]


def bigram_count_partial(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """(w1, w2, c) per block — one Arrow group_by combiner."""
    w1, w2, _ = _doc_bigrams(batch[text_col])
    t = pa.table({"w1": w1, "w2": w2,
                  "c": pa.array(np.ones(len(w1), dtype=np.int64))})
    g = t.group_by(["w1", "w2"]).aggregate([("c", "sum")])
    return g.rename_columns(["w1", "w2", "c"])


def bigram_logp_micro(w1: np.ndarray, c: np.ndarray,
                      w2_distinct: int) -> np.ndarray:
    """Quantized ln p(w2|w1) per pair row: inputs are the merged pair
    table's history column (as group codes) and counts."""
    _, inv = np.unique(w1, return_inverse=True)
    c1 = np.bincount(inv, weights=c).astype(np.int64)[inv]
    w = np.log((c + 1.0) / (c1 + float(w2_distinct)))
    return np.floor(w * 1e6 + 0.5).astype(np.int64)


def bigram_score_batch(batch: pa.Table, keys: pa.Array, wt: np.ndarray,
                       id_col: str = "doc_id",
                       text_col: str = "text") -> pa.Table:
    """(doc_id, nll_micro, n_pairs) against the broadcast pair table
    (key = w1 sep w2).  Every scored pair exists in the table by
    construction (trained on the same corpus); fill defensively."""
    import pyarrow.compute as pc

    w1, w2, parents = _doc_bigrams(batch[text_col])
    n = batch.num_rows
    if len(w1):
        key = pc.binary_join_element_wise(
            w1.cast(pa.string()), w2.cast(pa.string()), _BIGRAM_SEP)
        if not keys.type.equals(key.type):
            keys = keys.cast(key.type)
        idx = pc.fill_null(pc.index_in(key, value_set=keys),
                           len(wt)).to_numpy(zero_copy_only=False)
        wt_ext = np.concatenate((wt, [0]))
        nll = np.zeros(n, dtype=np.int64)
        np.add.at(nll, parents, -wt_ext[idx])
        n_pairs = np.bincount(parents, minlength=n).astype(np.int64)
    else:
        nll = np.zeros(n, dtype=np.int64)
        n_pairs = np.zeros(n, dtype=np.int64)
    return pa.table({
        id_col: batch[id_col],
        "nll_micro": pa.array(nll, type=pa.int64()),
        "n_pairs": pa.array(n_pairs, type=pa.int64()),
    })
