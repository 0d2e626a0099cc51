"""DSIR-style data-selection importance weights (Xie et al. 2023,
"Data Selection for Language Models via Importance Resampling" — public
algorithm): score every document by how much more likely its tokens are
under a TARGET domain's unigram distribution than under the raw corpus
distribution:

    logweight(doc) = sum over tokens t of  ln p_target(t) - ln p_raw(t)

with add-one smoothing over the observed vocabulary.  Documents with
high weight look like the target domain; importance resampling keeps
doc d with probability proportional to exp(logweight).

Shape (100-TB audit):
  pass 1  ONE corpus scan -> per-block (token, target_count, all_count)
          partials via an Arrow group_by combiner; the exchange moves
          one row per DISTINCT token per block.  Driver merge is
          bounded by the vocabulary (paper uses hashed n-gram buckets
          for exactly this reason — swap tokens for hash buckets mod B
          when the raw vocab is open-ended; the kernel is unchanged).
  pass 2  weights table broadcast once (ray.put), every block scores
          its docs with one index_in + np.take — no shuffle anywhere.

Determinism contract: the per-token log-ratio is quantized to int64
micro-nats IMMEDIATELY after the two ln() calls, so each doc's score is
an exact integer sum — batch/scalar/oracle all reproduce it bit-for-bit
(the perplexity-scorer convention).  The DuckDB oracle recomputes the
same counts, the same smoothing, and the same quantization from the raw
table — fully self-contained, nothing generated from engine output.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from json_remedy_ray.functions.vhash import as_array
from json_remedy_ray.stages.textstats import ws_split_lower


def token_count_partial(batch: pa.Table, target_mask: np.ndarray,
                        text_col: str = "text") -> pa.Table:
    """(token, ct, ca) for one block: ct counts occurrences inside
    target-slice docs, ca counts all occurrences."""
    flat, parents = ws_split_lower(batch[text_col])
    is_t = target_mask[parents].astype(np.int64)
    t = pa.table({"token": flat, "ct": pa.array(is_t),
                  "ca": pa.array(np.ones(len(is_t), dtype=np.int64))})
    g = t.group_by("token").aggregate([("ct", "sum"), ("ca", "sum")])
    return g.rename_columns(["token", "ct", "ca"])


def logratio_micro(ct: np.ndarray, ca: np.ndarray) -> np.ndarray:
    """Quantized per-token log-ratio: floor(1e6 * (ln((ct+1)/(T+V)) -
    ln((ca+1)/(A+V))) + 0.5) as int64 — T/A total target/raw tokens, V
    the observed vocabulary (add-one smoothing).  Half-UP rounding via
    floor(x + 0.5), NOT np.round: numpy rounds half-to-even while
    DuckDB rounds half-away, and the oracle must reproduce the exact
    integer."""
    T, A, V = int(ct.sum()), int(ca.sum()), len(ct)
    w = (np.log((ct + 1.0) / (T + V)) - np.log((ca + 1.0) / (A + V)))
    return np.floor(w * 1e6 + 0.5).astype(np.int64)


def score_batch(batch: pa.Table, vocab: pa.Array, wt: np.ndarray,
                id_col: str = "doc_id", text_col: str = "text") -> pa.Table:
    """(doc_id, dsir_micro, n_tokens) for one block against the
    broadcast (vocab, weight) table."""
    flat, parents = ws_split_lower(batch[text_col])
    n = batch.num_rows
    # large_string corpora yield large_string tokens; match the vocab
    # type (cast the small side) or index_in rejects the lookup
    if not vocab.type.equals(flat.type):
        vocab = vocab.cast(flat.type)
    idx = pc.index_in(flat, value_set=vocab)
    # vocabulary is built from the same corpus, so every token resolves;
    # fill defensively (weight 0) for out-of-corpus tokens anyway
    idx = pc.fill_null(idx, len(wt)).to_numpy(zero_copy_only=False)
    wt_ext = np.concatenate((wt, [0]))
    per_tok = wt_ext[idx]
    dsir = np.zeros(n, dtype=np.int64)
    np.add.at(dsir, parents, per_tok)
    n_toks = np.bincount(parents, minlength=n).astype(np.int64)
    return pa.table({
        id_col: batch[id_col],
        "dsir_micro": pa.array(dsir, type=pa.int64()),
        "n_tokens": pa.array(n_toks, type=pa.int64()),
    })


# ---- hashed-bucket variant: the OPEN-VOCABULARY scale path ----------
# (the docstring's promised swap made real): tokens map to md5 buckets
# mod B, so the weight table is bounded at B rows for ANY corpus — the
# paper's hashed n-gram buckets.  md5 is the bucket hash because BOTH
# sides can compute it (DuckDB md5()), keeping the oracle fully
# self-contained; it runs once per UNIQUE token via dictionary encode
# (Zipf-bounded per block), never per occurrence.

def md5_bucket_of(tokens: pa.Array, n_buckets: int) -> np.ndarray:
    """int64 bucket per token: first 4 md5 bytes mod n_buckets."""
    import hashlib

    enc = as_array(tokens).dictionary_encode()
    uniq = enc.dictionary.to_pylist()
    b = np.array([int(hashlib.md5(w.encode()).hexdigest()[:8], 16)
                  % n_buckets for w in uniq], dtype=np.int64)
    if not len(uniq):
        return np.empty(0, np.int64)
    return b[enc.indices.to_numpy(zero_copy_only=False)]


def bucket_count_partial(batch: pa.Table, target_mask: np.ndarray,
                         n_buckets: int,
                         text_col: str = "text") -> pa.Table:
    """(bucket, ct, ca) for one block — at most n_buckets rows."""
    flat, parents = ws_split_lower(batch[text_col])
    if not len(flat):
        return pa.table({"bucket": pa.array([], pa.int64()),
                         "ct": pa.array([], pa.int64()),
                         "ca": pa.array([], pa.int64())})
    bk = md5_bucket_of(flat, n_buckets)
    is_t = target_mask[parents].astype(np.int64)
    cts = np.bincount(bk, weights=is_t, minlength=n_buckets).astype(np.int64)
    cas = np.bincount(bk, minlength=n_buckets).astype(np.int64)
    nz = np.nonzero(cas)[0]
    return pa.table({"bucket": pa.array(nz.astype(np.int64)),
                     "ct": pa.array(cts[nz]), "ca": pa.array(cas[nz])})


def score_batch_hashed(batch: pa.Table, wt_full: np.ndarray,
                       n_buckets: int, id_col: str = "doc_id",
                       text_col: str = "text") -> pa.Table:
    """(doc_id, dsir_micro, n_tokens) against the dense bucket-weight
    array (every scored token's bucket is observed by construction —
    it contributed to ca in pass 1)."""
    flat, parents = ws_split_lower(batch[text_col])
    n = batch.num_rows
    if len(flat):
        bk = md5_bucket_of(flat, n_buckets)
        dsir = np.zeros(n, dtype=np.int64)
        np.add.at(dsir, parents, wt_full[bk])
        n_toks = np.bincount(parents, minlength=n).astype(np.int64)
    else:
        dsir = np.zeros(n, dtype=np.int64)
        n_toks = np.zeros(n, dtype=np.int64)
    return pa.table({
        id_col: batch[id_col],
        "dsir_micro": pa.array(dsir, type=pa.int64()),
        "n_tokens": pa.array(n_toks, type=pa.int64()),
    })
