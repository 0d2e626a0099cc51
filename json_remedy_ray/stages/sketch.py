"""HyperLogLog count-distinct sketch (Flajolet et al. 2007, public
algorithm) — the SCALE path for corpus-level distinct-document counts.

The exact count (exact_dedup_corpus in bench.py) needs an all-to-all
groupby whose cost on this Ray build is a fixed ~8 s scheduling floor
regardless of data size.  The sketch replaces the shuffle entirely:

    map_batches  -> one (2**p)-byte register array per BLOCK
                    (vectorized np.maximum.at over vhash content hashes)
    driver merge -> elementwise max of a few KB per block, O(blocks)

At 100 TB the driver merges block-count x 4 KB — bounded at ANY corpus
size, with the standard ~1.04/sqrt(2**p) relative error (p=12 -> ~1.6%).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from json_remedy_ray.functions.vhash import as_array, hash_strings, popcount64
from json_remedy_ray.state.partitioning import block_refs

_P = 12                      # 4096 registers -> ~1.6% typical error
_M = 1 << _P


def leading_zeros64(x: np.ndarray) -> np.ndarray:
    """EXACT vectorized count of leading zeros of uint64 values via
    bit-smearing + popcount (no float64 round-trip: floor(log2(float(x)))
    undercounts by 1 when the 53-bit mantissa rounds x up across a power
    of two).  x == 0 returns 64."""
    x = x.astype(np.uint64, copy=True)
    for s in (1, 2, 4, 8, 16, 32):
        x |= x >> np.uint64(s)
    # after smearing, x has ones exactly at/below the leading bit
    return (64 - popcount64(x).astype(np.int64))


def hll_register_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """One HLL register array (uint8[2**p]) per input batch."""
    h = hash_strings(batch[text_col])
    idx = (h >> np.uint64(64 - _P)).astype(np.int64)       # top p bits
    rest = h << np.uint64(_P)                              # remaining 64-p bits
    # rank = position of first 1-bit in `rest` (1-based); rest == 0 (all
    # 64-p suffix bits zero) takes the cap 64-p+1 via the same min()
    rank = np.minimum(leading_zeros64(rest) + 1, 64 - _P + 1).astype(np.uint8)
    regs = np.zeros(_M, dtype=np.uint8)
    np.maximum.at(regs, idx, rank)
    return pa.table({"registers": pa.array([regs.tobytes()], type=pa.binary())})


def hll_merge_and_estimate(register_blobs) -> float:
    """Elementwise-max merge of per-block registers + HLL estimate with
    the standard small/large range corrections."""
    regs = np.zeros(_M, dtype=np.uint8)
    for blob in register_blobs:
        regs = np.maximum(regs, np.frombuffer(blob, dtype=np.uint8))
    m = float(_M)
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.power(2.0, -regs.astype(np.float64)))
    zeros = int(np.count_nonzero(regs == 0))
    if est <= 2.5 * m and zeros:
        est = m * np.log(m / zeros)                        # linear counting
    elif est > (1 << 64) / 30.0:
        est = -(1 << 64) * np.log1p(-est / (1 << 64))
    return float(est)


def count_distinct_hll(ds, text_col: str = "text",
                       tree_fanout: int = 256) -> float:
    """Approximate distinct-count of a text column with NO shuffle: the
    driver merges one 4 KB register blob per block.  Register max-merge
    is associative, so past ``tree_fanout`` blocks intermediate tasks
    tree-merge (round-3 verdict #7): the driver reads at most
    tree_fanout x 4 KB at ANY block count (10^6 blocks would otherwise
    be a 4 GB driver pull)."""
    partials = ds.map_batches(
        lambda b: hll_register_batch(b, text_col),
        batch_format="pyarrow", batch_size=None,
    )
    from json_remedy_ray.state.partitioning import tree_reduce

    def _merge(tables):
        regs = np.zeros(_M, dtype=np.uint8)
        for t in tables:
            for blob in t["registers"].to_pylist():
                regs = np.maximum(regs, np.frombuffer(blob, dtype=np.uint8))
        return pa.table({"registers": pa.array([regs.tobytes()],
                                               type=pa.binary())})

    refs = tree_reduce(block_refs(partials), _merge, tree_fanout)
    import ray.data as _rd

    blobs = [row["registers"]
             for row in _rd.from_arrow_refs(refs).iter_rows()]
    return hll_merge_and_estimate(blobs)


def count_distinct_exact_bounded(ds, text_col: str = "text") -> int:
    """EXACT distinct-count of a text column with NO shuffle (round-2
    verdict #9): per-block np.unique of the vectorized 64-bit content
    hashes, then one driver np.unique over the concatenated key arrays.

    Sits between the distributed groupby (exact at any cardinality but
    pays this Ray build's fixed all-to-all scheduling floor) and the HLL
    sketch (bounded at any size, ~1.6% error): driver memory is
    8 bytes x total distinct keys — the right tool while that product
    fits the driver (1e9 distinct docs = 8 GB); past that crossover use
    the groupby for exactness or HLL for bounded cost.  "Exact" means
    exact on the 64-bit content hash, the same key the groupby probe
    counts."""
    from json_remedy_ray.functions.vhash import hash_strings

    def block_unique(batch: pa.Table) -> pa.Table:
        h = np.unique(hash_strings(batch[text_col])).view(np.int64)
        return pa.table({"h": pa.array(h, type=pa.int64())})

    partials = ds.map_batches(block_unique, batch_format="pyarrow", batch_size=None)
    parts = [b["h"].to_numpy() for b in partials.iter_batches(
        batch_format="pyarrow", batch_size=None)]
    if not parts:
        return 0
    return int(len(np.unique(np.concatenate(parts))))


def count_distinct_exact_exchange(ds, text_col: str = "text",
                                  n_buckets: int = 64) -> int:
    """EXACT distinct-count at ANY cardinality with neither the groupby
    floor nor the driver bound — the fourth point on the distinct-count
    cost curve and the one that holds at 100 TB:

      groupby probe            exact, pays the ~8 s fixed shuffle floor
      HLL sketch               no shuffle, bounded forever, ~1.6% error
      driver np.unique         exact, no shuffle, driver-RAM-bounded
      THIS (bucket exchange)   exact, unbounded: per-block unique
                               64-bit content hashes move once through
                               state/partitioning.bucket_exchange
                               (hash mod n_buckets); each bucket counts
                               its distinct keys with one np.unique and
                               the driver sums n_buckets integers.

    Per-bucket memory is total_distinct/n_buckets x 8 B — size n_buckets
    so that fits a worker (1e10 distinct keys, 256 buckets -> 312 MB per
    reduce task).  Like the other exact paths, "exact" means exact on
    the 64-bit content hash."""
    import ray

    from json_remedy_ray.functions.vhash import hash_strings
    from json_remedy_ray.state.partitioning import bucket_exchange

    def block_unique(batch: pa.Table) -> pa.Table:
        h = np.unique(hash_strings(batch[text_col]))   # uint64, sorted
        return pa.table({"h": pa.array(h.view(np.int64))})

    partials = ds.map_batches(block_unique, batch_format="pyarrow",
                              batch_size=None)

    def part(tbl: pa.Table):
        return tbl["h"].to_numpy(zero_copy_only=False), tbl

    def reduce_count(t: pa.Table) -> pa.Table:
        n = len(np.unique(t["h"].to_numpy(zero_copy_only=False)))
        return pa.table({"n": pa.array([n], type=pa.int64())})

    _, reduced = bucket_exchange(
        block_refs(partials), n_buckets, part, reduce_count,
        pa.schema([("n", pa.int64())]))
    return int(sum(sum(ray.get(r)["n"].to_pylist()) for r in reduced))


# --------------------------------------------------------------- bloom

def bloom_from_dataset(ds, text_col: str = "text",
                       m_bits: int = 1 << 20, k: int = 4) -> np.ndarray:
    """Bloom filter of a dataset's text column (Bloom 1970, public):
    each block sets its k seeded-hash bits in a LOCAL bitmap and emits
    one (m_bits/8)-byte row; the driver OR-merges — the same
    one-blob-per-block shape as the HLL sketch, bounded at any corpus
    size by blocks x m_bits/8 (128 KB at the default m).  Returns the
    merged uint64 word array."""
    import pyarrow as pa

    from json_remedy_ray.functions.vhash import hash_strings

    words = m_bits // 64

    def block_bloom(batch: pa.Table) -> pa.Table:
        col = as_array(batch[text_col])
        bm = np.zeros(words, dtype=np.uint64)
        for s in range(k):
            h = hash_strings(col, seed=s) % np.uint64(m_bits)
            np.bitwise_or.at(bm, (h >> np.uint64(6)).astype(np.int64),
                             np.uint64(1) << (h & np.uint64(63)))
        return pa.table({"bloom": pa.array([bm.tobytes()], type=pa.binary())})

    pdf = ds.map_batches(block_bloom, batch_format="pyarrow",
                         batch_size=None).to_pandas()
    out = np.zeros(words, dtype=np.uint64)
    for blob in pdf["bloom"]:
        out |= np.frombuffer(blob, dtype=np.uint64)
    return out


def bloom_contains(bm: np.ndarray, col, m_bits: int, k: int = 4) -> np.ndarray:
    """Vectorized membership probe: True where ALL k bits are set
    (no false negatives; false positives at the standard Bloom rate)."""
    from json_remedy_ray.functions.vhash import hash_strings

    n = len(col)
    mask = np.ones(n, dtype=bool)
    for s in range(k):
        h = hash_strings(col, seed=s) % np.uint64(m_bits)
        bit = (bm[(h >> np.uint64(6)).astype(np.int64)]
               >> (h & np.uint64(63))) & np.uint64(1)
        mask &= bit.astype(bool)
    return mask


# ------------------------------------------------- Misra-Gries heavy hitters

def _mg_compress(counts: np.ndarray, k: int):
    """Compress an exact count summary to at most k counters — the
    batch form of Misra-Gries (Misra & Gries 1982; mergeable form per
    Agarwal et al. 2012): subtract the (k+1)-th largest count from
    every counter and drop the non-positive ones.  Returns
    (keep_mask | None, new_counts, offset) — mask is None when no
    compression fired; every surviving estimate undercounts its true
    stream count by at most the sum of offsets applied along the merge
    path.  ONE definition used by both the block leg and the driver
    merge so the compress invariant can't drift."""
    n = len(counts)
    if n <= k:
        return None, counts, 0
    off = int(np.partition(counts, n - k - 1)[n - k - 1])
    keep = counts > off
    return keep, counts[keep] - off, off


def misra_gries_block(batch: pa.Table, text_col: str = "text",
                      k: int = 4096) -> pa.Table:
    """One MG-k summary per corpus block: exact block token counts (the
    SHARED canonical partial, stages/textstats.block_token_counts —
    structurally the same tokenization as top_tokens_corpus) compressed
    to <= k counters.  The block's subtraction offset rides along as a
    sentinel row (token=NULL) so the driver can report the global
    undercount bound.  Output <= k+1 rows per block — bounded at ANY
    corpus size, no shuffle."""
    from json_remedy_ray.stages.textstats import block_token_counts

    toks, cnts = block_token_counts(batch[text_col])
    keep, cnts, off_val = _mg_compress(cnts, k)
    if keep is not None:
        toks = toks.filter(pa.array(keep))
    toks = pa.concat_arrays([toks.cast(pa.string()),
                             pa.array([None], type=pa.string())])
    cnts = np.concatenate((cnts, [off_val]))
    return pa.table({"token": toks,
                     "cnt": pa.array(cnts, type=pa.int64())})


def _mg_merge_tables(tables, k: int) -> pa.Table:
    """Merge MG-k summary tables into ONE (<= k+1 rows incl. the NULL
    offset sentinel).  MG summaries are MERGEABLE (Agarwal et al. 2012):
    counts add by token, the merged set re-compresses to k with a new
    subtraction offset, and offsets (undercount bounds) add — so the
    merge is associative and safe to apply as a tree."""
    live = [t for t in tables if t.num_rows]
    if not live:
        return pa.table({"token": pa.array([None], type=pa.string()),
                         "cnt": pa.array([0], type=pa.int64())})
    pdf = pa.concat_tables(live).combine_chunks().to_pandas()
    null_mask = pdf["token"].isna()
    total_off = int(pdf.loc[null_mask, "cnt"].sum())
    merged = pdf[~null_mask].groupby("token", as_index=False)["cnt"].sum()
    toks = merged["token"].to_numpy()
    cnts = merged["cnt"].to_numpy().astype(np.int64)
    keep, cnts, off = _mg_compress(cnts, k)
    if keep is not None:
        toks = toks[keep]
    return pa.table({
        "token": pa.concat_arrays([pa.array(toks, type=pa.string()),
                                   pa.array([None], type=pa.string())]),
        "cnt": pa.array(np.concatenate((cnts, [total_off + off])),
                        type=pa.int64()),
    })


def top_tokens_misra_gries(ds, k: int = 4096, topn: int = 20,
                           text_col: str = "text", tree_fanout: int = 64):
    """Corpus-wide heavy-hitter tokens WITHOUT a shuffle and WITHOUT the
    vocab-x-blocks driver merge of the exact path: each block ships at
    most k+1 rows; when blocks exceed ``tree_fanout``, intermediate
    tasks tree-merge ``tree_fanout`` summaries at a time (round-3
    verdict #7), so the driver holds at most (k+1) x tree_fanout rows
    at ANY corpus size; the final driver pass merges and re-compresses.

    Guarantees (the standard MG bounds, preserved by mergeability):
    estimates never overcount; any token's undercount is at most
    `max_undercount` (the sum of all subtraction offsets, itself
    <= N/(k+1) for N total tokens); every token whose true count
    exceeds max_undercount is present.  The exact twin
    (top_tokens_corpus, full SQL oracle) is the correctness gate; this
    is the documented scale path for open-ended token domains."""
    import pandas as pd

    from json_remedy_ray.state.partitioning import tree_reduce

    refs = tree_reduce(
        block_refs(ds.map_batches(lambda b: misra_gries_block(b, text_col=text_col, k=k),
                                  batch_format="pyarrow", batch_size=None)),
        lambda tables: _mg_merge_tables(tables, k), tree_fanout)
    import ray.data as _rd

    pdf = _rd.from_arrow_refs(refs).to_pandas()
    if pdf.empty:                 # empty input -> column-less frame
        return pd.DataFrame({"token": pd.Series([], dtype=object),
                             "est_cnt": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64"),
                             "max_undercount": pd.Series([], dtype="int64")})
    null_mask = pdf["token"].isna()
    total_off = int(pdf.loc[null_mask, "cnt"].sum())
    merged = (pdf[~null_mask].groupby("token", as_index=False)["cnt"].sum())
    toks = merged["token"].to_numpy()
    cnts = merged["cnt"].to_numpy().astype(np.int64)
    keep, cnts, off = _mg_compress(cnts, k)
    if keep is not None:
        toks = toks[keep]
    total_off += off
    out = pd.DataFrame({"token": toks, "est_cnt": cnts})
    out = (out.sort_values(["est_cnt", "token"], ascending=[False, True],
                           kind="mergesort").head(topn).reset_index(drop=True))
    out["rank"] = np.arange(1, len(out) + 1, dtype=np.int64)
    out["max_undercount"] = np.int64(total_off)
    return out[["token", "est_cnt", "rank", "max_undercount"]]


# ---------------------------------------------- bottom-k quantile sketch

def bottomk_sample_block(batch: pa.Table, key_col: str, value_col: str,
                         k: int = 2048) -> pa.Table:
    """Per-block leg of the KMV/bottom-k uniform row sample: hash the
    row key with the shared splitmix64 mix and keep the k rows with the
    smallest hashes.  Because the hash order is a fixed uniform
    permutation of row keys, the global k smallest hashes are a uniform
    size-k sample WITHOUT replacement — deterministic (no RNG state),
    mergeable by simple concat + re-select, and each block ships at
    most k rows."""
    from json_remedy_ray.functions.vhash import _mix64

    keys = (batch[key_col].to_numpy(zero_copy_only=False)
            .astype(np.int64).view(np.uint64))
    h = _mix64(keys)
    if len(h) > k:
        idx = np.argpartition(h, k)[:k]
    else:
        idx = np.arange(len(h))
    vals = batch[value_col].to_numpy(zero_copy_only=False)[idx]
    return pa.table({"h": pa.array(h[idx].view(np.int64)),
                     "v": pa.array(vals)})


def quantiles_bottomk(ds, key_col: str, value_col: str,
                      quantiles, k: int = 2048, tree_fanout: int = 64):
    """Approximate quantiles from the bottom-k row sample — the
    one-pass path next to the exact quantiles (docs_length_quantiles,
    stages/rank.kth_keys), which need narrowing rounds once a value
    domain outgrows their bucket bound: per-block bottom-k partials
    (<= k rows each), driver re-selects the global k smallest hashes,
    and reads the sample's order statistics with the same 1-based
    ceil(q*k) rule as the exact path.  Standard uniform-sample bound:
    rank error O(sqrt(q(1-q)/k)) of n with high probability (Vitter
    1985 reservoir equivalence; KMV per Bar-Yossef et al. 2002).
    Returns (quantile estimates dict, sample size).

    Bottom-k union is associative (bottom-k of unioned bottom-k sets is
    the global bottom-k), so past ``tree_fanout`` blocks intermediate
    tasks tree-merge (round-3 verdict #7): the driver holds at most
    k x tree_fanout rows at any block count."""
    from json_remedy_ray.state.partitioning import tree_reduce

    def _merge(tables):
        live = [t for t in tables if t.num_rows]
        if not live:
            return tables[0].slice(0, 0)
        t = pa.concat_tables(live).combine_chunks()
        hh = t["h"].to_numpy(zero_copy_only=False).view(np.uint64)
        if len(hh) <= k:
            return t
        idx = np.argpartition(hh, k)[:k]
        return t.take(pa.array(np.sort(idx)))

    refs = tree_reduce(
        block_refs(ds.map_batches(lambda b: bottomk_sample_block(b, key_col, value_col, k=k),
                                  batch_format="pyarrow", batch_size=None)),
        _merge, tree_fanout)
    import ray.data as _rd

    pdf = _rd.from_arrow_refs(refs).to_pandas()
    if pdf.empty:                 # empty input -> column-less frame
        return {q: None for q in quantiles}, 0
    h = pdf["h"].to_numpy().view(np.uint64)
    v = pdf["v"].to_numpy()
    if len(h) > k:
        idx = np.argpartition(h, k)[:k]
        v = v[idx]
    v = np.sort(v)
    m = len(v)
    out = {}
    for q in quantiles:
        if m == 0:
            out[q] = None
        else:
            rank = max(1, int(np.ceil(q * m)))
            out[q] = v[rank - 1]
    return out, m
