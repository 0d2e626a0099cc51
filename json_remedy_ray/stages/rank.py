"""Global sort / dense row numbering — exact ROW_NUMBER() over the
corpus, the classic range-partitioned distributed sort:

  1. one stats pass builds an exact histogram of the integer key from
     per-block bincount partials (bounded by the key's value range, the
     same bounded-partials argument as docs_length_quantiles);
  2. the driver picks B-1 cut values BETWEEN distinct key values so
     buckets are ~equal rows and every tie group lands whole in one
     bucket (ties break by id, which only needs intra-bucket ordering);
  3. a bucket exchange sorts each bucket locally by (key desc, id) and
     counts it; the driver prefix-sums the B counts into rank offsets
     (B ints — bounded) and a final per-bucket task adds the offset.

No full-corpus materialization anywhere: blocks move through the object
store, the driver holds the histogram and B counts.  The skew caveat is
the range-partition classic: one key value held by >1/B of all rows
makes a hot bucket (its rows still sort, just on one task); a
finer-grained composite key would split it.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import ray.data as rd

from json_remedy_ray.state.partitioning import bucket_exchange

MAX_KEY = 1 << 22          # histogram bound; doc lengths sit far below


def global_rank(ds: rd.Dataset, key_col: str, id_col: str,
                n_buckets: int = 32, rank_col: str = "rank") -> rd.Dataset:
    """Dataset with int key -> same rows + ``rank_col`` = exact global
    ROW_NUMBER() ordered by (key DESC, id ASC)."""
    import ray

    def hist_batch(batch: pa.Table) -> pa.Table:
        k = batch[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        assert (k >= 0).all() and (k < MAX_KEY).all(), "key outside histogram bound"
        h = np.bincount(k)
        return pa.table({"value": pa.array(np.nonzero(h)[0], type=pa.int64()),
                         "count": pa.array(h[h > 0], type=pa.int64())})

    hist_pdf = (ds.map_batches(hist_batch, batch_format="pyarrow",
                               batch_size=None).to_pandas()
                .groupby("value", as_index=False)["count"].sum()
                .sort_values("value", ascending=False))   # DESC order
    counts = hist_pdf["count"].to_numpy()
    values = hist_pdf["value"].to_numpy()
    total = int(counts.sum())
    # cuts: first DESC-ordered distinct value of each bucket span
    target = max(1, total // n_buckets)
    cum = np.cumsum(counts)
    bucket_of_value = np.minimum(cum // target, n_buckets - 1).astype(np.int64)
    # bucket id per VALUE (desc order); map via searchsorted on values asc
    values_asc = values[::-1].copy()
    bucket_asc = bucket_of_value[::-1].copy()
    lut_ref = ray.put((values_asc, bucket_asc))

    def part(tbl: pa.Table):
        va, ba = ray.get(lut_ref)
        k = tbl[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        idx = np.searchsorted(va, k)
        return ba[np.clip(idx, 0, len(ba) - 1)], tbl

    def reduce_sort(t: pa.Table) -> pa.Table:
        k = t[key_col].to_numpy(zero_copy_only=False).astype(np.int64)
        i = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        order = np.lexsort((i, -k))
        t = t.take(pa.array(order))
        return t.append_column(
            rank_col, pa.array(np.arange(1, t.num_rows + 1), type=pa.int64()))

    ds_schema = ds.schema()
    schema = pa.schema(list(zip(ds_schema.names, ds_schema.types))
                       + [(rank_col, pa.int64())])
    _, reduced = bucket_exchange(ds.to_arrow_refs(), n_buckets,
                                 part, reduce_sort, schema)

    @ray.remote
    def _nrows(t):
        return t.num_rows

    @ray.remote
    def _shift(t, offset):
        r = (t[rank_col].to_numpy(zero_copy_only=False) + offset)
        return t.drop_columns([rank_col]).append_column(
            rank_col, pa.array(r, type=pa.int64()))

    ns = ray.get([_nrows.remote(r) for r in reduced])
    offsets = np.concatenate(([0], np.cumsum(ns)))[:-1]
    live = [_shift.remote(r, int(o))
            for r, o, n in zip(reduced, offsets, ns) if n]
    if not live:
        return rd.from_arrow(schema.empty_table())
    return rd.from_arrow_refs(live)
