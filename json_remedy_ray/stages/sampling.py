"""Deterministic sampling operators for training-data curation.

A 100-TB corpus is subsampled constantly — per-source mixing ratios,
held-out eval splits, debugging slices.  Random sampling is useless at
scale (not reproducible, not resumable, can't be re-derived by a later
job); these operators use a DETERMINISTIC per-record hash so the same
sample falls out of every run, any engine can replicate it (the SQL
oracles recompute it independently), and a resumed job selects exactly
the rows the crashed one did.

Two shapes:

  stratified_sample_rate — keep each row iff
      hash(id) < rate(stratum) * 2^32
    Pure per-row filter inside map_batches: NO shuffle, no state, scales
    to any corpus; per-stratum rates are the training-mix knob (e.g.
    books 3x web).

  stratified_sample_k — exactly k rows per stratum: the k SMALLEST
    hash values within each stratum (a uniform ordered sample).  Runs
    as the group-wise top-N shape: a per-block combiner keeps only each
    block's local k-smallest per stratum, so the exchange keyed by
    stratum moves at most k * strata rows per block — never the
    corpus.

The hash is the 32-bit Knuth multiplicative hash (2654435761 = floor
(2^32 / phi), public domain folklore) — chosen over the engine's
splitmix64 because it is exactly replicable in ANSI SQL with BIGINT
arithmetic, which is what makes the sample auditable by any warehouse.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data as rd

from json_remedy_ray.functions.vhash import as_array
from json_remedy_ray.state.partitioning import block_refs

_KNUTH = np.uint64(2654435761)
_M32 = np.uint64(0xFFFFFFFF)


def sample_hash(ids: np.ndarray) -> np.ndarray:
    """(id * 2654435761) mod 2^32 as uint64 — SQL:
    ``(id * 2654435761) % 4294967296``."""
    return (ids.astype(np.uint64) * _KNUTH) & _M32


def stratified_sample_rate(ds: rd.Dataset, rates, id_col: str = "doc_id",
                           stratum_col: str = "source",
                           default_rate: float = 0.0) -> rd.Dataset:
    """Keep each row iff sample_hash(id) < rate(stratum) * 2^32.
    ``rates`` is a dict (broadcast in the task closure — small side) or
    a callable stratum -> rate; unknown strata use ``default_rate``."""
    rate_fn = rates.get if isinstance(rates, dict) else rates
    default = np.uint64(int(default_rate * 4294967296))

    def f(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        strata = batch[stratum_col].to_numpy(zero_copy_only=False)
        h = sample_hash(ids)
        # vectorized threshold lookup over the (few) distinct strata
        thr = np.empty(len(ids), dtype=np.uint64)
        thr[:] = default
        for s in pd.unique(strata):
            r = rate_fn(s)
            if r is not None:
                thr[strata == s] = np.uint64(int(r * 4294967296))
        return batch.filter(pa.array(h < thr))

    return ds.map_batches(f, batch_format="pyarrow", batch_size=None)


def stratified_sample_k(ds: rd.Dataset, k: int,
                        id_col: str = "doc_id",
                        stratum_col: str = "source") -> rd.Dataset:
    """Exactly min(k, |stratum|) rows per non-null stratum: the k
    smallest hash values (ties broken by id — the hash is injective on
    ids < 2^32 but the tie-break keeps the contract explicit).  One
    bucket exchange keyed by the stratum: the partition task keeps its
    block's local k smallest per stratum (the combiner), and each
    bucket reduce ranks the candidates with one lexsort."""
    import pyarrow.compute as pc

    from json_remedy_ray.functions.vhash import hash_strings
    from json_remedy_ray.state.partitioning import (
        bucket_exchange,
        default_n_buckets,
        rank_in_runs,
    )

    ds = ds.materialize()
    schema = pa.schema([
        ("stratum", ds.schema().base_schema.field(stratum_col).type),
        ("id", pa.int64()), ("sample_rank", pa.int64())])

    def topk(strata, ids: np.ndarray) -> pa.Table:
        """The k smallest (hash, id) rows of each stratum, ranked."""
        code = pc.rank(strata, tiebreaker="dense").to_numpy()
        order = np.lexsort((ids, sample_hash(ids), code))
        rank = rank_in_runs(code[order])
        keep = order[rank < k]
        return pa.table([strata.take(pa.array(keep)), pa.array(ids[keep]),
                         pa.array(rank[rank < k] + 1)], schema=schema)

    def local_topk(tbl: pa.Table):
        tbl = tbl.filter(pc.is_valid(tbl[stratum_col]))
        strata = as_array(tbl[stratum_col])
        ids = tbl[id_col].to_numpy().astype(np.int64)
        top = topk(strata, ids)
        return hash_strings(pc.cast(top["stratum"], pa.string())), top

    def final_topk(t: pa.Table) -> pa.Table:
        return topk(t["stratum"].chunk(0), t["id"].to_numpy())

    _, reduced = bucket_exchange(block_refs(ds), default_n_buckets(),
                                 local_topk, final_topk, schema)
    return rd.from_arrow_refs(reduced)
