"""Round-5 fixes: forced-fallback and anti-pattern regressions from the
round-4 verdict/advice.

1. filter_pipeline_documents: broadcast_max=0 forces the doc-bucket
   cogroup fallback — result must equal the broadcast path exactly.
2. crossdoc_span_dedup: broadcast_max=0 forces the span-rebuild cogroup
   fallback — byte-identical clean_text vs the broadcast path.
3. semdedup_embeddings: pairs_max=0 forces components_min_label — same
   keep column as the driver union-find path.
4. components_min_label raises (not silently wrong) when max_iters is
   exhausted without convergence.
5. simhash bucket_pairs collapses identical-hash runs to N-1 chain
   pairs instead of C(N,2), preserving connectivity.
6. events_running_total's phase-2 reduce emits only NONZERO carries
   (cold users never reach the driver).
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


def _sorted_pdf(res, keys):
    df = res.to_pandas() if hasattr(res, "to_pandas") else res
    return df.sort_values(keys).reset_index(drop=True)


def test_filter_pipeline_cogroup_fallback_matches_broadcast(ray_session):
    from json_remedy_ray.functions.queries import filter_pipeline_documents

    base = _sorted_pdf(filter_pipeline_documents(SF), ["doc_id"])
    forced = _sorted_pdf(filter_pipeline_documents(SF, broadcast_max=0),
                         ["doc_id"])
    assert (base["drop_reason"] == "duplicate").any()  # gate has work
    pd.testing.assert_frame_equal(base, forced)


def test_crossdoc_span_cogroup_fallback_matches_broadcast(ray_session):
    import ray.data as rd

    from json_remedy_ray.stages.dedup import crossdoc_span_dedup

    ds = rd.read_parquet(f"{SF}/documents.parquet",
                         columns=["doc_id", "text"])
    base = _sorted_pdf(crossdoc_span_dedup(ds, n=8), ["doc_id"])
    ds2 = rd.read_parquet(f"{SF}/documents.parquet",
                          columns=["doc_id", "text"])
    forced = _sorted_pdf(crossdoc_span_dedup(ds2, n=8, broadcast_max=0),
                         ["doc_id"])
    assert (base["n_removed"] > 0).any()               # gate has work
    pd.testing.assert_frame_equal(base, forced)


def test_semdedup_min_label_fallback_matches_union_find(ray_session):
    from json_remedy_ray.functions.queries import semdedup_embeddings

    base = _sorted_pdf(semdedup_embeddings(SF), ["vec_id"])
    forced = _sorted_pdf(semdedup_embeddings(SF, pairs_max=0), ["vec_id"])
    assert (~base["keep"]).any()                       # gate has work
    pd.testing.assert_frame_equal(base, forced)


def test_components_min_label_raises_on_non_convergence(ray_session):
    import ray.data as rd

    from json_remedy_ray.stages.dedup import components_min_label

    # pointer doubling needs >= log2(300) ~ 8 rounds on a 300-node
    # chain; max_iters=2 must raise, never return a wrong mapping silently
    n = 300
    pairs = rd.from_pandas(pd.DataFrame({
        "doc_a": np.arange(n - 1, dtype=np.int64),
        "doc_b": np.arange(1, n, dtype=np.int64),
    }))
    with pytest.raises(RuntimeError, match="did not converge"):
        components_min_label(pairs, max_iters=2)


def test_simhash_identical_run_emits_chain_not_allpairs(ray_session):
    import ray.data as rd

    from json_remedy_ray.stages.dedup import simhash_dedup_pairs

    # 64 identical docs: one simhash run -> exactly 63 chain pairs
    # per distinct band bucket, deduped to 63 overall (not C(64,2)=2016)
    n = 64
    text = "the quick brown fox jumps over the lazy dog " * 8
    ds = rd.from_pandas(pd.DataFrame({
        "doc_id": np.arange(n, dtype=np.int64),
        "text": [text] * n,
    }))
    pairs = simhash_dedup_pairs(ds).to_pandas()
    uniq = pairs.drop_duplicates(["doc_a", "doc_b"])
    assert len(uniq) == n - 1
    # chain connectivity: consecutive doc_ids
    assert sorted(uniq["doc_b"] - uniq["doc_a"]) == [1] * (n - 1)


def test_oracle_notes_cover_exactly_the_rows_only_queries():
    """Every rows-only query (QUERIES minus ORACLES) carries a note
    naming its twin/pytest gate — and nothing else does."""
    from json_remedy_ray.functions.queries import ORACLES, ORACLE_NOTES, QUERIES

    rows_only = set(QUERIES) - set(ORACLES)
    assert rows_only == set(ORACLE_NOTES), (
        sorted(rows_only - set(ORACLE_NOTES)),
        sorted(set(ORACLE_NOTES) - rows_only))


def test_pack_rank_cuts_handle_skewed_ids(ray_session):
    """Advisor round-4: value-range chunk cuts routed far more than
    chunk_rows docs into one chunk on a skewed id space.  With
    rank-based histogram cuts, 95% of ids packed into a tiny value
    range must still split into ~chunk_rows chunks (the old cuts put
    them all in one task and tripped the 8x ceiling)."""
    import ray.data as rd

    from json_remedy_ray.functions.queries import _pack_chunked

    n = 2000
    ids = np.where(np.arange(n) % 20 == 0,
                   np.arange(n, dtype=np.int64) * (1 << 40),  # 5% spread wide
                   np.arange(n, dtype=np.int64))              # 95% in [0, n)
    df = pd.DataFrame({
        "doc_id": np.unique(ids),           # unique keeps order semantics
        "source": "s",
    })
    df["text"] = "one two three four five"

    def read_fn(cols):
        return rd.from_pandas(df[["doc_id", "source", "text"]])

    refs, _ = _pack_chunked(read_fn, budget=64, chunk_rows=100,
                            with_text=False)
    out = rd.from_arrow_refs(refs).to_pandas()
    assert len(out) == len(df)
    # greedy packing semantics hold end-to-end: 12 docs of 5 tokens per
    # 64-token bin, bins strictly in doc_id order
    out = out.sort_values("doc_id").reset_index(drop=True)
    assert (np.diff(out["bin_id"].to_numpy()) >= 0).all()
    assert out.groupby("bin_id").size().max() == 12


def test_running_total_reduce2_emits_only_nonzero_carries(ray_session):
    """The phase-2 carry table is bounded by HOT users: every cold user
    (one (user, salt) group) provably carries 0 and must be filtered
    inside the reduce, never reaching the driver.  Behavior gate: the
    driver's carry row count (RUN_STATS observable) must be far below
    the distinct-user count — the round-4 anti-pattern pulled one row
    per (user, salt) group (>= distinct users)."""
    import duckdb

    import json_remedy_ray.functions.queries as q

    res = q.events_running_total(SF).to_pandas()
    assert len(res) > 0
    # exact contract replica: per-(user, 24h-bucket) totals, carry =
    # sum of PREVIOUS buckets; only nonzero carries may reach the
    # driver (at sf0.001 every user is hot, so salts are time buckets)
    nz, total = duckdb.connect().execute(f"""
        WITH g AS (
          SELECT user_id,
                 CAST(floor(epoch_us(ts) / (24 * 3600000000.0)) AS BIGINT)
                     AS salt,
                 SUM(COALESCE(CAST(ROUND(value * 100) AS BIGINT), 0)) AS tot
          FROM read_parquet('{SF}/events.parquet') GROUP BY 1, 2
        ), c AS (
          SELECT COALESCE(SUM(tot) OVER (PARTITION BY user_id ORDER BY salt
                 ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0) AS cy
          FROM g
        )
        SELECT COUNT(*) FILTER (cy != 0), COUNT(*) FROM c""").fetchone()
    carry_rows = q.RUN_STATS["running_total_carry_rows"]
    assert carry_rows == nz, (carry_rows, nz)
    assert carry_rows < total          # the zero-carry groups stayed out
