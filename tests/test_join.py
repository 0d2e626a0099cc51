"""Partitioned hash join (stages/join.py) vs pandas merge."""

import numpy as np
import pandas as pd
import pyarrow as pa

from json_remedy_ray.stages.join import hash_join


def _ds(tbl, parallelism=4):
    import ray.data as rd

    return rd.from_arrow(tbl).repartition(parallelism)


def test_inner_join_matches_pandas(ray_session):
    rng = np.random.default_rng(3)
    lk = rng.integers(0, 50, 300)
    rk = rng.integers(0, 50, 80)
    left = pa.table({"k": pa.array(lk, type=pa.int64()),
                     "lv": pa.array(np.arange(300), type=pa.int64())})
    right = pa.table({"rk": pa.array(rk, type=pa.int64()),
                      "rv": pa.array(np.arange(80) * 10, type=pa.int64())})
    got = (hash_join(_ds(left), _ds(right), "k", "rk", n_buckets=8)
           .to_pandas().sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    want = (pd.DataFrame({"k": lk, "lv": np.arange(300)})
            .merge(pd.DataFrame({"rk": rk, "rv": np.arange(80) * 10}),
                   left_on="k", right_on="rk")
            .drop(columns="rk")
            .sort_values(["k", "lv", "rv"]).reset_index(drop=True))
    pd.testing.assert_frame_equal(got[["k", "lv", "rv"]], want)


def test_left_outer_and_semi(ray_session):
    left = pa.table({"k": pa.array([1, 2, 3, 4], type=pa.int64()),
                     "lv": pa.array([10, 20, 30, 40], type=pa.int64())})
    right = pa.table({"k2": pa.array([2, 4, 4], type=pa.int64()),
                      "rv": pa.array([200, 400, 401], type=pa.int64())})
    lo = (hash_join(_ds(left, 2), _ds(right, 2), "k", "k2",
                    how="left outer", n_buckets=4)
          .to_pandas().sort_values(["k", "rv"]).reset_index(drop=True))
    assert len(lo) == 5                       # 1,3 null; 2 once; 4 twice
    assert lo[lo["k"] == 1]["rv"].isna().all()
    assert sorted(lo[lo["k"] == 4]["rv"]) == [400, 401]
    semi = (hash_join(_ds(left, 2), _ds(right, 2), "k", "k2",
                      how="left semi", n_buckets=4).to_pandas())
    assert sorted(semi["k"]) == [2, 4]
    anti = (hash_join(_ds(left, 2), _ds(right, 2), "k", "k2",
                      how="left anti", n_buckets=4).to_pandas())
    assert sorted(anti["k"]) == [1, 3]


def test_string_keys_co_partition(ray_session):
    # equal string keys must land in the same bucket regardless of the
    # block they came from
    keys = [f"host-{i % 7}.example" for i in range(60)]
    left = pa.table({"h": pa.array(keys), "lv": pa.array(range(60))})
    right = pa.table({"h2": pa.array([f"host-{i}.example" for i in range(7)]),
                      "rv": pa.array(range(7))})
    got = hash_join(_ds(left, 6), _ds(right, 3), "h", "h2",
                    n_buckets=5).to_pandas()
    assert len(got) == 60
    assert (got["rv"] == got["h"].str.extract(r"host-(\d)")[0].astype(int)).all()


def test_global_rank_exact_with_heavy_ties(ray_session):
    """Range-partitioned global ROW_NUMBER vs a single-process argsort:
    heavy key ties (only 40 distinct values for 20k rows) force tie
    groups to span would-be cut points; the cut-between-distinct-values
    rule must keep each tie group in one bucket."""
    import ray.data as rd

    from json_remedy_ray.stages.rank import global_rank

    rng = np.random.default_rng(11)
    keys = rng.integers(0, 40, 20_000).astype(np.int64)
    ids = rng.permutation(20_000).astype(np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": ids, "n_chars": keys})).repartition(8)
    got = (global_rank(ds, "n_chars", "doc_id").to_pandas()
           .sort_values("rank").reset_index(drop=True))
    order = np.lexsort((ids, -keys))
    assert list(got["doc_id"]) == list(ids[order])
    assert list(got["rank"]) == list(range(1, 20_001))


def test_global_rank_keys_outside_old_histogram_bound(ray_session):
    """Keys of 2**22 and above, negative keys and the int64 extremes
    rank like any other: the cuts come from order statistics, not from
    a bounded value histogram."""
    import ray.data as rd

    from json_remedy_ray.stages.rank import global_rank

    rng = np.random.default_rng(3)
    n = 5_000
    keys = np.concatenate([
        rng.integers(-(1 << 40), 1 << 40, n - 1_004),
        rng.integers(1 << 22, (1 << 22) + 3, 1_000),      # heavy ties
        [-(1 << 63), (1 << 63) - 1, -1, 0]]).astype(np.int64)
    ids = rng.permutation(n).astype(np.int64)
    ds = rd.from_arrow(pa.table({"doc_id": ids, "n_chars": keys})
                       ).repartition(6)
    got = (global_rank(ds, "n_chars", "doc_id", n_buckets=7).to_pandas()
           .sort_values("rank").reset_index(drop=True))
    order = np.lexsort((ids, -keys.astype(object)))
    assert list(got["doc_id"]) == list(ids[order])
    assert list(got["rank"]) == list(range(1, n + 1))


def test_funnel_conversion_window_edges(ray_session, tmp_path):
    """Boundary semantics: purchase at the same instant converts, at
    exactly ts+gap converts, one microsecond past does not; purchases
    BEFORE the view never convert; purchase-only users are excluded."""
    import os

    import pyarrow.parquet as pq

    from json_remedy_ray.functions.queries import events_funnel_conversion

    d = str(tmp_path / "funnel")
    os.makedirs(d)
    t0 = np.datetime64("2024-01-01T00:00:00", "us")
    H = np.timedelta64(3600, "s")
    us = np.timedelta64(1, "us")
    rows = [
        # user 1: view at t0, purchase same instant -> converts
        (1, t0, "view"), (1, t0, "purchase"),
        # user 2: purchase exactly at t0+1h -> converts (inclusive)
        (2, t0, "view"), (2, t0 + H, "purchase"),
        # user 3: purchase 1us past the window -> no
        (3, t0, "view"), (3, t0 + H + us, "purchase"),
        # user 4: purchase BEFORE the view only -> no
        (4, t0, "purchase"), (4, t0 + us, "view"),
        # user 5: purchases only -> excluded entirely
        (5, t0, "purchase"),
        # user 6: two views, one converting
        (6, t0, "view"), (6, t0 + 2 * H, "view"), (6, t0 + 2 * H, "purchase"),
    ]
    tbl = pa.table({
        "event_id": pa.array(range(len(rows)), type=pa.int64()),
        "ts": pa.array([r[1] for r in rows]),
        "user_id": pa.array([r[0] for r in rows], type=pa.int64()),
        "event_type": pa.array([r[2] for r in rows]),
        "value": pa.array([0.0] * len(rows)),
        "props": pa.array(["{}"] * len(rows)),
    })
    pq.write_table(tbl, f"{d}/events.parquet")
    out = (events_funnel_conversion(d).to_pandas()
           .sort_values("user_id").reset_index(drop=True))
    got = {int(r.user_id): (int(r.n_views), int(r.n_converted_views))
           for r in out.itertuples()}
    assert got == {1: (1, 1), 2: (1, 1), 3: (1, 0), 4: (1, 0), 6: (2, 1)}


def test_hash_join_composite_keys(ray_session):
    """Composite keys co-partition on the first key and match the full
    list — including collision pairs that agree on key1 but not key2."""
    left = pa.table({"k1": pa.array([1, 1, 2, 2], type=pa.int64()),
                     "k2": pa.array(["a", "b", "a", "b"]),
                     "lv": pa.array([10, 11, 20, 21], type=pa.int64())})
    right = pa.table({"j1": pa.array([1, 2, 2], type=pa.int64()),
                      "j2": pa.array(["a", "a", "z"]),
                      "rv": pa.array([100, 200, 999], type=pa.int64())})
    got = (hash_join(_ds(left, 2), _ds(right, 2), ["k1", "k2"],
                     ["j1", "j2"], n_buckets=4)
           .to_pandas().sort_values("lv").reset_index(drop=True))
    assert list(got["lv"]) == [10, 20]
    assert list(got["rv"]) == [100, 200]


def test_incremental_dedup_bloom_no_false_negatives(ray_session):
    """The bloom path must be a SUBSET of the exact incremental dedup
    (FPs only drop uniques) and must NEVER emit a text that exists in
    the old corpus (no false negatives by construction)."""
    from json_remedy_ray.functions.queries import (
        incremental_dedup_bloom,
        incremental_dedup_documents,
    )

    sf = "/root/testdata/sf0.001"
    exact = incremental_dedup_documents(sf).to_pandas()
    bloom = incremental_dedup_bloom(sf).to_pandas()
    exact_texts = set(exact["text"])
    assert set(bloom["text"]) <= exact_texts
    # no false negatives: nothing from the old corpus survives
    import duckdb

    old = set(duckdb.sql(
        f"SELECT DISTINCT text FROM read_parquet('{sf}/documents.parquet') "
        "WHERE doc_id % 3 = 0").df()["text"])
    assert not (set(bloom["text"]) & old)
    # FPR envelope: at 2^20 bits / k=4 / ~333 old keys the FP odds are
    # astronomically small — expect zero dropped uniques here
    assert len(bloom) == len(exact)
    # min-doc_id convention matches the exact path
    m = bloom.merge(exact, on="text", suffixes=("_b", "_e"))
    assert (m["doc_id_b"] == m["doc_id_e"]).all()
