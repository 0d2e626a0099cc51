"""Epoch-plan edge semantics: a source whose documents carry zero
tokens (empty/whitespace text) gets ZERO epochs and zero copies on both
engine and oracle — never a divide-by-zero — and the materialized
multiset matches the plan's row arithmetic exactly.  A NULL source is
one group (SQL GROUP BY) in the plan and in dedup_rate_by_source; the
partial-pass threshold survives forced refinement rounds of
``rank.kth_keys`` and hash ties; int64 overflow fails loudly."""

import signal

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest


def _force_refinement(monkeypatch, nb: int, pull_cap: int) -> list:
    """Shrink kth_keys' bucket and pull bounds so its narrowing rounds
    run on a tiny table; returns the list its passes are counted in."""
    from json_remedy_ray.stages import rank

    passes: list = []
    run = rank._pass
    monkeypatch.setattr(rank, "NB", nb)
    monkeypatch.setattr(rank, "PULL_CAP", pull_cap)
    monkeypatch.setattr(rank, "_pass",
                        lambda *a: passes.append(1) or run(*a))
    return passes


@pytest.fixture()
def plan_dir(tmp_path):
    """Tiny documents table: two real sources plus one whose docs are
    all empty/whitespace (sum_tokens == 0)."""
    rows = []
    for i in range(12):
        rows.append({"doc_id": i, "source": "web",
                     "text": f"alpha beta gamma delta doc {i}"})
    for i in range(12, 18):
        rows.append({"doc_id": i, "source": "news",
                     "text": f"epsilon zeta eta {i}"})
    for i in range(18, 22):
        rows.append({"doc_id": i, "source": "empty_src",
                     "text": "   " if i % 2 else ""})
    t = pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)
    pq.write_table(t, tmp_path / "documents.parquet")
    return str(tmp_path)


def test_zero_token_source_gets_zero_epochs(ray_session, plan_dir):
    from json_remedy_ray.functions.queries import source_epoch_plan

    plan = source_epoch_plan(plan_dir)
    row = plan[plan["source"] == "empty_src"].iloc[0]
    assert row["sum_tokens"] == 0
    assert row["epochs_micro"] == 0
    assert row["full_epochs"] == 0
    assert row["n_partial_docs"] == 0
    # the real sources still get a positive budget share
    assert (plan.loc[plan["source"] != "empty_src",
                     "epochs_micro"] > 0).all()


def test_epoch_expand_matches_oracle_with_empty_source(ray_session,
                                                       plan_dir,
                                                       monkeypatch):
    from json_remedy_ray.functions.queries import (
        ORACLES,
        epoch_expand_documents,
        source_epoch_plan,
    )

    got = epoch_expand_documents(plan_dir).to_pandas()
    # multiset size == plan arithmetic
    plan = source_epoch_plan(plan_dir)
    expect_total = int((plan["full_epochs"] * plan["n_docs"]
                        + plan["n_partial_docs"]).sum())
    assert len(got) == expect_total
    assert (got["source"] != "empty_src").all()

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{plan_dir}/documents.parquet')")
    want = con.execute(ORACLES["epoch_expand_documents"]).df()
    cols = ["doc_id", "source", "epoch"]
    g = got[cols].sort_values(cols).reset_index(drop=True)
    w = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(
        g, w.astype({c: g[c].dtype for c in cols}))

    # force the refinement rounds (tiny pull cap, two buckets per
    # range -> several narrowing passes over the 32-bit hash domain)
    # and require the byte-identical multiset
    passes = _force_refinement(monkeypatch, nb=2, pull_cap=2)
    forced = (epoch_expand_documents(plan_dir)
              .to_pandas()[cols].sort_values(cols).reset_index(drop=True))
    assert len(passes) >= 3
    pd.testing.assert_frame_equal(g, forced)


def _oracle(sf_dir: str, name: str) -> pd.DataFrame:
    from json_remedy_ray.functions.queries import ORACLES

    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{sf_dir}/documents.parquet')")
    return con.execute(ORACLES[name]).df()


def _same(got: pd.DataFrame, want: pd.DataFrame) -> None:
    cols = sorted(want.columns)
    g = got[cols].fillna({"source": "<null>"})
    w = want[cols].fillna({"source": "<null>"})
    g = g.sort_values(cols).reset_index(drop=True)
    w = w.sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(g, w.astype(g.dtypes.to_dict()))


@pytest.fixture()
def null_source_dir(tmp_path):
    """documents with NULL sources (duplicate texts among them), an
    empty-string source and a NULL text."""
    rows = []
    for i in range(30):
        src = [None, "web", "", "news"][i % 4]
        text = None if i == 7 else f"tok{i % 5} tok{i % 3} shared words"
        rows.append({"doc_id": i, "source": src, "text": text})
    t = pa.Table.from_pandas(pd.DataFrame(rows), preserve_index=False)
    pq.write_table(t, tmp_path / "documents.parquet")
    return str(tmp_path)


def test_dedup_rate_by_source_null_source_matches_oracle(ray_session,
                                                        null_source_dir):
    from json_remedy_ray.functions.queries import dedup_rate_by_source

    got = dedup_rate_by_source(null_source_dir, n_buckets=3)
    assert got["source"].isna().sum() == 1
    _same(got, _oracle(null_source_dir, "dedup_rate_by_source"))


def test_epoch_plan_and_expand_null_source_match_oracle(ray_session,
                                                        null_source_dir,
                                                        monkeypatch):
    from json_remedy_ray.functions.queries import (
        epoch_expand_documents,
        source_epoch_plan,
    )

    plan = source_epoch_plan(null_source_dir)
    assert plan["source"].isna().sum() == 1
    _same(plan, _oracle(null_source_dir, "source_epoch_plan"))
    _force_refinement(monkeypatch, nb=2, pull_cap=2)
    got = epoch_expand_documents(null_source_dir)
    _same(got.to_pandas(), _oracle(null_source_dir,
                                   "epoch_expand_documents"))


def test_ppl_buckets_by_source_null_source_matches_oracle(ray_session,
                                                         null_source_dir):
    """A NULL source is one stratum; as in the oracle's JOIN, its docs
    get no label row."""
    from json_remedy_ray.functions.queries import ppl_buckets_by_source

    got = ppl_buckets_by_source(null_source_dir).to_pandas()
    assert got["source"].notna().all() and len(got)
    _same(got, _oracle(null_source_dir, "ppl_buckets_by_source"))


def test_value_quantiles_by_type_keeps_null_group(ray_session, tmp_path):
    """A NULL event_type is one GROUP BY group (NULL values ignored), as
    in the quantile_disc oracle: 3 groups, not 2."""
    from json_remedy_ray.functions.queries import (
        ORACLES,
        value_quantiles_by_type,
    )

    types = [None, "view", "click"]
    pq.write_table(pa.table({
        "event_type": [types[i % 3] for i in range(40)],
        "value": [None if i % 7 == 0 else float((i * 37) % 11) - 4.5
                  for i in range(40)]}), tmp_path / "events.parquet")
    got = value_quantiles_by_type(str(tmp_path))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    want = con.execute(ORACLES["value_quantiles_by_type"]).df()
    assert len(got) == len(want) == 3
    key = lambda df: (df.fillna({"event_type": "<null>"})  # noqa: E731
                      .sort_values("event_type").reset_index(drop=True))
    pd.testing.assert_frame_equal(key(got), key(want), check_dtype=False)


def test_value_quantiles_by_type_keeps_all_null_group(ray_session, tmp_path):
    """An event_type whose values are all NULL has no rank to find but is
    still a GROUP BY group: the oracle gives it a row of NULL quantiles."""
    from json_remedy_ray.functions.queries import (
        ORACLES,
        value_quantiles_by_type,
    )

    pq.write_table(pa.table({"event_type": ["a", "a", "b", "b"],
                             "value": pa.array([1.0, 2.0, None, None], pa.float64())}),
                   tmp_path / "events.parquet")
    got = value_quantiles_by_type(str(tmp_path))
    con = duckdb.connect()
    con.execute(f"CREATE VIEW events AS SELECT * FROM "
                f"read_parquet('{tmp_path}/events.parquet')")
    want = con.execute(ORACLES["value_quantiles_by_type"]).df()
    assert len(got) == len(want) == 2
    key = lambda df: df.sort_values("event_type").reset_index(drop=True)  # noqa: E731
    pd.testing.assert_frame_equal(key(got), key(want), check_dtype=False)
    assert got.set_index("event_type").loc["b"].isna().all()


def test_epoch_refinement_terminates_on_hash_ties(ray_session, tmp_path,
                                                  monkeypatch):
    """doc_ids i and i + 2**32 share one 32-bit hash: with PULL_CAP=1
    the threshold of source "a" falls on a single hash value that still
    holds 2 rows; it must resolve there (by the bucket's tie bounds or a
    pull) instead of looping forever."""
    from json_remedy_ray.functions.queries import epoch_expand_documents

    ids = [0, 1 << 32, 1, (1 << 32) + 1, 10, 11, 12]
    src = ["a", "a", "a", "a", "b", "b", "b"]
    pq.write_table(pa.table({"doc_id": pa.array(ids, pa.int64()),
                             "source": src, "text": ["w"] * 7}),
                   tmp_path / "documents.parquet")

    def _timeout(signum, frame):
        raise TimeoutError("epoch refinement did not terminate")

    old = signal.signal(signal.SIGALRM, _timeout)
    signal.alarm(180)
    try:
        _force_refinement(monkeypatch, nb=2, pull_cap=1)
        got = epoch_expand_documents(str(tmp_path)).to_pandas()
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)
    # budget 3 * 7 tokens over 2 sources: "a" gets 2.5 epochs, so its 2
    # docs first in (hash, doc_id) order get a third copy; "b" gets 3
    copies = got.groupby("doc_id").size().to_dict()
    assert copies == {0: 3, 1 << 32: 3, 1: 2, (1 << 32) + 1: 2,
                      10: 3, 11: 3, 12: 3}


def test_source_epoch_plan_asserts_on_int64_overflow(monkeypatch):
    """n_partial_docs multiplies epochs_micro % 1e6 by n_docs in int64:
    a source past ~4.6e12 docs must fail loudly, not wrap."""
    import json_remedy_ray.functions.queries as q

    monkeypatch.setattr(q, "_read", lambda *a, **k: None)
    monkeypatch.setattr(q, "_partial_agg", lambda *a, **k: pd.DataFrame({
        "source": ["big", "small"], "sum_tokens": [10, 10],
        "n_docs": [5 * 10 ** 12, 1]}))
    with pytest.raises(AssertionError):
        q.source_epoch_plan("unused")
