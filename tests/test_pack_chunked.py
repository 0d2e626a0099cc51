"""Chunked sequence packing (round-4): the greedy semantics must be
invariant to chunk_rows — the carry chain and the spanning-bin stitch
reproduce the single-chunk result exactly."""

import os
import tempfile

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

import json_remedy_ray.functions.queries as q

SF = "/root/testdata/sf0.001"


def _norm(df: pd.DataFrame, keys) -> pd.DataFrame:
    return df.sort_values(keys).reset_index(drop=True)


def test_pack_docs_chunk_invariance(ray_session):
    a = _norm(q.pack_sequences_documents(SF, chunk_rows=16).to_pandas(),
              ["source", "doc_id"])
    b = _norm(q.pack_sequences_documents(SF, chunk_rows=10**9).to_pandas(),
              ["source", "doc_id"])
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_pack_concat_chunk_invariance(ray_session):
    a = _norm(q.pack_sequences_concat(SF, chunk_rows=16).to_pandas(),
              ["source", "bin_id"])
    b = _norm(q.pack_sequences_concat(SF, chunk_rows=10**9).to_pandas(),
              ["source", "bin_id"])
    pd.testing.assert_frame_equal(a, b[a.columns])


def test_pack_bin_spanning_many_chunks(ray_session):
    """chunk_rows=1: every doc is its own chunk, so a bin filled by six
    small docs spans six chunks — six flagged partials stitched into one
    row.  Also exercises zero-token (empty text) docs and an oversized
    doc arriving mid-chain."""
    def doc(i, ntok, src):
        return {"doc_id": i, "source": src,
                "text": " ".join(["w"] * ntok) if ntok else ""}

    rows = ([doc(i, 10, "z") for i in range(6)]          # one bin, 6 chunks
            + [doc(6, 0, "z"), doc(7, 0, "z")]           # t=0 join the bin
            + [doc(8, 300, "z")]                         # oversized, alone
            + [doc(9, 5, "z")])                          # fresh bin after
    with tempfile.TemporaryDirectory() as d:
        pq.write_table(pa.Table.from_pylist(rows),
                       os.path.join(d, "documents.parquet"))
        docs = _norm(q.pack_sequences_documents(d, chunk_rows=1).to_pandas(),
                     ["doc_id"])
        bins = _norm(q.pack_sequences_concat(d, chunk_rows=1).to_pandas(),
                     ["bin_id"])
    assert docs["bin_id"].tolist() == [0] * 8 + [1, 2]
    assert docs["tok_offset"].tolist() == [0, 10, 20, 30, 40, 50, 60, 60, 0, 0]
    assert bins["bin_id"].tolist() == [0, 1, 2]
    assert bins["n_docs"].tolist() == [8, 1, 1]
    assert bins["bin_tokens"].tolist() == [60, 300, 5]
    assert bins.loc[0, "packed_text"] == "\n".join(
        [" ".join(["w"] * 10)] * 6 + ["", ""])


def test_pack_docs_null_source_matches_oracle(ray_session, tmp_path):
    """A NULL source is one source (ordered last, as SQL orders NULLs)
    instead of a TypeError when the sources are sorted."""
    import duckdb

    pq.write_table(pa.table({"doc_id": pa.array([0, 1, 2], pa.int64()),
                             "source": ["web", None, "web"],
                             "text": ["a b c", "d e", "f"]}),
                   tmp_path / "documents.parquet")
    got = q.pack_sequences_documents(str(tmp_path)).to_pandas()
    con = duckdb.connect()
    con.execute(f"CREATE VIEW documents AS SELECT * FROM "
                f"read_parquet('{tmp_path}/documents.parquet')")
    want = con.execute(q.ORACLES["pack_sequences_documents"]).df()
    cols = ["source", "doc_id", "bin_id", "tok_offset"]
    norm = lambda df: _norm(df[cols].fillna({"source": "<null>"}), ["source", "doc_id"])  # noqa: E731
    assert len(got) == len(want) == 3
    pd.testing.assert_frame_equal(norm(got), norm(want), check_dtype=False)
