"""BM25 keyword retrieval over the document corpus (SURVEY §2.9
extension surface — the search-shaped sibling of the ANN operators).

Okapi BM25 (Robertson & Sparck Jones family, public formula) for a
SMALL fixed term set, in two bounded passes with NO shuffle:

  pass 1 (stats): one map_batches emits ONE ROW PER BLOCK —
      (n_docs, sum_dl, df per term) — and the driver sums them.  The
      driver pull is bounded by block count x (2 + |terms|) ints at any
      corpus size (same bounded-partials argument as the exact
      quantiles and vocabulary top-k operators).
  pass 2 (score): idf/avgdl broadcast in the closure; each block
      computes every doc's score vectorized and emits only its LOCAL
      top-k, so the driver merge is blocks x k rows.

Floating-point contract: the score is accumulated in FIXED term order
with the same literal constants the DuckDB oracle uses, then cast to
float32 — double-ulp differences between numpy's log and DuckDB's ln
are absorbed by the narrowing cast (the repo's standard REAL-cast
parity pattern), and the final ordering is (float32 score DESC, doc_id)
on BOTH sides, so the top-k row set is deterministic.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from json_remedy_ray.stages.textstats import ws_split_lower

K1 = 1.2
B = 0.75


def _term_tfs(flat, parents, terms: list[str], n: int) -> list[np.ndarray]:
    out = []
    for t in terms:
        m = pc.equal(flat, t).to_numpy(zero_copy_only=False)
        out.append(np.bincount(parents[m], minlength=n).astype(np.int64))
    return out


def bm25_topk(ds: rd.Dataset, terms: list[str], k: int = 20,
              id_col: str = "doc_id", text_col: str = "text") -> pd.DataFrame:
    """Dataset[(doc_id, text)] -> top-k DataFrame(doc_id, score:float32)
    ordered by (score DESC, doc_id)."""
    terms = list(terms)

    def stats_batch(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, parents = ws_split_lower(batch[text_col])
        dl = np.bincount(parents, minlength=n)
        row = {"n_docs": pa.array([n], type=pa.int64()),
               "sum_dl": pa.array([int(dl.sum())], type=pa.int64())}
        for i, tf in enumerate(_term_tfs(flat, parents, terms, n)):
            row[f"df_{i}"] = pa.array([int((tf > 0).sum())], type=pa.int64())
        return pa.table(row)

    stats = (ds.map_batches(stats_batch, batch_format="pyarrow",
                            batch_size=None).to_pandas().sum())
    n_total = int(stats["n_docs"])
    avgdl = float(stats["sum_dl"]) / n_total
    # idf per term, fixed order; same expression shape as the oracle SQL
    idf = [float(np.log((n_total - int(stats[f"df_{i}"]) + 0.5)
                        / (int(stats[f"df_{i}"]) + 0.5) + 1))
           for i in range(len(terms))]

    def score_batch(batch: pa.Table) -> pa.Table:
        n = batch.num_rows
        flat, parents = ws_split_lower(batch[text_col])
        dl = np.bincount(parents, minlength=n).astype(np.int64)
        norm = K1 * (1 - B + B * dl / avgdl)
        score = np.zeros(n, dtype=np.float64)
        for i, tf in enumerate(_term_tfs(flat, parents, terms, n)):
            tf = tf.astype(np.float64)
            score = score + idf[i] * (tf * 2.2) / (tf + norm)
        s32 = score.astype(np.float32)
        ids = batch[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        # local top-k on the FINAL (float32 score desc, doc_id) order
        order = np.lexsort((ids, -s32.astype(np.float64)))[:k]
        return pa.table({id_col: pa.array(ids[order], type=pa.int64()),
                         "score": pa.array(s32[order], type=pa.float32())})

    part = ds.map_batches(score_batch, batch_format="pyarrow",
                          batch_size=None).to_pandas()
    part = part.sort_values(["score", id_col], ascending=[False, True],
                            kind="mergesort").head(k)
    return part.reset_index(drop=True)


def bm25_oracle_sql(terms: list[str], k: int = 20, uws: str = r"\s") -> str:
    """DuckDB SQL computing the identical score: same literals, same
    left-associative evaluation order, same REAL narrowing, same
    (score DESC, doc_id) final order.  Generated from the SAME term
    list so engine and oracle cannot drift."""
    tf = lambda t: ("CAST(len(list_filter(t, x -> x = '%s')) AS DOUBLE)"
                    % t.replace("'", "''"))
    exprs = []
    for i, t in enumerate(terms):
        exprs.append(
            f"ln((n - df_{i} + 0.5) / (df_{i} + 0.5) + 1)"
            f" * ({tf(t)} * 2.2)"
            f" / ({tf(t)} + 1.2 * (1 - 0.75 + 0.75 * len(t) / avgdl))")
    score = "\n             + ".join(exprs)
    dfs = ",\n               ".join(
        "SUM(CASE WHEN len(list_filter(t, x -> x = '%s')) > 0"
        " THEN 1 ELSE 0 END) AS df_%d" % (t.replace("'", "''"), i)
        for i, t in enumerate(terms))
    return f"""
    WITH toks AS (
        SELECT doc_id,
               regexp_extract_all(lower(COALESCE(text, '')), '[^{uws}]+') AS t
        FROM documents
    ), stats AS (
        SELECT COUNT(*) AS n,
               CAST(SUM(len(t)) AS DOUBLE) / COUNT(*) AS avgdl
        FROM toks
    ), df AS (
        SELECT {dfs}
        FROM toks
    )
    SELECT doc_id,
           CAST({score} AS REAL) AS score
    FROM toks, stats, df
    ORDER BY score DESC, doc_id
    LIMIT {k}
    """
