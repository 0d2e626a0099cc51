"""Round-4 advisor-finding regressions.

1. _minhash_reduce / _simhash_exact_pairs: EXACT bucket closure — the
   old 1-row-overlap chunk pass dropped a qualifying pair whose
   signatures sort >1 chunk apart in a >256-distinct-signature bucket
   (advisor repro: 600-sig bucket, planted est-0.875 pair, 0 emitted).
2. ngram_jaccard / jaccard_neardup_pairs: either-empty gram set scores
   0.0 (two distinct short docs must never verify as near-dups).
3. detect_hot_keys: a genuinely-NULL group key must not collide with
   the block-total sentinel row.
"""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest


def _rand_sigs(rng, d, p=64):
    return rng.randint(0, 2**63, size=(d, p)).astype(np.uint64)


def _one_group_pairs(g: pd.DataFrame, threshold: float, num_perm: int,
                     mode: str) -> pd.DataFrame:
    """One (band, band_hash) group of (doc_id, signature bytes) rows
    through the MinHash bucket reduce."""
    from json_remedy_ray.stages.dedup import _minhash_reduce

    n = len(g)
    tbl = pa.table({"doc_id": pa.array(g["doc_id"], type=pa.int64()),
                    "band": pa.array(np.zeros(n, np.int32)),
                    "band_hash": pa.array(np.zeros(n, np.int64)),
                    "signature": pa.array(g["signature"], type=pa.binary())})
    return _minhash_reduce(tbl, threshold, num_perm,
                           mode == "spanning").to_pandas()


def test_bucket_pairs_exact_closure_degenerate_bucket():
    """Advisor repro: planted pair differing only in EARLY minhash
    columns (sorts chunks apart) inside a 600-distinct-sig bucket must
    be emitted in BOTH modes."""
    from json_remedy_ray.stages.dedup import components_from_pairs

    rng = np.random.RandomState(0)
    P, D = 64, 600
    M = _rand_sigs(rng, D, P)
    planted = M[10].copy()
    planted[:8] = rng.randint(0, 2**63, size=8).astype(np.uint64)  # est 56/64
    M[577] = planted
    ids = np.arange(D) * 7 + 3
    g = pd.DataFrame({"doc_id": ids, "signature": [m.tobytes() for m in M]})
    a, b = int(ids[10]), int(ids[577])

    res_all = _one_group_pairs(g, threshold=0.75, num_perm=P, mode="all")
    hit = res_all[(res_all.doc_a == min(a, b)) & (res_all.doc_b == max(a, b))]
    assert len(hit) == 1 and float(hit.est_jaccard.iloc[0]) == 56 / 64

    res_span = _one_group_pairs(g, threshold=0.75, num_perm=P,
                                mode="spanning")
    comp = components_from_pairs(res_span)
    lab = dict(zip(comp.doc_id, comp.dup_of))
    assert lab.get(a, a) == lab.get(b, b) or lab.get(b) == a


def test_distinct_sig_pairs_pigeonhole_path():
    """>_EXACT_ALLPAIRS_CAP distinct sigs routes through the pigeonhole
    segment pass; a planted est-0.84 pair must be found exactly once."""
    from json_remedy_ray.stages.dedup import _EXACT_ALLPAIRS_CAP, _distinct_sig_pairs

    rng = np.random.RandomState(1)
    D = _EXACT_ALLPAIRS_CAP + 904
    M = _rand_sigs(rng, D)
    M[D - 200] = M[7].copy()
    M[D - 200][:10] = rng.randint(0, 2**63, size=10).astype(np.uint64)
    i, j, e = _distinct_sig_pairs(M, 0.8)
    assert list(zip(i.tolist(), j.tolist())) == [(7, D - 200)]
    assert e[0] == 54 / 64


def test_bucket_pairs_all_mode_cross_group_members():
    """'all' mode expands a qualifying distinct-sig pair to every
    member cross pair (the old chunk pass only emitted those landing in
    one chunk)."""
    rng = np.random.RandomState(2)
    P = 64
    base = _rand_sigs(rng, 1, P)[0]
    near = base.copy()
    near[:4] = rng.randint(0, 2**63, size=4).astype(np.uint64)   # est 60/64
    rows = []
    for did, s in [(1, base), (2, base), (3, base), (10, near), (11, near)]:
        rows.append({"doc_id": did, "signature": s.tobytes()})
    g = pd.DataFrame(rows)
    res = _one_group_pairs(g, threshold=0.9, num_perm=P, mode="all")
    got = set(zip(res.doc_a, res.doc_b))
    # chains inside identical runs
    assert {(1, 2), (2, 3), (10, 11)} <= got
    # full cross product between the two signature groups
    assert {(1, 10), (1, 11), (2, 10), (2, 11), (3, 10), (3, 11)} <= got
    assert (1, 3) not in got   # chain, not clique, inside identical runs
    cross = res[(res.doc_a == 1) & (res.doc_b == 10)]
    assert float(cross.est_jaccard.iloc[0]) == 60 / 64


def test_simhash_exact_pairs_giant_bucket():
    from json_remedy_ray.stages.dedup import _EXACT_ALLPAIRS_CAP, _simhash_exact_pairs

    rng = np.random.RandomState(3)
    n = _EXACT_ALLPAIRS_CAP + 904
    hs = rng.randint(0, 2**63, size=n).astype(np.uint64)
    hs[n - 200] = hs[3] ^ np.uint64((1 << 63) | (1 << 40))  # hamming 2
    ai, bj, hm = _simhash_exact_pairs(hs, 3)
    found = [(int(x), int(y), int(z)) for x, y, z in zip(ai, bj, hm)
             if 3 in (x, y)]
    assert (3, n - 200, 2) in found


def test_minlabel_components_chain():
    """Pointer-halving min-label converges on a chain to the global min."""
    from json_remedy_ray.stages.dedup import _minlabel_components

    n = 1000
    lab = _minlabel_components(n, np.arange(n - 1), np.arange(1, n))
    assert (lab == 0).all()
    lab2 = _minlabel_components(4, np.array([], dtype=np.int64),
                                np.array([], dtype=np.int64))
    assert (lab2 == np.arange(4)).all()


def test_ngram_jaccard_empty_convention():
    from json_remedy_ray.stages.dedup import ngram_jaccard

    assert ngram_jaccard("", "") == 0.0
    assert ngram_jaccard("a b", "a b") == 0.0          # below n-gram length
    assert ngram_jaccard("a b c d", "") == 0.0
    assert ngram_jaccard("a b c d", "a b c d") == 1.0


def test_jaccard_neardup_rejects_empty_gram_docs(ray_session):
    """Two short docs that LSH-bucket together must NOT verify as
    near-dups (advisor: both-empty gram sets scored 1.0)."""
    import ray.data as rd

    from json_remedy_ray.stages.dedup import jaccard_neardup_pairs

    docs = [
        {"doc_id": 0, "text": "hi"},
        {"doc_id": 1, "text": "hi"},
        {"doc_id": 2, "text": "the quick brown fox jumps over the lazy dog again"},
        {"doc_id": 3, "text": "the quick brown fox jumps over the lazy dog again"},
    ]
    res = jaccard_neardup_pairs(rd.from_items(docs), threshold=0.5,
                                lsh_threshold=0.0)
    got = set(zip(res.doc_a, res.doc_b))
    assert (2, 3) in got
    assert (0, 1) not in got


def test_detect_hot_keys_null_keys_do_not_skew_total(ray_session):
    """NULL group keys are counted in the block total but can no longer
    masquerade as the total sentinel (advisor: a NULL-key sentinel row
    was indistinguishable from a genuinely-NULL key)."""
    import ray.data as rd

    from json_remedy_ray.state.partitioning import detect_hot_keys

    n = 2000
    # 40% NULL keys, one genuinely hot non-null key at 30%, rest unique
    keys = [None] * 800 + ["hot"] * 600 + [f"k{i}" for i in range(600)]
    ds = rd.from_arrow(pa.table({"k": pa.array(keys, type=pa.string())}))
    hot = detect_hot_keys(ds, "k", threshold_frac=0.25)
    assert "hot" in hot
    assert not any(k is None or (isinstance(k, float) and np.isnan(k))
                   for k in hot)
    # sanity: without the fix the NULL mass inflated `total` via cnt=0
    # sentinel mixing; the threshold math still sees all 2000 rows
    assert f"k0" not in hot


def test_detect_hot_keys_no_block_survivors(ray_session):
    """A block where NO key passes the per-block prefilter used to emit
    an empty table whose `is_total` column was inferred as type null
    (pa.array([])), breaking concat with the bool sentinel — the shape
    every uniform-key corpus hits (round-4 fix)."""
    import ray.data as rd

    from json_remedy_ray.state.partitioning import detect_hot_keys

    # 4000 distinct keys -> every per-block share is far below t/2
    ds = rd.from_arrow(pa.table({"k": pa.array(
        [f"k{i}" for i in range(4000)], type=pa.string())}))
    assert detect_hot_keys(ds, "k", threshold_frac=0.05) == set()
