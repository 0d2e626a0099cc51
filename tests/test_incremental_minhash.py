"""Incremental MinHash near-dup dedup: the planted decision sets."""

from json_remedy_ray.functions.queries import (
    _FRESH_OFFSET,
    _PLANT_OFFSET,
    _read,
    incremental_minhash_dedup,
)

SF = "/root/testdata/sf0.001"


def test_planted_decision_sets(ray_session):
    """Every ' ~dup' copy of a corpus doc must be dropped; every fresh
    unique doc must survive — the surviving set is exactly the fresh
    planting rule."""
    out = incremental_minhash_dedup(SF)
    kept = set(out["doc_id"].astype("int64"))
    pdf = _read(SF, "documents", columns=["doc_id", "n_chars"]).to_pandas()
    ids = pdf["doc_id"].to_numpy()
    nch = pdf["n_chars"].to_numpy()
    want_fresh = {int(i) + _FRESH_OFFSET for i in ids[ids % 11 == 0]}
    dup_copies = {int(i) + _PLANT_OFFSET
                  for i in ids[(ids % 7 == 0) & (nch >= 300)]}
    assert kept == want_fresh
    assert not (kept & dup_copies)
    assert len(dup_copies) > 0 and len(want_fresh) > 0  # both rules fired


def test_collapse_identical_signatures_unit():
    """Direct unit gate on the block combiner kernel (the e2e output is
    indistinguishable from the reduce-side collapse by design, so this
    is the test that actually fails if the combiner breaks)."""
    import numpy as np
    import pyarrow as pa

    from json_remedy_ray.stages.dedup import _collapse_identical_signatures

    rng = np.random.default_rng(3)
    base = rng.integers(0, 2**62, size=(4, 8), dtype=np.int64).astype(np.uint64)
    # docs 0,3,5 share sig A; 1,4 share sig B; 2,6 unique
    sig = base[[0, 1, 2, 0, 1, 0, 3]]
    ids = np.array([10, 11, 12, 3, 14, 15, 16], dtype=np.int64)
    keep_ids, keep_sig, stars = _collapse_identical_signatures(ids, sig)
    assert sorted(keep_ids.tolist()) == [3, 11, 12, 16]   # min-id reps
    sdf = stars.to_pandas()
    got = set(zip(sdf["doc_a"], sdf["doc_b"]))
    assert got == {(3, 10), (3, 15), (11, 14)}
    assert (sdf["est_jaccard"] == 1.0).all()
    # rep rows keep their own signatures
    lookup = {int(i): s for i, s in zip(keep_ids, keep_sig)}
    assert np.array_equal(lookup[3], base[0])
    assert np.array_equal(lookup[11], base[1])
    # no-dup input passes through untouched
    k2, s2, st2 = _collapse_identical_signatures(
        np.array([1, 2], dtype=np.int64), base[:2])
    assert st2 is None and k2.tolist() == [1, 2]


def test_spanning_tolerates_null_doc_id(ray_session):
    """A NULL doc_id is never a pair endpoint: its row is dropped before
    its signature, so docs 1 and 2 connect directly (no sentinel id from
    a float-promoted NULL) and every pair keeps doc_a < doc_b, in both
    MinHash modes and in SimHash."""
    import pyarrow as pa
    import ray.data as rd

    from json_remedy_ray.stages.dedup import (
        components_from_pairs,
        minhash_dedup_pairs,
        simhash_dedup_pairs,
    )

    t = "shared text body " + " ".join(f"tok{j}" for j in range(40))
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array([1, 2, None], type=pa.int64()),
        "text": pa.array([t, t, t]),
    }))
    for out in (minhash_dedup_pairs(ds, threshold=0.8, n_buckets=2),
                minhash_dedup_pairs(ds, threshold=0.8, n_buckets=2,
                                    mode="all"),
                simhash_dedup_pairs(ds, max_hamming=3)):
        out = out.to_pandas()
        assert len(out)
        assert set(out["doc_a"]) | set(out["doc_b"]) <= {1, 2}
        assert (out["doc_a"] < out["doc_b"]).all()
        comp = components_from_pairs(out).set_index("doc_id")["dup_of"]
        assert comp.get(1) is not None and comp.get(1) == comp.get(2)


def test_block_local_identical_sig_combiner(ray_session):
    """Duplicates co-located in ONE block must collapse at the combiner
    (side-channel est=1.0 stars) with connectivity identical to the
    all-pairs mode's union-find."""
    import numpy as np
    import pyarrow as pa
    import ray.data as rd

    from json_remedy_ray.stages.dedup import (
        components_from_pairs,
        minhash_dedup_pairs,
    )

    texts = []
    for i in range(40):
        base = f"document body {i} " + " ".join(
            f"w{(i * 7 + j) % 23}" for j in range(60))
        texts.append(base)
    # plant 3 exact-duplicate clusters inside the same (single) block
    texts += [texts[0]] * 4 + [texts[1]] * 3 + [texts[2]] * 2
    ds = rd.from_arrow(pa.table({
        "doc_id": pa.array(range(len(texts)), type=pa.int64()),
        "text": pa.array(texts),
    }))
    span = minhash_dedup_pairs(ds, threshold=0.8, n_buckets=4).to_pandas()
    allp = minhash_dedup_pairs(ds, threshold=0.8, n_buckets=4,
                               mode="all").to_pandas()
    # est=1.0 side stars exist for the planted identical docs
    assert (span["est_jaccard"] == 1.0).sum() >= 9
    c_span = components_from_pairs(span).set_index("doc_id")["dup_of"]
    c_all = components_from_pairs(allp).set_index("doc_id")["dup_of"]
    # same components (compare on the union of covered docs; singletons
    # absent from pair lists are implicitly their own component)
    for d in set(c_span.index) | set(c_all.index):
        assert c_span.get(d, d) == c_all.get(d, d), d
