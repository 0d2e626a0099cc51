"""The near-dup pair kernel (stages/dedup): the tiled pair loop, the
pigeonhole pass, the identical-run collapse and the one labeler, held
to plain O(n^2) numpy references on random signatures with planted
near pairs and identical runs, on both sides of _EXACT_ALLPAIRS_CAP."""

from __future__ import annotations

import ast
import pathlib

import numpy as np
import pyarrow as pa
import pytest

from json_remedy_ray.stages import dedup
from json_remedy_ray.stages.dedup import _EXACT_ALLPAIRS_CAP

P = 64
SIZES = [300, _EXACT_ALLPAIRS_CAP + 300]


def _planted_sigs(rng, n: int) -> np.ndarray:
    """n random signatures; every 3rd row copies an earlier row with k =
    0 (identical) to 16 columns redrawn, so est = 1 - k/64 spans both
    sides of 0.8 and hits 0.75 exactly.  Every other copy spreads its k
    columns evenly, so no segment of an even cut keeps them all."""
    M = rng.integers(0, 2**63, size=(n, P), dtype=np.int64).astype(np.uint64)
    for i in range(1, n, 3):
        M[i] = M[rng.integers(0, i)]
        k = rng.integers(0, 17)
        cols = (rng.choice(P, size=k, replace=False) if i % 2
                else np.arange(k) * P // max(k, 1))
        M[i, cols] = rng.integers(0, 2**63, size=k).astype(np.uint64)
    return M


def _ref_pairs(n: int, score_row, keep) -> dict:
    """{(i, j): score} for every i < j with keep(score), row by row."""
    out = {}
    for i in range(n - 1):
        s = score_row(i)
        for j in np.flatnonzero(keep(s)):
            out[(i, i + 1 + int(j))] = s[j]
    return out


def _as_dict(i, j, v) -> dict:
    got = {(int(a), int(b)): x for a, b, x in zip(i, j, v)}
    assert len(got) == len(i), "a pair was emitted twice"
    return got


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("threshold", [0.8, 0.75, 0.5])
def test_distinct_sig_pairs_equals_bruteforce(n, threshold):
    M = _planted_sigs(np.random.default_rng(n), n)
    got = _as_dict(*dedup._distinct_sig_pairs(M, threshold))
    want = _ref_pairs(n, lambda i: (M[i + 1:] == M[i]).mean(axis=1),
                      lambda e: e >= threshold)
    assert got == want
    assert len(want) > n // 10        # the planted pairs are there


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("max_hamming", [3, 6])
def test_simhash_exact_pairs_equals_bruteforce(n, max_hamming):
    from json_remedy_ray.functions.vhash import popcount64

    rng = np.random.default_rng(n + max_hamming)
    hs = rng.integers(0, 2**63, size=n, dtype=np.int64).astype(np.uint64)
    for i in range(5, n, 5):               # flip 0..8 bits of an earlier row
        h = hs[rng.integers(0, i)]
        for b in rng.choice(64, size=rng.integers(0, 9), replace=False):
            h ^= np.uint64(1) << np.uint64(b)
        hs[i] = h
    got = _as_dict(*dedup._simhash_exact_pairs(hs, max_hamming))
    want = _ref_pairs(n, lambda i: popcount64(hs[i + 1:] ^ hs[i]),
                      lambda d: d <= max_hamming)
    assert got == want
    assert len(want) > n // 20


def _components(pairs) -> dict:
    """doc -> least doc of its component, by a plain union-find."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {d: find(d) for d in parent}


def _bucket(rng, sizes):
    """One exchange bucket in band-row layout: a (band, band_hash) group
    per entry of ``sizes``, each group's rows planted signatures with
    identical runs, doc ids shuffled so runs interleave by id."""
    M = np.concatenate([_planted_sigs(rng, m) for m in sizes])
    group = np.repeat(np.arange(len(sizes)), sizes)
    ids = rng.permutation(len(M) * 3)[:len(M)].astype(np.int64)
    tbl = pa.table({
        "doc_id": pa.array(ids),
        "band": pa.array((group % 3).astype(np.int32)),
        "band_hash": pa.array(group * 7919 + 1, type=pa.int64()),
        "signature": pa.array([m.tobytes() for m in M], type=pa.binary()),
    })
    perm = rng.permutation(len(M))
    return tbl.take(pa.array(perm)), ids[perm], M[perm], group[perm]


@pytest.mark.parametrize("threshold", [0.8, 0.75])
@pytest.mark.parametrize("sizes", [[2] * 40 + [3, 5, 40, 300],
                                   [7, _EXACT_ALLPAIRS_CAP + 300]])
def test_minhash_reduce_modes_equal_reference_components(sizes, threshold):
    """Both modes of the bucket reduce against the all-pairs reference:
    every emitted estimate is the direct one of its two docs, mode
    "all" emits every qualifying pair of DISTINCT signatures (identical
    runs as their chain), and the components of both modes equal the
    reference components."""
    tbl, ids, M, group = _bucket(np.random.default_rng(len(sizes)), sizes)
    ref, distinct = set(), set()
    for g in np.unique(group):
        rows = np.flatnonzero(group == g)
        Mg = M[rows]
        for (i, j), e in _ref_pairs(
                len(rows), lambda i: (Mg[i + 1:] == Mg[i]).mean(axis=1),
                lambda e: e >= threshold).items():
            a, b = sorted((int(ids[rows[i]]), int(ids[rows[j]])))
            ref.add((a, b))
            if e < 1.0:
                distinct.add((a, b))
    sig = {int(d): m for d, m in zip(ids, M)}
    want = _components(ref)
    for spanning in (True, False):
        out = dedup._minhash_reduce(tbl, threshold, P, spanning).to_pandas()
        pairs = list(zip(out["doc_a"].tolist(), out["doc_b"].tolist()))
        assert all(a < b for a, b in pairs)
        est = [(sig[a] == sig[b]).mean() for a, b in pairs]
        assert np.array_equal(out["est_jaccard"].to_numpy(), est)
        if not spanning:
            assert set(pairs) <= ref and distinct <= set(pairs)
        assert _components(pairs) == want, spanning


def test_identical_runs_chain_and_drop_repeats():
    ids = np.array([9, 4, 4, 7, 2, 5, 1], dtype=np.int64)
    key = np.array([1, 0, 0, 1, 0, 2, 1], dtype=np.int64)
    order, new, a, b = dedup._identical_runs(ids, (key,))
    assert ids[order].tolist() == [2, 4, 1, 7, 9, 5]   # (key, id), one 4
    assert new.tolist() == [True, False, True, False, False, True]
    assert list(zip(a.tolist(), b.tolist())) == [(2, 4), (1, 7), (7, 9)]


def test_one_tiled_pair_loop_and_no_pandas_in_pair_reduces():
    """One tiled pair loop under stages/ (a second ``np.triu(`` means a
    second hand-written all-pairs loop), and the MinHash and SimHash
    bucket reduces — with every kernel they call — neither build pandas
    frames nor group by."""
    import json_remedy_ray

    stages = pathlib.Path(json_remedy_ray.__file__).parent / "stages"
    n_triu = sum(f.read_text(encoding="utf-8").count("np.triu(")
                 for f in stages.rglob("*.py"))
    assert n_triu == 1, n_triu
    tree = ast.parse((stages / "dedup.py").read_text(encoding="utf-8"))
    kernels = {"_minhash_reduce", "simhash_dedup_pairs", "_identical_runs",
               "_new_runs", "_tiled_pairs", "_pigeonhole_pairs",
               "_distinct_sig_pairs", "_simhash_exact_pairs", "_components",
               "_minlabel_components", "_sig_matrix"}
    seen = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name in kernels:
            seen.add(fn.name)
            if fn.name == "simhash_dedup_pairs":
                fn = next(f for f in ast.walk(fn) if isinstance(
                    f, ast.FunctionDef) and f.name == "reduce_pairs")
            calls = {getattr(c.func, "attr", getattr(c.func, "id", ""))
                     for c in ast.walk(fn) if isinstance(c, ast.Call)}
            assert not calls & {"to_pandas", "groupby", "DataFrame"}, fn.name
    assert seen == kernels
