"""The bucket exchange's contract (state/partitioning): partition_fn
returns (key, table) and the exchange routes key % n_buckets; zero-row
blocks never reach partition_fn; reduce_fn gets one chunk-combined
table; a bucket without rows returns the declared schema; and every
operator built on it gives the same answer at any bucket count."""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

_SIDE = pa.schema([("n", pa.int64()), ("tag", pa.string())])
_OUT = pa.schema([("s", pa.int64()), ("rows", pa.int64())])


def _fns(with_side: bool = True):
    """(partition_fn, reduce_fn) that check the contract.  Built inside a
    function so Ray ships them by value to its workers."""
    def part(tbl: pa.Table):
        assert tbl.num_rows > 0, "partition_fn called on a zero-row block"
        side = pa.table({"n": pa.array([tbl.num_rows], type=pa.int64()),
                         "tag": pa.array(["p"])})
        key = tbl["x"].to_numpy().astype(np.uint64)
        return (side, key, tbl) if with_side else (key, tbl)

    def red(t: pa.Table) -> pa.Table:
        assert t.num_rows > 0
        assert t.column_names == ["x"], t.column_names  # no routing column
        assert all(c.num_chunks == 1 for c in t.columns)
        return pa.table({"s": pa.array([int(t["x"].to_numpy().sum())]),
                         "rows": pa.array([t.num_rows])})

    return part, red


def _blocks():
    return [pa.table({"x": pa.array([], pa.int64())}),     # zero-row
            pa.table({}),                                  # column-less
            pa.table({"x": pa.array(np.arange(20), pa.int64())}),
            pa.table({"x": pa.array(np.arange(20, 35), pa.int64())})]


def test_empty_blocks_skip_partition_and_carry_side_schema(ray_session):
    import ray

    from json_remedy_ray.state.partitioning import bucket_exchange

    refs = [ray.put(b) for b in _blocks()]
    side, red = bucket_exchange(refs, 4, *_fns(), _OUT, side=_SIDE)
    sides = ray.get(side)
    for s in sides[:2]:
        assert s.num_rows == 0 and s.schema.equals(_SIDE)
    assert [s["n"][0].as_py() for s in sides[2:]] == [20, 15]
    out = pa.concat_tables(ray.get(red))
    assert sum(out["s"].to_pylist()) == sum(range(35))
    assert sum(out["rows"].to_pylist()) == 35     # each row reduced once


def test_all_empty_bucket_returns_declared_schema(ray_session):
    import ray

    from json_remedy_ray.state.partitioning import bucket_exchange

    def to_bucket_1(tbl):
        return np.full(tbl.num_rows, 1, dtype=np.uint64), tbl

    refs = [ray.put(b) for b in _blocks()]
    _, red = bucket_exchange(refs, 3, to_bucket_1, _fns()[1], _OUT)
    outs = ray.get(red)
    # the reduce_fn always returns one row: zero rows means it never ran
    for b in (0, 2):
        assert outs[b].num_rows == 0 and outs[b].schema.equals(_OUT)
    assert outs[1].to_pylist() == [{"s": sum(range(35)), "rows": 35}]


@pytest.mark.parametrize("with_side", [False, True])
def test_single_bucket(ray_session, with_side):
    import ray

    from json_remedy_ray.state.partitioning import bucket_exchange

    refs = [ray.put(b) for b in _blocks()]
    side, red = bucket_exchange(refs, 1, *_fns(with_side), _OUT,
                                side=_SIDE if with_side else None)
    assert len(red) == 1
    assert ray.get(red[0]).to_pylist() == [{"s": sum(range(35)),
                                            "rows": 35}]
    assert len(side) == (4 if with_side else 0)


def test_join_exchange_empty_sides(ray_session):
    import ray

    from json_remedy_ray.state.partitioning import join_exchange

    ls = pa.schema([("k", pa.int64()), ("lv", pa.int64())])
    rs = pa.schema([("k", pa.int64()), ("rv", pa.int64())])
    out = pa.schema([("k", pa.int64()), ("lv", pa.int64()),
                     ("rv", pa.int64())])
    left = pa.table({"k": pa.array([0, 0, 2], pa.int64()),
                     "lv": pa.array([1, 2, 3], pa.int64())})
    right = pa.table({"k": pa.array([2, 4], pa.int64()),
                      "rv": pa.array([7, 8], pa.int64())})

    def part(t):
        return t["k"].to_numpy().astype(np.uint64), t

    def red(lt, rt):
        assert lt.schema.equals(ls) and rt.schema.equals(rs)
        return lt.join(rt, keys="k", join_type="full outer").select(
            out.names)

    refs = join_exchange([ray.put(left), ray.put(ls.empty_table())],
                         [ray.put(right)], 5, part, part, red,
                         (ls, rs, out))
    got = ray.get(refs)
    assert [t.num_rows for t in got] == [2, 0, 1, 0, 1]
    assert got[1].schema.equals(out)
    rows = sorted(pa.concat_tables(got).to_pylist(),
                  key=lambda r: (r["k"], r["lv"] or 0))
    assert rows == [{"k": 0, "lv": 1, "rv": None},
                    {"k": 0, "lv": 2, "rv": None},
                    {"k": 2, "lv": 3, "rv": 7},
                    {"k": 4, "lv": None, "rv": 8}]


# ------------------------------------------------ bucket-count invariance

def _corpus() -> pa.Table:
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(30)]
    boiler = ["shared footer line", "home | about | contact"]
    docs = []
    for i in range(48):
        lines = [" ".join(rng.choice(words, 9)) for _ in range(3)]
        lines += boiler[: i % 3]
        if i % 5 == 0 and i:
            lines = docs[i - 5].split("\n")          # exact duplicate
        docs.append("\n".join(lines))
    return pa.table({"doc_id": pa.array(np.arange(48), pa.int64()),
                     "text": pa.array(docs),
                     "source": pa.array([f"s{i % 3}" for i in range(48)])})


def _ds(tbl: pa.Table, blocks: int = 4):
    import ray.data as rd

    return rd.from_arrow(tbl).repartition(blocks)


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    cols = sorted(df.columns)
    return df[cols].sort_values(cols).reset_index(drop=True)


def _line_dedup(nb):
    from json_remedy_ray.stages.dedup import line_dedup

    return line_dedup(_ds(_corpus()), n_buckets=nb).to_pandas()


def _crossdoc_span_dedup(nb):
    from json_remedy_ray.stages.dedup import crossdoc_span_dedup

    return crossdoc_span_dedup(_ds(_corpus()), n=4, n_buckets=nb).to_pandas()


def _crossdoc_ngram_stats(nb):
    from json_remedy_ray.stages.dedup import crossdoc_ngram_stats

    return crossdoc_ngram_stats(_ds(_corpus()), n=4,
                                n_buckets=nb).to_pandas()


def _minhash_dedup_pairs(nb):
    # mode="all": the default spanning mode emits a spanning set whose
    # star rows can repeat once per bucket that holds a band of the
    # collapsed signature; its components, not its rows, are the answer
    from json_remedy_ray.stages.dedup import minhash_dedup_pairs

    return minhash_dedup_pairs(_ds(_corpus().select(["doc_id", "text"])),
                               threshold=0.5, n_buckets=nb,
                               mode="all").to_pandas()


def _count_distinct_exact_exchange(nb):
    from json_remedy_ray.stages.sketch import count_distinct_exact_exchange

    return pd.DataFrame({"n": [count_distinct_exact_exchange(
        _ds(_corpus()), "text", n_buckets=nb)]})


def _global_rank(nb):
    from json_remedy_ray.stages.rank import global_rank

    t = _corpus()
    t = pa.table({"doc_id": t["doc_id"],
                  "n_chars": pc.utf8_length(t["text"]).cast(
                      pa.int64())})
    return global_rank(_ds(t), "n_chars", "doc_id",
                       n_buckets=nb).to_pandas()


def _hash_join(nb):
    from json_remedy_ray.stages.join import hash_join

    t = _corpus()
    left = t.select(["doc_id", "source"])
    right = pa.table({"src": pa.array(["s0", "s1", "s9"]),
                      "w": pa.array([1, 2, 3], pa.int64())})
    return hash_join(_ds(left), _ds(right, 2), "source", "src",
                     how="full outer", n_buckets=nb).to_pandas()


def _pagerank_refs(nb):
    import ray

    from json_remedy_ray.stages.graph import pagerank_refs

    rng = np.random.default_rng(9)
    hosts = np.array([f"h{i}.com" for i in range(12)], dtype=object)
    blocks = [pa.table({"src": pa.array(hosts[rng.integers(0, 12, 30)]),
                        "dst": pa.array(hosts[rng.integers(0, 12, 30)]),
                        "w": pa.array(np.ones(30, np.int64))})
              for _ in range(3)]
    blocks.append(blocks[0].slice(0, 0))
    refs = pagerank_refs([ray.put(b) for b in blocks], n_buckets=nb,
                         iters=3)
    return pa.concat_tables(ray.get(refs)).to_pandas()


@contextmanager
def _default_buckets(nb: int):
    """Size every default_n_buckets() caller at ``nb`` buckets (the
    operators without an n_buckets parameter)."""
    with mock.patch("json_remedy_ray.state.partitioning.default_n_buckets",
                    lambda: nb), \
         mock.patch("json_remedy_ray.functions.queries.default_n_buckets",
                    lambda: nb), \
         mock.patch("json_remedy_ray.stages.similarity.default_n_buckets",
                    lambda: nb):
        yield


def _frame(ds, nb: int) -> pd.DataFrame:
    """The output as a frame, after checking that the exchange ran at
    ``nb`` buckets (one reduce block per bucket)."""
    import ray

    tables = ray.get(ds.to_arrow_refs())
    assert len(tables) == nb
    return pa.concat_tables(tables).to_pandas()


def _embeddings() -> pa.Table:
    """Gaussian vectors plus ten near-copies (cosine ~1 to their source)."""
    rng = np.random.default_rng(3)
    base = rng.normal(size=(30, 8))
    vecs = np.vstack([base, base[:10] + rng.normal(scale=1e-3, size=(10, 8))])
    return pa.table({"vec_id": pa.array(np.arange(40), pa.int64()),
                     "embedding": pa.array(list(vecs),
                                           pa.list_(pa.float64()))})


def _line_dedup_fallback(nb):
    from json_remedy_ray.stages.dedup import line_dedup

    return line_dedup(_ds(_corpus()), n_buckets=nb,
                      broadcast_max=-1).to_pandas()


def _crossdoc_span_dedup_fallback(nb):
    from json_remedy_ray.stages.dedup import crossdoc_span_dedup

    return crossdoc_span_dedup(_ds(_corpus()), n=4, n_buckets=nb,
                               broadcast_max=-1).to_pandas()


def _filter_pipeline_fallback(nb):
    from json_remedy_ray.functions.queries import filter_pipeline_documents

    with tempfile.TemporaryDirectory() as d, _default_buckets(nb):
        pq.write_table(_corpus(), f"{d}/documents.parquet")
        return _frame(filter_pipeline_documents(d, broadcast_max=-1), nb)


def _simhash_dedup_pairs(nb):
    from json_remedy_ray.stages.dedup import simhash_dedup_pairs

    with _default_buckets(nb):
        return _frame(simhash_dedup_pairs(_ds(_corpus())), nb)


def _embedding_neardup_pairs(nb):
    from json_remedy_ray.stages.similarity import embedding_neardup_pairs

    with _default_buckets(nb):
        return _frame(embedding_neardup_pairs(_ds(_embeddings())), nb)


def _stratified_sample_k(nb):
    from json_remedy_ray.stages.sampling import stratified_sample_k

    with _default_buckets(nb):
        return _frame(stratified_sample_k(_ds(_corpus()), k=5), nb)


_OPERATORS = [_line_dedup, _crossdoc_span_dedup, _crossdoc_ngram_stats,
              _minhash_dedup_pairs, _count_distinct_exact_exchange,
              _global_rank, _hash_join, _pagerank_refs,
              _line_dedup_fallback, _crossdoc_span_dedup_fallback,
              _filter_pipeline_fallback, _simhash_dedup_pairs,
              _embedding_neardup_pairs, _stratified_sample_k]


# on the 4-CPU test cluster these run 3, 4 and 4 reduce tasks: 5
# buckets make one uneven group, 8 buckets two buckets per task
_BUCKET_COUNTS = (3, 5, 8)


@pytest.mark.parametrize("op", _OPERATORS, ids=lambda f: f.__name__[1:])
def test_bucket_count_invariance(ray_session, op):
    one = _sorted(op(1))
    assert len(one) > 0
    for nb in _BUCKET_COUNTS:
        pd.testing.assert_frame_equal(one, _sorted(op(nb)))


def test_bucket_count_invariance_dedup_rate_by_source(ray_session,
                                                      tmp_path):
    from json_remedy_ray.functions.queries import dedup_rate_by_source

    pq.write_table(_corpus(), tmp_path / "documents.parquet")
    one = dedup_rate_by_source(str(tmp_path), n_buckets=1)
    assert (one["n_docs"] > one["n_distinct"]).any()
    for nb in _BUCKET_COUNTS:
        pd.testing.assert_frame_equal(
            one, dedup_rate_by_source(str(tmp_path), n_buckets=nb))


# ------------------------------------------- reduce tasks sized to the CPUs

def test_reduce_bounds_split_buckets_over_the_cpus(ray_session):
    from json_remedy_ray.state.partitioning import reduce_bounds

    assert reduce_bounds(1) == [0, 1]
    assert reduce_bounds(3) == [0, 1, 2, 3]
    assert reduce_bounds(5) == [0, 1, 2, 3, 5]
    assert reduce_bounds(8) == [0, 2, 4, 6, 8]
    assert reduce_bounds(256)[1:3] == [64, 128]


@pytest.mark.parametrize("nb", (1, 3, 5, 8))
def test_reduced_refs_are_in_bucket_order(ray_session, nb):
    """``reduced[b]`` holds exactly bucket b's rows, and each bucket is
    reduced on its own, whatever reduce task owns it."""
    import ray

    from json_remedy_ray.state.partitioning import bucket_exchange

    def red(t: pa.Table) -> pa.Table:
        x = np.sort(t["x"].to_numpy())
        return pa.table({"s": pa.array([int(x.sum())]),
                         "rows": pa.array([len(x)])})

    refs = [ray.put(b) for b in _blocks()]
    _, reduced = bucket_exchange(refs, nb, _fns(False)[0], red, _OUT)
    assert len(reduced) == nb
    got = [t.to_pylist() for t in ray.get(reduced)]
    want = [[{"s": sum(x for x in range(35) if x % nb == b),
              "rows": len(range(b, 35, nb))}] for b in range(nb)]
    assert got == want


@pytest.mark.parametrize("nb", (1, 3, 5, 8))
def test_global_rank_pins_bucket_order(ray_session, nb):
    """global_rank offsets each bucket by the rows of the buckets before
    it, so a reduced list out of bucket order gives wrong ranks."""
    from json_remedy_ray.stages.rank import global_rank

    rng = np.random.default_rng(nb)
    key = rng.integers(0, 40, 300)
    t = pa.table({"doc_id": pa.array(np.arange(300), pa.int64()),
                  "k": pa.array(key, pa.int64())})
    out = global_rank(_ds(t, 6), "k", "doc_id", n_buckets=nb).to_pandas()
    want = np.empty(300, dtype=np.int64)
    want[np.lexsort((np.arange(300), -key))] = np.arange(1, 301)
    out = out.sort_values("doc_id")
    assert out["rank"].tolist() == want.tolist()


@pytest.mark.parametrize("with_side", [False, True])
def test_partition_task_returns_one_slot_per_reduce_task(
        ray_session, monkeypatch, with_side):
    """At 8 buckets on 4 CPUs a partition task returns 4 slots (plus the
    side output), not one object per bucket."""
    import ray

    from json_remedy_ray.state import partitioning

    launched = []
    real = partitioning._fanout

    def spy(part, refs, n_out):
        outs = real(part, refs, n_out)
        launched.extend(outs)
        return outs

    monkeypatch.setattr(partitioning, "_fanout", spy)
    refs = [ray.put(b) for b in _blocks()]
    side, red = partitioning.bucket_exchange(
        refs, 8, *_fns(with_side), _OUT, side=_SIDE if with_side else None)
    assert len(red) == 8
    assert sum(t["rows"][0].as_py() for t in ray.get(red)) == 35
    assert len(launched) == len(refs)
    assert {len(o) for o in launched} == {4 + with_side}


# ------------------------------------------------- schema-stable outputs

_LARGE = pa.schema([("doc_id", pa.int64()), ("text", pa.large_string())])


def _blocks_of(ds) -> list[pa.Table]:
    import ray

    return ray.get(ds.to_arrow_refs())


def _assert_one_schema(tables: list[pa.Table], schema: pa.Schema):
    assert tables
    for t in tables:
        assert t.num_columns, "column-less block"
        assert t.schema.equals(schema), (t.schema, schema)


def test_line_dedup_fallback_schema_matches_broadcast(ray_session):
    """A large_string corpus keeps large_string text on both routing
    paths, in every block, on a zero-row corpus too."""
    from json_remedy_ray.stages.dedup import line_dedup

    c = _corpus()
    tbl = pa.table({"doc_id": c["doc_id"],
                    "text": c["text"].cast(pa.large_string())})
    bc = _blocks_of(line_dedup(_ds(tbl)))
    schema = bc[0].schema
    assert schema.field("text_dedup").type == pa.large_string()
    _assert_one_schema(bc, schema)
    mixed = _blocks_of(line_dedup(_with_empty_block(tbl)))
    assert [t.num_rows for t in mixed] == [24, 0, 24]
    _assert_one_schema(mixed, schema)
    import ray.data as rd

    empty = rd.from_arrow(_LARGE.empty_table())
    _assert_one_schema(_blocks_of(line_dedup(empty)), schema)
    for src in (_ds(tbl), empty):
        fb = line_dedup(src, n_buckets=5, broadcast_max=-1)
        _assert_one_schema(_blocks_of(fb), schema)


def _with_empty_block(tbl: pa.Table):
    """``tbl`` as three blocks, the middle one without rows."""
    import ray
    import ray.data as rd

    half = tbl.num_rows // 2
    return rd.from_arrow_refs([ray.put(tbl.slice(0, half)),
                               ray.put(tbl.slice(0, 0)),
                               ray.put(tbl.slice(half))])


def test_map_blocks_keeps_declared_schema(ray_session):
    """A zero-row block among non-empty ones, and a corpus without rows,
    give blocks of the declared schema (the block fn never sees them)."""
    import ray.data as rd

    from json_remedy_ray.state.partitioning import map_blocks

    want = pa.schema([("doc_id", pa.int64()), ("n", pa.int64())])

    def count_chars(t: pa.Table) -> pa.Table:
        assert t.num_rows > 0, "block fn called on a zero-row block"
        return pa.table({"doc_id": t["doc_id"],
                         "n": pc.utf8_length(t["text"]).cast(pa.int64())})

    c = _corpus()
    mixed = _blocks_of(map_blocks(_with_empty_block(c), count_chars, want))
    assert [t.num_rows for t in mixed] == [24, 0, 24]
    _assert_one_schema(mixed, want)
    for empty in (rd.from_arrow(c.slice(0, 0)),
                  rd.from_arrow(c).filter(expr="doc_id < 0")):
        _assert_one_schema(_blocks_of(map_blocks(empty, count_chars, want)),
                           want)


def test_crossdoc_span_dedup_fallback_schema(ray_session):
    from json_remedy_ray.stages.dedup import crossdoc_span_dedup

    bc = _blocks_of(crossdoc_span_dedup(_ds(_corpus()), n=4))
    schema = bc[0].schema
    _assert_one_schema(bc, schema)
    empty = _ds(_LARGE.empty_table(), 1)
    _assert_one_schema(_blocks_of(crossdoc_span_dedup(empty, n=4)), schema)
    for src in (_ds(_corpus()), empty):
        _assert_one_schema(_blocks_of(crossdoc_span_dedup(
            src, n=4, n_buckets=5, broadcast_max=-1)), schema)


def test_filter_pipeline_fallback_schema(ray_session, tmp_path):
    from json_remedy_ray.functions.queries import filter_pipeline_documents

    pq.write_table(_corpus(), tmp_path / "documents.parquet")
    bc = _blocks_of(filter_pipeline_documents(str(tmp_path)))
    schema = bc[0].schema
    _assert_one_schema(bc, schema)
    empty = tmp_path / "empty"
    empty.mkdir()
    pq.write_table(_corpus().slice(0, 0), empty / "documents.parquet")
    for sf, bmax in ((tmp_path, -1), (empty, 1 << 25), (empty, -1)):
        _assert_one_schema(_blocks_of(filter_pipeline_documents(
            str(sf), broadcast_max=bmax)), schema)


def test_simhash_pairs_schema_without_pairs(ray_session):
    import ray.data as rd

    from json_remedy_ray.stages.dedup import simhash_dedup_pairs

    want = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64()),
                      ("hamming", pa.int64())])
    none = rd.from_items([{"doc_id": 1, "text": "a b c"},
                          {"doc_id": 2, "text": "zzz yyy qqq ppp"}])
    _assert_one_schema(_blocks_of(simhash_dedup_pairs(none)), want)
    _assert_one_schema(_blocks_of(simhash_dedup_pairs(_ds(_corpus()))), want)


def test_embedding_pairs_schema(ray_session):
    from json_remedy_ray.stages.similarity import embedding_neardup_pairs

    want = pa.schema([("vec_a", pa.int64()), ("vec_b", pa.int64()),
                      ("cosine", pa.float64())])
    some = _blocks_of(embedding_neardup_pairs(_ds(_embeddings())))
    assert sum(t.num_rows for t in some) >= 10
    _assert_one_schema(some, want)
    none = _blocks_of(embedding_neardup_pairs(_ds(_embeddings().slice(0, 30)),
                                              threshold=0.9999))
    assert sum(t.num_rows for t in none) == 0
    _assert_one_schema(none, want)


def test_stratified_sample_k_schema(ray_session):
    from json_remedy_ray.stages.sampling import stratified_sample_k

    want = pa.schema([("stratum", pa.string()), ("id", pa.int64()),
                      ("sample_rank", pa.int64())])
    blocks = _blocks_of(stratified_sample_k(_ds(_corpus()), k=5))
    assert sum(t.num_rows for t in blocks) == 15        # 3 strata x 5
    _assert_one_schema(blocks, want)


def test_knn_bruteforce_frame_dtypes(ray_session, tmp_path):
    from json_remedy_ray.functions.queries import knn_bruteforce

    pq.write_table(_embeddings(), tmp_path / "embeddings.parquet")
    out = knn_bruteforce(str(tmp_path))
    assert list(out.columns) == ["query_id", "neighbor_id", "rank"]
    assert (out.dtypes == np.int64).all()
    assert out.groupby("query_id")["rank"].apply(list).map(
        lambda r: r == list(range(1, 11))).all()


# -------------------------------------- forced fallbacks take join_exchange

def _run_line_dedup(bm):
    from json_remedy_ray.stages.dedup import line_dedup

    return line_dedup(_ds(_corpus()), n_buckets=3, broadcast_max=bm).count()


def _run_crossdoc_span_dedup(bm):
    from json_remedy_ray.stages.dedup import crossdoc_span_dedup

    return crossdoc_span_dedup(_ds(_corpus()), n=4, n_buckets=3,
                               broadcast_max=bm).count()


def _run_filter_pipeline(bm):
    from json_remedy_ray.functions.queries import filter_pipeline_documents

    with tempfile.TemporaryDirectory() as d:
        pq.write_table(_corpus(), f"{d}/documents.parquet")
        return filter_pipeline_documents(d, broadcast_max=bm).count()


@pytest.mark.parametrize("run", [_run_line_dedup, _run_crossdoc_span_dedup,
                                 _run_filter_pipeline],
                         ids=lambda f: f.__name__[5:])
def test_forced_fallback_calls_join_exchange(ray_session, monkeypatch, run):
    from json_remedy_ray.state import partitioning

    calls = []
    real = partitioning.join_exchange

    def spy(*args, **kwargs):
        calls.append(args[2])                 # n_buckets
        return real(*args, **kwargs)

    monkeypatch.setattr(partitioning, "join_exchange", spy)
    assert run(1 << 25) == 48 and calls == []   # broadcast path
    assert run(-1) == 48 and len(calls) == 1    # forced cogroup


def test_no_dataset_map_groups_in_library():
    """The bucket exchange is the library's one keyed shuffle: no module
    may go back to Ray's Dataset.groupby().map_groups sort-shuffle."""
    import pathlib

    import json_remedy_ray

    root = pathlib.Path(json_remedy_ray.__file__).parent
    hits = [str(f.relative_to(root)) for f in sorted(root.rglob("*.py"))
            if "map_groups(" in f.read_text(encoding="utf-8")]
    assert hits == []


def test_no_unused_import_in_library():
    """Every module-level or function-local import under
    json_remedy_ray/ is read in the scope that binds it (a package
    ``__init__.py`` re-exports its names and is exempt)."""
    import ast
    import pathlib

    import json_remedy_ray

    root = pathlib.Path(json_remedy_ray.__file__).parent
    unused = []

    def visit(node, scope, names, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.Lambda)):
                visit(child, child, None, path)
                continue
            if isinstance(child, (ast.Import, ast.ImportFrom)) and \
                    getattr(child, "module", None) != "__future__":
                if names is None:
                    names = {n.id for n in ast.walk(scope)
                             if isinstance(n, ast.Name)}
                unused.extend(
                    f"{path}:{child.lineno} {a.asname or a.name}"
                    for a in child.names
                    if (a.asname or a.name.split(".")[0]) not in names)
            visit(child, scope, names, path)

    for f in sorted(root.rglob("*.py")):
        if f.name != "__init__.py":
            tree = ast.parse(f.read_text(encoding="utf-8"))
            visit(tree, tree, None, f.relative_to(root))
    assert unused == []


def test_one_chunk_combine_and_one_whitespace_split_in_library():
    """``vhash.as_array`` is the library's one ChunkedArray check and
    ``textstats.ws_split`` its one whitespace tokenizer: no other
    function may test ``isinstance(..., pa.ChunkedArray)`` or call
    ``utf8_split_whitespace``."""
    import ast
    import pathlib

    import json_remedy_ray

    root = pathlib.Path(json_remedy_ray.__file__).parent
    found = []
    for f in sorted(root.rglob("*.py")):
        tree = ast.parse(f.read_text(encoding="utf-8"))
        owner = {}                  # node -> innermost enclosing function
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    owner[node] = fn.name
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            name = getattr(node.func, "attr", getattr(node.func, "id", ""))
            if name == "isinstance" and "ChunkedArray" in ast.unparse(node):
                what = "ChunkedArray check"
            elif name == "utf8_split_whitespace":
                what = "utf8_split_whitespace"
            else:
                continue
            found.append((what, f.relative_to(root).as_posix(),
                          owner.get(node)))
    assert sorted(found) == [
        ("ChunkedArray check", "functions/vhash.py", "as_array"),
        ("utf8_split_whitespace", "stages/textstats.py", "ws_split"),
    ]


def _logging_partial(log_path):
    """A ``_partial_agg`` partial that appends one line per call to
    ``log_path``.  Built inside a function so Ray ships it by value."""
    def partial(batch: pa.Table) -> pa.Table:
        with open(log_path, "a") as f:
            f.write("call\n")
        return batch.group_by("k").aggregate([("v", "sum")])
    return partial


def test_partial_agg_runs_partial_once_per_block(ray_session, tmp_path):
    """A lazy Dataset's ``to_arrow_refs()`` reads its schema after the
    blocks, which ran the plan again up to one row and called the
    partial on a block a second time; ``block_refs`` materializes first."""
    import ray.data as rd

    from json_remedy_ray.functions.queries import _partial_agg

    data = tmp_path / "data"
    data.mkdir()
    for i in range(3):
        pq.write_table(pa.table({"k": ["a", "b"], "v": [i, 10 * i]}),
                       data / f"part{i}.parquet")
    log = tmp_path / "calls.log"
    partial = _logging_partial(str(log))
    ds = rd.read_parquet(str(data), override_num_blocks=3)
    got = _partial_agg(ds, partial, ["k"], {"v_sum": "sum"})
    assert sorted(zip(got["k"], got["v_sum"])) == [("a", 3), ("b", 30)]
    calls = log.read_text().count("call\n")
    log.unlink()
    one_pass = ds.map_batches(partial, batch_format="pyarrow", batch_size=None).materialize()
    assert calls == log.read_text().count("call\n") == one_pass.num_blocks()


def test_block_refs_is_the_only_to_arrow_refs_in_library():
    """Every block-ref list the library takes goes through
    ``partitioning.block_refs``, which runs a lazy plan once."""
    import ast
    import pathlib

    import json_remedy_ray

    root = pathlib.Path(json_remedy_ray.__file__).parent
    found = []
    for f in sorted(root.rglob("*.py")):
        tree = ast.parse(f.read_text(encoding="utf-8"))
        fns = [n for n in ast.walk(tree)
               if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for n in ast.walk(tree):
            if (isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                    and n.func.attr == "to_arrow_refs"):
                owner = max((fn for fn in fns if fn.lineno <= n.lineno <= fn.end_lineno),
                            key=lambda fn: fn.lineno, default=None)
                found.append((str(f.relative_to(root)), owner and owner.name))
    assert found == [("state/partitioning.py", "block_refs")]
