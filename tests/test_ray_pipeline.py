"""Integration tests: Ray Data stages + flagship pipeline + driver contract.

Uses the session-scoped `ray_session` fixture (one ray.init per pytest run).
"""

from __future__ import annotations

import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def webpages_dir(ray_session, tmp_path_factory):
    from json_remedy_ray.sources.corpus import build_webpages

    out = tmp_path_factory.mktemp("webpages")
    return build_webpages(SF_DIR, str(out / "sf0.001"))


def test_repair_stage_batch_matches_scalar(ray_session):
    """Batch (map_batches) results must equal scalar repair() results."""
    import ray.data as rd

    from json_remedy_ray.repair.pipeline import repair as scalar_repair
    from json_remedy_ray.stages.repair_stage import make_repair_fn

    texts = ['{"a": 1}', "{'b': True,}", "plain prose", '[1, 2', "```json\n{x: 1}\n```",
             # sign-then-dot literals: the vectorized plain-text prefilter must
             # route these to scalar repair(), not the '""' shortcut
             "-.5", "+.5", ".5", "-5", "true", "null"]
    ds = rd.from_items([{"text": t} for t in texts])
    out = ds.map_batches(make_repair_fn(), batch_format="pyarrow").to_pandas()
    # executor may reorder blocks: compare per input text, not positionally
    got = dict(zip(out["text"], out["repaired_json"]))
    for t in texts:
        r = scalar_repair(t)
        assert got[t] == (r.repaired_json if r.ok else ""), t


def test_repair_stage_batch_matches_scalar_full_corpus(ray_session):
    """SURVEY §5 port plan (c): map_batches over the whole conformance
    corpus produces identical rows to scalar repair()."""
    import ray.data as rd

    from json_remedy_ray.repair.pipeline import repair as scalar_repair
    from json_remedy_ray.stages.repair_stage import make_repair_fn
    from tests.fixtures_corpus import CASES

    texts = [inp for _, inp, _ in CASES]
    ds = rd.from_items([{"text": t} for t in texts])
    out = ds.map_batches(make_repair_fn(), batch_format="pyarrow", batch_size=32).to_pandas()
    got = dict(zip(out["text"], out["repaired_json"]))
    for t in texts:
        r = scalar_repair(t)
        assert got[t] == (r.repaired_json if r.ok else ""), t


def test_flagship_pipeline_schema_and_rows(webpages_dir):
    import ray.data as rd

    from json_remedy_ray.pipelines.quality_filter import FLAGSHIP_COLUMNS, quality_filter

    ds = rd.read_parquet(webpages_dir, columns=FLAGSHIP_COLUMNS)
    out = quality_filter(ds)
    df = out.to_pandas()
    assert len(df) == 500
    for col in ("repaired_json", "repair_ok", "lang_pred", "lang_conf", "ppl",
                "scrubbed_text", "keep", "drop_reason", "word_count"):
        assert col in df.columns, col
    assert df["repair_ok"].all()
    assert 0 < df["keep"].mean() < 1  # filter actually splits the corpus
    # every dropped row has a reason; every kept row has none
    assert (df.loc[~df["keep"], "drop_reason"] != "").all()
    assert (df.loc[df["keep"], "drop_reason"] == "").all()


def test_actor_pool_path_matches_task_path(webpages_dir):
    """use_actor_pools=True (the GB-scale-model configuration) must
    produce identical results to the default task path."""
    import ray.data as rd

    from json_remedy_ray.pipelines.quality_filter import FLAGSHIP_COLUMNS, quality_filter

    ds1 = rd.read_parquet(webpages_dir, columns=FLAGSHIP_COLUMNS)
    a = quality_filter(ds1).to_pandas().sort_values("url").reset_index(drop=True)
    ds2 = rd.read_parquet(webpages_dir, columns=FLAGSHIP_COLUMNS)
    b = quality_filter(ds2, use_actor_pools=True, scorer_concurrency=(1, 2)).to_pandas()
    b = b.sort_values("url").reset_index(drop=True)[a.columns]
    for col in ("repaired_json", "keep", "drop_reason", "lang_pred", "scrubbed_text"):
        assert a[col].equals(b[col]), col


@pytest.mark.parametrize("cpus,actors", [(1, 1), (2, 1), (3, 2), (4, 2), (32, 16)])
def test_default_scorer_pool_leaves_a_cpu_for_the_tasks(cpus, actors):
    """The fixed scorer pool is half the CPUs, at least 2, but never all
    of them: on 1 CPU a 2-actor pool starves the task stages and the run
    never finishes."""
    from json_remedy_ray.pipelines.quality_filter import default_scorer_concurrency

    assert default_scorer_concurrency(cpus) == actors


def test_flagship_deterministic(webpages_dir):
    import ray.data as rd

    from json_remedy_ray.pipelines.quality_filter import FLAGSHIP_COLUMNS, quality_filter

    def run():
        ds = rd.read_parquet(webpages_dir, columns=FLAGSHIP_COLUMNS)
        return (
            quality_filter(ds).to_pandas()
            .sort_values("url").reset_index(drop=True)
        )

    a, b = run(), run()
    assert a.equals(b)


def test_entry_contract(ray_session):
    import __ray_entry__ as e

    out = e.entry()
    n = out.count() if hasattr(out, "count") else len(out)
    assert n >= 0
    qs, oracles = e.queries(), e.oracle_sql()
    assert set(oracles) <= set(qs)
    assert len(qs) >= 15


def test_partitioning_host_bucket(ray_session):
    import ray.data as rd

    from json_remedy_ray.state.partitioning import add_host_bucket, extract_host

    ds = rd.from_items([
        {"url": "https://popular.example.com/p/1"},
        {"url": "https://popular.example.com/p/2"},
        {"url": "http://other.example.org/x"},
    ])
    out = ds.map_batches(
        lambda b: add_host_bucket(b, num_buckets=8,
                                  hot_hosts={"popular.example.com": 4}),
        batch_format="pyarrow",
    ).to_pandas()
    assert out["url_host"].tolist() == ["popular.example.com", "popular.example.com", "other.example.org"]
    assert out["host_bucket"].between(0, 7).all()
    # salting scatters the hot host: the two urls need not share a bucket,
    # and the same url always maps to the same bucket (determinism)
    out2 = ds.map_batches(
        lambda b: add_host_bucket(b, num_buckets=8,
                                  hot_hosts={"popular.example.com": 4}),
        batch_format="pyarrow",
    ).to_pandas()
    assert out["host_bucket"].tolist() == out2["host_bucket"].tolist()


def test_manifest_roundtrip(tmp_path):
    from json_remedy_ray.state.manifest import (
        completed_buckets,
        load_manifest,
        make_manifest,
        write_manifest,
    )

    out_dir = str(tmp_path)
    sv = {"repair": "abc", "filter": "def"}
    write_manifest(out_dir, 7, make_manifest(7, ["f1.parquet"], sv, 100, 90, {"syntax_normalization": 5}, ["part-0.parquet"]))
    m = load_manifest(out_dir, 7)
    assert m["partition_key"] == "host_bucket=7"
    assert completed_buckets(out_dir, sv) == {7}
    assert completed_buckets(out_dir, {"repair": "OTHER", "filter": "def"}) == set()


def test_cascade_equals_annotate_keep_set(ray_session, tmp_path):
    """Filter-mode cascade must keep exactly the rows the annotate-mode
    flagship marks keep=True (decide is a pure conjunction; early gates
    with default-passing missing columns can only drop eventual drops)."""
    import ray.data as rd

    from json_remedy_ray.pipelines.quality_filter import (
        FLAGSHIP_COLUMNS,
        quality_filter,
        quality_filter_cascade,
    )
    from json_remedy_ray.sources.corpus import build_webpages

    small_corpus = build_webpages("/root/testdata/sf0.001",
                                  str(tmp_path / "pages"), num_files=2)
    ds = rd.read_parquet(small_corpus, columns=FLAGSHIP_COLUMNS)
    annotated = quality_filter(ds).to_pandas()
    kept = set(annotated[annotated["keep"]]["url"])
    cascade = quality_filter_cascade(
        rd.read_parquet(small_corpus, columns=FLAGSHIP_COLUMNS)).to_pandas()
    assert set(cascade["url"]) == kept
    assert cascade["keep"].all()
    assert (cascade["drop_reason"] == "").all()
