"""The flagship quality-filter pipeline (north_star composition).

read_parquet(webpages, columns pruned — `html` is NEVER projected)
  -> repair        (five-layer repair, zero-copy Arrow)
  -> scorers       (FusedScorer: heuristics, langid and perplexity
                    from ONE byte scan of the text)
  -> scrub         (PII/toxicity regex, pre-filtered)
  -> decide        (numpy keep/drop projection)
  [-> host bucketing -> partitioned parquet + per-partition manifests]

Execution shape (measured on this Ray build, 400k docs / 32 CPUs):

  - ``batch_size=None`` everywhere: whole-block batches.  Fixed-size
    batches forced block re-slicing between every stage and tripled the
    wall time (14 s -> 4.3 s).
  - All stages are STATELESS TASKS, so the streaming executor fuses the
    entire chain into one task per input block — no intermediate
    materialization at all.  The langid/perplexity models are a few KB,
    built lazily once per worker process (same amortization an actor
    pool would give, without breaking fusion: pools measured 15 s vs
    4.3 s for tasks).  For GB-scale models (real fastText/KenLM binaries)
    pass ``use_actor_pools=True`` — that is the north_rule actor-pool
    path, paying one object-store handoff between pools.  Its default
    pool leaves one CPU to the task stages (see
    ``default_scorer_concurrency``).
  - The three scorers are one stage on both paths: they read the same
    bytes, so ``FusedScorer`` builds one ``TextScan`` per batch and
    computes all three from it (on perfbench flagship_mixed pages, one
    core, the three scorers cost about 0.6x what they cost with a scan
    each).  The cascade still runs heuristics alone before its gate, and
    langid and perplexity from one scan after it.
"""

from __future__ import annotations

import ray.data as rd

from json_remedy_ray.config import (
    DEFAULT_CONFIG,
    DEFAULT_FILTER_CONFIG,
    FilterConfig,
    RepairConfig,
)
from json_remedy_ray.stages.decide import decide_batch
from json_remedy_ray.stages.heuristics import append_features, heuristics_batch
from json_remedy_ray.stages.langid import LangIdScorer
from json_remedy_ray.stages.perplexity import PerplexityScorer
from json_remedy_ray.stages.repair_stage import make_repair_fn
from json_remedy_ray.stages.scrub import scrub_batch
from json_remedy_ray.stages.textscan import TextScan

# Input pruning: the repair stage must never materialize the `html` binary
# column (SURVEY §4.2 memory row).
FLAGSHIP_COLUMNS = ["url", "warc_ts", "text", "lang"]

# lazy per-worker model singletons (one construction per worker process)
_WORKER_MODELS: dict = {}


class FusedScorer:
    """ONE stage for the three scorers: heuristics, langid and perplexity.

    The three read one ``TextScan`` of the batch (row classes, letter
    runs, whitespace tokens, line breaks, one packed lookup of markers
    and stopwords, the decoded code points of the non-ASCII rows and
    their one ``utf8_lower``), so each piece is computed once.  As an actor class it also holds BOTH models
    (langid marker tables + perplexity n-gram table): the actor-pool
    deployment has a single actor stage, halving the object-store hops
    between unfused stages (each stage boundary serializes the full
    batch through the store).  __init__ runs once per actor — the
    north_rule model-holding contract."""

    def __init__(self, text_col: str = "text"):
        self.text_col = text_col
        self.langid = LangIdScorer(text_col=text_col)
        self.ppl = PerplexityScorer(text_col=text_col)

    def __call__(self, batch):
        scan = TextScan(batch[self.text_col], self.langid.words)
        return self._models(append_features(batch, scan), scan)

    def score_models(self, batch):
        """Langid and perplexity only: the cascade's stage after its gate."""
        return self._models(batch, TextScan(batch[self.text_col], self.langid.words))

    def _models(self, batch, scan):
        return self.ppl.append_scores(self.langid.append_scores(batch, scan), scan)


def _worker_scorer(text_col: str) -> FusedScorer:
    key = ("models", text_col)
    if key not in _WORKER_MODELS:
        _WORKER_MODELS[key] = FusedScorer(text_col=text_col)
    return _WORKER_MODELS[key]


def default_scorer_concurrency(cpus: int) -> int:
    """Size of the fixed scorer actor pool on a cluster of ``cpus`` CPUs:
    half of them, at least 2, but always leaving one CPU for the task
    stages around the pool — a pool holding every CPU starves them and
    the run never finishes (2 actors on 1 CPU did)."""
    return max(1, min(max(2, cpus // 2), cpus - 1))


def quality_filter(
    ds: rd.Dataset,
    repair_config: RepairConfig = DEFAULT_CONFIG,
    filter_config: FilterConfig = DEFAULT_FILTER_CONFIG,
    text_col: str = "text",
    use_actor_pools: bool = False,
    scorer_concurrency=None,
) -> rd.Dataset:
    """Apply the full filter chain to a Dataset with a ``text`` column."""
    kw = dict(batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(make_repair_fn(repair_config, text_col=text_col), **kw)
    if use_actor_pools:
        if scorer_concurrency is None:
            import ray as _ray

            cpus = int(_ray.cluster_resources().get("CPU", 8)) if _ray.is_initialized() else 8
            # FIXED pool, not (1, N) autoscaling (autoscale-from-1 ramps
            # too slowly and bottlenecks the chain: 20.6 s vs 15.3 s at
            # 1.2M docs / 32 CPUs); ONE pool holds all three scorers (see
            # FusedScorer)
            scorer_concurrency = default_scorer_concurrency(cpus)
        ds = ds.map_batches(
            FusedScorer, fn_constructor_kwargs={"text_col": text_col},
            concurrency=scorer_concurrency, **kw,
        )
    else:
        ds = ds.map_batches(lambda b: _worker_scorer(text_col)(b), **kw)
    ds = ds.map_batches(lambda b: scrub_batch(b, text_col=text_col), **kw)
    ds = ds.map_batches(lambda b: decide_batch(b, filter_config), **kw)
    return ds


def quality_filter_cascade(
    ds: rd.Dataset,
    repair_config: RepairConfig = DEFAULT_CONFIG,
    filter_config: FilterConfig = DEFAULT_FILTER_CONFIG,
    text_col: str = "text",
) -> rd.Dataset:
    """FILTER-MODE cascade: cheap gates run first and DROP failing rows
    before the expensive scorers see them (the CCNet/Dolma staging),
    instead of annotating every row like ``quality_filter``.

    Exactly equivalent on the kept set: ``decide_batch`` is a pure
    conjunction of per-rule masks, and its missing-column defaults pass
    (ppl=0, lang=en, toxic=False), so gating after heuristics with the
    same config removes only rows the full chain would drop anyway —
    asserted row-for-row in tests.  Rows that survive to the end carry
    keep=True / drop_reason="".  All stages stay stateless tasks, so
    the whole cascade still fuses into one operator chain; the win is
    that the scorer+scrub kernels touch only the heuristic survivors.

    Measured (1.2M docs / 32 CPUs / 57% keep rate): 12.33 s vs 12.94 s
    annotate-mode in the same window — modest HERE because this build's
    scorers are ~22 us/doc Arrow kernels and repair+heuristics dominate;
    the cascade is the right default when the scorer is a real
    fastText/KenLM binary at 10-100x that cost (the use_actor_pools
    path), where skipping 43% of rows is 43% of the bill."""
    kw = dict(batch_format="pyarrow", batch_size=None)
    ds = ds.map_batches(make_repair_fn(repair_config, text_col=text_col), **kw)
    ds = ds.map_batches(lambda b: heuristics_batch(b, text_col=text_col), **kw)

    def gate(b):
        d = decide_batch(b, filter_config)
        return b.filter(d["keep"])

    ds = ds.map_batches(gate, **kw)
    ds = ds.map_batches(lambda b: _worker_scorer(text_col).score_models(b), **kw)
    ds = ds.map_batches(lambda b: scrub_batch(b, text_col=text_col), **kw)
    ds = ds.map_batches(lambda b: decide_batch(b, filter_config), **kw)
    ds = ds.map_batches(lambda b: b.filter(b["keep"]), **kw)
    return ds


def run_to_parquet(
    ds: rd.Dataset,
    out_dir: str,
    repair_config: RepairConfig = DEFAULT_CONFIG,
    filter_config: FilterConfig = DEFAULT_FILTER_CONFIG,
    num_buckets: int = 64,
    url_col: str = "url",
) -> dict:
    """Full run with host bucketing + resumable partitioned output.

    Returns summary stats.  On re-run with identical configs, buckets
    with matching manifests are skipped (resume-by-manifest)."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from json_remedy_ray.state.manifest import completed_buckets, make_manifest, write_manifest
    from json_remedy_ray.state.partitioning import add_host_bucket

    import glob
    import os
    import shutil

    from json_remedy_ray import __version__ as _engine_version

    stage_versions = {
        # engine code version is part of the lineage: a manifest written
        # by a different engine build must not count as "complete"
        # (config hashes alone miss semantic changes in stage CODE)
        "engine": _engine_version,
        "repair": repair_config.config_hash(),
        "filter": filter_config.config_hash(),
        # partitioning scheme is part of the lineage: a manifest written under
        # a different num_buckets/url_col describes buckets whose row->bucket
        # assignment no longer holds, so it must not count as "complete"
        "partitioning": f"host_bucket/{num_buckets}/{url_col}/poly64v2",
    }
    done = completed_buckets(out_dir, stage_versions)
    # a crashed run may have left bucket dirs WITHOUT matching manifests
    # (no manifest, or a manifest from different stage versions / an old
    # partitioning scheme); those rows will be recomputed, so drop the stale
    # partial files AND their manifests first — a surviving manifest for a
    # deleted bucket dir would mark missing data "complete" on a later rerun
    if os.path.isdir(out_dir):
        for bucket_dir in glob.glob(os.path.join(out_dir, "host_bucket=*")):
            bucket = int(bucket_dir.split("=")[1])
            if bucket not in done:
                shutil.rmtree(bucket_dir, ignore_errors=True)
        for mpath in glob.glob(os.path.join(out_dir, "_manifests", "bucket=*.json")):
            bucket = int(os.path.basename(mpath)[len("bucket="):-len(".json")])
            if bucket not in done:
                try:
                    os.remove(mpath)
                except OSError:
                    pass
    # bucket assignment needs only the url: compute it FIRST so a resume
    # prunes completed buckets before any expensive stage runs
    ds = ds.map_batches(
        lambda b: add_host_bucket(b, num_buckets=num_buckets, url_col=url_col),
        batch_format="pyarrow", batch_size=None,
    )
    if done:
        done_arr = pa.array(sorted(done))
        ds = ds.map_batches(
            lambda b: b.filter(pc.invert(pc.is_in(b["host_bucket"], value_set=done_arr))),
            batch_format="pyarrow", batch_size=None,
        )
    scored = quality_filter(ds, repair_config, filter_config)
    scored.write_parquet(out_dir, partition_cols=["host_bucket"])

    # one manifest per bucket, written after the data lands.  rows_out comes
    # free from parquet footers; repair-layer hit counts read ONLY the six
    # int32 lineage columns (columnar -> cheap even at scale).
    import pyarrow.parquet as pq

    from json_remedy_ray.stages.repair_stage import _LAYER_COLS

    input_fragments = ds.input_files() if hasattr(ds, "input_files") else []
    layer_col_names = [name for name, _ in _LAYER_COLS]
    for bucket_dir in sorted(os.listdir(out_dir)):
        if not bucket_dir.startswith("host_bucket="):
            continue
        bucket = int(bucket_dir.split("=")[1])
        if bucket in done:
            continue
        files = sorted(os.listdir(os.path.join(out_dir, bucket_dir)))
        paths = glob.glob(os.path.join(out_dir, bucket_dir, "*.parquet"))
        rows_out = sum(pq.read_metadata(p).num_rows for p in paths)
        hits: dict[str, int] = {}
        for p in paths:
            t = pq.read_table(p, columns=layer_col_names)
            for name in layer_col_names:
                hits[name] = hits.get(name, 0) + (pc.sum(t[name]).as_py() or 0)
        write_manifest(out_dir, bucket, make_manifest(
            bucket, input_fragments=input_fragments, stage_versions=stage_versions,
            rows_in=-1, rows_out=rows_out, layer_hits=hits, output_files=files,
        ))
    return {"out_dir": out_dir, "skipped_buckets": sorted(done), "stage_versions": stage_versions}
