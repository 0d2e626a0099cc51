"""The four workloads: inputs, the Ray Data job, the in-process chain and
the output check.

Each job calls a public entry point of the library through Ray Data:

- ``flagship_mixed`` / ``flagship_plain``: ``quality_filter`` (annotate
  mode, stateless tasks) over web pages, with and without one embedded
  malformed-JSON snippet in about half of them.
- ``json_records``: ``make_repair_fn`` in ``map_batches`` over standalone
  JSON records, the ``repair_events_props`` shape.
- ``corpus_line_dedup``: ``line_dedup`` over multi-line pages, whose work
  is the keyed bucket exchange.

``flagship_plain`` (the flagship chain over the same pages without JSON)
runs here but is not listed in BENCHMARK.json: with two set-ups per run
(about 10 s of the ~29 s a run takes on one CPU), only three workloads fit
the time the benchmark's full series of runs may take.

The actor-pool path (``quality_filter(..., use_actor_pools=True)``) is
left out: on a one-CPU cluster the fixed scorer pool holds the only CPU
and the task stages around it are never scheduled.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

import inputs


def cpu_count() -> int:
    """The CPU count ``nproc`` prints, which honours OMP_NUM_THREADS: the
    number of CPUs this host grants a job, not the cores it can see."""
    exe = shutil.which("nproc")
    if exe:
        out = subprocess.run([exe], capture_output=True, text=True, check=False).stdout
        if out.strip().isdigit():
            return int(out)
    return len(os.sched_getaffinity(0))


class Workload:
    """Base: ``dataset`` builds the lazy Ray job over one input directory;
    ``stages`` gives the same kernels for a run without Ray; ``check``
    returns the number of documents whose output is wrong."""

    name = ""
    docs = 0
    columns: list[str] | None = None
    batch_size: int | None = None
    # the check compares the Ray output with the in-process chain's
    checks_against_chain = False

    def make(self, seed: int, n: int) -> tuple[pa.Table, dict]:
        raise NotImplementedError

    def dataset(self, path: str):
        raise NotImplementedError

    def stages(self):
        """[(stage name, batch -> batch)] of the in-process chain, or None
        when the workload has no per-batch kernel chain."""
        return None

    def check(self, out: pa.Table, table: pa.Table, truth: dict,
              reference: pa.Table | None) -> int:
        raise NotImplementedError

    def output_counts(self, out: pa.Table) -> dict:
        """Exact counts from the checked output, and the job's settings."""
        return {}

    def read(self, path: str):
        import ray.data as rd

        return rd.read_parquet(path, columns=self.columns)


def _once_by_key(out: pa.Table, key: str, keys: list) -> tuple[dict, int]:
    """Index the rows returned exactly once by key; count the input keys
    not returned exactly once."""
    rows: dict = {}
    seen: dict = {}
    for r in out.to_pylist():
        k = r[key]
        seen[k] = seen.get(k, 0) + 1
        rows[k] = r
    bad = sum(1 for k in keys if seen.get(k, 0) != 1)
    return {k: r for k, r in rows.items() if seen[k] == 1}, bad


class Flagship(Workload):
    docs = 5000
    checks_against_chain = True

    def __init__(self, name: str, embed_share: float):
        from json_remedy_ray.pipelines.quality_filter import FLAGSHIP_COLUMNS

        self.name = name
        self.embed_share = embed_share
        self.columns = list(FLAGSHIP_COLUMNS)

    def make(self, seed, n):
        return inputs.make_pages(seed, n, self.embed_share)

    def dataset(self, path):
        from json_remedy_ray.pipelines.quality_filter import quality_filter

        return quality_filter(self.read(path))

    def stages(self):
        # the order and arguments of quality_filter's task path
        from json_remedy_ray.config import DEFAULT_CONFIG, DEFAULT_FILTER_CONFIG
        from json_remedy_ray.stages.decide import decide_batch
        from json_remedy_ray.stages.heuristics import heuristics_batch
        from json_remedy_ray.stages.langid import LangIdScorer
        from json_remedy_ray.stages.perplexity import PerplexityScorer
        from json_remedy_ray.stages.repair_stage import make_repair_fn
        from json_remedy_ray.stages.scrub import scrub_batch

        langid, ppl = LangIdScorer(text_col="text"), PerplexityScorer(text_col="text")
        return [
            ("repair", make_repair_fn(DEFAULT_CONFIG, text_col="text")),
            ("heuristics", lambda b: heuristics_batch(b, text_col="text")),
            ("langid", langid),
            ("perplexity", ppl),
            ("scrub", lambda b: scrub_batch(b, text_col="text")),
            ("decide", lambda b: decide_batch(b, DEFAULT_FILTER_CONFIG)),
        ]

    def check(self, out, table, truth, reference):
        """Ray output equals the in-process chain row for row by url;
        repaired JSON round-trips; every embedded page repairs to a
        non-empty value; keep holds exactly when drop_reason is empty."""
        urls = table["url"].to_pylist()
        rows, bad_urls = _once_by_key(out, "url", urls)
        ref = {r["url"]: r for r in reference.to_pylist()}
        embedded = truth["embedded_urls"]
        failed = bad_urls
        for u in urls:
            r = rows.get(u)
            if r is None:
                continue
            ok = r == ref[u] and r["keep"] == (r["drop_reason"] == "")
            if ok and r["repair_ok"]:
                try:
                    ok = inputs.canonical(json.loads(r["repaired_json"])) == r["repaired_json"]
                except ValueError:
                    ok = False
            if ok and u in embedded:
                ok = r["repair_ok"] and r["repaired_json"] not in ("", '""')
            failed += not ok
        return failed


class JsonRecords(Workload):
    name = "json_records"
    docs = 16000
    batch_size = 4096  # repair_events_props

    def make(self, seed, n):
        return inputs.make_records(seed, n)

    def dataset(self, path):
        from json_remedy_ray.stages.repair_stage import make_repair_fn

        return (self.read(path)
                .map_batches(make_repair_fn(), batch_format="pyarrow",
                             batch_size=self.batch_size)
                .select_columns(["id", "repaired_json", "repair_ok"]))

    def stages(self):
        from json_remedy_ray.stages.repair_stage import make_repair_fn

        return [("repair", make_repair_fn())]

    def check(self, out, table, truth, reference):
        """Every record repairs to the canonical form of its original."""
        ids = table["id"].to_pylist()
        rows, failed = _once_by_key(out, "id", ids)
        for i, canon in zip(ids, truth["canonical"]):
            r = rows.get(i)
            if r is not None:
                failed += not (r["repair_ok"] and r["repaired_json"] == canon)
        return failed


class LineDedup(Workload):
    name = "corpus_line_dedup"
    docs = 20000

    def __init__(self):
        # line_dedup's docstring: n_buckets ~ 4-8x the cluster's cores
        self.n_buckets = 8 * cpu_count()

    def make(self, seed, n):
        return inputs.make_line_pages(seed, n)

    def dataset(self, path):
        from json_remedy_ray.stages.dedup import line_dedup

        return line_dedup(self.read(path), n_buckets=self.n_buckets)

    def output_counts(self, out):
        return {"n_buckets": self.n_buckets,
                "lines": int(pc.sum(out["n_lines"]).as_py()),
                "kept": int(pc.sum(out["n_kept"]).as_py())}

    def check(self, out, table, truth, reference):
        """Kept lines equal a plain-Python first-occurrence pass in
        (doc_id, line_no) order."""
        ids = table["doc_id"].to_pylist()
        texts = table["text"].to_pylist()
        rows, failed = _once_by_key(out, "doc_id", ids)
        for i, t, kept in zip(ids, texts, inputs.first_occurrence_kept(texts)):
            r = rows.get(i)
            if r is not None:
                failed += not (r["text_dedup"] == "\n".join(kept)
                               and r["n_lines"] == t.count("\n") + 1
                               and r["n_kept"] == len(kept))
        return failed


def get(name: str) -> Workload:
    if name == "flagship_mixed":
        return Flagship(name, 0.5)
    if name == "flagship_plain":
        return Flagship(name, 0.0)
    if name == "json_records":
        return JsonRecords()
    if name == "corpus_line_dedup":
        return LineDedup()
    raise KeyError(name)


NAMES = ("flagship_mixed", "flagship_plain", "json_records", "corpus_line_dedup")


def read_batches(paths: list[str], columns: list[str] | None, batch_size: int | None):
    """The input as the in-process chain sees it: one batch per file, or
    fixed-size batches when the Ray job sets ``batch_size``."""
    for p in paths:
        t = pq.read_table(p, columns=columns)
        if batch_size is None:
            yield t
        else:
            for off in range(0, len(t), batch_size):
                yield t.slice(off, batch_size)
