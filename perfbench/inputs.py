"""Seeded input generators for the four workloads.

Every input is a pure function of (workload, seed, number of documents):
prose comes from ``data/documents_text.parquet`` (the ``text``/``lang``
columns of the sf0.1 ``documents`` table, a 31-word synthetic vocabulary)
and all choices come from one ``random.Random(seed)``.  The generators
write parquet files that the program reads; the program never sees the
generator, so a library change cannot change the inputs.

Each ``make_*`` returns ``(table, truth)``: ``table`` is what the program
reads and ``truth`` is what the benchmark keeps for its own checks (never
written where the program reads).
"""

from __future__ import annotations

import json
import os
import random
import re

import pyarrow as pa
import pyarrow.parquet as pq

HERE = os.path.dirname(os.path.abspath(__file__))
TEXTS_PATH = os.path.join(HERE, "data", "documents_text.parquet")

# Input files per workload.  Ray Data plans its read tasks from the file
# count, so this fixes the block layout for every seed.
N_FILES = 8
WARMUP_DOCS = 64
_EPOCH_US = 1_700_000_000_000_000
_HOSTS = ["news.example.com", "forum.example.net", "shop.example.com",
          "wiki.example.org", "blog.example.io", "docs.example.dev"]
_BOILERPLATE_SHARE = 0.3
_STRUCT_RE = re.compile(r'[{}\[\]":]')


def load_texts() -> tuple[list[str], list[str]]:
    t = pq.read_table(TEXTS_PATH, columns=["text", "lang"])
    return t["text"].to_pylist(), t["lang"].to_pylist()


def _vocabulary(texts: list[str]) -> list[str]:
    """Words for JSON keys and string values."""
    return sorted({w for t in texts[:200] for w in t.split()})


# ---- JSON values and their malformed renderings -----------------------

def _record(rng: random.Random, words: list[str], depth: int = 0) -> dict:
    """A small JSON object: identifier keys, word strings, ints, bools,
    null, one list and (at the top level) one nested object."""
    keys = rng.sample(words, rng.randint(2, 5))
    obj: dict = {}
    for k in keys:
        kind = rng.randrange(6)
        if kind == 0:
            obj[k] = rng.randint(-999, 99999)
        elif kind == 1:
            obj[k] = " ".join(rng.choices(words, k=rng.randint(1, 3)))
        elif kind == 2:
            obj[k] = rng.random() < 0.5
        elif kind == 3:
            obj[k] = None
        elif kind == 4:
            obj[k] = [rng.randint(0, 99) for _ in range(rng.randint(1, 4))]
        else:
            obj[k] = _record(rng, words, depth + 1) if depth == 0 else rng.choice(words)
    return obj


def _render(v, key_fmt, str_fmt, lit, sep=", ", trailing=False) -> str:
    """Serialize ``v`` with pluggable key/string quoting and literals —
    the base of the invertible malformations below."""
    if isinstance(v, dict):
        items = [f"{key_fmt(k)}: {_render(x, key_fmt, str_fmt, lit, sep, trailing)}"
                 for k, x in v.items()]
        return "{" + sep.join(items) + ("," if trailing and items else "") + "}"
    if isinstance(v, list):
        items = [_render(x, key_fmt, str_fmt, lit, sep, trailing) for x in v]
        return "[" + sep.join(items) + ("," if trailing and items else "") + "]"
    if isinstance(v, str):
        return str_fmt(v)
    if v is True or v is False or v is None:
        return lit[v]
    return str(v)


_JSON_LIT = {True: "true", False: "false", None: "null"}


def _dq(s: str) -> str:
    return '"' + s + '"'


def _with_comments(obj: dict, rng: random.Random) -> str:
    items = [f'{_dq(k)}: {json.dumps(v)}' for k, v in obj.items()]
    out = []
    for i, it in enumerate(items):
        out.append(it + ("," if i < len(items) - 1 else ""))
        if rng.random() < 0.5:
            out.append("// note %d" % rng.randrange(100))
        else:
            out.append("/* field %d */" % i)
    return "{\n" + "\n".join(out) + "\n}"


# Record malformations whose repair has exactly one right answer: the
# canonical form of the original object (json_records oracle).
INVERTIBLE = {
    "code_fence": lambda o, r: "```json\n" + json.dumps(o, indent=2) + "\n```",
    "python_literals": lambda o, r: repr(o),
    "unquoted_keys": lambda o, r: _render(o, str, _dq, _JSON_LIT),
    "trailing_commas": lambda o, r: _render(o, _dq, _dq, _JSON_LIT, trailing=True),
    "comments": _with_comments,
    "smart_quotes": lambda o, r: _render(o, lambda k: f"“{k}”", lambda s: f"“{s}”", _JSON_LIT),
}

# Snippets embedded in flagship pages: the invertible set plus the lossy
# FIXTURES categories (truncation, multiple values, ellipsis).
EMBEDDED = dict(INVERTIBLE)
EMBEDDED.update({
    "truncated": lambda o, r: json.dumps(o)[: max(8, len(json.dumps(o)) * 2 // 3)],
    "multiple_values": lambda o, r: json.dumps(o) + json.dumps({"page": r.randint(1, 9)}),
    "ellipsis": lambda o, r: json.dumps([r.randint(0, 99) for _ in range(3)])[:-1] + ", ...]",
})


def canonical(value) -> str:
    """The documented canonical form: sorted keys, no spaces, raw UTF-8."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


# ---- workloads ----------------------------------------------------------

def _page(rng: random.Random, texts: list[str]) -> str:
    return "\n".join(rng.choices(texts, k=rng.randint(1, 3)))


def make_pages(seed: int, n: int, embed_share: float) -> tuple[pa.Table, dict]:
    """Web pages (url, warc_ts, text, lang); ``embed_share`` of them carry
    one malformed-JSON snippet inside the prose."""
    rng = random.Random(seed)
    texts, langs = load_texts()
    words = _vocabulary(texts)
    cats = sorted(EMBEDDED)
    urls, tss, out, out_langs, embedded = [], [], [], [], []
    for i in range(n):
        # the claimed language comes from another document, so it may
        # disagree with the text, as crawled labels do
        claimed = langs[rng.randrange(len(langs))]
        text = _page(rng, texts)
        if rng.random() < embed_share:
            snippet = EMBEDDED[rng.choice(cats)](_record(rng, words), rng)
            pos = rng.randrange(3)
            if pos == 0:
                text = snippet + "\n" + text
            elif pos == 1:
                text = text + "\nHere is the data: " + snippet
            else:
                ws = text.split(" ")
                mid = len(ws) // 2
                text = " ".join(ws[:mid]) + "\n" + snippet + "\n" + " ".join(ws[mid:])
            embedded.append(i)
        urls.append(f"https://{_HOSTS[rng.randrange(len(_HOSTS))]}/p/{seed}/{i}")
        tss.append(_EPOCH_US + i * 1_000_000)
        out.append(text)
        out_langs.append(claimed)
    table = pa.table({
        "url": pa.array(urls, pa.string()),
        "warc_ts": pa.array(tss, pa.timestamp("us")),
        "text": pa.array(out, pa.large_string()),
        "lang": pa.array(out_langs, pa.string()),
    })
    return table, {"embedded_urls": {urls[i] for i in embedded}}


def make_records(seed: int, n: int) -> tuple[pa.Table, dict]:
    """Standalone JSON records (id, text): half valid JSON, half malformed
    by one INVERTIBLE category.  Truth: the canonical original per id."""
    rng = random.Random(seed)
    texts, _ = load_texts()
    words = _vocabulary(texts)
    cats = sorted(INVERTIBLE)
    out, canon = [], []
    for _ in range(n):
        obj = _record(rng, words)
        if rng.random() < 0.5:
            out.append(json.dumps(obj, indent=rng.choice([None, 2])))
        else:
            out.append(INVERTIBLE[rng.choice(cats)](obj, rng))
        canon.append(canonical(obj))
    table = pa.table({"id": pa.array(range(n), pa.int64()),
                      "text": pa.array(out, pa.large_string())})
    return table, {"canonical": canon}


def make_line_pages(seed: int, n: int) -> tuple[pa.Table, dict]:
    """Multi-line pages (doc_id, text) where about ``_BOILERPLATE_SHARE`` of
    lines come from a small pool of boilerplate lines shared across pages."""
    rng = random.Random(seed)
    texts, _ = load_texts()
    pool = [" ".join(rng.choices(texts[k].split(), k=6)) + f" | site {k}"
            for k in rng.sample(range(len(texts)), 40)]
    pages = []
    for _ in range(n):
        lines = []
        for _ in range(rng.randint(4, 16)):
            if rng.random() < _BOILERPLATE_SHARE:
                lines.append(rng.choice(pool))
            else:
                ws = rng.choice(texts).split()
                a = rng.randrange(len(ws))
                lines.append(" ".join(ws[a:a + rng.randint(4, 12)]))
        pages.append("\n".join(lines))
    table = pa.table({"doc_id": pa.array(range(n), pa.int64()),
                      "text": pa.array(pages, pa.large_string())})
    return table, {}


def first_occurrence_kept(texts: list[str]) -> list[list[str]]:
    """Plain-Python line dedup reference: each line keeps only its first
    occurrence in (doc_id, line_no) order.  Returns the kept lines per doc."""
    seen: set[str] = set()
    kept_docs = []
    for t in texts:
        kept = []
        for line in t.split("\n"):
            if line not in seen:
                seen.add(line)
                kept.append(line)
        kept_docs.append(kept)
    return kept_docs


def properties(table: pa.Table, truth: dict) -> dict:
    """Input properties a later claim can cite as measured shares."""
    texts = table["text"].to_pylist()
    n = len(texts)

    def valid_json(t: str) -> bool:
        try:
            json.loads(t)
        except ValueError:
            return False
        return True

    lines = [ln for t in texts for ln in t.split("\n")]
    return {
        "docs": n,
        "mean_chars": sum(map(len, texts)) / n,
        # docs holding a JSON structural character: the input-side
        # condition under which a document cannot stay in the Arrow
        # prefilter of the repair stage
        "flagged_share": sum(1 for t in texts if _STRUCT_RE.search(t)) / n,
        "embedded_json_share": (len(truth["embedded_urls"]) / n
                                if "embedded_urls" in truth else None),
        "valid_json_share": sum(map(valid_json, texts)) / n,
        "dup_line_share": 1.0 - len(set(lines)) / len(lines),
    }


def write_files(table: pa.Table, out_dir: str, n_files: int) -> list[str]:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-len(table) // n_files)
    paths = []
    for k in range(n_files):
        part = table.slice(k * per, per)
        if len(part):
            p = os.path.join(out_dir, f"part-{k:03d}.parquet")
            pq.write_table(part, p)
            paths.append(p)
    return paths
