"""Differential test: the repair path against its frozen reference.

``tests/repair_reference`` is a verbatim copy of the repair path as it
stood before its scans were rewritten with ``re`` matchers.  Every input
here must give the same ``ok``, ``repaired_json``, ``error`` and the same
``(layer, action, position)`` for every repair, under the default config
and under a config that turns every optional behaviour the other way.
The Arrow batch transform is compared table for table.  Hypothesis runs
derandomized, so the suite sees the same examples on every run.
"""

from __future__ import annotations

import ast
import json
import os
import time

import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from json_remedy_ray.config import DEFAULT_CONFIG, RepairConfig
from json_remedy_ray.repair.pipeline import repair
from json_remedy_ray.stages.repair_stage import repair_arrow_batch
from tests.fixtures_corpus import CASES, STRICT_ERROR_CASES
from tests.repair_reference.pipeline import repair as ref_repair
from tests.repair_reference.repair_stage import repair_arrow_batch as ref_repair_arrow_batch
from tests.test_ray_pipeline import SF_DIR as SF  # the sf0.001 test tables
REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "repair_reference")

# every optional behaviour flipped from its default
FLIPPED = RepairConfig(
    fast_path=False, logging=False, enable_escape_normalization=True,
    enable_keyword_filtering=False, enable_ellipsis_filtering=False,
    enable_multiple_json_aggregation=False, enable_object_merging=False,
)
CONFIGS = (DEFAULT_CONFIG, FLIPPED)


def _outcome(res) -> tuple:
    return (res.ok, res.repaired_json, res.error,
            [(r.layer, r.action, r.position) for r in res.repairs])


def assert_same(text) -> None:
    for cfg in CONFIGS:
        got, want = _outcome(repair(text, cfg)), _outcome(ref_repair(text, cfg))
        assert got == want, (text, cfg)


def assert_same_batch(texts: list) -> None:
    batch = pa.table({"text": pa.array(texts, type=pa.large_string())})
    for cfg in CONFIGS:
        got = repair_arrow_batch(batch, cfg, include_repairs=True)
        want = ref_repair_arrow_batch(batch, cfg, include_repairs=True)
        assert got.equals(want), cfg


def test_reference_is_independent_of_the_package():
    """The frozen copy must not import what it is compared against."""
    for name in sorted(os.listdir(REF_DIR)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(REF_DIR, name), encoding="utf-8").read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            elif isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            else:
                continue
            for m in mods:
                assert not m.startswith("json_remedy_ray.repair"), (name, m)


def test_fixture_corpus_matches_reference():
    texts = [t for _, t, _ in CASES] + list(STRICT_ERROR_CASES)
    for t in texts:
        assert_same(t)
    assert_same_batch(texts)


def _sf_table(name: str, columns: list[str]) -> pa.Table:
    path = os.path.join(SF, name + ".parquet")
    if not os.path.exists(path):
        pytest.skip(f"{path} is not present")
    return pq.read_table(path, columns=columns)


def test_webpage_corpus_matches_reference():
    """The flagged rows of the synthetic webpage corpus (sf0.001)."""
    from json_remedy_ray.sources.corpus import make_webpage_batch
    from json_remedy_ray.stages.repair_stage import _JSONISH_PATTERN, _LITERALISH_PATTERN
    import pyarrow.compute as pc

    docs = _sf_table("documents", ["doc_id", "text", "lang"])
    pages = make_webpage_batch(docs)
    flagged = pc.or_(pc.match_substring_regex(pages["text"], _JSONISH_PATTERN),
                     pc.match_substring_regex(pages["text"], _LITERALISH_PATTERN))
    texts = pages.filter(flagged)["text"].to_pylist()
    assert len(texts) > 100
    for t in texts:
        assert_same(t)
    assert_same_batch(texts)


def test_malformed_props_match_reference():
    """The repair_malformed_props malformation of events.props (sf0.001):
    double quotes turned single and the closing brace cut."""
    props = _sf_table("events", ["props"])["props"].to_pylist()
    texts = [t.replace('"', "'")[:-1] if t and t.endswith("}") else t for t in props]
    assert len(texts) > 100
    for t in texts:
        assert_same(t)
    assert_same_batch(texts)


# inputs at the edges of the single-match fast paths
EDGE_CASES = [
    # a backtick fence spelled with escapes int() accepts
    '{"a": "\\u 060\\u+060\\u0x60json\n{\\"b\\": [1,}\n\\u 060\\u+060\\u0x60"',
    '["\\u0060\\u0060\\u0060{a: 1}\\u0060\\u0060\\u0060",',
    # empty and doubled quotes next to terminators and other chars
    '[""+1]', '[""/x]', '[""]', '["" ]', '[""\n,1]', "{'' : 1, '': ''}", '{"": ""', "['',]",
    # numbers before commas that could start a thousands group
    "[1,234]", "[1,2345]", "[1,23]", '{"a": 1,234}', "[1,\u0663\u0663\u0663]", "[1\u00b2]",
    "[1.5, -0, -0.0, 007, 1e5, 1.]",
    # literals: whole words only, with and without a repair
    "[True, NULL, nullx, None_, TRUE]", "{a: None, b: Null, c: truex}",
    # after an object: key ahead behind non-ASCII or \\s-only whitespace
    '{"a": 1}\x0bb: 2}', '{"a":1}\u00a0"b": 2}', '{"a": 1}, b : 2', '{"a": 1} ,[ ] ',
    # top-level words next to non-ASCII word chars
    "\u00b2true {\"a\": 1}", "\u00e9 true [1]", "caf\u00e9 null", "x\u00b2 1",
    # a top-level quote with its close exactly 80 chars on
    "'" + "a" * 79 + "', [1]", "'" + "a" * 80 + "', [1]", "'" + "a" * 79 + "': 1}",
]


def test_edge_cases_match_reference():
    for t in EDGE_CASES:
        assert_same(t)
    assert_same_batch(EDGE_CASES)


_JSONISH = st.sampled_from(list("{}[]\"':,.0123456789abcTFNeE_ \n\t\\/*`<>-+“”‘’é🚀"))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(st.text(alphabet=_JSONISH, max_size=80))
def test_jsonish_text_matches_reference(s):
    assert_same(s)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.text(max_size=60))
def test_any_unicode_matches_reference(s):
    assert_same(s)


# ---- malformed renderings of generated JSON values -----------------------

_KEYS = st.sampled_from(["a", "id", "name", "x_1", "TODO", "Weiss", "key with space",
                         "é", "q\"t", "true", ""])
_STRS = st.sampled_from(["", "v", "two words", "it's", 'say "hi"', "a\\b", "x//y",
                         "/* c */", "```json\n{\"k\": 1}\n```", "line\nbreak", "🚀",
                         "TODO", "None", "12", "<b>x</b>", "..."])
_SCALARS = (st.none() | st.booleans() | st.integers(-10**20, 10**20)
            | st.floats(allow_nan=False, allow_infinity=False, width=32) | _STRS)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=10,
)


def _render(v, r: dict) -> str:
    """One malformed rendering of ``v``; ``r`` holds the drawn choices."""
    if isinstance(v, dict):
        parts = []
        for k, x in v.items():
            key = (k if r["bare_keys"] and k.isidentifier() else
                   "'" + k + "'" if r["single"] else json.dumps(k))
            parts.append(key + (": " if r["colons"] else " ") + _render(x, r))
        body = (", " if r["commas"] else " ").join(parts)
        if r["comment"]:
            body = "// note\n" + body + " /* end */"
        return "{" + body + ("," if r["trailing"] and parts else "") + "}"
    if isinstance(v, list):
        body = (", " if r["commas"] else " ").join(_render(x, r) for x in v)
        if r["ellipsis"] and v:
            body += ", ..."
        return "[" + body + ("," if r["trailing"] and v else "") + "]"
    if isinstance(v, str):
        return "'" + v + "'" if r["single"] else json.dumps(v, ensure_ascii=r["ascii"])
    if v is None or isinstance(v, bool):
        return {None: "None", True: "True", False: "False"}[v] if r["python"] else json.dumps(v)
    return json.dumps(v)


_CHOICES = st.fixed_dictionaries({k: st.booleans() for k in (
    "bare_keys", "single", "colons", "commas", "comment", "trailing", "ellipsis",
    "python", "ascii", "fence", "prose")})


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_VALUES, _CHOICES, st.integers(0, 400), st.integers(0, 2))
def test_malformed_renderings_match_reference(value, r, cut, extra):
    s = _render(value, r)
    if r["fence"]:
        s = "```json\n" + s + "\n```"
    if r["prose"]:
        s = "Here is the data you asked for, as promised: " + s + " hope this helps!"
    s = s[: len(s) - cut % (len(s) + 1)] if extra == 1 else s
    if extra == 2:
        s = s + " " + s
    assert_same(s)


def test_long_prose_after_object_is_linear():
    """Prose between a top-level object and a later value used to cost a
    slice of the remaining text per prose step (quadratic: ~45 s at 2 MB).
    A 136 KB instance must equal the reference exactly; a ~2 MB one must
    finish within a generous bound with the same value and repairs."""
    def doc(k: int) -> str:
        return '{"a": 1} ' + "some prose word, " * k + " [1"

    assert_same(doc(8_000))
    big = doc(120_000)
    t0 = time.perf_counter()
    res = repair(big)
    elapsed = time.perf_counter() - t0
    want = ref_repair(doc(8_000))
    assert (res.ok, res.repaired_json) == (want.ok, want.repaired_json) == (True, '[{"a":1},[1]]')
    assert [(r.layer, r.action) for r in res.repairs] == [(r.layer, r.action) for r in want.repairs]
    assert elapsed < 10.0, elapsed


def test_long_whitespace_inside_fence_is_linear():
    """The closing-fence search retried its `[ \\t]*` from every position
    of a whitespace run (quadratic: 20,000 spaces took 3.7 s).  A small
    instance must equal the reference; ~1 MB must finish fast."""
    def doc(k: int) -> str:
        return "```json\n" + " " * k + '{"a": [1, 2'

    assert_same(doc(2_000))
    t0 = time.perf_counter()
    res = repair(doc(1_000_000))
    elapsed = time.perf_counter() - t0
    want = ref_repair(doc(2_000))
    assert (res.ok, res.repaired_json) == (want.ok, want.repaired_json) == (True, '{"a":[1,2]}')
    assert elapsed < 10.0, elapsed
