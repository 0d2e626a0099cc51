"""Regression tests for the round-1 code-review findings (all fixed)."""

from __future__ import annotations

import json

import pyarrow as pa

from json_remedy_ray import repair
from json_remedy_ray.repair.layer3 import fix_colons, normalize_quotes


def test_fix_colons_position_aware():
    assert fix_colons('{"key" "value"}') == '{"key": "value"}'
    # missing comma between VALUES must not become a colon
    assert fix_colons('{"a": "x" "y"}') == '{"a": "x" "y"}'
    assert fix_colons('["a" "b"]') == '["a" "b"]'
    assert fix_colons('{"a": {"k" "v"}, "b" "c"}') == '{"a": {"k": "v"}, "b": "c"}'


def test_normalize_quotes_unescapes_single_quote():
    out = normalize_quotes("{'a': 'it\\'s'}")
    assert json.loads(out) == {"a": "it's"}


def test_scrub_bare_card_number():
    from json_remedy_ray.stages.scrub import scrub_batch

    b = scrub_batch(pa.table({"text": ["my card is 4111111111111111 ok"]}))
    assert "<CARD>" in b["scrubbed_text"][0].as_py()
    assert b["pii_count"][0].as_py() >= 1


def _scrub_two_passes(col: pa.ChunkedArray) -> pa.Table:
    """scrub_batch as it ran before the union pass: both detectors over
    every row."""
    import numpy as np
    import pyarrow.compute as pc

    from json_remedy_ray.stages.scrub import _PII_PATTERNS, _PREFILTER, _TOXIC_ARROW_RE

    cand = np.nonzero(pc.match_substring_regex(col, _PREFILTER).to_numpy(zero_copy_only=False))[0]
    toxic = pc.and_kleene(pc.is_valid(col), pc.match_substring_regex(col, _TOXIC_ARROW_RE))
    scrubbed = pc.cast(pc.fill_null(col, ""), pa.large_string()).to_pylist()
    pii = [0] * len(scrubbed)
    for i in cand:
        for token, pat in _PII_PATTERNS:
            scrubbed[i], k = pat.subn(f"<{token}>", scrubbed[i])
            pii[i] += k
    return pa.table({"scrubbed_text": pa.array(scrubbed, pa.large_string()),
                     "pii_count": pa.array(pii, pa.int32()),
                     "toxic": pc.fill_null(toxic, False)})


def test_scrub_union_pass_matches_two_passes():
    from json_remedy_ray.stages.scrub import scrub_batch

    texts = ["a@b", "555-1234", "BADWORD1!", "xbadword1", "\u017flur1", "1.2.3.4", "Slur2",
             None, "clean text", "", "mail a@b.co or 555-1234, badword2"]
    for rows in (texts, texts[7:9], ["clean"], [None]):
        col = pa.chunked_array([pa.array(rows, pa.string())])
        got = scrub_batch(pa.table({"text": col})).drop_columns(["text"])
        assert got.equals(_scrub_two_passes(col)), rows


def test_quoted_fence_string_survives_layer1():
    # escaped newlines + escaped quotes inside a properly quoted fence value
    s = '{\'a\': "```json\\n{\\"x\\": 1}\\n```"}'
    assert repair(s).value == {"a": {"x": 1}}


def test_deep_fence_unwrap_not_capped_by_reentry_depth():
    deep = {"a": {"b": {"c": {"d": '```json\n{"x": 1}\n```'}}}}
    r = repair(json.dumps(deep).replace('"a"', "'a'"))  # force repair path
    assert r.value["a"]["b"]["c"]["d"] == {"x": 1}


def test_bare_sign_key_does_not_leak_sentinel():
    assert repair("{-: 1}").repaired_json == "{}"
    assert repair("{.: 2, \"a\": 3}").repaired_json == '{"a":3}'


def test_simhash_max_hamming_respected(ray_session):
    import ray.data as rd

    from json_remedy_ray.stages.dedup import simhash_dedup_pairs

    docs = [
        {"doc_id": 0, "text": "alpha beta gamma delta epsilon zeta eta theta"},
        {"doc_id": 1, "text": "alpha beta gamma delta epsilon zeta eta iota"},
    ]
    loose = simhash_dedup_pairs(rd.from_items(docs), max_hamming=20).to_pandas()
    strict = simhash_dedup_pairs(rd.from_items(docs), max_hamming=0).to_pandas()
    assert len(loose) >= len(strict)
    if len(loose):
        assert (loose["hamming"] <= 20).all()


def test_read_whole_file_mode(ray_session, tmp_path):
    from json_remedy_ray.sources.readers import read_and_repair_text

    p = tmp_path / "doc.json"
    p.write_text("{\n  'a': 1,\n  'b': [1, 2,\n}\n")
    df = read_and_repair_text(str(p), line_mode=False).to_pandas()
    assert len(df) == 1
    assert json.loads(df["repaired_json"][0]) == {"a": 1, "b": [1, 2]}


def test_crash_resume_no_duplicates(ray_session, tmp_path):
    import glob
    import os

    import pyarrow.parquet as pq
    import ray.data as rd

    from json_remedy_ray.pipelines.quality_filter import FLAGSHIP_COLUMNS, run_to_parquet
    from json_remedy_ray.sources.corpus import build_webpages

    corpus = build_webpages("/root/testdata/sf0.001", str(tmp_path / "pages"), num_files=4)
    out = str(tmp_path / "out")
    run_to_parquet(rd.read_parquet(corpus, columns=FLAGSHIP_COLUMNS), out, num_buckets=8)
    # simulate a crash: one bucket's data exists but its manifest was lost
    manifests = sorted(glob.glob(out + "/_manifests/*.json"))
    os.remove(manifests[0])
    run_to_parquet(rd.read_parquet(corpus, columns=FLAGSHIP_COLUMNS), out, num_buckets=8)
    total = sum(pq.read_metadata(f).num_rows for f in glob.glob(out + "/host_bucket=*/*.parquet"))
    assert total == 500


# ---------------------------------------------------------------- round 2

import pytest


def test_dup_line_frac_cr_only_separators():
    """Round-2 review: '\r'-separated duplicate lines must score like the
    scalar splitlines() semantics."""
    import pyarrow as pa

    from json_remedy_ray.stages.heuristics import doc_features, heuristics_batch

    texts = ["dup\rdup", "dup\vdup", "a\u2028a", "x\ny\nx", "single line"]
    out = heuristics_batch(pa.table({"text": texts}))
    for t, got in zip(texts, out["dup_line_frac"].to_pylist()):
        want = doc_features(t)[5]
        assert got == pytest.approx(want, abs=1e-6), t


def test_prefilter_unicode_whitespace_parity():
    """Round-2 review: unicode-whitespace-prefixed literals must not take
    the vectorized plain-text shortcut."""
    import pyarrow as pa

    from json_remedy_ray.repair.pipeline import repair as scalar_repair
    from json_remedy_ray.stages.repair_stage import repair_arrow_batch

    texts = ["\xa05", "\u20285", "\x1c-.5", "\u3000true", "\x85null", "plain text"]
    out = repair_arrow_batch(pa.table({"text": texts}))
    for t, got in zip(texts, out["repaired_json"].to_pylist()):
        r = scalar_repair(t)
        assert got == (r.repaired_json if r.ok else ""), repr(t)


def test_fix_doubled_quotes_adjacent_empty_strings():
    from json_remedy_ray.repair.layer3 import fix_doubled_quotes

    assert fix_doubled_quotes('["", ""]') == '["", ""]'
    assert fix_doubled_quotes('{"a": "", "b": ""}') == '{"a": "", "b": ""}'
    # separated legitimate empty strings (second review round): untouched
    assert fix_doubled_quotes('["", 1, ""]') == '["", 1, ""]'
    assert fix_doubled_quotes('[[""], ""]') == '[[""], ""]'
    # comma/structural content is the context-aware layer-5 parser's job,
    # not the standalone regex pass
    assert fix_doubled_quotes('{"k": ""105,12""}') == '{"k": ""105,12""}'
    import json

    from json_remedy_ray import repair
    assert json.loads(repair('{"k": ""105,12""}').repaired_json) == {"k": "105,12"}


def test_escape_normalization_preserves_escaped_backslash():
    from json_remedy_ray.repair.preprocessing import normalize_escape_sequences

    out, _ = normalize_escape_sequences('{"p": "C:\\\\network"}')
    assert out == '{"p": "C:\\\\network"}'  # escaped backslash untouched
    out, _ = normalize_escape_sequences('{"p": "a\\tb"}')
    assert out == '{"p": "a\tb"}'           # true literal escape converted


def test_giant_identical_bucket_stays_connected(ray_session):
    """Round-2 review: >512 identical docs in one LSH bucket must still
    form ONE component (1-row chunk overlap keeps runs connected)."""
    import pandas as pd
    import ray.data as rd

    from json_remedy_ray.stages.dedup import components_from_pairs, simhash_dedup_pairs

    n = 1200  # > 2 * _BUCKET_CHUNK rows per band bucket
    df = pd.DataFrame({"doc_id": range(n), "text": ["identical text here"] * n})
    pairs = simhash_dedup_pairs(rd.from_pandas(df), max_hamming=3).to_pandas()
    comp = components_from_pairs(pairs)
    assert len(comp) == n
    assert (comp["dup_of"] == 0).all()  # every doc maps to the min id


def test_doubled_quote_review_regressions():
    """Third review round: the quote-run logic must not regress round-1
    recovery for empty strings followed by whitespace / missing commas,
    numeric set coercion, or unterminated doubled strings."""
    import json

    from json_remedy_ray import repair

    cases = [
        ('{"a": ""\n"b": 1}', {"a": "", "b": 1}),
        ('["" 1]', ["", 1]),
        ('{"key": "" "value2"}', {"key": "", "value2": ""}),
        ('{1, 2, 3}', ["1", "2", "3"]),            # numeric set stays array
        ('{-1.5, 2.5}', ["-1.5", "2.5"]),
        ('{"key", 105,12,}', {"key": "105,12"}),   # quoted-key rule intact
        ('[""a": 1]', ["a", 1]),
    ]
    for inp, want in cases:
        r = repair(inp)
        assert r.ok and json.loads(r.repaired_json) == want, (inp, r.repaired_json)
    # unterminated doubled string must not swallow the document close
    r = repair('{"a": ""hello, "b": 1}')
    assert r.ok and r.repaired_json.endswith("}")
