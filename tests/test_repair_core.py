"""Conformance tests for the pure-Python repair core (no Ray)."""

from __future__ import annotations

import os

import pytest

from json_remedy_ray import RepairConfig, analyze, can_repair, repair, repair_to_string
from tests.fixtures_corpus import CASES, STRICT_ERROR_CASES


@pytest.mark.parametrize(
    "category,input_text,expected",
    CASES,
    ids=[f"{c}-{i}" for i, (c, _, _) in enumerate(CASES)],
)
def test_conformance(category, input_text, expected):
    res = repair(input_text)
    assert res.ok, f"repair failed: {res.error} (repairs={res.repairs})"
    assert res.repaired_json == expected


@pytest.mark.parametrize("input_text", STRICT_ERROR_CASES)
def test_strict_mode_rejects(input_text):
    res = repair(input_text, RepairConfig(strict_mode=True))
    assert not res.ok


def test_strict_mode_accepts_valid():
    res = repair('{"a": 1}', RepairConfig(strict_mode=True))
    assert res.ok and res.repaired_json == '{"a":1}'


def test_repair_to_string():
    ok, out = repair_to_string("{key: 'v'}")
    assert ok and out == '{"key":"v"}'


def test_analyze_collects_layer_tags():
    acts = analyze('```json\n{key: 1,}\n```')
    layers = {a["layer"] for a in acts}
    assert "content_cleaning" in layers
    assert "syntax_normalization" in layers


def test_can_repair():
    assert can_repair("{key: 1}")
    assert can_repair('```json {"a":1} ```')
    assert not can_repair("")


def test_valid_json_has_no_repairs():
    res = repair('{"a": [1, 2, {"b": null}]}')
    assert res.ok and res.repairs == []


def test_logging_missing_quote_has_repairs():
    res = repair('{"key": "value}')
    assert res.ok and res.repaired_json == '{"key":"value"}'
    assert len(res.repairs) > 0


def test_deep_nesting_guard():
    # malformed (unclosed) deep nesting cannot take the fast path and must
    # hit the parser's depth guard gracefully, never crash
    deep = "[" * 200
    res = repair(deep, RepairConfig(max_parse_depth=64))
    assert not res.ok
    assert "depth" in res.error


def test_giant_doc_guard():
    res = repair("x" * 100, RepairConfig(max_doc_bytes=10))
    assert not res.ok


_GOLDEN_INVALID_JSON = "/root/reference/test/data/invalid.json"


@pytest.mark.skipif(
    not os.path.exists(_GOLDEN_INVALID_JSON),
    reason="reference corpus test/data/invalid.json is not checked out; "
           "its 6 repaired records are not recorded in this repo")
def test_reference_golden_file():
    """Reference test/data/invalid.json (271-line corpus used by the
    from_file doctest): repairs to a non-empty list
    (recent_python_cases_test.exs:238-242)."""
    from json_remedy_ray.sources.readers import read_and_repair_file

    r = read_and_repair_file(_GOLDEN_INVALID_JSON)
    assert r.ok and isinstance(r.value, list) and len(r.value) == 6
    assert all(isinstance(x, dict) for x in r.value)
    # the two malformations: unquoted multi-word value + missing final ]
    actions = [x.action for x in r.repairs]
    assert any("Weiss Savage" in a for a in actions)
    assert any("closing bracket" in a for a in actions)


def test_determinism():
    s = "{'a': 1, b: True, \"c\": [1, 2,]}"
    assert repair(s).repaired_json == repair(s).repaired_json == '{"a":1,"b":true,"c":[1,2]}'


def test_doubled_quotes_ambiguous_and_performance():
    """The two doubled-quotes cases not in the exact-match corpus
    (doubled_quotes_test.exs): the ambiguous mid-string case accepts any
    ok repair; the 100-pair performance case must repair cleanly."""
    import json

    r = repair('{"message": "He said ""hello"" to me"}')
    assert r.ok  # reference: "could be malformed or intentional - accept either"

    pairs = ", ".join(f'""key{i}"": ""value{i}""' for i in range(1, 101))
    r = repair("{" + pairs + "}")
    assert r.ok
    d = json.loads(r.repaired_json)
    assert d["key1"] == "value1" and len(d) == 100
    assert '""""' not in r.repaired_json


def test_bytes_input_parity():
    """Elixir binaries are UTF-8 byte blobs; repair/2's `when is_binary`
    guard (lib/json_remedy.ex:86) admits them, so the Python surface
    accepts bytes/bytearray and decodes UTF-8."""
    assert repair(b'{"a": 1,}').repaired_json == '{"a":1}'
    assert repair(bytearray(b"[1,2,]")).repaired_json == "[1,2]"
    assert repair('{"k": "é"}'.encode()).repaired_json == '{"k":"é"}'
    r = repair(b"\xff\xfe{}")
    assert not r.ok and "UTF-8" in r.error


def test_debug_parse_step_uses_the_full_config():
    """repair_with_debug's tolerant-parse step runs with the same keyword
    and ellipsis switches as repair(): with both filters off, the step
    sees every repair the authoritative result carries."""
    from json_remedy_ray.repair.debug import repair_with_debug

    cfg = RepairConfig(enable_keyword_filtering=False, enable_ellipsis_filtering=False)
    out = repair_with_debug("{a: 1, TODO, b: [1, 2, ...]}", cfg)
    parse_step = [s for s in out["steps"] if s["layer"] == "tolerant_parse"]
    assert len(out["repairs"]) == 5
    assert parse_step and parse_step[0]["repairs_so_far"] == len(out["repairs"])


def test_debug_times_the_fast_path():
    """The fast-path step reports its measured time, not a constant 0."""
    import json

    from json_remedy_ray.repair.debug import repair_with_debug

    out = repair_with_debug(json.dumps(list(range(20_000))))
    fast = out["steps"][0]
    assert fast["layer"] == "fast_path" and fast["hit"] is True
    assert fast["us"] > 0
