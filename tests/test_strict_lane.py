"""The strict-rewrite lane at the top of ``layer5.parse_document``.

The lane rewrites four malformations (ASCII bare keys before ``:``,
plain single-quoted strings, Python-style literals, commas before a
close) and lets json's C scanner read the result.  Every input here must
still give what the frozen repair path in ``tests/repair_reference/``
gives, under both configs of ``tests/test_repair_reference.py``: the
near-misses below sit just past one of the lane's bounds, and the spy
test checks that the lane really takes one record of each kind.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from json_remedy_ray.config import DEFAULT_CONFIG
from json_remedy_ray.repair import layer5, pipeline
from json_remedy_ray.repair.pipeline import repair
from tests.repair_reference.pipeline import repair as ref_repair
from tests.test_repair_reference import CONFIGS, assert_same

NEAR_MISSES = [
    # numbers: Layer 5's bounds, not JSON's
    "[1,234]", "[1, 234]", "[1,2345]", "{a: 1,234}", "[1e5]", "{a: 1e5}", "[007]", "[-0, -0.0, 1.]",
    "[.5]", "[+1]", "[1x]", '[1"]',
    # strings
    '{"a\\"b": 1}', '["a\\"b"]', "['say \"hi\"']", "['it\\'s']", "['it's']", "['']", "{'': ''}",
    '["a\\\'b"]', '["\\u0041\\ud83d\\ude00"]', '["\\u 041"]', '{"a"b: 1}', '["a""b"]',
    "['a'b]", "{'k' : 'v',}",
    # keys
    "{TODO: 1}", "{FOO_BAR: 1}", "{Foo: 1}", "{A: 1}", "{\u00e9: 1}", "{a\u00e9: 1}", "{True: 1}",
    "{true: 1}", "{None: None}", "{_k: 1}", "{k1 : 2}", "{1: 2}",
    # literals
    "[True, False, None, TRUE, FALSE, NULL, Null]", "[Truex, nullx]", "{a: TRUE}",
    # commas
    "[,]", "{,}", "[1,,]", "[,1]", "{a: 1,,}", "[1, ,]", "[1,\n]", "{a: [1,], b: {c: 2,},}",
    # one value to the end
    '{"a":1}{"b":2}', '{a: 1} {b: 2}', "[1, 2, ...]", "{a: 1} trailing words", "[1] 2",
    # whitespace the lane does not read as JSON's
    "{a:\u00a01}", "\u00a0{a: 1}", "{a: 1}\u00a0", "{a:\x0b1}",
    # a raw newline inside a string
    '{"a": "x\ny"}', "{'a': 'x\ny'}",
    # duplicate keys, empty containers
    "{a: 1, a: 2}", "{'a': 1, \"a\": True}", "{}", "[]", "[{}]", "{a: []}",
]


def _nested(depth: int, leaf: str = "1") -> str:
    return "[" * depth + leaf + "]" * depth


def test_near_misses_match_reference():
    for t in NEAR_MISSES:
        assert_same(t)


@pytest.mark.parametrize("depth", [63, 64, 65, 128, 129])
def test_nesting_matches_reference(depth):
    """The parser counts two depth steps per level and raises past
    ``max_parse_depth``: the lane must not take what it refuses."""
    for t in (_nested(depth), _nested(depth, "True"), _nested(depth, ""),
              "{a: " * depth + "1" + "}" * depth):
        assert_same(t)


@pytest.mark.parametrize("max_depth", [1, 2, 5, 6])
def test_small_max_parse_depth_matches_reference(max_depth):
    for base in CONFIGS:
        cfg = dataclasses.replace(base, max_parse_depth=max_depth)
        for depth in range(1, 5):
            for t in (_nested(depth), _nested(depth, ""), "{a: " * depth + "None" + "}" * depth):
                got, want = repair(t, cfg), ref_repair(t, cfg)
                assert (got.ok, got.repaired_json, got.error) == (want.ok, want.repaired_json, want.error), t
                assert ([(r.layer, r.action, r.position) for r in got.repairs]
                        == [(r.layer, r.action, r.position) for r in want.repairs]), t


# one record of each malformation the lane rewrites, with the repair it
# records (None: the comma is dropped without one)
LANE_KINDS = [
    ("{name: 1}", "quoted unquoted key 'name'"),
    ("{\"a\": 'x y'}", "normalized single-quoted string"),
    ('{"a": None}', "normalized literal None"),
    ('{"a": [1, 2,],}', None),
]


@pytest.mark.parametrize("text,action", LANE_KINDS)
def test_lane_takes_each_kind_without_the_parser(monkeypatch, text, action):
    """If the lane went dead, these records would still be repaired by
    the general parser and every reference test would pass; here the
    parser may not even be constructed."""
    def refuse(*args, **kwargs):
        raise AssertionError("TolerantParser constructed")

    reached = []
    real = pipeline.parse_document
    monkeypatch.setattr(layer5, "TolerantParser", refuse)
    monkeypatch.setattr(pipeline, "parse_document", lambda *a, **k: reached.append(1) or real(*a, **k))
    for cfg in CONFIGS:
        got, want = repair(text, cfg), ref_repair(text, cfg)
        assert (got.ok, got.repaired_json) == (want.ok, want.repaired_json)
        assert ([(r.layer, r.action, r.position) for r in got.repairs]
                == [(r.layer, r.action, r.position) for r in want.repairs])
        if action is not None:
            assert action in [r.action for r in got.repairs]
    assert len(reached) == len(CONFIGS)


def test_lane_leaves_the_rest_to_the_parser(monkeypatch):
    """A record outside the lane still reaches the general parser."""
    built = []
    real = layer5.TolerantParser
    monkeypatch.setattr(layer5, "TolerantParser", lambda *a, **k: built.append(1) or real(*a, **k))
    assert repair("[1,234, True]", DEFAULT_CONFIG).repaired_json == "[1234,true]"
    assert built == [1]


# runs of the tokens the lane reads, the ones it rewrites, and the ones
# just past its bounds
_TOKENS = st.sampled_from([
    "{", "}", "[", "]", ":", ",", " ", "\n", '"a"', '"b c"', '""', '"\\"q"', '"\\u00e9"', '"\\\'"',
    "'x'", "''", "'it's'", "'a\"b'", "a", "key", "_k", "k1", "TODO", "FOO", "\u00e9",
    "True", "FALSE", "None", "Null", "true", "null", "1", "-2", "3.5", "007", "1e5", "1,234",
    "...", '"x"y', "-", "0", '"', "'", "\u00a0",
])


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(st.lists(_TOKENS, min_size=1, max_size=16).map("".join))
def test_lane_token_runs_match_reference(s):
    assert_same(s)
