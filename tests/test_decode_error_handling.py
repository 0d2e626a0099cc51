"""Full port of the reference Layer-4 decode-error-handling suite.

Reference: test/layer4/decode_error_handling_test.exs (35 tests).  Every
`{:continue}` row asserts the fast path rejects the input (False, None)
— and, beyond the reference's layer-4-only scope, that the FULL repair
pipeline then fixes it into parseable JSON (with the exact expected
value where the repair is unambiguous).
"""

from __future__ import annotations

import json
import time

import pytest

from json_remedy_ray import repair
from json_remedy_ray.repair.layer4 import try_fast_path


def _continues_then_repairs(inp, want=None):
    assert try_fast_path(inp) == (False, None)
    res = repair(inp)
    assert res.ok, (inp, res.error)
    parsed = json.loads(res.repaired_json)
    if want is not None:
        assert parsed == want, (inp, parsed)
    return parsed


# -------------------------- invalid JSON syntax (exs:8-66)

def test_missing_closing_brace():
    _continues_then_repairs('{"name": "Alice", "age": 30', {"name": "Alice", "age": 30})


def test_missing_closing_bracket():
    _continues_then_repairs("[1, 2, 3, 4", [1, 2, 3, 4])


def test_missing_opening_brace():
    _continues_then_repairs('"name": "Alice", "age": 30}')


def test_missing_opening_bracket():
    _continues_then_repairs("1, 2, 3, 4]")


def test_mismatched_delimiters():
    _continues_then_repairs('{"array": [1, 2, 3}', {"array": [1, 2, 3]})


@pytest.mark.parametrize("inp", [
    '{"name": "Alice"}}}',
    "[1, 2, 3]]]",
    '{{{"name": "Alice"}',
    "[[[1, 2, 3]",
])
def test_extra_delimiters(inp):
    _continues_then_repairs(inp)


@pytest.mark.parametrize("inp", [
    '{"name: "Alice"}',
    '{name": "Alice"}',
    '{"name": Alice"}',
    '{"name": "Alice}',
])
def test_malformed_string_syntax(inp):
    _continues_then_repairs(inp)


@pytest.mark.parametrize("inp,want", [
    ('{"name" "Alice"}', {"name": "Alice"}),
    ('{"name": "Alice" "age": 30}', {"name": "Alice", "age": 30}),
    ('{,"name": "Alice"}', {"name": "Alice"}),
    ('{"name": "Alice",}', {"name": "Alice"}),
    ('{"name":}', {"name": ""}),
])
def test_malformed_object_syntax(inp, want):
    _continues_then_repairs(inp, want)


@pytest.mark.parametrize("inp,want", [
    ("[1 2 3]", [1, 2, 3]),
    ("[,1, 2, 3]", [1, 2, 3]),
    ("[1, 2, 3,]", [1, 2, 3]),
    ("[1, , 3]", [1, 3]),
    ("[1, 2, ]", [1, 2]),
])
def test_malformed_array_syntax(inp, want):
    _continues_then_repairs(inp, want)


# ------------------------------- truncated JSON (exs:135-215)

def test_truncated_simple_object():
    _continues_then_repairs('{"name": "Al', {"name": "Al"})


def test_truncated_nested_structure():
    inp = '{\n  "users": [\n    {"name": "Alice", "age": 30},\n    {"name": "Bob", "age":\n'
    parsed = _continues_then_repairs(inp)
    assert parsed["users"][0] == {"name": "Alice", "age": 30}


def test_truncated_array():
    parsed = _continues_then_repairs('[1, 2, 3, "hello", {"name": "Alice')
    assert parsed[:4] == [1, 2, 3, "hello"]


@pytest.mark.parametrize("inp", [
    '{"message": "This is a long message that gets cut off in the mid',
    '{"description": "Another truncated',
    '["item1", "item2", "incomplete',
])
def test_truncated_string_values(inp):
    _continues_then_repairs(inp)


@pytest.mark.parametrize("inp,want", [
    ('{"value": 123.45', {"value": 123.45}),
    ('{"scientific": 1.23e', {"scientific": 1.23}),
    ("[1, 2, 3.14159", [1, 2, 3.14159]),
])
def test_truncated_numeric_values(inp, want):
    _continues_then_repairs(inp, want)


@pytest.mark.parametrize("inp", [
    '{"active": tr',
    '{"active": fal',
    '{"value": nu',
    "[true, false, nul",
])
def test_truncated_keywords(inp):
    _continues_then_repairs(inp)


# -------------------------------- unquoted keys (exs:217-284)

@pytest.mark.parametrize("inp,want", [
    ('{name: "Alice", age: 30}', {"name": "Alice", "age": 30}),
    ('{"name": "Alice", age: 30, "active": true}',
     {"name": "Alice", "age": 30, "active": True}),
    ('{user_name: "Alice", user_age: 30, is_active: true}',
     {"user_name": "Alice", "user_age": 30, "is_active": True}),
    ('{key1: "value1", key2: "value2", item_3: "value3"}',
     {"key1": "value1", "key2": "value2", "item_3": "value3"}),
    ('[{name: "Alice"}, {name: "Bob"}, {name: "Charlie"}]',
     [{"name": "Alice"}, {"name": "Bob"}, {"name": "Charlie"}]),
])
def test_unquoted_keys(inp, want):
    _continues_then_repairs(inp, want)


def test_unquoted_keys_nested():
    inp = ('{\n user: {\n  name: "Alice",\n  profile: {\n   city: "NYC",\n'
           '   preferences: {\n    theme: "dark"\n   }\n  }\n }\n}')
    want = {"user": {"name": "Alice", "profile": {"city": "NYC",
                                                  "preferences": {"theme": "dark"}}}}
    _continues_then_repairs(inp, want)


# --------------------------- Python-style literals (exs:286-360)

@pytest.mark.parametrize("inp,want", [
    ('{"active": True, "verified": False}', {"active": True, "verified": False}),
    ('{"active": TRUE, "verified": FALSE}', {"active": True, "verified": False}),
    ('{"value": None, "data": None}', {"value": None, "data": None}),
    ('{"active": True, "count": null, "verified": False}',
     {"active": True, "count": None, "verified": False}),
    ('[True, False, None, "actual_string"]', [True, False, None, "actual_string"]),
    ('{"val1": NULL, "val2": Null, "val3": null}',
     {"val1": None, "val2": None, "val3": None}),
])
def test_python_style_literals(inp, want):
    _continues_then_repairs(inp, want)


def test_complex_python_style_structure():
    inp = ('{\n "user": {\n  "active": True,\n  "verified": False,\n'
           '  "metadata": None,\n  "permissions": [True, False, True]\n }\n}')
    want = {"user": {"active": True, "verified": False, "metadata": None,
                     "permissions": [True, False, True]}}
    _continues_then_repairs(inp, want)


# ------------------------ context / input preservation (exs:362-430)

@pytest.mark.parametrize("inp", [
    "{name: 'Alice', age: 30}",
    "[1, 2, 3,]",
    '{"incomplete": ',
    '{\'mixed\': "quotes"}',
])
def test_preserves_original_input(inp):
    # the fast path returns NO partial value on failure (the caller keeps
    # its own reference, so pass-through content is trivially exact) —
    # the meaningful contract is (False, None), nothing half-parsed
    assert try_fast_path(inp) == (False, None)


@pytest.mark.parametrize("inp", [
    "{'a': 1}", "{a: 1}", "{\u201ca\u201d: 1}", "{ }", '{\t"a": 1}', '{\x0b"a": 1}',
    ' \n{\r\n "a": {b: 1}}', "{}", '{"a": 1}', "{", "{ ", '[{"a": 1}, {a: 1}]', "{\n}",
])
def test_fast_path_agrees_with_json_loads(inp):
    """Objects whose first member cannot be JSON are refused before the C
    scanner runs; every answer is still json.loads's."""
    try:
        want = (True, json.loads(inp))
    except json.JSONDecodeError:
        want = (False, None)
    assert try_fast_path(inp) == want


def test_fast_path_failure_adds_no_repairs():
    # the fast path itself never fabricates repairs; repairs only appear
    # once the repair layers actually act
    res = repair('{"clean": 1}')
    assert res.repairs == []


@pytest.mark.parametrize("inp", ["", " ", "{", "}", "null", "undefined", "NaN", "Infinity"])
def test_edge_case_inputs_never_crash(inp):
    ok, v = try_fast_path(inp)
    assert ok in (True, False)  # succeed or continue, never raise
    res = repair(inp)
    assert res.ok or res.error  # full pipeline also never raises


# ----------------------------------- performance (exs:432-499)

def test_fails_fast_for_invalid_input():
    try_fast_path("{warm_up")
    t0 = time.perf_counter()
    for _ in range(100):
        assert try_fast_path("{clearly_not_json_at_all") == (False, None)
    assert (time.perf_counter() - t0) / 100 < 0.001


def test_large_malformed_input_efficient():
    rows = ",\n".join(f'{{name: User{i}, id: {i}, active: True}}' for i in range(1, 1001))
    large = '{\n  users: [\n' + rows + '\n  ],\n  total: 1000\n'
    t0 = time.perf_counter()
    assert try_fast_path(large) == (False, None)
    assert time.perf_counter() - t0 < 0.05  # fail fast even at this size
    res = repair(large)  # and the repair pipeline still fixes it
    assert res.ok
    parsed = json.loads(res.repaired_json)
    assert parsed["total"] == 1000 and len(parsed["users"]) == 1000


def test_no_leak_on_repeated_invalid_attempts():
    for _ in range(100):
        assert try_fast_path("{malformed: json, without: quotes}") == (False, None)
