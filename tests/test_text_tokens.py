"""The one text-token path: ``textstats.ws_split`` tokenizes exactly like
the scalar ``textstats.ws_tokens`` (str.split parity) on every column
shape a batch can carry, and ``vhash.as_array`` hands a one-chunk column
over without a copy."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest

from json_remedy_ray.functions.vhash import as_array
from json_remedy_ray.stages.textstats import ws_split, ws_tokens

TEXTS = [
    "\x1ca\x1db\x1ec\x1fd\x1c",           # ASCII separators 0x1c-0x1f
    "no\xa0break\u3000ideographic",  # NBSP, U+3000
    "   leading run",
    "trailing run \t\n ",
    "\t\n\x0b\x0c\r \x85\u2028  ",  # whitespace only
    "",
    None,
    "one",
    "caf\xe9  na\xefve \u65e5\u672c end",
    "a\u2003b\u202fc\u205fd e",
]


def _expected(texts):
    toks, parents = [], []
    for i, t in enumerate(texts):
        w = ws_tokens(t)
        toks += w
        parents += [i] * len(w)
    return toks, parents


def _check(col, texts, typ):
    flat, parents = ws_split(col)
    want_toks, want_parents = _expected(texts)
    assert flat.type == typ
    assert flat.to_pylist() == want_toks
    assert parents.dtype == np.int64
    assert parents.tolist() == want_parents


@pytest.mark.parametrize("typ", [pa.string(), pa.large_string()])
def test_ws_split_matches_ws_tokens(typ):
    arr = pa.array(TEXTS, type=typ)
    _check(arr, TEXTS, typ)
    _check(pa.chunked_array([arr]), TEXTS, typ)
    # two chunks
    two = pa.chunked_array([arr.slice(0, 4), arr.slice(4)])
    assert two.num_chunks == 2
    _check(two, TEXTS, typ)
    # a sliced single chunk: offset != 0, and rows outside the slice
    # must give no tokens
    padded = pa.array(["outside left"] + TEXTS + ["outside right"], type=typ)
    sliced = padded.slice(1, len(TEXTS))
    assert sliced.offset == 1
    _check(sliced, TEXTS, typ)
    _check(pa.chunked_array([sliced]), TEXTS, typ)


def test_ws_split_null_typed_column():
    for col in (pa.nulls(3), pa.chunked_array([pa.nulls(2), pa.nulls(1)])):
        flat, parents = ws_split(col)
        assert len(flat) == 0 and flat.type == pa.string()
        assert parents.dtype == np.int64 and len(parents) == 0


def test_ws_split_no_tokens_at_all():
    _check(pa.array(["", " ", None], type=pa.string()), ["", " ", None],
           pa.string())
    _check(pa.array([], type=pa.large_string()), [], pa.large_string())


def test_as_array_keeps_single_chunk_buffers():
    arr = pa.array(["alpha", "beta", None, "gamma"])
    assert as_array(arr) is arr
    one = as_array(pa.chunked_array([arr]))
    assert one.buffers()[2].address == arr.buffers()[2].address
    sliced = arr.slice(1, 2)
    got = as_array(pa.chunked_array([sliced]))
    assert got.offset == 1
    assert got.buffers()[2].address == arr.buffers()[2].address
    assert got.to_pylist() == ["beta", None]
    two = pa.chunked_array([arr, arr.slice(2)])
    assert as_array(two).to_pylist() == arr.to_pylist() + [None, "gamma"]
    empty = as_array(pa.chunked_array([], type=pa.string()))
    assert isinstance(empty, pa.Array) and len(empty) == 0
