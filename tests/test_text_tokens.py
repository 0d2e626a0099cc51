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
    # a data buffer that ends where its last value does (as object-store
    # blocks do), with the byte 0x85 after it: pyarrow 16's split reads
    # past the end and glues the final space to the last token
    # (also when "" rows follow that value, or the value is all space)
    for tail in (["ends in space "], ["ends in space ", ""],
                 ["ends in space ", "", ""], [" ", ""]):
        texts = TEXTS + tail
        full = pa.array(texts, type=typ)
        end = len("".join(t for t in texts if t).encode())
        data = pa.py_buffer(full.buffers()[2].to_pybytes()[:end] + b"\x85\x00")
        unpadded = pa.Array.from_buffers(typ, len(texts), [
            full.buffers()[0], full.buffers()[1], data.slice(0, end)])
        _check(unpadded, texts, typ)


def test_ws_split_null_typed_column():
    """A null-typed column (a block whose text is all None) gives no
    tokens, also through the lowered-token callers."""
    from json_remedy_ray.stages.perplexity import _doc_bigrams
    from json_remedy_ray.stages.textstats import (
        block_token_counts,
        gopher_ngram_repetition_batch,
        gopher_repetition_batch,
        ws_split_lower,
    )

    for col in (pa.nulls(3), pa.chunked_array([pa.nulls(2), pa.nulls(1)])):
        for split in (ws_split, ws_split_lower):
            flat, parents = split(col)
            assert len(flat) == 0 and flat.type == pa.string()
            assert parents.dtype == np.int64 and len(parents) == 0
        batch = pa.table({"doc_id": [1, 2, 3], "text": col})
        for fn in (gopher_repetition_batch, gopher_ngram_repetition_batch):
            out = fn(batch)
            assert out.num_rows == 3
            assert out["n_words"].to_pylist() == [0, 0, 0]
        toks, cnts = block_token_counts(col)
        assert len(toks) == 0 and len(cnts) == 0
        assert [len(x) for x in _doc_bigrams(col)] == [0, 0, 0]


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
