"""Differential test: ``vhash.hash_strings`` against its frozen reference.

``tests/hash_reference`` is a verbatim copy of ``hash_strings``,
``string_view`` and ``_mix64`` as they stood before the per-slice doc sum
became one ``np.add.reduceat`` pass.  Every stored hash depends on these
values (exact dedup, sketches, joins, host bucketing and the ``poly64v2``
lineage tag of ``run_to_parquet``), so every input here must hash to the
same uint64 bits in every column form a batch can arrive in: ``string``
and ``large_string``, sliced at a non-zero offset, split over several
chunks, with null slots spanning garbage bytes, passed as an Arrow
column or as an ``(offsets, data)`` tuple, at several slice sizes and
seeds.  Hypothesis runs derandomized, so the suite sees the same
examples on every run.  Literal values pin the hash itself, so a change
made to both copies still fails.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from json_remedy_ray.functions import vhash
from tests.hash_reference import vhash as ref

_TEXT = st.text(alphabet=st.sampled_from(list("ab \n") + ["é", "中", "\U0001F600"]),
                max_size=40)
# (text, is_null): a null slot keeps its text as garbage bytes
_SLOTS = st.lists(st.tuples(_TEXT, st.booleans()), max_size=24)


def _build(slots, typ, garbage_nulls):
    """One Arrow array; null slots span their text's bytes when
    ``garbage_nulls`` (Arrow only guarantees monotonic offsets)."""
    if not garbage_nulls:
        return pa.array([None if null else t for t, null in slots], typ)
    raw = [t.encode() for t, _ in slots]
    offs = np.concatenate(([0], np.cumsum([len(b) for b in raw])))
    odt = np.int64 if typ == pa.large_string() else np.int32
    valid = pa.array([not null for _, null in slots], pa.bool_())
    return pa.Array.from_buffers(
        typ, len(slots),
        [valid.buffers()[1], pa.py_buffer(offs.astype(odt).tobytes()),
         pa.py_buffer(b"".join(raw))])


@st.composite
def _columns(draw):
    slots = draw(_SLOTS)
    typ = draw(st.sampled_from([pa.string(), pa.large_string()]))
    garbage = draw(st.booleans())
    pre, post = draw(_SLOTS), draw(_SLOTS)
    form = draw(st.sampled_from(["plain", "sliced", "chunked"]))
    if form == "sliced":
        col = _build(pre + slots + post, typ, garbage).slice(len(pre), len(slots))
    elif form == "chunked":
        cuts = sorted(draw(st.lists(st.integers(0, len(slots)), max_size=3)))
        bounds = [0] + cuts + [len(slots)]
        col = pa.chunked_array(
            [_build(slots[a:b], typ, garbage) for a, b in zip(bounds, bounds[1:])],
            typ)
    else:
        col = _build(slots, typ, garbage)
    slice_bytes = draw(st.sampled_from([1, 7, 64, vhash._SLICE_BYTES]))
    seed = draw(st.sampled_from([0, 7, 2**64 - 1]))
    return col, slice_bytes, seed


def _both(fn, slice_bytes):
    saved = vhash._SLICE_BYTES, ref._SLICE_BYTES
    try:
        vhash._SLICE_BYTES = ref._SLICE_BYTES = slice_bytes
        return fn()
    finally:
        vhash._SLICE_BYTES, ref._SLICE_BYTES = saved


@settings(max_examples=400, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_columns())
def test_hash_strings_matches_reference(arg):
    col, slice_bytes, seed = arg

    def run():
        got = vhash.hash_strings(col, seed=seed)
        want = ref.hash_strings(col, seed=seed)
        got_t = vhash.hash_strings(vhash.string_view(col), seed=seed)
        want_t = ref.hash_strings(ref.string_view(col), seed=seed)
        return got, want, got_t, want_t

    got, want, got_t, want_t = _both(run, slice_bytes)
    assert got.dtype == np.uint64 and len(got) == len(col)
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(got_t, want_t)
    np.testing.assert_array_equal(got_t, got)


def test_string_view_and_mix64_match_reference():
    col = _build([("ab", False), ("GAR", True), ("中", False)],
                 pa.large_string(), True).slice(1, 2)
    (o1, d1), (o2, d2) = vhash.string_view(col), ref.string_view(col)
    np.testing.assert_array_equal(o1, o2)
    np.testing.assert_array_equal(d1[o1[0]:o1[-1]], d2[o2[0]:o2[-1]])
    x = np.array([0, 1, 2**63, 2**64 - 1, 0x9E3779B97F4A7C15], np.uint64)
    np.testing.assert_array_equal(vhash._mix64(x), ref._mix64(x))


_PINNED = ["", "a", "hello", "é中\nx", "the quick brown fox " * 50]


@pytest.mark.parametrize("seed,want", [
    (0, [0, 12814937030995114206, 13852140200877454414,
         13006782119000079299, 18059791506898949155]),
    (7, [1346066267577507604, 17452183527899600070, 17728452345160946351,
         7438773825577894072, 10890899637596474933]),
])
@pytest.mark.parametrize("slice_bytes", [1, 7, 64, vhash._SLICE_BYTES])
def test_hash_strings_pinned_values(seed, want, slice_bytes):
    col = pa.array(_PINNED, pa.string())
    got, got_ref = _both(lambda: (vhash.hash_strings(col, seed=seed),
                                  ref.hash_strings(col, seed=seed)), slice_bytes)
    assert [int(v) for v in got] == want
    assert [int(v) for v in got_ref] == want
