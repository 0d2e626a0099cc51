"""``stages/rank.kth_keys``, the one order-statistics helper, against a
numpy lexsort: ties, the first and the n-th rank, NULL groups, groups
that want no rank, int64 extremes, negative and float keys, and the
coarsening and pull rounds forced by shrinking ``NB`` and ``PULL_CAP``.

The derandomized property tests run the helper's passes in-process
(``rank._pass`` replaced by a local tree merge over the test's blocks);
one test runs the same rounds through Ray Data."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from json_remedy_ray.stages import rank

I64 = st.integers(-(1 << 63), (1 << 63) - 1)
INT_KEYS = st.one_of(st.sampled_from([-(1 << 63), (1 << 63) - 1, -1, 0, 1]),
                     st.integers(-3, 3), I64)
FLOAT_KEYS = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1.5]),
                       st.floats(allow_nan=False))


def _local_pass(blocks, passes, cap="NB"):
    """``rank._pass`` in-process: ``block_fn`` per block, then merges of
    two partials at a time up to the driver's final merge.  Every
    partial holds at most ``rank.<cap>`` histogram rows per group."""
    def bounded(t: pa.Table) -> pa.Table:
        if t.num_rows:
            hist = t.filter(pc.greater_equal(t["shift"], 0))
            assert max(pc.value_counts(hist["g"]).field("counts")
                       .to_pylist(), default=0) <= getattr(rank, cap)
        return t

    def run(ds, block_fn, merge_fn):
        passes.append(1)
        parts = [bounded(block_fn(b)) for b in blocks]
        while len(parts) > 2:
            parts = [bounded(merge_fn(parts[i:i + 2]))
                     for i in range(0, len(parts), 2)]
        return rank._by_group(merge_fn(parts)) if parts else {}
    return run


def _blocks(table: pa.Table, cuts) -> list[pa.Table]:
    bounds = [0, *sorted(c % (table.num_rows + 1) for c in cuts),
              table.num_rows]
    return [table.slice(a, b - a) for a, b in zip(bounds, bounds[1:])]


def _key_fn(batch: pa.Table):
    tie = batch["t"].to_numpy(zero_copy_only=False) if "t" in \
        batch.column_names else None
    return (batch["g"], rank.order_u64(batch["k"].to_numpy(
        zero_copy_only=False)), tie)


def _ranks(fracs):
    def ranks_fn(g, n):
        if g == "b":                  # a group that wants no rank
            return []
        return [1, n, *(1 + int(f * (n - 1)) for f in fracs)]
    return ranks_fn


def _expected(table: pa.Table, ranks_fn) -> dict:
    g = table["g"].to_pylist()
    k = rank.order_u64(table["k"].to_numpy(zero_copy_only=False))
    t = (table["t"].to_numpy(zero_copy_only=False)
         if "t" in table.column_names else np.zeros(len(k), np.int64))
    out = {}
    for gv in set(g):
        m = np.array([x == gv for x in g], dtype=bool)
        kk, tt = k[m], t[m]
        o = np.lexsort((tt, kk))
        out[gv] = [(int(kk[o[r - 1]]), int(tt[o[r - 1]]))
                   for r in ranks_fn(gv, int(m.sum()))]
    return out


@st.composite
def cases(draw):
    n = draw(st.integers(0, 40))
    keys = draw(st.lists(draw(st.sampled_from([INT_KEYS, FLOAT_KEYS])),
                         min_size=n, max_size=n))
    cols = {"g": pa.array(draw(st.lists(st.sampled_from(["a", "b", "c", None]),
                                        min_size=n, max_size=n)),
                          pa.string()),
            "k": pa.array(keys, pa.float64() if any(
                isinstance(x, float) for x in keys) else pa.int64())}
    if draw(st.booleans()):
        cols["t"] = pa.array(draw(st.lists(st.integers(-2, 2), min_size=n,
                                           max_size=n)), pa.int64())
    cuts = draw(st.lists(st.integers(0, 40), max_size=4))
    return (pa.table(cols), cuts, draw(st.integers(2, 5)),
            draw(st.integers(0, 6)),
            draw(st.lists(st.floats(0, 1), max_size=3)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cases())
def test_kth_keys_matches_lexsort(case):
    table, cuts, nb, pull_cap, fracs = case
    passes: list = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank, "NB", nb)
        mp.setattr(rank, "PULL_CAP", pull_cap)
        mp.setattr(rank, "_pass", _local_pass(_blocks(table, cuts), passes))
        got = rank.kth_keys(None, _key_fn, _ranks(fracs))
    assert got == _expected(table, _ranks(fracs))
    assert len(passes) >= 1


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(cases(), st.integers(1, 8))
def test_kth_keys_slack_stops_within_slack_rows(case, slack):
    """A slack stop answers a key at or below the exact one with at
    most ``slack`` rows between them: r - slack <= #(key < answer) < r.
    Its partials keep at most ``NB_SLACK`` buckets, whatever ``NB``."""
    table, cuts, nb, pull_cap, fracs = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rank, "NB_SLACK", nb)
        mp.setattr(rank, "PULL_CAP", pull_cap)
        mp.setattr(rank, "_pass",
                   _local_pass(_blocks(table, cuts), [], cap="NB_SLACK"))
        got = rank.kth_keys(None, _key_fn, _ranks(fracs),
                            slack=lambda n: slack)
    want = _expected(table, _ranks(fracs))
    g = np.array(table["g"].to_pylist(), dtype=object)
    k = rank.order_u64(table["k"].to_numpy(zero_copy_only=False))
    for gv, answers in got.items():
        kk = k[np.array([x == gv for x in g], dtype=bool)]
        for r, (key, tie), exact in zip(_ranks(fracs)(gv, len(kk)), answers,
                                        want[gv]):
            if tie is None:
                below = int((kk < key).sum())
                assert r - slack <= below < r and key <= exact[0]
            else:
                assert (key, tie) == exact


def test_kth_keys_one_pass_when_keys_fit():
    """Keys that fit NB per group resolve in the single histogram pass:
    duplicate keys without ties, or distinct keys with ties.  A rank
    inside a run of one key with different ties costs one pull pass."""
    rng = np.random.default_rng(5)
    n = 3000
    dup = rng.integers(-1000, 1000, n)
    distinct = rng.permutation(np.arange(-1000, n - 1000))
    g = pa.array(np.where(dup % 3 == 0, "x", "y"))
    ranks_fn = _ranks([0.25, 0.5, 0.75])
    for cols, want_passes in (
            ({"k": dup}, 1),
            ({"k": distinct, "t": dup}, 1),
            ({"k": np.full(n, 5), "t": distinct}, 2)):
        t = pa.table({"g": g, **{c: pa.array(v) for c, v in cols.items()}})
        passes: list = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(rank, "_pass", _local_pass(
                _blocks(t, [700, 1500, 2200]), passes))
            assert rank.kth_keys(None, _key_fn, ranks_fn) == \
                _expected(t, ranks_fn)
        assert len(passes) == want_passes


def test_order_u64_round_trips_in_order():
    ints = np.array([-(1 << 63), -5, -1, 0, 1, 7, (1 << 63) - 1])
    floats = np.array([-np.inf, -1e300, -2.5, -0.0, 0.0, 1e-300, 3.0, np.inf])
    for x in (ints, floats):
        u = rank.order_u64(x)
        assert (np.diff(u.astype(object)) > 0).all()
        back = rank.from_order_u64(u, x.dtype)
        assert back.tobytes() == x.tobytes()


def test_kth_keys_through_ray_forced_rounds(ray_session, monkeypatch):
    """The same rounds through Ray Data: NB and PULL_CAP are read on the
    driver, so the shrunk values reach every block task."""
    import ray.data as rd

    rng = np.random.default_rng(7)
    n = 600
    k = np.where(rng.random(n) < 0.3, rng.integers(-(1 << 62), 1 << 62, n),
                 rng.integers(-20, 20, n))
    t = pa.table({"g": pa.array(rng.choice(["p", "q"], n).tolist()),
                  "k": pa.array(k), "t": pa.array(rng.integers(0, 3, n))})
    ranks_fn = _ranks([0.1, 0.33, 0.5, 0.9])
    monkeypatch.setattr(rank, "NB", 4)
    monkeypatch.setattr(rank, "PULL_CAP", 10)
    ds = rd.from_arrow(t).repartition(5)

    def key_fn(batch):     # a closure: Ray ships it by value
        return (batch["g"], rank.order_u64(batch["k"].to_numpy()),
                batch["t"].to_numpy())

    assert rank.kth_keys(ds, key_fn, ranks_fn) == _expected(t, ranks_fn)
