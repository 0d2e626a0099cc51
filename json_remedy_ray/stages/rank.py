"""Order statistics: the key at rank k within its group (``kth_keys``)
and the range-partitioned global sort built on it (``global_rank``).

``kth_keys`` reads the input in rounds and never sorts it.  Round 0 is
the exact (group, key) histogram, block partials tree-merged; a partial
or merge holding more than ``NB`` distinct keys for a group coarsens
that group by a right shift it carries, so a group whose keys fit is
exact after this one pass.  A caller with ``slack`` (approximate cuts)
keeps at most ``NB_SLACK`` buckets instead.  Later rounds read only the
key ranges that still hold a wanted rank: a range of at most
``PULL_CAP`` rows, or of a single key, is pulled to the driver and
sorted; a larger one is histogrammed again.  A bucket also carries its
least and greatest tie, so a rank on the first or last row of a key,
or on a key whose rows share one tie, needs no pull.  ``order_u64`` maps int64 and float64
onto uint64 keys in order.
"""

from __future__ import annotations

import functools

import numpy as np
import pyarrow as pa
import ray
import ray.data as rd

from json_remedy_ray.functions.vhash import as_array
from json_remedy_ray.state.partitioning import block_refs, bucket_exchange, tree_reduce

NB = 1 << 22          # distinct keys a partial keeps per group and range
NB_SLACK = 1 << 12    # the same for a caller with slack
PULL_CAP = 1 << 22    # rows a range may hold and still be pulled whole

_SIGN = np.uint64(1 << 63)


def order_u64(x: np.ndarray) -> np.ndarray:
    """Order-preserving uint64 image of an int64 (sign flip) or float64
    (IEEE total order: -0.0 < 0.0, NaNs at the ends) array."""
    if x.dtype.kind == "f":
        u = x.astype(np.float64).view(np.uint64)
        return np.where(u & _SIGN, ~u, u | _SIGN)
    return x.astype(np.int64).view(np.uint64) ^ _SIGN


def from_order_u64(u, dtype) -> np.ndarray:
    """Inverse of ``order_u64`` for an int64 or float64 ``dtype``."""
    if np.dtype(dtype).kind == "f":
        return np.where(u & _SIGN, u ^ _SIGN, ~u).view(np.float64)
    return (u ^ _SIGN).view(np.int64)


def _col(t: pa.Table, c: str) -> np.ndarray:
    return as_array(t[c]).to_numpy(zero_copy_only=False)


_COLS = ("shift", "b", "cnt", "tmin", "tmax")


def _table(g, *cols) -> pa.Table:
    """A partial: histogram rows (shift, key >> shift, count, least and
    greatest tie) or, with shift -1, pulled rows (-1, key, 1, tie, tie)."""
    return pa.table({"g": g, **dict(zip(_COLS, cols))})


def _fold(g: pa.Array, shift, b, cnt, tmin, tmax, nb: int) -> pa.Table:
    """Histogram of (g, b) rows: each group at its largest shift, raised
    further while it holds more than ``nb`` distinct buckets."""
    enc = g.dictionary_encode(null_encoding="encode")
    sub = enc.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    top = np.zeros(len(enc.dictionary), dtype=np.int64)
    np.maximum.at(top, sub, shift)
    b = b >> (top[sub] - shift).astype(np.uint64)
    o = np.lexsort((b, sub))
    sub, b, cnt, tmin, tmax = sub[o], b[o], cnt[o], tmin[o], tmax[o]
    new = np.ones(len(b), dtype=bool)
    new[1:] = (sub[1:] != sub[:-1]) | (b[1:] != b[:-1])
    for gi in np.nonzero(np.bincount(sub[new], minlength=len(top)) > nb)[0]:
        i, j = np.searchsorted(sub, [gi, gi + 1])
        u, d = b[i:j][new[i:j]], 1
        while np.count_nonzero(np.diff(u >> np.uint64(d))) >= nb:
            d += 1
        b[i:j] >>= np.uint64(d)        # monotone: (sub, b) stays sorted
        top[gi] += d
        new[i + 1:j] = b[i + 1:j] != b[i:j - 1]
    s = np.nonzero(new)[0]
    if len(s):
        cnt, tmin = np.add.reduceat(cnt, s), np.minimum.reduceat(tmin, s)
        tmax = np.maximum.reduceat(tmax, s)
    return _table(enc.dictionary.take(pa.array(sub[s])), top[sub[s]], b[s],
                  cnt, tmin, tmax)


def _merge(tables: list[pa.Table], nb: int) -> pa.Table:
    """Associative merge of partials; pulled rows pass through."""
    tables = [t for t in tables if t.num_rows]   # Ray's may lack columns
    if not tables:
        return pa.table({})
    t = pa.concat_tables(tables, promote_options="permissive")
    raw = _col(t, "shift") < 0
    h = t.filter(pa.array(~raw))
    out = _fold(as_array(h["g"]), *(_col(h, c) for c in _COLS), nb)
    return pa.concat_tables([out, t.filter(pa.array(raw))])


def _block_fn(key_fn, plan, pull, nb):
    """Per-block partial.  Round 0 (``plan`` None) histograms rows by
    group.  Later rounds route a row into its group's planned range
    (``plan[group] = (lo, hi, sub)``, sorted by lo) and histogram it by
    sub id, or emit it raw if ``pull[sub]``; other rows are dropped."""
    def f(batch: pa.Table) -> pa.Table:
        g, key, tie = key_fn(batch)
        g, key = as_array(g), np.asarray(key, dtype=np.uint64)
        ones = np.ones(len(key), dtype=np.int64)
        tie = 0 * ones if tie is None else np.asarray(tie, dtype=np.int64)
        if plan is None:
            return _fold(g, 0 * ones, key, ones, tie, tie, nb)
        enc = g.dictionary_encode(null_encoding="encode")
        code = enc.indices.to_numpy(zero_copy_only=False)
        sub = np.full(len(key), -1, dtype=np.int64)
        for ci, gv in enumerate(enc.dictionary.to_pylist()):
            if gv in plan:
                lo, hi, ids = plan[gv]
                rows = np.nonzero(code == ci)[0]
                k = key[rows]
                i = np.maximum(np.searchsorted(lo, k, side="right") - 1, 0)
                ok = (k >= lo[i]) & (k <= hi[i])
                sub[rows[ok]] = ids[i[ok]]
        raw = np.append(pull, False)[sub]     # sub -1: the appended False
        h = (sub >= 0) & ~raw
        return pa.concat_tables([
            _fold(pa.array(sub[h]), 0 * ones[h], key[h], ones[h], tie[h],
                  tie[h], nb),
            _table(pa.array(sub[raw]), -ones[raw], key[raw], ones[raw],
                   tie[raw], tie[raw])])
    return f


def _by_group(t: pa.Table) -> dict:
    """``{g: (shift, b, cnt, tmin, tmax)}`` of a merged partial, rows
    in order (pulled rows: shift -1, key in b, tie in tmin)."""
    if not t.num_rows:
        return {}
    enc = as_array(t["g"]).dictionary_encode(null_encoding="encode")
    code = enc.indices.to_numpy(zero_copy_only=False)
    o = np.argsort(code, kind="stable")
    bounds = np.searchsorted(code[o], np.arange(len(enc.dictionary) + 1))
    cols = [_col(t, c)[o] for c in _COLS]
    return {gv: tuple(c[bounds[ci]:bounds[ci + 1]] for c in cols)
            for ci, gv in enumerate(enc.dictionary.to_pylist())}


def _pass(ds, block_fn, merge_fn) -> dict:
    """One pass over ``ds``: ``block_fn`` per block, tree-merged, by
    group."""
    refs = block_refs(ds.map_batches(block_fn, batch_format="pyarrow", batch_size=None))
    return _by_group(merge_fn(ray.get(tree_reduce(refs, merge_fn))) if refs
                     else pa.table({}))


def kth_keys(ds: rd.Dataset, key_fn, ranks_fn, slack=None) -> dict:
    """Exact order statistics per group.

    ``key_fn(batch)`` returns ``(group, key, tie)``: a ``pa.Array`` of
    groups (a NULL group is one group, as in SQL GROUP BY), uint64 keys
    and int64 ties, or None when rows rank by key alone (tie 0).
    ``ranks_fn(group, n)`` returns the 1-based ranks wanted among the
    group's ``n`` rows in (key, tie) order; the result is ``{group:
    [(key, tie), ...]}``, one answer per rank.  ``slack``, a function of
    ``n``, lets a rank stop at ``(lower bound, None)`` of a bucket of at
    most ``slack(n)`` rows: approximate cuts for callers that need
    balanced ranges only; their partials keep ``NB_SLACK`` buckets per
    group and range.  Each round is one pass over ``ds``; materialize a
    ``ds`` that is costly to recompute."""
    nb = NB if slack is None else min(NB, NB_SLACK)
    out, pending = {}, {}   # pending: (g, lo, hi) -> [rows, slack, ranks]

    def resolve(gv, sl, h, targets):
        # a bucket is [key, key + 2**s): aligned, so inside its range
        s, b, cnt, tmin, tmax = h
        s, cum = int(s[0]), np.cumsum(cnt)
        for slot, r in targets:
            j = int(np.searchsorted(cum, r))
            r -= int(cum[j - 1]) if j else 0
            c, key = int(cnt[j]), int(b[j]) << s
            if s == 0 and (r == 1 or tmin[j] == tmax[j]):
                out[gv][slot] = (key, int(tmin[j]))
            elif s == 0 and r == c:
                out[gv][slot] = (key, int(tmax[j]))
            elif c <= sl:
                out[gv][slot] = (key, None)
            else:
                rng = (gv, key, key + (1 << s) - 1)
                pending.setdefault(rng, [c, sl, []])[2].append((slot, r))

    merge = functools.partial(_merge, nb=nb)
    for gv, h in _pass(ds, _block_fn(key_fn, None, None, nb), merge).items():
        n = int(h[2].sum())
        ranks = [int(r) for r in ranks_fn(gv, n)]
        assert all(1 <= r <= n for r in ranks), (gv, n, ranks)
        out[gv] = [None] * len(ranks)
        resolve(gv, slack(n) if slack else 0, h, list(enumerate(ranks)))
    while pending:
        subs = sorted(pending.items(), key=lambda p: p[0][1])   # by lo
        pending, plan = {}, {}
        pull = np.array([c <= PULL_CAP or lo == hi
                         for (_, lo, hi), (c, _, _) in subs])
        for i, ((gv, lo, hi), _) in enumerate(subs):
            plan.setdefault(gv, []).append((lo, hi, i))
        plan = {gv: [np.array(c, dtype=np.uint64) for c in zip(*v)]
                for gv, v in plan.items()}
        got = _pass(ds, _block_fn(key_fn, plan, pull, nb), merge)
        for i, ((gv, _, _), (c, sl, targets)) in enumerate(subs):
            if not pull[i]:
                resolve(gv, sl, got[i], targets)
                continue
            _, key, _, tie, _ = got[i]
            assert len(key) == c, ("input changed between passes", c, len(key))
            o = np.lexsort((tie, key))
            for slot, r in targets:
                out[gv][slot] = (int(key[o[r - 1]]), int(tie[o[r - 1]]))
    return out


def column_quantiles(ds: rd.Dataset, col: str, ranks_fn,
                     group_col: str | None = None, dtype=np.int64) -> dict:
    """``{group: values}``: the values of column ``col`` (as int64 or
    float64 ``dtype``) at the ranks ``ranks_fn(group, n)`` among its
    non-NULL values, per ``group_col`` value (one NULL group without
    it), from ``kth_keys``."""
    def keys(batch: pa.Table):
        v = as_array(batch[col])
        g = (pa.nulls(len(v)) if group_col is None
             else as_array(batch[group_col]))
        v, g = v.filter(v.is_valid()), g.filter(v.is_valid())
        return g, order_u64(v.to_numpy(zero_copy_only=False).astype(dtype)), None

    return {g: from_order_u64(np.array([k for k, _ in v], np.uint64), dtype)
            for g, v in kth_keys(ds, keys, ranks_fn).items()}


def global_rank(ds: rd.Dataset, key_col: str, id_col: str,
                n_buckets: int = 32, rank_col: str = "rank") -> rd.Dataset:
    """Dataset with an int or float key -> same rows + ``rank_col`` =
    exact global ROW_NUMBER() ordered by (key DESC, id ASC): cuts from
    ``kth_keys``, a bucket exchange that sorts each bucket locally, and
    a prefix sum of the bucket sizes into rank offsets.  A cut is a key,
    so a tie group lands whole in one bucket (one key held by more than
    1/B of the rows makes a hot bucket, still sorted on one task)."""
    def desc(t: pa.Table) -> np.ndarray:
        return ~order_u64(as_array(t[key_col]).to_numpy(zero_copy_only=False))

    cuts = kth_keys(
        ds, lambda b: (pa.nulls(b.num_rows), desc(b), None),
        lambda _, n: [j * n // n_buckets for j in range(1, n_buckets)
                      if j * n >= n_buckets],
        slack=lambda n: n // n_buckets)
    cut_keys = np.array([k for k, _ in cuts.get(None, [])], dtype=np.uint64)

    def part(tbl: pa.Table):
        return np.searchsorted(cut_keys, desc(tbl), side="right"), tbl

    def reduce_sort(t: pa.Table) -> pa.Table:
        i = t[id_col].to_numpy(zero_copy_only=False).astype(np.int64)
        t = t.take(pa.array(np.lexsort((i, desc(t)))))
        return t.append_column(
            rank_col, pa.array(np.arange(1, t.num_rows + 1), type=pa.int64()))

    ds_schema = ds.schema()
    schema = pa.schema(list(zip(ds_schema.names, ds_schema.types))
                       + [(rank_col, pa.int64())])
    _, reduced = bucket_exchange(block_refs(ds), n_buckets,
                                 part, reduce_sort, schema)

    @ray.remote
    def _nrows(t):
        return t.num_rows

    @ray.remote
    def _shift(t, offset):
        r = (t[rank_col].to_numpy(zero_copy_only=False) + offset)
        return t.drop_columns([rank_col]).append_column(
            rank_col, pa.array(r, type=pa.int64()))

    ns = ray.get([_nrows.remote(r) for r in reduced])
    offsets = np.concatenate(([0], np.cumsum(ns)))[:-1]
    live = [_shift.remote(r, int(o))
            for r, o, n in zip(reduced, offsets, ns) if n]
    if not live:
        return rd.from_arrow(schema.empty_table())
    return rd.from_arrow_refs(live)
