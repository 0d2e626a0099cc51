"""Host-level link-graph operators: outlink extraction and PageRank.

A crawl corpus is also a graph — pages link to hosts, and host-level
link analysis (in-degree, PageRank) is a standard quality prior for
web-text curation (harmonic/PageRank centrality is one of the quality
signals Common-Crawl derivatives publish per host).  Two pieces:

* ``extract_outlink_hosts`` — whole-column extraction of absolute
  outlink HOSTS from an html column: one Arrow split_pattern on the
  literal ``href="https://`` anchor prefix + one RE2 capture for the
  host, with parent-page indices recovered from the list offsets.  No
  per-row Python; stateless, embarrassingly parallel.

* ``pagerank_refs`` — K iterations of damped PageRank over a
  (src_host, dst_host, weight) edge list, ENTIRELY in integer
  micro-units so every step is exact and associative: the per-edge
  contribution is ``((rank * d_num) // d_den) * w // outw`` with floor
  division, so a DuckDB oracle with unrolled CTEs reproduces the
  numbers bit-for-bit (float PageRank could not be hash-compared —
  summation order changes the low bits).

Scale shape of ``pagerank_refs`` (the 100-TB audit): the edge list is
hash-partitioned ONCE by src host into B buckets; the host universe
(with per-bucket distinct) is partitioned by the same hash, so a
bucket's rank table covers exactly the hosts its edge bucket needs as
sources.  Each iteration is one exchange: B contribution tasks join
their LOCAL ranks into their LOCAL edges (index_in — no string sort)
and emit (dst, contrib) slices routed by hash(dst); B reduce tasks sum
arrivals per host and add the damping base.  The driver holds only
refs; rank state lives in the object store, partitioned, at no point
concatenated.  Dangling hosts (no outlinks) simply contribute nothing
— their mass leaks, matching the plain LEFT-JOIN SQL formulation.

Overflow envelope: all arithmetic is int64; the iteration is safe while
``max_rank * d_num`` and ``(max_rank * d_num // d_den) * max_edge_w``
stay below 2^63 — with init 10^6 micro-units that allows total corpus
mass concentrated on one host times edge weights up to ~10^4 even for
10^8-host graphs.  (The reference engine has no graph operators; this
is a graft extension, reference-free.)
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from json_remedy_ray.functions.vhash import as_array

_LINK_PREFIX = 'href="https://'
_HOST_RE = r'^(?P<host>[^/"]+)'


def _split_links(html: pa.Array | pa.ChunkedArray):
    """Split an html column on the absolute-link anchor prefix: returns
    (parents, fragments) where each fragment STARTS with the linked
    host (one Arrow split_pattern; parent rows from the list offsets,
    the pre-anchor slot 0 of every list dropped)."""
    html = as_array(html)
    html = pc.fill_null(html, "")
    parts = pc.split_pattern(html, _LINK_PREFIX)
    offs = parts.offsets.to_numpy()
    flat = pc.list_flatten(parts)
    counts = np.diff(offs)
    parents = np.repeat(np.arange(len(html), dtype=np.int64), counts)
    # slot 0 of every list is the text BEFORE the first anchor — not a
    # link.  (counts is never 0: split always yields >= 1 element.)
    is_first = np.zeros(len(flat), dtype=bool)
    is_first[offs[:-1]] = True
    keep = ~is_first
    return parents[keep], flat.filter(pa.array(keep))


def extract_outlink_hosts(html: pa.Array | pa.ChunkedArray):
    """Extract absolute outlink hosts from an html/text column.

    Returns ``(parents, hosts)``: ``parents`` is an int64 numpy array of
    row indices into ``html`` (one entry per link, repeats allowed) and
    ``hosts`` a string Array of the linked hosts.  Relative links and
    non-https schemes are excluded by construction of the anchor
    pattern (mirror of DuckDB
    ``regexp_extract_all(html, 'href="https://([^/"]+)', 1)``).
    """
    parents, links = _split_links(html)
    host = pc.struct_field(pc.extract_regex(links, _HOST_RE), "host")
    ok = pc.is_valid(host).to_numpy(zero_copy_only=False)
    if not ok.all():
        host = host.filter(pa.array(ok))
        parents = parents[ok]
    return parents, host


_HOST_ANCHOR_RE = r'^(?P<host>[^/"]+)[^"]*">(?P<a>[^<]*)</a>'


def extract_outlink_anchors(html: pa.Array | pa.ChunkedArray):
    """Extract (dst host, anchor text) per absolute outlink — the
    anchor-text signal search/quality pipelines aggregate per target
    host.  Same split as ``extract_outlink_hosts``, one RE2 with two
    captures; links without a well-formed ``>anchor</a>`` tail are
    dropped (mirror of the two-group DuckDB regexp_extract_all +
    list_zip form).  Returns (parents, hosts, anchors)."""
    parents, links = _split_links(html)
    m = pc.extract_regex(links, _HOST_ANCHOR_RE)
    ok = pc.is_valid(m).to_numpy(zero_copy_only=False)
    if not ok.all():
        m = m.filter(pa.array(ok))
        parents = parents[ok]
    return parents, pc.struct_field(m, "host"), pc.struct_field(m, "a")


def _host_key(hosts: pa.Array) -> np.ndarray:
    """The ONE router for both roles (src routing and host-universe
    routing): co-location breaks silently if the two sides hash
    differently."""
    from json_remedy_ray.functions.vhash import hash_strings

    return hash_strings(hosts)


_EDGE_SCHEMA = pa.schema([("src", pa.string()), ("dst", pa.string()),
                          ("w", pa.int64())])
_OUTW_SCHEMA = _EDGE_SCHEMA.append(pa.field("outw", pa.int64()))
_HOST_SCHEMA = pa.schema([("host", pa.string())])


def pagerank_refs(edge_refs, n_buckets: int = 8, iters: int = 5,
                  d_num: int = 85, d_den: int = 100,
                  base: int = 150_000, init: int = 1_000_000):
    """Integer fixed-point PageRank over edge blocks.

    ``edge_refs``: object refs of ``pa.Table(src, dst, w:int64)`` blocks
    (duplicate (src, dst) rows allowed — weights are summed).  Returns
    ``n_buckets`` refs of ``pa.Table(host, rank_micro:int64)`` covering
    every host that appears as src or dst.
    """
    import ray

    from json_remedy_ray.state.partitioning import (
        bucket_exchange,
        partition_by_bucket,
    )

    # ---- phase A1: edges, hash-partitioned ONCE by src ----------------
    def _part_edges(tbl: pa.Table):
        tbl = tbl.cast(_EDGE_SCHEMA)
        return _host_key(tbl["src"]), tbl

    def _edges_reduce(t: pa.Table) -> pa.Table:
        g = t.group_by(["src", "dst"]).aggregate([("w", "sum")])
        # select aggregate/key columns BY NAME — the key/agg column
        # order differs across pyarrow versions
        g = pa.table({"src": g["src"], "dst": g["dst"],
                      "w": g["w_sum"].cast(pa.int64())})
        od = g.group_by("src").aggregate([("w", "sum")])
        idx = pc.index_in(g["src"], value_set=od["src"])
        outw = od["w_sum"].take(idx)
        return g.append_column("outw", outw.cast(pa.int64()))

    # ---- phase A2: host universe, same hash, per-bucket distinct ------
    def _part_hosts(tbl: pa.Table):
        tbl = tbl.cast(_EDGE_SCHEMA)
        hosts = pc.unique(pa.concat_arrays(
            [as_array(tbl["src"]), as_array(tbl["dst"])]))
        return _host_key(hosts), pa.table({"host": hosts})

    def _hosts_reduce(t: pa.Table) -> pa.Table:
        u = pc.unique(t["host"].chunk(0))
        return pa.table({"host": u.take(pc.array_sort_indices(u))})

    _, edges_b = bucket_exchange(edge_refs, n_buckets, _part_edges,
                                 _edges_reduce, _OUTW_SCHEMA)
    _, hosts_b = bucket_exchange(edge_refs, n_buckets, _part_hosts,
                                 _hosts_reduce, _HOST_SCHEMA)

    # ---- phase B: K iterations of contribute -> exchange -> sum -------
    def _one_or_tuple(slices):
        # num_returns=1 means Ray expects the bare value, not a 1-tuple
        return tuple(slices) if n_buckets > 1 else slices[0]

    @ray.remote
    def _init_ranks(hosts: pa.Table) -> pa.Table:
        return pa.table({
            "host": hosts["host"],
            "rank_micro": pa.array(
                np.full(hosts.num_rows, init, dtype=np.int64))})

    @ray.remote(num_returns=n_buckets)
    def _contrib(edges: pa.Table, ranks: pa.Table):
        sch = pa.schema([("dst", pa.string()), ("c", pa.int64())])
        if edges.num_rows == 0:
            return _one_or_tuple([sch.empty_table()] * n_buckets)
        idx = pc.index_in(as_array(edges["src"]), value_set=as_array(ranks["host"]))
        assert idx.null_count == 0, "src host missing from its rank bucket"
        r = as_array(ranks["rank_micro"]).take(idx).to_numpy(
            zero_copy_only=False)
        w = edges["w"].to_numpy(zero_copy_only=False)
        outw = edges["outw"].to_numpy(zero_copy_only=False)
        c = (r * d_num // d_den) * w // outw
        t = pa.table({"dst": edges["dst"],
                      "c": pa.array(c, type=pa.int64())}).cast(sch)
        return _one_or_tuple(partition_by_bucket(
            t, _host_key(t["dst"]), n_buckets))

    @ray.remote
    def _new_ranks(hosts: pa.Table, *slices: pa.Table) -> pa.Table:
        rank = np.full(hosts.num_rows, base, dtype=np.int64)
        live = [t for t in slices if t.num_rows]
        if live:
            t = pa.concat_tables(live).combine_chunks()
            g = t.group_by("dst").aggregate([("c", "sum")])
            idx = pc.index_in(g["dst"], value_set=as_array(hosts["host"]))
            assert idx.null_count == 0, "dst host missing from universe"
            np.add.at(rank, idx.to_numpy(zero_copy_only=False),
                      g["c_sum"].to_numpy(zero_copy_only=False))
        return pa.table({"host": hosts["host"],
                         "rank_micro": pa.array(rank)})

    ranks_b = [_init_ranks.remote(h) for h in hosts_b]
    for _ in range(iters):
        couts = [_contrib.remote(edges_b[b], ranks_b[b])
                 for b in range(n_buckets)]
        if n_buckets == 1:
            couts = [[o] for o in couts]
        ranks_b = [_new_ranks.remote(hosts_b[b],
                                     *[o[b] for o in couts])
                   for b in range(n_buckets)]
    return ranks_b
