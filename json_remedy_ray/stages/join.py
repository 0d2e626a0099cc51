"""Partitioned hash join for LARGE x LARGE equi-joins.

The repo's other joins broadcast the small side (``ray.put`` once, probe
inside ``map_batches``) — the right call whenever one side fits the
object store.  When BOTH sides are corpus-scale, the classic shape is a
co-partitioned hash join: hash both sides on the join key into the same
bucket space, join each bucket independently.  Built on
``state.partitioning.join_exchange`` (raw tasks — the tier-(c) escape
hatch documented there; Ray Data has no native join and its groupby
carries the measured ~8 s sort-shuffle floor), with the per-bucket join
done by ``pyarrow.Table.join`` (Acero's vectorized hash join).

Partitioning assumption (documented per the join_exchange contract):
keys are hashed with the shared splitmix64/vhash core, so equal keys —
int64 or string — always land in the same bucket; per-bucket memory is
the bucket's share of both sides, so ``n_buckets`` must be sized to
(total size) / (worker heap), and a single pathologically hot key that
exceeds one bucket needs upstream salting (state/partitioning has the
machinery; same caveat as the as-of join documents).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data as rd

from json_remedy_ray.functions.vhash import _mix64, as_array, hash_strings
from json_remedy_ray.state.partitioning import block_refs, join_exchange


def _key_hash(tbl: pa.Table, key: str) -> np.ndarray:
    col = as_array(tbl[key])
    if pa.types.is_integer(col.type):
        # fill_null first: to_numpy on a null-bearing int array silently
        # promotes to float64, and .view would then hash float bit
        # patterns — breaking co-partitioning vs null-free blocks.  Null
        # keys never match in the per-bucket join; they just need a
        # consistent bucket.
        ints = col.cast(pa.int64())
        if ints.null_count:
            ints = pc.fill_null(ints, 0)
        return _mix64(ints.to_numpy(zero_copy_only=False).view(np.uint64))
    return hash_strings(col)


def hash_join(left: rd.Dataset, right: rd.Dataset,
              left_on: str | list[str], right_on: str | list[str],
              how: str = "inner", n_buckets: int = 32) -> rd.Dataset:
    """Equi-join two Datasets without broadcasting either side.  ``how``
    is any join type pyarrow.Table.join supports ("inner",
    "left outer", "right outer", "full outer", "left semi",
    "left anti", ...).  Composite keys are allowed; rows are
    co-partitioned on the FIRST key (equal composite keys always agree
    on it) and the per-bucket join matches the full key list."""
    lkeys = [left_on] if isinstance(left_on, str) else list(left_on)
    rkeys = [right_on] if isinstance(right_on, str) else list(right_on)

    def part_side(key: str):
        return lambda tbl: (_key_hash(tbl, key), tbl)

    def reduce_join(lt: pa.Table, rt: pa.Table) -> pa.Table:
        return lt.join(rt, keys=lkeys, right_keys=rkeys, join_type=how)

    # driver-side schemas type a bucket side that received no rows
    ls, rs = left.schema(), right.schema()
    l_schema = pa.schema(list(zip(ls.names, ls.types)))
    r_schema = pa.schema(list(zip(rs.names, rs.types)))
    out_schema = reduce_join(l_schema.empty_table(),
                             r_schema.empty_table()).schema
    reduced = join_exchange(block_refs(left), block_refs(right),
                            n_buckets, part_side(lkeys[0]),
                            part_side(rkeys[0]), reduce_join,
                            (l_schema, r_schema, out_schema))
    return rd.from_arrow_refs(reduced)
