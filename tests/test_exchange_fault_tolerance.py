"""Fault tolerance for the raw-task bucket exchange: partition and
reduce tasks are deterministic pure functions of their input refs, so
Ray's default task retries must make a worker death mid-exchange
invisible in the result (the same claim test_fault_tolerance.py proves
for map stages)."""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import ray.data as rd

from json_remedy_ray.state.partitioning import bucket_exchange

N_BUCKETS = 4
_OUT = pa.schema([("s", pa.int64()), ("n", pa.int64())])


def _make_part(flag_path: str | None):
    def part(tbl: pa.Table):
        if flag_path is not None:
            try:
                fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                os._exit(1)          # first partition task dies hard
            except FileExistsError:
                pass
        return tbl["x"].to_numpy(zero_copy_only=False).astype(np.uint64), tbl
    return part


def _make_reduce(flag_path: str | None):
    def red(t: pa.Table) -> pa.Table:
        if flag_path is not None:
            try:
                fd = os.open(flag_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
                os.close(fd)
                os._exit(1)          # first reduce task dies hard
            except FileExistsError:
                pass
        s = int(t["x"].to_numpy(zero_copy_only=False).sum())
        return pa.table({"s": pa.array([s], type=pa.int64()),
                         "n": pa.array([t.num_rows], type=pa.int64())})
    return red


def _run(flag_part, flag_red):
    ds = rd.from_arrow(pa.table({"x": pa.array(range(10_000),
                                               type=pa.int64())}))
    ds = ds.repartition(8)
    _, reduced = bucket_exchange(ds.to_arrow_refs(), N_BUCKETS,
                                 _make_part(flag_part),
                                 _make_reduce(flag_red), _OUT)
    out = rd.from_arrow_refs(reduced).to_pandas()
    return int(out["s"].sum()), int(out["n"].sum())


def test_partition_task_death_is_transparent(ray_session, tmp_path):
    flag = str(tmp_path / "part.flag")
    s, n = _run(flag, None)
    assert os.path.exists(flag), "fault was never injected"
    assert (s, n) == (sum(range(10_000)), 10_000)


def test_reduce_task_death_is_transparent(ray_session, tmp_path):
    flag = str(tmp_path / "red.flag")
    s, n = _run(None, flag)
    assert os.path.exists(flag), "fault was never injected"
    assert (s, n) == (sum(range(10_000)), 10_000)
