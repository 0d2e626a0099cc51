"""One measured run of one workload, in its own process (see run.py).

Untraced (``--trace 0``), in order:

1. generate the inputs from the seed and write them to parquet;
2. set up ``SETUPS`` times: ``ray.init`` plus a cold pass over one small
   warm-up block (the clusters before the last are shut down again);
3. one checked pass over the whole input, whose output is collected and
   compared with a reference computed without Ray (also the cold pass of
   the timed loop, so it is not timed);
4. closed-loop timed passes, each one batch job ending in ``.count()``,
   until ``--seconds`` is used up;
5. peak resident memory of the driver and the Ray workers over step 4.

Traced (``--trace 1``) replaces step 4 with an in-process pass with and
without spans, one Ray pass read back through ``ray.timeline()`` and
``Dataset.stats()``, and the zero-work identity chain over the same files.

Progress goes to ``state.json`` after every step, so that a run killed at
its wall-clock limit still reports what it finished.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import logging
import os
import statistics
import sys
import time

import pyarrow as pa
import ray
import ray.data as rd

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 2
MIN_PASSES = 3
IDENTITY_PASSES = 3
OBJECT_STORE_BYTES = 256 << 20
# Ray's socket paths (<temp>/session_<time>_<pid>/sockets/plasma_store)
# must fit in 107 bytes, which leaves 43 for its temp dir.
MAX_RAY_TEMP_CHARS = 43


class State:
    """Everything measured so far, rewritten to disk after each step."""

    def __init__(self, path: str, **fields):
        self.path = path
        self.data = dict(fields)
        self.save()

    def __getitem__(self, k):
        return self.data[k]

    def __setitem__(self, k, v):
        self.data[k] = v
        self.save()

    def save(self):
        tmp = self.path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(self.data, f)
        os.replace(tmp, self.path)


def ray_init(root: str) -> None:
    pythonpath = [root] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    kw = dict(
        num_cpus=workloads.cpu_count(),
        include_dashboard=False,
        logging_level="ERROR",
        log_to_driver=False,
        object_store_memory=OBJECT_STORE_BYTES,
        # workers start in their own directory: without the package root
        # on their path every task fails with ModuleNotFoundError
        runtime_env={"env_vars": {"PYTHONPATH": os.pathsep.join(pythonpath)}},
    )
    temp = os.path.join(root, ".ray_tmp")
    if len(temp) <= MAX_RAY_TEMP_CHARS:
        kw["_temp_dir"] = temp
    else:
        print(f"perfbench: {temp} is too long for Ray's sockets; "
              "Ray uses its default temp dir", file=sys.stderr)
    ray.init(**kw)

    ctx = rd.DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def collect(ds):
    """Execute ``ds`` and gather its rows into one Arrow table."""
    return pa.concat_tables(ray.get(ds.to_arrow_refs()))


# ---- memory -----------------------------------------------------------------

def _ray_worker_pids() -> list[int]:
    pids = []
    for d in os.listdir("/proc"):
        if not d.isdigit():
            continue
        try:
            with open(f"/proc/{d}/cmdline", "rb") as f:
                cmd = f.read()
        except OSError:
            continue
        if cmd.startswith(b"ray::"):
            pids.append(int(d))
    return pids


def reset_peak_rss() -> None:
    """Restart the peak-RSS (VmHWM) counters of the driver and workers."""
    for pid in ["self"] + _ray_worker_pids():
        try:
            with open(f"/proc/{pid}/clear_refs", "w") as f:
                f.write("5")
        except OSError:
            pass


def _hwm_mb(pid) -> float:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def peak_rss_mb() -> dict:
    return {"driver": _hwm_mb("self"),
            "workers": sum(_hwm_mb(p) for p in _ray_worker_pids())}


# ---- in-process chain -----------------------------------------------------

def in_process(wl, stages, paths, traced=False):
    """Run the workload's kernel chain without Ray over the same batches.
    Stage spans always; doc and phase spans when ``traced``.  Returns
    (output table, wall seconds, tracer)."""
    tracer = tracing.Tracer()
    outs = []
    t0 = time.perf_counter()
    with tracer.span("pass"), (tracer.patched() if traced else contextlib.nullcontext()):
        for batch in workloads.read_batches(paths, wl.columns, wl.batch_size):
            with tracer.span("batch"):
                for name, fn in stages:
                    with tracer.span("stage:" + name):
                        batch = fn(batch)
            outs.append(batch)
    wall = time.perf_counter() - t0
    return pa.concat_tables(outs), wall, tracer


# ---- the run ----------------------------------------------------------------

def run(args) -> None:
    wl = workloads.get(args.workload)
    n = args.docs or wl.docs
    table, truth = wl.make(args.seed, n)
    main_dir = os.path.join(args.work, "inputs", "main")
    warm_dir = os.path.join(args.work, "inputs", "warm")
    paths = inputs.write_files(table, main_dir, inputs.N_FILES)
    inputs.write_files(table.slice(0, inputs.WARMUP_DOCS), warm_dir, 1)
    st = State(args.state, docs=n, props=inputs.properties(table, truth),
               workload_detail={}, setups=[], passes=[], count_errors=0,
               checked=None, trace=None, mem=None, done=False)

    for k in range(SETUPS):
        if k:
            ray.shutdown()
        t0 = time.perf_counter()
        ray_init(args.root)
        t1 = time.perf_counter()
        wl.dataset(warm_dir).count()
        t2 = time.perf_counter()
        st["setups"] = st["setups"] + [[t1 - t0, t2 - t1]]

    out = collect(wl.dataset(main_dir))
    stages = wl.stages()
    reference = wall_ref = None
    if stages is not None and (wl.checks_against_chain or args.trace):
        reference, wall_ref, _ = in_process(wl, stages, paths)
    st["checked"] = {"attempted": n, "failed": wl.check(out, table, truth, reference),
                     "output_rows": len(out)}
    st["workload_detail"] = wl.output_counts(out)
    del out, reference
    if args.trace:
        st["trace"] = traced_run(wl, stages, paths, main_dir, wall_ref)
    else:
        reset_peak_rss()
        t_end = time.perf_counter() + args.seconds
        passes = []
        while True:
            t0 = time.perf_counter()
            got = wl.dataset(main_dir).count()
            dt = time.perf_counter() - t0
            passes.append(dt)
            st.data["count_errors"] += abs(got - n)
            st["passes"] = passes
            if len(passes) >= MIN_PASSES and time.perf_counter() + statistics.median(passes) > t_end:
                break
    st["mem"] = peak_rss_mb()
    ray.shutdown()
    st["done"] = True


def traced_run(wl, stages, paths, main_dir, wall_ref) -> dict:
    tr: dict = {}
    if stages is not None:
        _, wall_plain, plain = in_process(wl, stages, paths)
        _, wall_traced, traced = in_process(wl, stages, paths, traced=True)
        tr["in_process"] = {
            "wall_s": wall_plain, "wall_first_s": wall_ref, "traced_wall_s": wall_traced,
            "stage_s": {name: plain.totals("stage:" + name)[0] for name, _ in stages},
            "repair_batch_self_s": traced.self_seconds("stage:repair"),
            "repair": traced.repair_breakdown(),
        }

    reset_peak_rss()
    t0 = time.time()
    ds = wl.dataset(main_dir).materialize()
    t1 = time.time()
    stats = ds.stats()
    got = ds.count()
    del ds
    tl = _settled_timeline()
    tr["ray"] = {"wall_s": t1 - t0, "rows": got,
                 "fused_read_udf_s": tracing.fused_read_udf_seconds(stats),
                 **tracing.task_busy(tl, t0 * 1e6, t1 * 1e6)}

    walls = []
    for _ in range(IDENTITY_PASSES):
        t = time.perf_counter()
        wl.read(main_dir).map_batches(lambda b: b, batch_format="pyarrow",
                                      batch_size=None).count()
        walls.append(time.perf_counter() - t)
    tr["identity_s"] = statistics.median(walls)
    return tr


def _settled_timeline(wait_s: float = 8.0) -> list:
    """``ray.timeline()`` once task events stop arriving (workers report
    them to the GCS about once a second)."""
    deadline = time.time() + wait_s
    time.sleep(1.2)
    prev = -1
    while True:
        tl = ray.timeline()
        n = len(tl)
        if n == prev or time.time() > deadline:
            return tl
        prev = n
        time.sleep(0.6)


def main(argv=None) -> None:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--docs", type=int, default=0)
    p.add_argument("--root", required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--state", required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, args.root)
    run(args)


if __name__ == "__main__":
    main()
