"""Benchmark entry point.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root.  Workloads: flagship_mixed, flagship_plain,
json_records, corpus_line_dedup (see workloads.py for what each one
stresses).  Every run uses a local Ray cluster with ``num_cpus`` equal to
the CPUs this process may use, fed by one driver in a closed loop.

The measured run happens in a child process (job.py) under a wall-clock
limit, with ``ray stop --force`` before and after it, so that a hung run
shows up as failed documents in its own result instead of stopping the
benchmark.  The last line of standard output is one JSON object:

    {"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics
for ``--trace 1``.  The details (input properties per seed, every pass,
the gap attribution) go to ``.perfbench_work/detail/``.  Exits non-zero
without a result when the library is not next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

from workloads import NAMES

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
CHILD_LIMIT_S = 140
RAY_STOP_LIMIT_S = 12

END_TO_END = {
    "docs_per_s": "docs/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_ok_frac": "fraction",
}
PHASES = ("fast_path", "preprocess", "layer1", "layer5", "canonical", "plain_text")
SCORER_STAGES = ("heuristics", "langid", "perplexity", "scrub", "decide")
PER_LAYER = {
    "repair.us_per_doc": "us",
    "repair.batch_overhead.us_per_doc": "us",
    "repair.flagged_frac": "fraction",
    "repair.us_per_flagged_doc": "us",
    **{f"repair.{p}.us_per_flagged_doc": "us" for p in PHASES},
    "repair.fast_path.hit_frac": "fraction",
    "repair.layer5.reach_frac": "fraction",
    **{f"{s}.us_per_doc": "us" for s in SCORER_STAGES},
    "kernel_sum.us_per_doc": "us",
    "trace.overhead_frac": "fraction",
    "ray.us_per_doc": "us",
    "ray.gap.us_per_doc": "us",
    "ray.read.busy_us_per_doc": "us",
    "ray.map.busy_us_per_doc": "us",
    "ray.other.busy_us_per_doc": "us",
    "ray.idle.us_per_doc": "us",
    "ray.worker_busy_frac": "fraction",
    "ray.tasks_per_pass": "count",
    "ray.identity.us_per_doc": "us",
    "setup.ray_init_s": "s",
    "setup.first_pass_s": "s",
    "mem.driver_peak_mb": "MiB",
    "mem.workers_peak_mb": "MiB",
    "exchange.partition.busy_us_per_doc": "us",
    "exchange.reduce.busy_us_per_doc": "us",
    "exchange.tasks_per_pass": "count",
    "exchange.n_buckets": "count",
    "line_dedup.drop_frac": "fraction",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def ray_stop() -> None:
    subprocess.run([sys.executable, "-m", "ray.scripts.scripts", "stop", "--force"],
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                   timeout=RAY_STOP_LIMIT_S, check=False)


def run_child(args, work: str, state_path: str) -> bool:
    """Run job.py under the wall-clock limit; False when it was killed."""
    cmd = [sys.executable, os.path.join(HERE, "job.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--docs", str(args.docs), "--root", ROOT, "--work", work,
           "--state", state_path]
    env = dict(os.environ, RAY_DATA_DISABLE_PROGRESS_BARS="1")
    proc = subprocess.Popen(cmd, stdout=sys.stderr.fileno(), stderr=sys.stderr.fileno(),
                            env=env, start_new_session=True)
    try:
        proc.wait(timeout=CHILD_LIMIT_S)
        return True
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {CHILD_LIMIT_S}s, killed", file=sys.stderr)
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return False


def ops(st: dict, trace: bool) -> tuple[int, int]:
    """(attempted, failed) documents: the checked pass, then each timed or
    traced pass; a pass that never finished counts all its docs failed."""
    n = st["docs"]
    checked = st.get("checked")
    if not checked:
        return n, n
    attempted, failed = checked["attempted"], checked["failed"]
    if trace:
        rows = (st.get("trace") or {}).get("ray", {}).get("rows")
        attempted += n
        failed += n if rows is None else abs(rows - n)
    else:
        attempted += n * len(st["passes"])
        failed += st["count_errors"]
    if not st.get("done"):
        attempted += n
        failed += n
    return attempted, failed


def end_to_end(st: dict) -> dict:
    n = st["docs"]
    setups = st["setups"]
    mem = st.get("mem") or {}
    attempted, failed = ops(st, False)
    return {
        "docs_per_s": statistics.median([n / p for p in st["passes"]]) if st["passes"] else 0.0,
        "setup_s": statistics.median([a + b for a, b in setups]) if setups else 0.0,
        "peak_rss_mb": mem.get("driver", 0.0) + mem.get("workers", 0.0),
        "ops_ok_frac": _div(attempted - failed, attempted),
    }


def per_layer(st: dict) -> tuple[dict, dict]:
    """Per-layer metrics and the gap attribution, from a traced run."""
    n = st["docs"]
    us = 1e6 / n
    tr = st.get("trace") or {}
    ip = tr.get("in_process") or {}
    stage_s = ip.get("stage_s", {})
    rp = ip.get("repair") or {}
    flagged = rp.get("docs", 0)
    m = {
        "repair.us_per_doc": stage_s.get("repair", 0.0) * us,
        "repair.batch_overhead.us_per_doc": ip.get("repair_batch_self_s", 0.0) * us,
        "repair.flagged_frac": flagged / n,
        "repair.us_per_flagged_doc": _div(rp.get("doc_seconds", 0.0) * 1e6, flagged),
    }
    for p in PHASES:
        m[f"repair.{p}.us_per_flagged_doc"] = _div(
            rp.get("phase_seconds", {}).get(p, 0.0) * 1e6, flagged)
    m["repair.fast_path.hit_frac"] = _div(rp.get("fast_path_hits", 0), rp.get("fast_path_attempts", 0))
    m["repair.layer5.reach_frac"] = _div(rp.get("layer5_docs", 0), flagged)
    for s in SCORER_STAGES:
        m[f"{s}.us_per_doc"] = stage_s.get(s, 0.0) * us
    kernel = sum(stage_s.values()) * us
    m["kernel_sum.us_per_doc"] = kernel
    m["trace.overhead_frac"] = (_div(ip["traced_wall_s"], ip["wall_s"]) - 1.0) if ip else 0.0

    ray = tr.get("ray") or {}
    busy = ray.get("busy_s", {})
    tasks = ray.get("tasks", {})
    fused = busy.get("read_map", 0.0)
    udf = min(ray.get("fused_read_udf_s", 0.0), fused)
    parts = {
        "read": busy.get("read", 0.0) + fused - udf,
        "map": busy.get("map", 0.0) + udf,
        "exchange_partition": busy.get("exchange_partition", 0.0),
        "exchange_reduce": busy.get("exchange_reduce", 0.0),
        "other": busy.get("other", 0.0),
    }
    wall = ray.get("wall_s", 0.0)
    ray_us = wall * us
    busy_total = sum(parts.values())
    m.update({
        "ray.us_per_doc": ray_us,
        "ray.gap.us_per_doc": ray_us - kernel,
        "ray.read.busy_us_per_doc": parts["read"] * us,
        "ray.map.busy_us_per_doc": parts["map"] * us,
        "ray.other.busy_us_per_doc": parts["other"] * us,
        "ray.idle.us_per_doc": (wall - busy_total) * us,
        "ray.worker_busy_frac": _div(busy_total, wall),
        "ray.tasks_per_pass": sum(tasks.values()),
        "ray.identity.us_per_doc": tr.get("identity_s", 0.0) * us,
        "setup.ray_init_s": statistics.median([a for a, _ in st["setups"]]) if st["setups"] else 0.0,
        "setup.first_pass_s": statistics.median([b for _, b in st["setups"]]) if st["setups"] else 0.0,
        "mem.driver_peak_mb": (st.get("mem") or {}).get("driver", 0.0),
        "mem.workers_peak_mb": (st.get("mem") or {}).get("workers", 0.0),
        "exchange.partition.busy_us_per_doc": parts["exchange_partition"] * us,
        "exchange.reduce.busy_us_per_doc": parts["exchange_reduce"] * us,
        "exchange.tasks_per_pass": tasks.get("exchange_partition", 0) + tasks.get("exchange_reduce", 0),
    })
    wd = st.get("workload_detail") or {}
    m["exchange.n_buckets"] = wd.get("n_buckets", 0)
    m["line_dedup.drop_frac"] = _div(wd.get("lines", 0) - wd.get("kept", 0), wd.get("lines", 0))
    gap = {
        "ray_us_per_doc": ray_us,
        "kernel_sum_us_per_doc": kernel,
        "gap_us_per_doc": ray_us - kernel,
        "split_us_per_doc": {k + "_busy": v * us for k, v in parts.items()},
        "idle_us_per_doc": (wall - busy_total) * us,
        "identity_floor_us_per_doc": m["ray.identity.us_per_doc"],
        "map_busy_minus_kernel_us_per_doc": parts["map"] * us - kernel,
        "note": "ray_us_per_doc = sum(split) + idle.  other: Ray Data planning "
                "tasks (parquet fragment sampling, block metadata).  idle: wall "
                "time no worker task covers (driver, raylet, object store, "
                "scheduling)",
    }
    return m, gap


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--docs", type=int, default=0,
                   help="documents per input (default: the workload's own size)")
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "json_remedy_ray", "__init__.py")):
        print(f"perfbench: no json_remedy_ray package in {ROOT}", file=sys.stderr)
        return 2

    work = os.path.join(ROOT, ".perfbench_work")
    for d in (os.path.join(work, "inputs"), os.path.join(ROOT, ".ray_tmp")):
        shutil.rmtree(d, ignore_errors=True)
    os.makedirs(os.path.join(work, "detail"), exist_ok=True)
    state_path = os.path.join(work, "state.json")
    if os.path.exists(state_path):
        os.remove(state_path)

    ray_stop()
    try:
        finished = run_child(args, work, state_path)
    finally:
        ray_stop()
    if not os.path.exists(state_path):
        print("perfbench: the run failed before generating its inputs", file=sys.stderr)
        return 1
    with open(state_path) as f:
        st = json.load(f)
    if not finished:
        st["done"] = False

    attempted, failed = ops(st, bool(args.trace))
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "inputs": st["props"], "state": st}
    if args.trace:
        values, detail["gap_attribution"] = per_layer(st)
        units = PER_LAYER
    else:
        values = end_to_end(st)
        units = END_TO_END
    detail["metrics"] = values
    detail_path = os.path.join(work, "detail", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w") as f:
        json.dump(detail, f, indent=1)
    print(f"perfbench: details in {detail_path}", file=sys.stderr)

    print(json.dumps({
        "correct": bool(st.get("done")) and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
