"""Spans recorded from the benchmark's own code, and Ray's own records.

In-process: ``Tracer`` keeps spans (name, start, end, parent) in memory.
``Tracer.patched`` swaps the module attributes the repair pipeline calls
through for timing wrappers and restores them on exit, so the program
itself is not edited.  Nesting is pass -> batch -> stage -> doc -> phase;
a span's self time is its duration minus the time its children cover.

Ray: ``task_busy`` reads ``ray.timeline()`` for one pass window and sums
task durations by kind; ``fused_read_udf_seconds`` reads from
``Dataset.stats()`` the map share of tasks that fuse a read with maps.
"""

from __future__ import annotations

import contextlib
import importlib
import re
import time

# (module, attribute, span name) the repair pipeline calls through.
# repair_stage.repair is the per-document span; the rest are its phases.
REPAIR_DOC = ("json_remedy_ray.stages.repair_stage", "repair", "doc")
REPAIR_PHASES = (
    ("json_remedy_ray.repair.layer4", "try_fast_path", "fast_path"),
    ("json_remedy_ray.repair.preprocessing", "preprocess", "preprocess"),
    ("json_remedy_ray.repair.layer1", "clean", "layer1"),
    ("json_remedy_ray.repair.pipeline", "parse_document", "layer5"),
    ("json_remedy_ray.repair.layer4", "canonical_json", "canonical"),
    ("json_remedy_ray.repair.detectors", "plain_text", "plain_text"),
)
PHASE_NAMES = tuple(name for _, _, name in REPAIR_PHASES)


class Tracer:
    """In-memory span recorder.  Each span is a list
    ``[name, start, end, parent_index, child_seconds, ok]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, 0.0, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        s = self.spans[idx]
        s[2] = time.perf_counter()
        self._stack.pop()
        if s[3] >= 0:
            self.spans[s[3]][4] += s[2] - s[1]

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if name == "fast_path":
                self.spans[idx][5] = bool(out[0])
            return out

        return traced

    @contextlib.contextmanager
    def patched(self):
        """Wrap the repair pipeline's per-document and phase calls."""
        saved = []
        try:
            for mod_name, attr, name in (REPAIR_DOC,) + REPAIR_PHASES:
                mod = importlib.import_module(mod_name)
                fn = getattr(mod, attr)
                saved.append((mod, attr, fn))
                setattr(mod, attr, self.wrap(fn, name))
            yield self
        finally:
            for mod, attr, fn in reversed(saved):
                setattr(mod, attr, fn)

    def totals(self, name: str) -> tuple[float, int]:
        """(inclusive seconds, count) of every span called ``name``."""
        sec = 0.0
        n = 0
        for s in self.spans:
            if s[0] == name:
                sec += s[2] - s[1]
                n += 1
        return sec, n

    def self_seconds(self, name: str) -> float:
        return sum(s[2] - s[1] - s[4] for s in self.spans if s[0] == name)

    def repair_breakdown(self) -> dict:
        """Per-phase seconds over phases called directly from a doc span
        (deeper calls stay inside their caller's phase), doc count, docs
        that reached Layer 5, and fast-path hits over attempts."""
        sp = self.spans
        phase_sec = dict.fromkeys(PHASE_NAMES, 0.0)
        reached: set[int] = set()
        fp_ok = fp_n = 0
        for s in sp:
            name, parent = s[0], s[3]
            if name == "fast_path":
                fp_n += 1
                fp_ok += bool(s[5])
            if name in phase_sec and parent >= 0 and sp[parent][0] == "doc":
                phase_sec[name] += s[2] - s[1]
                if name == "layer5":
                    reached.add(parent)
        doc_sec, docs = self.totals("doc")
        return {"phase_seconds": phase_sec, "doc_seconds": doc_sec, "docs": docs,
                "layer5_docs": len(reached), "fast_path_hits": fp_ok,
                "fast_path_attempts": fp_n}


# ---- Ray's records ------------------------------------------------------

def classify_task(cat: str) -> str | None:
    """Kind of a timeline task from its category ``task::<name>``; None for
    actor methods (Ray Data's stats and autoscaling actors)."""
    name = cat[len("task::"):]
    if "." in name.split("(")[0]:
        return None  # Actor.method
    if name.endswith("_part"):
        return "exchange_partition"
    if name.endswith("_reduce"):
        return "exchange_reduce"
    if name.startswith("Read") and "->" in name:
        return "read_map"
    if name.startswith("Read"):
        return "read"
    if "MapBatches" in name or name.startswith("Map"):
        return "map"
    return "other"


def task_busy(timeline: list[dict], t0_us: float, t1_us: float) -> dict:
    """Busy seconds and task counts by kind, for tasks that ran inside the
    wall window [t0_us, t1_us] (epoch microseconds), clipped to it."""
    busy: dict[str, float] = {}
    count: dict[str, int] = {}
    other: dict[str, int] = {}
    for e in timeline:
        cat = e.get("cat", "")
        if e.get("ph") != "X" or not cat.startswith("task::"):
            continue
        kind = classify_task(cat)
        if kind is None:
            continue
        a = float(e["ts"])
        b = a + float(e.get("dur", 0.0))
        lo, hi = max(a, t0_us), min(b, t1_us)
        if hi <= lo:
            continue
        busy[kind] = busy.get(kind, 0.0) + (hi - lo) / 1e6
        count[kind] = count.get(kind, 0) + 1
        if kind == "other":
            other[cat] = other.get(cat, 0) + 1
    return {"busy_s": busy, "tasks": count, "other_tasks": other}


_UDF_RE = re.compile(r"\* UDF time:.* ([0-9.]+)(us|ms|s) total")
_UNIT = {"us": 1e-6, "ms": 1e-3, "s": 1.0}


def fused_read_udf_seconds(stats_text: str) -> float:
    """Total UDF time of the operators that fuse a read with map stages
    (``Operator k ReadX->MapBatches(...)``) in a ``Dataset.stats()``
    report: the map share of those tasks' busy time."""
    total = 0.0
    fused = False
    for line in stats_text.splitlines():
        if line.startswith("Operator "):
            name = line.split(" ", 2)[2] if line.count(" ") >= 2 else ""
            fused = name.startswith("Read") and "->" in name.split(":")[0]
        m = _UDF_RE.search(line)
        if m and fused:
            total += float(m.group(1)) * _UNIT[m.group(2)]
    return total
