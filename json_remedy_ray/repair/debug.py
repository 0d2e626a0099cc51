"""Introspection / debug operators (SURVEY §2.8 parity).

  reference `analyze/1`          -> pipeline.analyze (repairs only)
  reference `repair_with_debug/2`-> repair_with_debug here: per-phase
                                    wall time (us), input/output sizes,
                                    repair counts per phase.
"""

from __future__ import annotations

import time

from json_remedy_ray.config import DEFAULT_CONFIG, RepairConfig
from json_remedy_ray.repair import detectors, layer1, layer4, preprocessing
from json_remedy_ray.repair.layer5 import SKIP, parse_document


def repair_with_debug(text: str, config: RepairConfig = DEFAULT_CONFIG) -> dict:
    """Per-phase timings (reference lib/json_remedy.ex:297-343,464-636).

    The authoritative ok/value/repairs come from ``pipeline.repair`` with
    the SAME config (strict mode, fast_path, size guards, fence unwrap
    included) so the debug view can never contradict the production
    result; the phase timings below re-execute the stages purely as
    diagnostics."""
    from json_remedy_ray.repair.pipeline import repair as _repair

    authoritative = _repair(text, config)
    steps: list[dict] = []
    repairs: list = []

    def step(name: str, fn, s):
        t0 = time.perf_counter_ns()
        out = fn(s)
        us = (time.perf_counter_ns() - t0) / 1000
        steps.append({
            "layer": name,
            "us": round(us, 1),
            "input_size": len(s) if isinstance(s, str) else None,
            "output_size": len(out) if isinstance(out, str) else None,
            "repairs_so_far": len(repairs),
        })
        return out

    def result(extra_steps_done=False):
        return {"ok": authoritative.ok,
                "value": authoritative.value if authoritative.ok else None,
                "error": authoritative.error,
                "steps": steps,
                "repairs": [r.as_dict() for r in authoritative.repairs]}

    t0 = time.perf_counter_ns()
    ok, value = layer4.try_fast_path(text)
    steps.append({"layer": "fast_path", "us": round((time.perf_counter_ns() - t0) / 1000, 1), "hit": ok,
                  "input_size": len(text), "output_size": None, "repairs_so_far": 0})
    if config.strict_mode or ok:
        return result()
    if detectors.plain_text(text):
        steps.append({"layer": "plain_text_detector", "us": 0.0, "hit": True,
                      "input_size": len(text), "output_size": 0, "repairs_so_far": 0})
        return result()

    def pre(s):
        out, r = preprocessing.preprocess(s, config.enable_escape_normalization)
        repairs.extend(r)
        return out

    def l1(s):
        out, r = layer1.clean(s, config.trailing_dots_threshold)
        repairs.extend(r)
        return out

    s = step("preprocessing", pre, text)
    s = step("content_cleaning", l1, s)

    t0 = time.perf_counter_ns()
    try:
        value, all_repairs = parse_document(
            s, repairs=repairs, max_depth=config.max_parse_depth,
            allow_multiple=config.enable_multiple_json_aggregation,
            allow_merge=config.enable_object_merging,
            allow_ellipsis=config.enable_ellipsis_filtering,
            allow_keywords=config.enable_keyword_filtering,
        )
        all_repairs = repairs if value is SKIP else all_repairs
    except Exception:  # noqa: BLE001 — diagnostics path mirrors layer rescue
        all_repairs = repairs
    steps.append({"layer": "tolerant_parse",
                  "us": round((time.perf_counter_ns() - t0) / 1000, 1),
                  "input_size": len(s), "output_size": None,
                  "repairs_so_far": len(all_repairs)})
    return result()
