"""The fused repair pipeline (SURVEY §3.1 lifecycle).

Order of operations mirrors the reference's
``process_through_pipeline`` (lib/json_remedy.ex:347-448):

  1. strict mode short-circuit            (:94-101)
  2. fast path: strict json decode        (:119-127)
  3. plain-text detection -> ""           (:348-349)
  4. Layer 1 content cleaning             (:423)
  5. fast path retry on the cleaned text
  6. pre-parse normalizers (smart quotes, fence-in-string inline)
  7. Layer 5 tolerant parse (subsumes Layers 2+3 recoveries, including
     multiple-JSON aggregation (:355-380) and object merging (:388-393))
  8. post-parse code-fence unwrap         (:430)

Everything here is a pure function of (text, RepairConfig): deterministic
and idempotent, which is what makes Ray task retries and lineage
re-execution safe (SURVEY §4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from json_remedy_ray.config import DEFAULT_CONFIG, RepairConfig
from tests.repair_reference import detectors, layer1, layer4, preprocessing
from tests.repair_reference.actions import Repair
from tests.repair_reference.layer5 import SKIP, ParseError, parse_document


@dataclass
class RepairResult:
    ok: bool
    value: object = None
    repaired_json: str = ""          # canonical serialization (sorted keys)
    repairs: list[Repair] = field(default_factory=list)
    error: str = ""

    @property
    def layer_hits(self) -> dict[str, int]:
        hits: dict[str, int] = {}
        for r in self.repairs:
            hits[r.layer] = hits.get(r.layer, 0) + 1
        return hits


def repair(text: str, config: RepairConfig = DEFAULT_CONFIG, _depth: int = 0) -> RepairResult:
    """Repair one malformed JSON document -> parsed value + repair lineage.

    Flagship per-document transform (reference ``JsonRemedy.repair/2``,
    lib/json_remedy.ex:86-133)."""
    if isinstance(text, (bytes, bytearray)):
        # reference parity: JsonRemedy.repair/2 guards `when is_binary`
        # (lib/json_remedy.ex:86) and an Elixir binary is exactly a
        # UTF-8 byte blob — accept the Python equivalent
        try:
            text = bytes(text).decode("utf-8")
        except UnicodeDecodeError:
            return RepairResult(ok=False, error="input is not valid UTF-8")
    if not isinstance(text, str):
        return RepairResult(ok=False, error="input is not a string")
    if len(text.encode("utf-8", errors="ignore")) > config.max_doc_bytes:
        return RepairResult(ok=False, error=f"document exceeds max_doc_bytes={config.max_doc_bytes}")

    if config.strict_mode:
        ok, out = layer4.validate_strict(text)
        if ok:
            return _finish(out, [])
        return RepairResult(ok=False, error=str(out))

    repairs: list[Repair] = []

    # fast path: most embedded JSON on web corpora is valid (SURVEY §7.3)
    if config.fast_path:
        ok, value = layer4.try_fast_path(text)
        if ok:
            return _finish(value, repairs, config)

    if detectors.plain_text(text):
        return RepairResult(ok=True, value="", repaired_json='""', repairs=[])

    # pre-parse normalizers (§2.3 runs BEFORE Layer 1 — the fence-in-string
    # inline must win over Layer 1's fence stripping,
    # reference lib/json_remedy.ex:395-414)
    cleaned = text
    if config.enable_early_hardcoded_patterns or config.enable_hardcoded_patterns:
        cleaned, rp = preprocessing.preprocess(cleaned, config.enable_escape_normalization)
        repairs.extend(rp)
        if rp and config.fast_path:
            ok, value = layer4.try_fast_path(cleaned)
            if ok:
                return _finish(value, repairs, config)

    # Layer 1
    cleaned, r1 = layer1.clean(cleaned, config.trailing_dots_threshold)
    repairs.extend(r1)
    if r1 and config.fast_path:
        ok, value = layer4.try_fast_path(cleaned)
        if ok:
            return _finish(value, repairs, config)
    if detectors.plain_text(cleaned):
        return RepairResult(ok=True, value="", repaired_json='""', repairs=repairs)

    # Layer 5 tolerant parse
    try:
        value, repairs = parse_document(
            cleaned,
            repairs=repairs,
            max_depth=config.max_parse_depth,
            allow_multiple=config.enable_multiple_json_aggregation,
            allow_merge=config.enable_object_merging,
            allow_ellipsis=config.enable_ellipsis_filtering,
            allow_keywords=config.enable_keyword_filtering,
        )
    except (ParseError, RecursionError) as e:
        return RepairResult(ok=False, repairs=repairs, error=str(e))
    if value is SKIP:
        if detectors.plain_text(cleaned):
            return RepairResult(ok=True, value="", repaired_json='""', repairs=repairs)
        return RepairResult(ok=False, repairs=repairs, error="no JSON value could be recovered")

    # post-parse fence unwrap (re-entrant, depth-guarded)
    if _depth < config.max_reentry_depth:
        def _reenter(s: str):
            res = repair(s, config, _depth=_depth + 1)
            return res.ok, res.value
        value = layer4.unwrap_fence_strings(value, _reenter, repairs)

    return _finish(value, repairs, config)


def _finish(value, repairs: list[Repair], config: RepairConfig = DEFAULT_CONFIG) -> RepairResult:
    if not config.logging:
        # logging=False keeps layer/action lineage but drops positions
        # (reference `logging:` option controls the detail level)
        for r in repairs:
            r.position = None
    try:
        canon = layer4.canonical_json(value)
    except (TypeError, ValueError, RecursionError) as e:
        return RepairResult(ok=False, repairs=repairs, error=f"unserializable value: {e}")
    return RepairResult(ok=True, value=value, repaired_json=canon, repairs=repairs)

