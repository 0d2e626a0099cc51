"""Layer 4 — validation: fast path, strict mode, post-parse fence unwrap.

Parity:
  - fast path json decode         reference layer4/validation.ex:38-65
  - strict mode (duplicate/empty keys, single strict value)
                                  reference utils/strict_mode_validator.ex:10-186
  - post-parse code-fence unwrap  reference utils/code_fence_extractor.ex:7-39
"""

from __future__ import annotations

import json
import re

from tests.repair_reference.actions import LAYER_VALIDATION, Repair

_FENCE_STRING_RE = re.compile(r"\A```(?:json)?\s*\n?(.*?)\n?\s*```\Z", re.DOTALL)


def try_fast_path(s: str):
    """Strict json decode; (ok, value).  The reference tries this before
    any repair (lib/json_remedy.ex:119-127) and again as Layer 4
    (layer4/validation.ex:38-65)."""
    try:
        return True, json.loads(s)
    except (json.JSONDecodeError, RecursionError, ValueError):
        return False, None


class _DupKeyError(Exception):
    pass


def _strict_object_hook(pairs):
    seen = set()
    for k, _ in pairs:
        if k == "":
            raise _DupKeyError("empty key")
        if k in seen:
            raise _DupKeyError(f"duplicate key {k!r}")
        seen.add(k)
    return dict(pairs)


def validate_strict(s: str):
    """Strict mode: input must already be valid JSON AND contain no
    duplicate or empty object keys, at any nesting level.  Returns
    (ok, value_or_reason)."""
    try:
        value = json.loads(s, object_pairs_hook=_strict_object_hook)
        return True, value
    except _DupKeyError as e:
        return False, f"strict mode violation: {e}"
    except (json.JSONDecodeError, RecursionError, ValueError) as e:
        return False, f"invalid JSON in strict mode: {e}"


def unwrap_fence_strings(value, repair_fn, repairs: list[Repair], depth: int = 0,
                         max_depth: int = 64):
    """Post-parse recursive walk: any string value that is itself a fenced
    JSON document is repaired and inlined (reference
    utils/code_fence_extractor.ex:7-39; called at lib/json_remedy.ex:430).

    ``depth`` counts VALUE-TREE nesting (guarded at ``max_depth=64`` so
    pathological structures can't recurse unboundedly); pipeline re-entry
    is bounded separately by repair()'s own ``_depth``/``max_reentry_depth``
    — the two limits are independent."""
    if depth >= max_depth:
        return value
    if isinstance(value, str):
        m = _FENCE_STRING_RE.match(value)
        if m and m.group(1).strip():
            ok, inner = repair_fn(m.group(1))
            if ok and inner != "":
                repairs.append(Repair(LAYER_VALIDATION, "unwrapped code-fenced JSON string value", None))
                return inner
        return value
    if isinstance(value, list):
        return [unwrap_fence_strings(v, repair_fn, repairs, depth + 1, max_depth) for v in value]
    if isinstance(value, dict):
        return {k: unwrap_fence_strings(v, repair_fn, repairs, depth + 1, max_depth) for k, v in value.items()}
    return value


def _sanitize_surrogates(value):
    """Replace unpaired UTF-16 surrogates (json.loads accepts '\\ud800'!)
    so the canonical output is always valid UTF-8 — a lone surrogate in
    one row would otherwise crash the whole Arrow batch downstream."""
    if isinstance(value, str):
        try:
            value.encode("utf-8")
            return value
        except UnicodeEncodeError:
            return value.encode("utf-8", errors="replace").decode("utf-8")
    if isinstance(value, list):
        return [_sanitize_surrogates(v) for v in value]
    if isinstance(value, dict):
        return {_sanitize_surrogates(k): _sanitize_surrogates(v) for k, v in value.items()}
    return value


def canonical_json(value) -> str:
    """Canonical serialization for byte-identical comparison across engines
    (SURVEY §5 port plan): sorted keys, no spaces, UTF-8 kept raw."""
    canon = json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    try:
        canon.encode("utf-8")
    except UnicodeEncodeError:
        canon = json.dumps(_sanitize_surrogates(value), sort_keys=True,
                           separators=(",", ":"), ensure_ascii=False)
    return canon
