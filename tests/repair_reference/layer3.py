"""Frozen copy of the Layer-3 string segmenter that Layer 1 calls."""

from __future__ import annotations


def _segments(s: str):
    """Yield (is_string, text) segments; string segments include their
    double quotes.  Escape-aware (reference layer_behaviour.ex:69-77
    `inside_string?`)."""
    out_start = 0
    i, n = 0, len(s)
    while i < n:
        if s[i] == '"':
            j = i + 1
            while j < n:
                if s[j] == "\\":
                    j += 2
                    continue
                if s[j] == '"':
                    break
                j += 1
            if j >= n:  # unterminated string: treat rest as string
                j = n - 1
            if i > out_start:
                yield False, s[out_start:i]
            yield True, s[i:j + 1]
            i = j + 1
            out_start = i
            continue
        i += 1
    if out_start < n:
        yield False, s[out_start:]


def inside_string(s: str, pos: int) -> bool:
    """True when ``pos`` falls inside a double-quoted string."""
    off = 0
    for is_str, seg in _segments(s):
        if off <= pos < off + len(seg):
            return is_str
        off += len(seg)
    return False
