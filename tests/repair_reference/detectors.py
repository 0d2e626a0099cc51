"""Frozen copy of the plain-text detector the pipeline calls."""

from __future__ import annotations

import re

_STRUCT_CHAR_RE = re.compile(r'[{}\[\]":]')

# number-ish scalars the parser can repair: leading +, thousands commas,
# underscores, bare leading dot — these are NOT plain text
_NUMBER_RE = re.compile(r"^[+-]?(?:\d[\d_,]*(?:\.\d*)?|\.\d+)(?:[eE][+-]?\d*)?$")
_LITERALS = {"true", "false", "null"}


def plain_text(s: str) -> bool:
    """True when the input is prose, not JSON-ish: no structural chars and
    not a bare JSON literal/number.  Reference returns ``""`` for these
    (utils/plain_text_detector.ex:5-27; lib/json_remedy.ex:348-349)."""
    stripped = s.strip()
    if not stripped:
        return True
    if _STRUCT_CHAR_RE.search(stripped):
        return False
    if stripped in _LITERALS:
        return False
    if _NUMBER_RE.match(stripped):
        return False
    return True
