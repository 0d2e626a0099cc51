"""Pre-parse normalizers (SURVEY §2.3) — string -> string regex passes.

These run before the tolerant parse; they are the vectorizable part of
the reference's Layer-3 pre-pass (reference
layer3/syntax_normalization.ex:437-471, layer3/hardcoded_patterns.ex,
utils/preprocessing.ex).
"""

from __future__ import annotations

import re

from tests.repair_reference.actions import LAYER_PREPROCESSING, LAYER_SYNTAX, Repair

# reference layer3/hardcoded_patterns.ex:60-73,114-123 — smart double quotes
# -> ", smart single quotes -> ' (straight ' handled by the parser)
_SMART_QUOTES = str.maketrans({
    "“": '"', "”": '"', "«": '"', "»": '"', "‹": '"', "›": '"',
    "‘": "'", "’": "'",
})
_SMART_QUOTE_RE = re.compile("[“”«»‹›‘’]")

# reference utils/preprocessing.ex:5-17 — `"```json {…}```"` as a *string
# value* -> inline the JSON so it parses as a nested structure
_FENCE_IN_STRING_RE = re.compile(r'([:\[,]\s*)"```json\s+(.+?)```"', re.DOTALL)

# reference layer3/hardcoded_patterns.ex:258-287 — literal escape sequences
# (opt-in, default off): `\t`/`\n`/... -> real control chars, `\uXXXX` and
# `\xXX` -> the codepoint (reference normalize_unicode_escapes /
# normalize_hex_escapes / normalize_standard_escapes, applied in that order)
_ESC_MAP = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f"}

# ONE combined pass (unicode | hex | standard) with a (?<!\\) guard:
#  - the guard keeps `"C:\\network"` intact (the `\n` there is half of an
#    ESCAPED backslash; the reference's String.replace corrupts it —
#    documented deviation/improvement).  A guard cannot count backslash
#    RUN parity (`\\\n` keeps its escape unconverted) — accepted limit of
#    the regex formulation; the op is opt-in and default-off.
#  - a single pass also prevents cascades: `\x5c` -> `\` must NOT make an
#    adjacent `n` into a newline on a later pass (sub output is never
#    rescanned within one pass).
_ESC_ANY_RE = re.compile(
    r"(?<!\\)\\(?:u([0-9a-fA-F]{4})|x([0-9a-fA-F]{2})|([ntrbf]))")


def normalize_smart_quotes(s: str) -> tuple[str, list[Repair]]:
    if not _SMART_QUOTE_RE.search(s):
        return s, []
    return s.translate(_SMART_QUOTES), [Repair(LAYER_PREPROCESSING, "normalized smart quotes", None)]


def inline_code_fence_string_values(s: str) -> tuple[str, list[Repair]]:
    if '"```json' not in s:
        return s, []
    out, n = _FENCE_IN_STRING_RE.subn(lambda m: m.group(1) + m.group(2).strip(), s)
    if n:
        return out, [Repair(LAYER_PREPROCESSING, "inlined code-fenced JSON string value", None)]
    return s, []


def normalize_escape_sequences(s: str) -> tuple[str, list[Repair]]:
    """Literal escape sequences -> real characters (opt-in, default off —
    matches the reference: converting `\\n` inside a VALID JSON string
    changes its parsed value, so this only runs when asked).  Covers the
    reference's unicode/hex/standard families
    (hardcoded_patterns.ex:258-287) in one cascade-free pass."""
    def _sub(m: re.Match) -> str:
        if m.group(1) is not None:          # \uXXXX
            cp = int(m.group(1), 16)
            # lone surrogates are not encodable UTF-8 (the reference's
            # <<codepoint::utf8>> raises on them too): leave the escape
            return m.group(0) if 0xD800 <= cp <= 0xDFFF else chr(cp)
        if m.group(2) is not None:          # \xXX
            return chr(int(m.group(2), 16))
        return _ESC_MAP[m.group(3)]         # \n \t \r \b \f

    out, n = _ESC_ANY_RE.subn(_sub, s)
    if n:
        return out, [Repair(LAYER_SYNTAX, "normalized escape sequences", None)]
    return s, []


def preprocess(s: str, enable_escape_normalization: bool = False) -> tuple[str, list[Repair]]:
    repairs: list[Repair] = []
    s, r = normalize_smart_quotes(s)
    repairs.extend(r)
    s, r = inline_code_fence_string_values(s)
    repairs.extend(r)
    if enable_escape_normalization:
        s, r = normalize_escape_sequences(s)
        repairs.extend(r)
    return s, repairs
