"""Layer 3 — syntax normalization as standalone string -> string operators.

Public Layer-3 API parity (reference
lib/json_remedy/layer3/syntax_normalization.ex:169-315, rule system
layer3/rule_processors.ex:24-47): each operator is independently usable
and string-aware (never mutates content inside double-quoted strings).

The full repair pipeline uses the Layer-5 tolerant parser for the heavy
lifting; these exist for the operator inventory (rules:
quote_unquoted_keys, normalize_single_quotes,
normalize_booleans_and_nulls, fix_trailing_commas) and are the
vectorizable regex passes named by the north star.
"""

from __future__ import annotations

import re
from collections.abc import Callable

from json_remedy_ray.repair.actions import LAYER_SYNTAX, Repair

# ---------------------------------------------------------------- segments

# One double-quoted string: a backslash escapes the next char (newline
# included); an unterminated string runs to the end of the text, a lone
# trailing backslash with it.  Possessive loops: no backtracking.
DQ_STRING_RE = re.compile(r'"[^"\\]*+(?:\\.[^"\\]*+)*+["\\]?', re.DOTALL)


def _segments(s: str):
    """Yield (is_string, text) segments; string segments include their
    double quotes.  Escape-aware (reference layer_behaviour.ex:69-77
    `inside_string?`)."""
    out_start = 0
    for m in DQ_STRING_RE.finditer(s):
        i, j = m.span()
        if i > out_start:
            yield False, s[out_start:i]
        yield True, s[i:j]
        out_start = j
    if out_start < len(s):
        yield False, s[out_start:]


def _outside_strings(s: str, fn: Callable[[str], str]) -> str:
    return "".join(seg if is_str else fn(seg) for is_str, seg in _segments(s))


def inside_string(s: str, pos: int) -> bool:
    """True when ``pos`` falls inside a double-quoted string."""
    for m in DQ_STRING_RE.finditer(s, 0, pos + 1):
        if m.start() <= pos < m.end():
            return True
    return False


# --------------------------------------------------------------- operators

def normalize_quotes(s: str) -> str:
    """Single-quoted strings -> double-quoted (string-aware char scan;
    reference syntax_normalization.ex:169-184)."""
    out: list[str] = []
    i, n = 0, len(s)
    in_dq = False
    in_sq = False
    while i < n:
        c = s[i]
        if c == "\\" and i + 1 < n:
            nxt = s[i + 1]
            if in_sq and nxt == "'":
                # \' is not a valid JSON escape: unescape when converting
                # the single-quoted string to double quotes
                out.append("'")
            else:
                out.append(c)
                out.append(nxt)
            i += 2
            continue
        if in_dq:
            out.append(c)
            if c == '"':
                in_dq = False
        elif in_sq:
            if c == "'":
                out.append('"')
                in_sq = False
            elif c == '"':
                out.append('\\"')
            else:
                out.append(c)
        elif c == '"':
            out.append(c)
            in_dq = True
        elif c == "'":
            out.append('"')
            in_sq = True
        else:
            out.append(c)
        i += 1
    return "".join(out)


_BOOL_RE = re.compile(r"\b(True|TRUE|False|FALSE)\b")
_NULL_RE = re.compile(r"\b(None|NULL|Null|nil)\b")


def normalize_booleans(s: str) -> str:
    """True/TRUE/False/FALSE -> true/false outside strings
    (reference syntax_normalization.ex:194-234)."""
    return _outside_strings(s, lambda seg: _BOOL_RE.sub(lambda m: m.group(1).lower()[:4] if m.group(1)[0] in "tT" else "false", seg))


def normalize_literals(s: str) -> str:
    """Booleans + None/NULL/Null -> null outside strings
    (reference syntax_normalization.ex:299-304, literal_processors.ex:15-27)."""
    s = normalize_booleans(s)
    return _outside_strings(s, lambda seg: _NULL_RE.sub("null", seg))


_TRAILING_COMMA_RE = re.compile(r",(\s*[}\]])")


def fix_commas(s: str) -> str:
    """Remove trailing commas before } / ] outside strings
    (reference syntax_normalization.ex:244-250, post_processors.ex:42-148)."""
    return _outside_strings(s, lambda seg: _TRAILING_COMMA_RE.sub(r"\1", seg))


_UNQUOTED_KEY_RE = re.compile(r"([{,]\s*)([A-Za-z_][A-Za-z0-9_]*)(\s*:)")


def quote_unquoted_keys(s: str) -> str:
    """`{key: 1}` -> `{"key": 1}` outside strings
    (reference syntax_normalization.ex:284-289, quote_processors.ex:15-22)."""
    parts: list[str] = []
    prev_nonstr_tail = ""
    for is_str, seg in _segments(s):
        if is_str:
            parts.append(seg)
        else:
            # allow a match at segment start when the `{`/`,` ended the
            # previous non-string segment (can't happen: segments alternate)
            parts.append(_UNQUOTED_KEY_RE.sub(r'\1"\2"\3', seg))
        prev_nonstr_tail = seg[-1:] if not is_str else prev_nonstr_tail
    return "".join(parts)


_MISSING_COLON_RE = re.compile(r'("(?:[^"\\]|\\.)*")(\s+)("(?:[^"\\]|\\.)*")')


def fix_colons(s: str) -> str:
    """`{"key" "value"}` -> `{"key": "value"}` — insert a colon after a KEY
    string that is directly followed by another string (reference
    syntax_normalization.ex:310-315, post_processors.ex:525-629).

    Position-aware: a string right after `{` or `,` in object context is a
    key and expects `:`; a string after `:` is a value and a following
    string is a MISSING-COMMA case, which this operator must not touch."""
    out: list[str] = []
    i, n = 0, len(s)
    ctx: list[str] = []
    in_str = False
    esc = False
    # what the next token means inside the current object: "key" | "colon" | "value" | "comma"
    expect = "key"
    expect_stack: list[str] = []
    while i < n:
        c = s[i]
        if in_str:
            out.append(c)
            if esc:
                esc = False
            elif c == "\\":
                esc = True
            elif c == '"':
                in_str = False
            i += 1
            continue
        if c == '"':
            if ctx and ctx[-1] == "{" and expect == "colon":
                while out and out[-1] in " \t":
                    out.pop()
                out.append(": ")
                expect = "value"
            in_str = True
            out.append(c)
            if ctx and ctx[-1] == "{":
                expect = "colon" if expect == "key" else ("comma" if expect == "value" else expect)
            i += 1
            continue
        if c in "{[":
            ctx.append(c)
            expect_stack.append(expect)
            expect = "key" if c == "{" else "value"
        elif c in "}]":
            if ctx:
                ctx.pop()
            expect = expect_stack.pop() if expect_stack else "key"
            if expect == "value":
                expect = "comma"
        elif c == ":":
            expect = "value"
        elif c == ",":
            expect = "key" if (ctx and ctx[-1] == "{") else "value"
        elif not c.isspace():
            if ctx and ctx[-1] == "{" and expect == "value":
                expect = "comma"
        out.append(c)
        i += 1
    return "".join(out)


_MISSING_VALUE_RE = re.compile(r":(\s*)([}\],])")


def fix_missing_values(s: str) -> str:
    """`: }` -> `: ""}` (reference syntax_normalization.ex:362-368)."""
    return _outside_strings(s, lambda seg: _MISSING_VALUE_RE.sub(r': ""\2', seg))


# reference layer3/ellipsis_filter.ex:33-64 — five positional patterns
_ELLIPSIS_PATTERNS = [
    (re.compile(r"\[\s*\.\.\.\s*\]"), "[]"),
    (re.compile(r",\s*\.\.\.\s*\]"), "]"),
    (re.compile(r"\[\s*\.\.\.\s*,"), "["),
    (re.compile(r",\s*\.\.\.\s*,"), ","),
    (re.compile(r",\s*\.\.\.\s*\}"), "}"),
]


def filter_ellipsis(s: str) -> str:
    if "..." not in s:
        return s

    def _apply(seg: str) -> str:
        for pat, repl in _ELLIPSIS_PATTERNS:
            seg = pat.sub(repl, seg)
        return seg

    return _outside_strings(s, _apply)


# reference layer3/keyword_filter.ex:34-65 — six positional patterns
_KEYWORDS_ALT = r"(?:COMMENT|DEBUG_INFO|PLACEHOLDER|TODO|FIXME|NOTE|XXX)"
_KEYWORD_PATTERNS = [
    (re.compile(r",\s*" + _KEYWORDS_ALT + r"\s*,"), ","),
    (re.compile(r",\s*" + _KEYWORDS_ALT + r"\s*(\})"), r"\1"),
    (re.compile(r",\s*" + _KEYWORDS_ALT + r"\s*(\])"), r"\1"),
    (re.compile(r"(\{)\s*" + _KEYWORDS_ALT + r"\s*,"), r"\1"),
    (re.compile(r"(\[)\s*" + _KEYWORDS_ALT + r"\s*,"), r"\1"),
    (re.compile(r"(,)\s*" + _KEYWORDS_ALT + r"\s+"), r"\1 "),
]


def filter_keywords(s: str) -> str:
    def _apply(seg: str) -> str:
        for pat, repl in _KEYWORD_PATTERNS:
            seg = pat.sub(repl, seg)
        return seg

    return _outside_strings(s, _apply)


# reference layer3/hardcoded_patterns.ex:171-185 — thousands separators in
# value position
_THOUSANDS_RE = re.compile(r"([:\[,]\s*-?)(\d{1,3})((?:,\d{3})+)(\.\d+)?(?=\s*[,}\]\s])")


def normalize_number_formats(s: str) -> str:
    def _apply(seg: str) -> str:
        return _THOUSANDS_RE.sub(
            lambda m: m.group(1) + m.group(2) + m.group(3).replace(",", "") + (m.group(4) or ""),
            seg,
        )

    return _outside_strings(s, _apply)


# content may not contain quotes OR any structural char (, [ ] { } :) —
# a span like `, 1, ` between two legitimate empty strings would
# otherwise be mistaken for doubled-quote content and corrupt valid JSON
_DOUBLED_QUOTES_RE = re.compile(r'([:\[,]\s*)""([^",\[\]{}:]+?)""(?=\s*[,}\]])')


def fix_doubled_quotes(s: str) -> str:
    """String-domain doubled-quote repair: `: ""value""` -> `: "value"`
    at value positions.  The reference declares this op but no-ops it
    (hardcoded_patterns.ex:237-254, deferred to Layer 5 — this engine's
    layer 5 handles the full context-aware family incl. comma/structural
    content; this standalone regex pass converts only quote-free,
    structure-free content, so legitimate `""` empty strings — adjacent
    or separated by other values — and escaped quotes are untouched)."""
    return _DOUBLED_QUOTES_RE.sub(r'\1"\2"', s)


def get_position_info(s: str, pos: int) -> dict:
    """1-based line/column for a character offset (reference
    syntax_normalization.ex:342 ``get_position_info/2``)."""
    pos = max(0, min(pos, len(s)))
    line = s.count("\n", 0, pos) + 1
    last_nl = s.rfind("\n", 0, pos)
    col = pos - last_nl if last_nl != -1 else pos + 1
    return {"line": line, "column": col, "offset": pos}


def normalize_syntax(s: str) -> tuple[str, list[Repair]]:
    """Chained regex passes (the orderable subset of the reference's
    Layer-3 entry, syntax_normalization.ex:68-81).  Returns the normalized
    string; repairs are coarse (one per pass that changed the text)."""
    repairs: list[Repair] = []
    for name, fn in (
        ("filter_ellipsis", filter_ellipsis),
        ("filter_keywords", filter_keywords),
        ("normalize_quotes", normalize_quotes),
        ("normalize_literals", normalize_literals),
        ("quote_unquoted_keys", quote_unquoted_keys),
        ("normalize_number_formats", normalize_number_formats),
        ("fix_missing_values", fix_missing_values),
        ("fix_colons", fix_colons),
        ("fix_commas", fix_commas),
    ):
        t = fn(s)
        if t != s:
            repairs.append(Repair(LAYER_SYNTAX, name, None))
            s = t
    return s, repairs
