"""Layer 1 — content cleaning (SURVEY §2.4).

Behavior parity with reference lib/json_remedy/layer1/content_cleaning.ex:
code fences (:57-64,298-466), comments (:71-77,469-635), html wrappers
(:638-678), prose extraction (:681-783), trailing wrapper text (:795-869),
trailing dots (:136-182,931-994), encoding (:103-120,920-925).

All functions are pure ``str -> (str, [Repair])`` so the fused Ray batch
UDF can chain them without copies beyond what Python strings require.
"""

from __future__ import annotations

import re

from tests.repair_reference.actions import LAYER_CONTENT, Repair

_FENCE_BLOCK_RE = re.compile(r"```+[ \t]*[a-zA-Z0-9_-]*[ \t]*\r?\n?(.*?)```+", re.DOTALL)
_FENCE_OPEN_ONLY_RE = re.compile(r"^[ \t]*```+[ \t]*[a-zA-Z0-9_-]*[ \t]*\r?\n?", re.DOTALL)
_HTML_WRAPPER_RE = re.compile(
    r"<(pre|code|json)(?:\s[^>]*)?>(.*?)</\1>", re.DOTALL | re.IGNORECASE
)
_TRAILING_DOTS_CACHE: dict[int, re.Pattern] = {}


def normalize_encoding(s: str) -> tuple[str, list[Repair]]:
    """Invalid/unencodable sequences -> removed (reference filters to ASCII
    on invalid UTF-8, content_cleaning.ex:103-120).  Python strings are
    already decoded; we only drop lone surrogates that would break Arrow."""
    try:
        s.encode("utf-8")
        return s, []
    except UnicodeEncodeError:
        cleaned = s.encode("utf-8", errors="ignore").decode("utf-8", errors="ignore")
        return cleaned, [Repair(LAYER_CONTENT, "normalized encoding", None)]


_FENCE_OPEN_ANCHOR_RE = re.compile(r"^`{2,}[ \t]*[a-zA-Z0-9_-]*[ \t]*\r?\n?")
_FENCE_CLOSE_ANCHOR_RE = re.compile(r"\r?\n?[ \t]*`{2,}\s*$")


def remove_code_fences(s: str) -> tuple[str, list[Repair]]:
    """Strip ``` fences (incl. language tag lines and malformed ``-style
    fences, reference content_cleaning.ex:298-466).

    Doc that OPENS with a fence -> strip the anchored opening line and the
    trailing closing backticks greedily (so fence-like content nested in
    string values survives).  Fences embedded mid-prose -> erase markers,
    keep contents in place (the multiple-JSON detector then parses the
    value sequence).  A fence inside a quoted string is untouched (the
    fast path catches valid JSON before Layer 1 anyway).
    """
    if "``" not in s:
        return s, []
    stripped = s.strip()
    m_open = _FENCE_OPEN_ANCHOR_RE.match(stripped)
    if m_open:
        body = stripped[m_open.end():]
        m_close = _FENCE_CLOSE_ANCHOR_RE.search(body)
        if m_close:
            body = body[:m_close.start()]
        return body.strip(), [Repair(LAYER_CONTENT, "removed code fences", 0)]
    # complete fenced block(s) embedded in prose: erase the markers only —
    # but never inside a double-quoted string (a properly quoted fence
    # string value must survive for layer-4 unwrap)
    from tests.repair_reference.layer3 import inside_string

    changed = False

    def _erase(m: re.Match) -> str:
        nonlocal changed
        if inside_string(s, m.start()):
            return m.group(0)
        changed = True
        return " " + m.group(1) + " "

    out = _FENCE_BLOCK_RE.sub(_erase, s)
    if not changed:
        return s, []
    return out, [Repair(LAYER_CONTENT, "removed code fence markers", 0)]


def remove_comments(s: str) -> tuple[str, list[Repair]]:
    """Remove ``//`` line comments and (nested) ``/* */`` block comments,
    string-aware for BOTH quote styles (reference
    content_cleaning.ex:71-77,469-635).  A single-quoted string state is
    only entered when the quote follows a structural char (``:,{[`` or
    start) so prose apostrophes don't mask real comments, but
    ``{'url': 'https://x'}`` survives intact."""
    if "//" not in s and "/*" not in s:
        return s, []
    out: list[str] = []
    repairs: list[Repair] = []
    i, n = 0, len(s)
    in_str = False       # double-quoted
    in_sq = False        # single-quoted (structural-position opens only)
    esc = False
    prev_sig = ""
    while i < n:
        ch = s[i]
        if in_str or in_sq:
            out.append(ch)
            if esc:
                esc = False
            elif ch == "\\":
                esc = True
            elif in_str and ch == '"':
                in_str = False
                prev_sig = ch
            elif in_sq and ch == "'":
                in_sq = False
                prev_sig = ch
            i += 1
            continue
        if ch == '"':
            in_str = True
            out.append(ch)
            prev_sig = ch
            i += 1
            continue
        if ch == "'" and (prev_sig in ":,{[" or prev_sig == ""):
            in_sq = True
            out.append(ch)
            prev_sig = ch
            i += 1
            continue
        if ch == "/" and i + 1 < n and s[i + 1] == "/":
            j = s.find("\n", i)
            repairs.append(Repair(LAYER_CONTENT, "removed line comment", i))
            if j == -1:
                break
            i = j  # keep the newline
            continue
        if ch == "/" and i + 1 < n and s[i + 1] == "*":
            depth = 1
            j = i + 2
            while j < n and depth:
                if s.startswith("/*", j):
                    depth += 1
                    j += 2
                elif s.startswith("*/", j):
                    depth -= 1
                    j += 2
                else:
                    j += 1
            repairs.append(Repair(LAYER_CONTENT, "removed block comment", i))
            i = j
            continue
        if not ch.isspace():
            prev_sig = ch
        out.append(ch)
        i += 1
    return "".join(out), repairs


def extract_from_html_tags(s: str) -> tuple[str, list[Repair]]:
    """Take inner text of <pre>/<code>/<json> wrappers
    (reference content_cleaning.ex:638-678)."""
    if "<" not in s:
        return s, []
    m = _HTML_WRAPPER_RE.search(s)
    if not m:
        return s, []
    inner = m.group(2)
    # unwrap nested wrappers (<pre><code>..</code></pre>)
    while True:
        m2 = _HTML_WRAPPER_RE.search(inner)
        if not m2:
            break
        inner = m2.group(2)
    return inner.strip(), [Repair(LAYER_CONTENT, f"extracted from <{m.group(1)}> wrapper", m.start())]


def _find_balanced(s: str, start: int) -> int:
    """Return end index (exclusive) of the balanced {...}/[...] starting at
    ``start``, or -1.  String-aware."""
    open_ch = s[start]
    close_ch = "}" if open_ch == "{" else "]"
    depth = 0
    in_str = False
    esc = False
    for i in range(start, len(s)):
        ch = s[i]
        if in_str:
            if esc:
                esc = False
            elif ch == "\\":
                esc = True
            elif ch == '"':
                in_str = False
            continue
        if ch == '"':
            in_str = True
        elif ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
            if depth == 0:
                if ch != close_ch:
                    return -1
                return i + 1
    return -1


def extract_from_prose(s: str) -> tuple[str, list[Repair]]:
    """Input >100 chars not starting with {/[ -> extract the first balanced
    {...}/[...] (reference content_cleaning.ex:681-783)."""
    stripped = s.strip()
    if len(stripped) <= 100 or stripped.startswith(("{", "[")):
        return s, []
    pos = 0
    for _ in range(16):  # candidate starts, located with C-speed find
        jb = s.find("{", pos)
        jk = s.find("[", pos)
        cands = [x for x in (jb, jk) if x != -1]
        if not cands:
            break
        i = min(cands)
        end = _find_balanced(s, i)
        if end != -1:
            return s[i:end], [Repair(LAYER_CONTENT, "extracted JSON from prose", i)]
        pos = i + 1
    return s, []


def remove_trailing_wrapper_text(s: str) -> tuple[str, list[Repair]]:
    """Drop non-JSON trailer after a balanced structure, unless the trailer
    itself starts another JSON value (multiple-values case)
    (reference content_cleaning.ex:795-869)."""
    stripped = s.rstrip()
    if not stripped or stripped[-1] in "}]":
        return s, []
    first = next((i for i, c in enumerate(s) if c in "{["), -1)
    if first == -1:
        return s, []
    end = _find_balanced(s, first)
    if end == -1:
        return s, []
    trailer = s[end:]
    t = trailer.strip()
    if not t:
        return s, []
    if "{" in t or "[" in t or t[0] == '"':
        return s, []  # trailer has another structure -> multiple-values path
    if re.fullmatch(r"[-+]?\d+(\.\d+)?", t):
        return s, []  # bare trailing number -> multiple-values path
    return s[:end], [Repair(LAYER_CONTENT, "removed trailing wrapper text", end)]


def strip_trailing_dots(s: str, threshold: int = 10) -> tuple[str, list[Repair]]:
    """Gemini max_output_tokens pattern: >= ``threshold`` trailing dots are
    stripped (reference content_cleaning.ex:136-182; threshold :149)."""
    pat = _TRAILING_DOTS_CACHE.get(threshold)
    if pat is None:
        pat = _TRAILING_DOTS_CACHE[threshold] = re.compile(r"\.{%d,}[ \t]*$" % threshold)
    m = pat.search(s)
    if not m:
        return s, []
    return s[: m.start()], [Repair(LAYER_CONTENT, "stripped trailing dots", m.start())]


def clean(s: str, trailing_dots_threshold: int = 10) -> tuple[str, list[Repair]]:
    """Full Layer-1 chain (reference content_cleaning.ex:32-51 order)."""
    repairs: list[Repair] = []
    for fn in (
        normalize_encoding,
        remove_code_fences,
        remove_comments,
        extract_from_html_tags,
        extract_from_prose,
        remove_trailing_wrapper_text,
    ):
        s, r = fn(s)
        repairs.extend(r)
    s, r = strip_trailing_dots(s, trailing_dots_threshold)
    repairs.extend(r)
    return s, repairs
