"""Layer 1 — content cleaning (SURVEY §2.4).

Behavior parity with reference lib/json_remedy/layer1/content_cleaning.ex:
code fences (:57-64,298-466), comments (:71-77,469-635), html wrappers
(:638-678), prose extraction (:681-783), trailing wrapper text (:795-869),
trailing dots (:136-182,931-994), encoding (:103-120,920-925).

All functions are pure ``str -> (str, [Repair])`` so the fused Ray batch
UDF can chain them without copies beyond what Python strings require.

The string-aware passes (balanced-structure search, comment removal)
walk tokens found by one compiled scanner, ``_SCAN_RE``, instead of
characters.  One match skips ordinary text and whole double-quoted
strings (unterminated ones included) in C and stops at the next bracket,
comment opener or single quote, so a Python step is taken per such token
rather than per character.  The balanced-structure search first tries
one match of ``_BALANCED_RE``, which finds the whole structure in C when
it nests at most 8 deep; the token walk stays its definition and runs
only when that match fails.
"""

from __future__ import annotations

import re

from json_remedy_ray.repair.actions import LAYER_CONTENT, Repair
from json_remedy_ray.repair.layer3 import DQ_STRING_RE, inside_string

# skip double-quoted strings and other text; group 1 is the next token:
# a bracket, `//`, `/*` or a single quote, or "" at the end of the text
_SCAN_RE = re.compile(r"(?:%s|[^\"{}\[\]/']++|/(?![/*]))*+([{}\[\]]|//|/\*|'|\Z)"
                      % DQ_STRING_RE.pattern, re.DOTALL)


def _balanced_re(depth: int) -> re.Pattern:
    """One {...} or [...] at the match start, closed by its own closer,
    double-quoted strings skipped, brackets inside of either type and
    nested at most ``depth`` deep in all: ``_find_balanced``'s token walk
    in one match.  Possessive loops: no backtracking."""
    body = r'(?:%s|[^"{}\[\]]++)*+' % DQ_STRING_RE.pattern
    for _ in range(depth - 1):
        body = r'(?:%s|[^"{}\[\]]++|[{\[]%s[}\]])*+' % (DQ_STRING_RE.pattern, body)
    return re.compile(r"\{%s\}|\[%s\]" % (body, body), re.DOTALL)


_BALANCED_RE = _balanced_re(8)
# a single-quoted string opened at a structural position (remove_comments)
_SQ_STRING_RE = re.compile(r"'[^'\\]*+(?:\\.[^'\\]*+)*+['\\]?", re.DOTALL)
_BLOCK_MARK_RE = re.compile(r"/\*|\*/")
_OPEN_RE = re.compile(r"[{\[]")
_BARE_NUMBER_RE = re.compile(r"[-+]?\d+(\.\d+)?")

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
    if s.isascii():
        return s, []
    try:
        s.encode("utf-8")
        return s, []
    except UnicodeEncodeError:
        cleaned = s.encode("utf-8", errors="ignore").decode("utf-8", errors="ignore")
        return cleaned, [Repair(LAYER_CONTENT, "normalized encoding", None)]


_FENCE_OPEN_ANCHOR_RE = re.compile(r"^`{2,}[ \t]*[a-zA-Z0-9_-]*[ \t]*\r?\n?")


def _closing_fence_start(body: str) -> int:
    r"""Where the regex search ``\r?\n?[ \t]*`{2,}\s*$`` would match in
    ``body`` (the closing fence at its end), or -1.  Found from the end
    in linear time; the regex retries ``[ \t]*`` from every position,
    which is quadratic in a long run of spaces."""
    e = len(body.rstrip())
    b = e
    while b > 0 and body[b - 1] == "`":
        b -= 1
    if e - b < 2:
        return -1
    q = len(body[:b].rstrip(" \t"))
    if q and body[q - 1] == "\n":
        q -= 1
    if q and body[q - 1] == "\r":
        q -= 1
    return q


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
        end = _closing_fence_start(body)
        if end != -1:
            body = body[:end]
        return body.strip(), [Repair(LAYER_CONTENT, "removed code fences", 0)]
    # complete fenced block(s) embedded in prose: erase the markers only —
    # but never inside a double-quoted string (a properly quoted fence
    # string value must survive for layer-4 unwrap)
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
    n = len(s)
    keep = 0        # s[keep:] is not copied to ``out`` yet
    # the last non-space char outside strings and comments is the last one
    # of s[sig_from:pos].rstrip(), or ``sig`` when that is empty
    sig, sig_from = "", 0
    i = 0
    while True:
        m = _SCAN_RE.match(s, i)
        tok = m.group(1)
        if not tok:
            break
        i = m.end()
        if tok in "{}[]":
            continue
        a = m.start(1)
        # a skipped string ends in its closing quote, the last
        # non-space char the char-level rules saw too
        t = s[sig_from:a].rstrip()
        if t:
            sig = t[-1]
        if tok == "'":
            # "" is in the string too: a quote at the start opens a string
            i = _SQ_STRING_RE.match(s, a).end() if sig in ":,{[" else a + 1
            sig, sig_from = "'", i
            continue
        out.append(s[keep:a])
        if s[a + 1] == "/":
            repairs.append(Repair(LAYER_CONTENT, "removed line comment", a))
            j = s.find("\n", a)  # keep the newline
            if j == -1:
                keep = n
                break
        else:
            depth = 1
            j = a + 2
            while depth:
                mark = _BLOCK_MARK_RE.search(s, j)
                if mark is None:
                    j = n
                    break
                depth += 1 if s[mark.start()] == "/" else -1
                j = mark.end()
            repairs.append(Repair(LAYER_CONTENT, "removed block comment", a))
        keep = i = sig_from = j
    out.append(s[keep:])
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
    m = _BALANCED_RE.match(s, start)
    if m:
        return m.end()
    close_ch = "}" if s[start] == "{" else "]"
    depth = 0
    for m in _SCAN_RE.finditer(s, start):
        ch = m.group(1)
        if not ch:
            break
        if ch in "{[":
            depth += 1
        elif ch in "}]":
            depth -= 1
            if depth == 0:
                return m.end() if ch == close_ch else -1
    return -1


def extract_from_prose(s: str) -> tuple[str, list[Repair]]:
    """Input >100 chars not starting with {/[ -> extract the first balanced
    {...}/[...] (reference content_cleaning.ex:681-783)."""
    stripped = s.strip()
    if len(stripped) <= 100 or stripped.startswith(("{", "[")):
        return s, []
    pos = 0
    for _ in range(16):  # candidate starts
        m = _OPEN_RE.search(s, pos)
        if m is None:
            break
        i = m.start()
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
    m = _OPEN_RE.search(s)
    if m is None:
        return s, []
    end = _find_balanced(s, m.start())
    if end == -1:
        return s, []
    trailer = s[end:]
    t = trailer.strip()
    if not t:
        return s, []
    if "{" in t or "[" in t or t[0] == '"':
        return s, []  # trailer has another structure -> multiple-values path
    if _BARE_NUMBER_RE.fullmatch(t):
        return s, []  # bare trailing number -> multiple-values path
    return s[:end], [Repair(LAYER_CONTENT, "removed trailing wrapper text", end)]


def strip_trailing_dots(s: str, threshold: int = 10) -> tuple[str, list[Repair]]:
    """Gemini max_output_tokens pattern: >= ``threshold`` trailing dots are
    stripped (reference content_cleaning.ex:136-182; threshold :149)."""
    # cheap reject first: `$` also matches before one final newline
    tail = s[:-1] if s.endswith("\n") else s
    if not tail.rstrip(" \t").endswith("." * threshold):
        return s, []
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
