"""Layer 5 — tolerant recursive-descent parser.

The workhorse of the repair pipeline (north_star: "Layer5 tolerant
recursive-descent parse").  It embodies the semantics of the reference's
Layer 2 state machine (delimiter stack, mismatch recovery — reference
layer2/structural_repair.ex:109-496), Layer 3 char-scan (quote /
literal / number / missing-comma-colon normalization — reference
layer3/syntax_normalization.ex:512-988, layer3/binary_processors.ex) and
the preprocessing patterns (multiple JSON values, object-boundary
merging, truncated keys — reference utils/multiple_json_detector.ex,
layer3/object_merger.ex, utils/preprocessing.ex).

Behavioral contracts verified against the reference ExUnit suites
(test/missing_patterns/*.exs, test/unit/*.exs); see tests/test_repair_core.py.

Docs are independent, so the Ray stage calls the parser once per flagged
row of an Arrow batch.  ``parse_document`` first tries the strict-rewrite
lane (``_strict_lane``): one position-anchored match skips, in C, every
token the parser reads as itself with no repair, and stops only at four
malformations whose reading is known (an ASCII bare key before ``:``, a
plain single-quoted string, a Python-style literal, a comma before a
close).  The lane rewrites those, lets json's C scanner read the result,
and returns that value with the repairs the parser would record, for one
object or array read to the end of the text; any other text goes to the
parser below as before.  Inside one document the parser keeps its Python
steps per token, not per character: each loop holds the text and the
cursor in locals, and whitespace/comma runs, string bodies without
escapes, plain numbers, bare words and runs of top-level prose are each
taken by one position-anchored ``re`` match.  Anything a fast match does
not cover exactly falls through to the general code below it, so the
repairs and their positions are those of the character-level rules
(tests/test_repair_reference.py holds the output to a frozen copy).
"""

from __future__ import annotations

import re

from json_remedy_ray.repair.actions import (
    LAYER_PREPROCESSING,
    LAYER_STRUCTURAL,
    LAYER_SYNTAX,
    Repair,
)
from json_remedy_ray.repair.layer4 import _scan_once


class _Skip:
    """Sentinel: parsed fragment should be discarded (empty mismatched
    object, filtered keyword, ellipsis placeholder)."""

    __repr__ = lambda self: "<SKIP>"  # noqa: E731


SKIP = _Skip()

# debug keywords stripped when unquoted (reference layer3/keyword_filter.ex:17-25).
# Case-sensitive: lowercase 'comment' is treated as an unquoted string value
# (reference test recent_python_cases_test.exs:68-92).  Beyond the named
# list, ANY all-caps identifier in a position expecting a key or a comma is
# junk (reference pattern4_comment_keywords_test.exs: SHOULD_NOT_EXIST,
# SEPARATOR, MARKER, HEADER, FOOTER, TRACE_END ... are all removed).
KEYWORDS = frozenset({"COMMENT", "DEBUG_INFO", "PLACEHOLDER", "TODO", "FIXME", "NOTE", "XXX"})

_ALLCAPS_RE = re.compile(r"^[A-Z][A-Z0-9_]+$")


def _is_junk_marker(word: str) -> bool:
    return word in KEYWORDS or bool(_ALLCAPS_RE.match(word))

# reference layer3/binary_processors.ex:487-523 literal normalization
LITERALS = {
    "true": True, "True": True, "TRUE": True,
    "false": False, "False": False, "FALSE": False,
    "null": None, "None": None, "NULL": None, "Null": None,
}

_NUM_START = frozenset("0123456789-+.$€£¥")

# position-anchored scanners, each used as PATTERN.match(s, pos).  An
# identifier starts with a Unicode letter or `_` (c.isalpha() or c == "_"),
# which no regex class spells exactly: patterns that start words accept
# ASCII starts only and leave the rest to the general code.
_ws_end = re.compile(r"[ \t\r\n]*").match
_sp_tab_end = re.compile(r"[ \t]*").match
_ws_commas = re.compile(r"[ \t\r\n]*+(,[ \t\r\n]*+)*+").match   # group 1: saw a comma
_dots_end = re.compile(r"\.*").match
_word = re.compile(r"[^\W\d]\w*").match       # the word at an identifier start
# bare words after an unquoted value, each led by an ASCII identifier
# char and not followed by `:` (that word is the next key)
_more_words = re.compile(r"(?:[ \t]++[A-Za-z_]\w*+(?![ \t\r\n]*:))*+").match
# a string body with no backslash up to its closing quote
_dq_body = re.compile(r'[^"\\]*"').match
_sq_body = re.compile(r"[^'\\]*'").match
# an unescaped closing quote somewhere ahead (a backslash skips one char)
_dq_ahead = re.compile(r'[^"\\]*+(?:\\.[^"\\]*+)*+"', re.DOTALL).match
_sq_ahead = re.compile(r"[^'\\]*+(?:\\.[^'\\]*+)*+'", re.DOTALL).match
_unterminated_stop = re.compile(r"[}\]\\]").search
# A value inside a structure that the general rules read as exactly one
# token, as one match (7 groups, in this order):
#  - a double-quoted string closed at its first quote: no backslash in the
#    body and no identifier char or quote after the close (\w is exactly
#    str.isalnum() or "_");
#  - `""` before whitespace, a terminator or the end (else it opens a
#    doubled-quote string);
#  - the same two for single quotes (one repair: the quote style);
#  - a lowercase literal that is a whole word;
#  - any other literal (one repair: its spelling);
#  - `-?digits(.digits)?` before a char the number scan stops at; a comma
#    only before a non-word char, so never before a thousands group
#    (every str.isdigit() char is a word char).
_SIMPLE_VALUE = (r'"([^"\\]+)"(?![\w"])|(")"(?=[ \t\r\n,}\]]|\Z)'
                 r"|'([^'\\]+)'(?![\w'])|(')'(?=[ \t\r\n,}\]]|\Z)"
                 r"|(true|false|null)(?!\w)|(True|False|None|TRUE|FALSE|NULL|Null)(?!\w)"
                 r"|(-?[0-9]+(?:\.[0-9]+)?)(?=[ \t\r\n}\]:]|\Z|,(?!\w))")
_simple_value_re = re.compile(_SIMPLE_VALUE).match
# an object member `key: value` with such a value, as one match: a
# double-quoted (group 1), single-quoted (2) or ASCII bare key (3), then
# the value groups 4-10
_member = re.compile(r"""(?:"([^"\\]*)"(?![\w"])|'([^'\\]*)'(?![\w'])|([A-Za-z_]\w*+))"""
                     r"[ \t\r\n]*:[ \t\r\n]*(?:" + _SIMPLE_VALUE + ")").match
# parse_number's fast path: a plain token and chars that end its scan
_simple_number = re.compile(r"-?[0-9]+(\.[0-9]+)?").match
_NUMBER_END = frozenset(" \t\r\n}]:")

_INT_RE = re.compile(r"^[+-]?\d+$")
_FLOAT_RE = re.compile(r"^[+-]?(?:\d+\.\d*|\.\d+)(?:[eE][+-]?\d+)?$|^[+-]?\d+[eE][+-]?\d+$")
_INCOMPLETE_EXP_RE = re.compile(r"[eE][+-]?$")
_UNDERSCORE_NUM_RE = re.compile(r"[+-]?\d[\d_]*(?:\.\d[\d_]*)?")
_THOUSANDS_NUM_RE = re.compile(r"[+-]?\d{1,3}(?:,\d{3})+(?:\.\d+)?")
# matched at a position (no `^`), so a top-level step never slices the
# rest of the text: long prose after an object stays linear
_KEY_AHEAD_RE = re.compile(r'\s*,?\s*(?:"[^"\n]{0,200}"|[A-Za-z_][A-Za-z0-9_]{0,80})\s*:')
# `, 105,12,}` — only bare numbers between a value-less key and the close
_NUM_TOKEN_RE = re.compile(r"-?\d+(?:\.\d+)?")
_COMMA_NUM_TAIL_RE = re.compile(
    r",\s*(-?\d+(?:\.\d+)?(?:\s*,\s*-?\d+(?:\.\d+)?)*)\s*,?\s*\}")
_EMPTY_TRAILER_RE = re.compile(r"\s*(?:\[\s*\]|\{\s*\})\s*$")

_ESCAPES = {"n": "\n", "t": "\t", "r": "\r", "b": "\b", "f": "\f", "/": "/", "\\": "\\", '"': '"', "'": "'"}


def _value_of(m: re.Match, g: int, repairs: list[Repair]):
    """The value of a _SIMPLE_VALUE match whose first group is ``g``,
    appending the repair the general rules record for it."""
    k = m.lastindex - g
    if k == 0:
        return m.group(g)
    if k == 1:
        return ""
    if k == 2:  # the group starts after the opening quote
        repairs.append(Repair(LAYER_SYNTAX, "normalized single-quoted string", m.start(g + 2) - 1))
        return m.group(g + 2)
    if k == 3:  # the group is the opening quote of ''
        repairs.append(Repair(LAYER_SYNTAX, "normalized single-quoted string", m.start(g + 3)))
        return ""
    if k == 4:
        return LITERALS[m.group(g + 4)]
    if k == 5:
        word = m.group(g + 5)
        repairs.append(Repair(LAYER_SYNTAX, f"normalized literal {word}", m.start(g + 5)))
        return LITERALS[word]
    token = m.group(g + 6)
    return float(token) if "." in token else int(token)


def _nonspace_at(s: str, j: int) -> str:
    """The first char at or after ``j`` that is not ASCII whitespace, or ""."""
    j = _ws_end(s, j).end()
    return s[j:j + 1]


class ParseError(Exception):
    pass


class TolerantParser:
    def __init__(self, s: str, repairs: list[Repair] | None = None, max_depth: int = 128,
                 allow_ellipsis: bool = True, allow_keywords: bool = True):
        self.s = s
        self.n = len(s)
        self.i = 0
        self.repairs: list[Repair] = repairs if repairs is not None else []
        self.max_depth = max_depth
        self.allow_ellipsis = allow_ellipsis    # strip `...` placeholders
        self.allow_keywords = allow_keywords    # strip COMMENT/DEBUG_INFO/...
        self.pending_sibling = None  # truncated-key-in-array extra element
        self.array_depth = 0         # arrays currently open (issue8 recovery)

    # ------------------------------------------------------------- helpers
    def _rep(self, layer: str, action: str, pos: int | None = None) -> None:
        self.repairs.append(Repair(layer, action, self.i if pos is None else pos))

    # ------------------------------------------------------- value dispatch
    def parse_value(self, depth: int, in_array: bool = False):
        if depth > self.max_depth:
            raise ParseError(f"max parse depth {self.max_depth} exceeded at position {self.i}")
        s, n = self.s, self.n
        i = self.i
        while i < n:
            i = _ws_end(s, i).end()
            if i >= n:
                break
            c = s[i]
            self.i = i
            if c == "{":
                return self.parse_object(depth + 1, parent_is_array=in_array)
            if c == "[":
                return self.parse_array(depth + 1)
            if c == '"' or c == "'":
                # at top level (depth 0) strings terminate greedily; the
                # embedded-quote heuristic only applies inside structures
                return self.parse_string(c, plain=(depth == 0))
            if c in _NUM_START:
                # top level: don't absorb trailing letters into the number
                # (`123true` is two values, not the string "123true")
                return self.parse_number(plain=(depth == 0))
            if c == "<":
                return self.parse_html_value()
            if c.isalpha() or c == "_":
                return self.parse_identifier_value()
            # stray char at a value position
            self.repairs.append(Repair(LAYER_SYNTAX, f"removed invalid character {c!r}", i))
            i += 1
        self.i = i
        return SKIP

    # -------------------------------------------------------------- object
    def parse_object(self, depth: int, parent_is_array: bool = False, cont_into: dict | None = None):
        """Parse an object.  Handles: missing close (EOF), mismatched ']'
        (reference structural_repair.ex:283-337), set-style coercion
        `{'a','b'}` -> ['a','b'] (reference utils/structure_coercion.ex:5-57),
        missing colons/values/commas, truncated trailing key in arrays
        (reference utils/preprocessing.ex:20-147)."""
        if depth > self.max_depth:
            raise ParseError(f"max parse depth {self.max_depth} exceeded at position {self.i}")
        s, n, repairs = self.s, self.n, self.repairs
        if cont_into is None:
            assert s[self.i] == "{"
            self.i += 1
            obj: dict = {}
        else:
            obj = cont_into
        items: list = []
        array_mode = False
        dangling_key: str | None = None
        guard = -1
        while True:
            i = self.i
            if i == guard:
                i += 1
            guard = i
            i = _ws_commas(s, i).end()
            self.i = i
            if i >= n:
                repairs.append(Repair(LAYER_STRUCTURAL, "added missing closing brace at end of input", i))
                break
            c = s[i]
            if c == "}":
                self.i = i + 1
                break
            if c == "]":
                if not obj and not items and cont_into is None:
                    # `[{]` -> discard the empty object entirely
                    # (reference structural_repair.ex:283-318)
                    repairs.append(Repair(LAYER_STRUCTURAL, "removed empty mismatched object", i))
                    return SKIP
                # missing `}` before `]`: close object, leave `]` for the array
                repairs.append(Repair(LAYER_STRUCTURAL, "added missing closing brace before ]", i))
                break
            if c == "{" or c == "[":
                if self.array_depth > 0:
                    # array-element recovery (reference issue #8,
                    # structural_repair.ex:340-462): a `{`/`[` where a key is
                    # expected inside an array context means this object was
                    # never closed — close it and let the array take the new
                    # element
                    repairs.append(Repair(LAYER_STRUCTURAL, "closed object before new array element", i))
                    break
                # a structure where a key is expected (redundant doubles `{{`,
                # reference structural_repair.ex:162-210) or set-style element
                v = self.parse_value(depth + 1, in_array=True)
                if v is not SKIP:
                    if not obj and _nonspace_at(s, self.i) in "}":
                        # `{{...}}` -> unwrap redundant wrapper
                        j = _ws_end(s, self.i).end()
                        if j < n and s[j] == "}":
                            j += 1
                        self.i = j
                        repairs.append(Repair(LAYER_STRUCTURAL, "removed redundant wrapper brace", j))
                        return v
                    array_mode = True
                    items.append(v)
                continue
            # ---- `key: value` in one match, the common member; members
            # that follow it the same way are taken in this inner loop
            m = _member(s, i) if depth < self.max_depth else None  # else the value raises
            if m is not None:
                while m is not None:
                    key = m.group(1)
                    if key is None:
                        key = m.group(2)
                        if key is not None:
                            repairs.append(Repair(LAYER_SYNTAX, "normalized single-quoted string", i))
                        else:
                            key = m.group(3)
                            repairs.append(Repair(LAYER_SYNTAX, f"quoted unquoted key {key!r}", i))
                    obj[key] = _value_of(m, 4, repairs)
                    i = _ws_commas(s, m.end()).end()
                    m = _member(s, i)
                self.i = i
                continue
            # ---- key
            if c == '"' or c == "'":
                key_was_quoted = True
                key = self.parse_string(c, key_mode=True)
            elif c.isalpha() or c == "_":
                key_was_quoted = False
                key = _word(s, i).group()
                j = i + len(key)
                # junk marker at a key position: named keyword or any
                # all-caps identifier NOT followed by ':' (it would be an
                # unquoted key then) — reference pattern4 suite
                if ("A" <= c <= "Z" and self.allow_keywords and key not in LITERALS
                        and _is_junk_marker(key) and _nonspace_at(s, j) != ":"):
                    repairs.append(Repair(LAYER_SYNTAX, f"removed debug keyword {key}", i))
                    self.i = j
                    continue
                self.i = j
                repairs.append(Repair(LAYER_SYNTAX, f"quoted unquoted key {key!r}", i))
            else:
                key_was_quoted = False
                key = self._parse_odd_key(c)
            if key is None:
                # junk where a key was expected: also discard its dangling
                # `: value` so the value doesn't masquerade as a key
                i = _ws_end(s, self.i).end()
                self.i = i
                if i < n and s[i] == ":":
                    i = _ws_end(s, i + 1).end()
                    self.i = i
                    if i < n and s[i] not in ",}]":
                        self.parse_value(depth + 1)
                continue
            i = _ws_end(s, self.i).end()
            self.i = i
            if i >= n:
                dangling_key = key
                repairs.append(Repair(LAYER_STRUCTURAL, "truncated trailing object key", i))
                break
            c = s[i]
            if c == ":":
                i = _ws_end(s, i + 1).end()
                self.i = i
                if i >= n or s[i] in ",}]":
                    repairs.append(Repair(LAYER_SYNTAX, "added empty value for missing value", i))
                    v = ""
                else:
                    # parse_value(depth + 1) raises past max_depth: leave that to it
                    m = _simple_value_re(s, i) if depth < self.max_depth else None
                    if m is not None:
                        v = _value_of(m, 1, repairs)
                        self.i = m.end()
                    else:
                        v = self.parse_value(depth + 1)
                        if v is SKIP:
                            v = ""
                obj[key] = v
            elif c in ",}]":
                if c == "," and not obj and not items and key_was_quoted:
                    # `{"key", 105,12,}` -> {"key": "105,12"}: a value-less
                    # key followed ONLY by comma-separated bare numbers is
                    # the number-with-commas-as-string pattern (reference
                    # number_edge_cases_test.exs "comma in array context",
                    # tagged :layer5_target — deferred there)
                    m = _COMMA_NUM_TAIL_RE.match(s, i)
                    if m:
                        nums = _NUM_TOKEN_RE.findall(m.group(1))
                        obj[key] = ",".join(nums)
                        repairs.append(Repair(
                            LAYER_SYNTAX, "joined comma-separated numbers after value-less key", i))
                        self.i = m.end()
                        return obj
                if obj:
                    obj[key] = ""
                    repairs.append(Repair(LAYER_SYNTAX, "added empty value for value-less key", i))
                else:
                    # set-style `{'a', 'b'}` -> array coercion
                    array_mode = True
                    # set-style elements are VALUES: literal words map to
                    # their JSON values (`{'a', TRUE}` -> ["a", true])
                    items.append(LITERALS[key] if key in LITERALS else key)
                    repairs.append(Repair(LAYER_SYNTAX, "coerced object without colons to array", i))
            else:
                # missing colon: `{"key" "value"}`
                # (reference layer3/post_processors.ex:25-39,525-629)
                repairs.append(Repair(LAYER_SYNTAX, "added missing colon", i))
                v = self.parse_value(depth + 1)
                if v is SKIP:
                    v = ""
                obj[key] = v
        if dangling_key is not None:
            if parent_is_array:
                # `[{"key": "value", "key` -> [{"key": "value"}, ["key"]]
                self.pending_sibling = [dangling_key]
            else:
                obj[dangling_key] = ""
        if array_mode and not obj:
            return items
        if array_mode and obj:
            # mixed: keep the object, append stray items under a lineage note
            self._rep(LAYER_SYNTAX, "dropped stray non-pair items in object")
        return obj

    def _parse_odd_key(self, c: str):
        """A key that is neither quoted nor an identifier: a number, or
        junk (None)."""
        if c in "0123456789-+.":
            v = self.parse_number()
            if v is SKIP:
                return None  # bare sign/dot where a key was expected: junk
            return v if isinstance(v, str) else repr(v) if isinstance(v, bool) else str(v)
        # junk where a key was expected
        self._rep(LAYER_SYNTAX, f"removed invalid character {c!r} before key")
        self.i += 1
        return None

    # --------------------------------------------------------------- array
    def parse_array(self, depth: int):
        if depth > self.max_depth:
            raise ParseError(f"max parse depth {self.max_depth} exceeded at position {self.i}")
        s, n, repairs = self.s, self.n, self.repairs
        allow_ellipsis = self.allow_ellipsis
        assert s[self.i] == "["
        self.i += 1
        self.array_depth += 1
        items: list = []
        need_comma = False  # True right after a value, before a separator
        guard = -1
        while True:
            i = self.i
            if i == guard:
                i += 1
            guard = i
            while True:
                m = _ws_commas(s, i)
                i = m.end()
                if m.lastindex is None:  # no comma in the run
                    break
                need_comma = False
                # ellipsis after comma: `[1, 2, ...]`
                if not (allow_ellipsis and s.startswith("...", i)):
                    break
                repairs.append(Repair(LAYER_SYNTAX, "removed ellipsis placeholder", i))
                i = _ws_end(s, _dots_end(s, i).end()).end()
            self.i = i
            if i >= n:
                repairs.append(Repair(LAYER_STRUCTURAL, "added missing closing bracket at end of input", i))
                break
            c = s[i]
            if c == "]":
                self.i = i + 1
                break
            if c == "}":
                # mismatched close against `[` frame -> treat as `]`
                # (reference structural_repair.ex:237-255)
                repairs.append(Repair(LAYER_STRUCTURAL, "rewrote mismatched } as ]", i))
                self.i = i + 1
                break
            if c == "." and allow_ellipsis and s.startswith("...", i):
                repairs.append(Repair(LAYER_SYNTAX, "removed ellipsis placeholder", i))
                self.i = _dots_end(s, i).end()
                continue
            if "A" <= c <= "Z" and self.allow_keywords:
                word = _word(s, i).group()
                # named keywords are junk anywhere; a generic all-caps
                # identifier is junk only where a comma/close was expected
                # (`[1, 2, 3 FOOTER]` -> FOOTER dropped, but `[1, FOO]`
                # keeps "FOO" as an unquoted value) — reference pattern4
                if word in KEYWORDS or (need_comma and _is_junk_marker(word) and word not in LITERALS):
                    repairs.append(Repair(LAYER_SYNTAX, f"removed debug keyword {word}", i))
                    self.i = i + len(word)
                    continue
            m = _simple_value_re(s, i) if depth < self.max_depth else None
            if m is not None:
                v = _value_of(m, 1, repairs)
                self.i = m.end()
            else:
                v = self.parse_value(depth + 1, in_array=True)
            if v is not SKIP:
                items.append(v)
                need_comma = True
            if self.pending_sibling is not None:
                items.append(self.pending_sibling)
                self.pending_sibling = None
        self.array_depth -= 1
        return items

    # -------------------------------------------------------------- string
    def parse_string(self, quote: str, key_mode: bool = False, plain: bool = False) -> str:
        """Single- or double-quoted string with embedded-quote heuristics.

        Termination rule at a candidate closing quote (reference
        layer3/syntax_normalization.ex:612-650): the quote closes the string
        unless the immediately following character is alphanumeric (then it
        is an embedded quote and is kept literally).  After an embedded
        quote has been seen, a quote directly before `}`/`]` is also kept
        (`{"key": "v"alue"}` -> value `v"alue"`).  Unterminated strings are
        closed at the first structural delimiter or EOF (reference
        lib/json_remedy.ex:645-688 and syntax_normalization.ex:529-541).
        """
        s, n = self.s, self.n
        start = self.i
        assert s[start] == quote
        i = start + 1
        if quote == "'":
            self.repairs.append(Repair(LAYER_SYNTAX, "normalized single-quoted string", start))
        if not plain and i < n and s[i] == quote:
            # quote RUN at string start: doubled/tripled quotes — the
            # reference's declared Layer-5 target (deferred there; see
            # test/missing_patterns/doubled_quotes_test.exs and
            # layer3/hardcoded_patterns.ex:237-244 no-op).  Rules:
            #   run + terminator            -> empty string (whole run)
            #   run + whitespace            -> CLOSED empty string (the gap
            #     means the run is open+close, e.g. `["" 1]`, `{"a": ""
            #     "b": 1}` — round-1 recovery for missing commas takes over)
            #   run + content directly      -> doubled opening
            #     (`""value""` -> "value", json_repair parse_string.py:54-93)
            j = i
            while j < n and s[j] == quote:
                j += 1
            terms = ":,}" if key_mode else ",}]"
            after_ns = _nonspace_at(s, j)
            after_direct = s[j:j + 1]
            if after_ns == "" or after_ns in terms:
                # all-quote token: empty string; N>2 means doubled quotes
                if j - start > 2:
                    self.repairs.append(Repair(LAYER_SYNTAX, "removed doubled quotes around empty string", start))
                self.i = j
                return ""
            if after_direct and after_direct in " \t\r\n":
                # `"" x` — a doubled OPENING is always glued to its
                # content; a gap means this run closed an empty string
                self.i = start + 2
                return ""
            self.repairs.append(Repair(LAYER_SYNTAX, "removed doubled opening quotes", start))
            self.i = j
            return self._parse_doubled_string(quote, start)
        # fast path: no backslash before the closing quote, and the quote
        # is followed by nothing that would keep the string open
        m = (_dq_body if quote == '"' else _sq_body)(s, i)
        if m is not None:
            e = m.end()
            nxt = s[e:e + 1]
            if plain or not (nxt == quote or nxt.isalnum() or nxt == "_"):
                self.i = e
                return s[i:e - 1]
        self.i = i
        if (_dq_ahead if quote == '"' else _sq_ahead)(s, i) is None:
            # unterminated: consume until `}` / `]` (string-unaware — we are
            # the string) or EOF
            return self._parse_unterminated(start)
        out = []
        had_embedded = False
        while self.i < n:
            # bulk-copy ordinary chars up to the next quote/backslash;
            # bound the backslash search by the quote position so neither
            # scan runs past the current string
            jq = s.find(quote, self.i)
            jb = s.find("\\", self.i, jq if jq != -1 else n)
            if jb != -1:
                j = jb
            elif jq != -1:
                j = jq
            else:
                j = n
            if j > self.i:
                out.append(s[self.i:j])
                self.i = j
            if self.i >= n:
                break
            c = s[self.i]
            if c == "\\" and self.i + 1 < n:
                out.append(self._decode_escape())
                continue
            if c == quote:
                nxt = s[self.i + 1] if self.i + 1 < n else ""
                if not plain and nxt and (nxt.isalnum() or nxt == "_"):
                    # embedded quote: keep it, stay in string
                    had_embedded = True
                    self._rep(LAYER_SYNTAX, "escaped embedded quote")
                    out.append(c)
                    self.i += 1
                    continue
                if had_embedded and nxt in "}]":
                    # `v"alue"}` -> the final quote is also part of the value
                    # and the string ends here (the `}` closes the object)
                    out.append(c)
                    self.i += 1
                    return "".join(out)
                self.i += 1
                if not plain and self.i < n and s[self.i] == quote:
                    # asymmetric doubled CLOSE: `"value""` -> consume the
                    # stray quote run when a terminator follows
                    m2 = self.i
                    while m2 < n and s[m2] == quote:
                        m2 += 1
                    after2 = _nonspace_at(s, m2)
                    if after2 == "" or after2 in ":,}]":
                        self._rep(LAYER_SYNTAX, "removed doubled closing quote")
                        self.i = m2
                return "".join(out)
            out.append(c)
            self.i += 1
        self._rep(LAYER_SYNTAX, "closed unterminated string", pos=start)
        return "".join(out)

    def _parse_unterminated(self, start: int) -> str:
        """String body with no closing quote ahead: runs to the first `}`
        or `]` (escapes decoded) or EOF, right-stripped."""
        s, n = self.s, self.n
        out = []
        while self.i < n:
            m = _unterminated_stop(s, self.i)
            j = m.start() if m is not None else n
            if j > self.i:
                out.append(s[self.i:j])
                self.i = j
            if j >= n or s[j] != "\\":
                break
            if j + 1 < n:
                out.append(self._decode_escape())
            else:
                out.append("\\")
                self.i = n
        self._rep(LAYER_SYNTAX, "closed unterminated string", pos=start)
        return "".join(out).rstrip()

    def _parse_doubled_string(self, quote: str, start: int) -> str:
        """Content scan after a doubled/tripled opening quote run.

        Close rule mirrors the normal-string path: a run of >=2 quotes
        always closes (doubled close); a single quote followed DIRECTLY by
        an identifier char is embedded content (the `"v"alue"` heuristic);
        any other single quote closes (asymmetric `""value"`).  A doubled
        string with NO quote ahead stops at `}`/`]`/EOF exactly like the
        pre-existing unterminated-string branch — it must not swallow the
        enclosing structure."""
        out: list[str] = []
        s, n = self.s, self.n
        if (_dq_ahead if quote == '"' else _sq_ahead)(s, self.i) is None:
            return self._parse_unterminated(start)
        while self.i < n:
            c = s[self.i]
            if c == "\\" and self.i + 1 < n:
                out.append(self._decode_escape())
                continue
            if c == quote:
                m = self.i
                while m < n and s[m] == quote:
                    m += 1
                runlen = m - self.i
                if runlen >= 2:
                    self.i = m
                    return "".join(out)
                nxt = s[m] if m < n else ""
                if nxt and (nxt.isalnum() or nxt == "_"):
                    # embedded quote: keep it, stay in string
                    out.append(c)
                    self.i += 1
                    continue
                self.i = m
                return "".join(out)
            out.append(c)
            self.i += 1
        self._rep(LAYER_SYNTAX, "closed unterminated string", pos=start)
        return "".join(out)

    def _decode_escape(self) -> str:
        """Decode one backslash escape at self.i (pointing at the backslash)."""
        e = self.s[self.i + 1]
        if e == "u" and self.i + 5 < self.n:
            hexs = self.s[self.i + 2:self.i + 6]
            try:
                cp = int(hexs, 16)
                self.i += 6
                if 0xD800 <= cp <= 0xDBFF and self.s.startswith("\\u", self.i) and self.i + 5 < self.n:
                    lo = int(self.s[self.i + 2:self.i + 6], 16)
                    if 0xDC00 <= lo <= 0xDFFF:
                        self.i += 6
                        cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00)
                return chr(cp)
            except ValueError:
                pass
        if e in _ESCAPES:
            self.i += 2
            if e == "'":
                self._rep(LAYER_SYNTAX, "unescaped invalid \\' escape")
            return _ESCAPES[e]
        # unknown escape: keep both chars
        self.i += 2
        return "\\" + e

    # -------------------------------------------------------------- number
    def parse_number(self, plain: bool = False):
        """Number with edge-case normalization (reference
        layer3/binary_processors.ex:240-455): thousands separators,
        underscores, leading dots, incomplete exponents, ranges/fractions/
        versions/currency -> quoted strings."""
        start = self.i
        s, n = self.s, self.n
        # fast path: the token `-?digits(.digits)?` when the char after it
        # stops the scan below and is not a quote (a comma only when no
        # 3-digit group follows it, so it cannot be a thousands separator)
        m = _simple_number(s, start)
        if m is not None:
            j = m.end()
            c = s[j:j + 1]
            if c == "" or c in _NUMBER_END or (c == "," and not (j + 3 < n and s[j + 1:j + 4].isdigit())):
                self.i = j
                token = m.group()
                return float(token) if m.group(1) else int(token)
        i = start
        while i < n:
            c = s[i]
            if c.isdigit() or c in "._$€£¥/":
                i += 1
            elif c in "+-":
                # sign at start, after exponent, or a range `10-20`
                if i == start or s[i - 1] in "eE" or (c == "-" and s[i - 1].isdigit()):
                    i += 1
                else:
                    break
            elif c in "eE":
                if plain and not (
                    i + 1 < n and (s[i + 1].isdigit() or (s[i + 1] in "+-" and i + 2 < n and s[i + 2].isdigit()))
                ):
                    break
                i += 1
            elif c == ",":
                # thousands separator: exactly 3 digits then a non-digit
                if (
                    i + 3 < n
                    and s[i + 1:i + 4].isdigit()
                    and (i + 4 >= n or not s[i + 4].isdigit())
                ):
                    i += 4
                else:
                    break
            elif c.isalpha():
                if plain:
                    break
                i += 1
            else:
                break
        token = s[start:i]
        self.i = i
        # stray quote right after a number value: `12345",` -> 12345
        if i < n and s[i] == '"' and _nonspace_at(s, i + 1) in ",}]:":
            self._rep(LAYER_SYNTAX, "removed stray quote after number")
            self.i += 1
        return self._classify_number(token, start)

    def _classify_number(self, token: str, pos: int):
        raw = token
        # incomplete exponent `1e` / `1e+` -> drop it
        if _INCOMPLETE_EXP_RE.search(token):
            token = _INCOMPLETE_EXP_RE.sub("", token)
            self._rep(LAYER_SYNTAX, "removed incomplete exponent", pos=pos)
        t = token
        if "_" in t and _UNDERSCORE_NUM_RE.fullmatch(t):
            t = t.replace("_", "")
            self._rep(LAYER_SYNTAX, "removed underscore separators", pos=pos)
        if "," in t and _THOUSANDS_NUM_RE.fullmatch(t):
            t = t.replace(",", "")
            self._rep(LAYER_SYNTAX, "removed thousands separators", pos=pos)
        if t.startswith("+"):
            t = t[1:]
        if t in ("-", "+", ".", "-.", "") or raw in ("-", "+", "."):
            # a bare sign/dot is junk, not a value (`[- ]` -> [])
            self._rep(LAYER_SYNTAX, f"removed stray token {raw!r}", pos=pos)
            return SKIP
        if _INT_RE.match(t):
            return int(t)
        if t.endswith(".") and _INT_RE.match(t[:-1]):
            self._rep(LAYER_SYNTAX, "completed trailing decimal point", pos=pos)
            return float(t)
        if t.startswith(".") and _FLOAT_RE.match("0" + t):
            self._rep(LAYER_SYNTAX, "added leading zero to decimal", pos=pos)
            return float("0" + t)
        if t.startswith("-.") and _FLOAT_RE.match("-0" + t[1:]):
            self._rep(LAYER_SYNTAX, "added leading zero to decimal", pos=pos)
            return float("-0" + t[1:])
        if _FLOAT_RE.match(t):
            return float(t)
        # ranges, fractions, versions, currency, trailing units -> string
        self._rep(LAYER_SYNTAX, f"quoted non-numeric token {raw!r}", pos=pos)
        return raw

    # ---------------------------------------------------------- identifier
    def parse_identifier_value(self):
        """Bare identifier at a value position: literal normalization
        (True/False/None/...), debug-keyword removal, else quote as string
        with multi-word lookahead (reference binary_processors.ex:42-145,
        487-523: `Weiss Savage` -> "Weiss Savage")."""
        s, n, repairs = self.s, self.n, self.repairs
        wstart = self.i
        word = _word(s, wstart).group()
        i = wstart + len(word)
        self.i = i
        if word in LITERALS:
            if word not in ("true", "false", "null"):
                repairs.append(Repair(LAYER_SYNTAX, f"normalized literal {word}", wstart))
            return LITERALS[word]
        if self.allow_keywords and word in KEYWORDS:
            repairs.append(Repair(LAYER_SYNTAX, f"removed debug keyword {word}", wstart))
            return SKIP
        words = [word]
        # multi-word lookahead: absorb following bare words unless the next
        # word is a key (followed by ':'); a run of ASCII-led ones per match
        while True:
            m = _more_words(s, i)
            if m.end() > i:
                words.extend(m.group().split())
                i = m.end()
            j = _sp_tab_end(s, i).end()
            if j >= n:
                break
            c = s[j]
            if not (c.isalpha() or c == "_"):
                break
            nxt = _word(s, j).group()
            if _nonspace_at(s, j + len(nxt)) == ":":
                break
            i = j + len(nxt)
            words.append(nxt)
        # stray quote right after: `abcdef",` -> "abcdef"
        if i < n and s[i] == '"' and _nonspace_at(s, i + 1) in ",}]":
            repairs.append(Repair(LAYER_SYNTAX, "removed stray quote after unquoted value", i))
            i += 1
        self.i = i
        value = " ".join(words)
        repairs.append(Repair(LAYER_SYNTAX, f"quoted unquoted value {value!r}", wstart))
        return value

    # ---------------------------------------------------------------- html
    _VOID_TAGS = frozenset({"br", "hr", "img", "input", "meta", "link", "area", "base", "col", "embed", "source", "track", "wbr", "!doctype"})

    def parse_html_value(self):
        """Unquoted HTML at a value position -> quote the whole fragment
        (reference layer3/html_handlers.ex:16-85,258-284).  Consumes until a
        structural delimiter at tag-depth 0.

        Bail-out: a '<' with no well-formed first tag, or an opening tag
        whose close never appears, is NOT HTML — treat the '<' as a stray
        char instead of swallowing the rest of the document."""
        start = self.i
        gt = self.s.find(">", start + 1, start + 512)
        if gt == -1:
            self._rep(LAYER_SYNTAX, "removed stray '<'")
            self.i += 1
            return SKIP
        first_tag = self.s[start + 1:gt].strip()
        first_name = first_tag.split()[0].lower() if first_tag.split() else ""
        if not (first_tag.startswith("!")
                or first_name.rstrip("/") in self._VOID_TAGS
                or first_tag.endswith("/")):
            if not first_name.isalnum() or f"</{first_name}" not in self.s[gt:].lower():
                self._rep(LAYER_SYNTAX, "removed stray '<'")
                self.i += 1
                return SKIP
        depth = 0
        seen_tag = False
        i = self.i
        s, n = self.s, self.n
        while i < n:
            c = s[i]
            if c == "<":
                j = s.find(">", i + 1)
                if j == -1:
                    i = n
                    break
                tag = s[i + 1:j].strip()
                name = tag.split()[0].lower() if tag.split() else ""
                if tag.startswith("!") or name.rstrip("/") in self._VOID_TAGS or tag.endswith("/"):
                    pass
                elif tag.startswith("/"):
                    depth = max(0, depth - 1)
                else:
                    depth += 1
                seen_tag = True
                i = j + 1
                continue
            if depth == 0 and seen_tag and c in ",}]":
                break
            i += 1
        value = s[start:i].strip()
        self.i = i
        self._rep(LAYER_SYNTAX, "quoted unquoted HTML value", pos=start)
        return value


# ---------------------------------------------------------------- document

_JSON_START = set('{["\'-+.0123456789tfn')

# Top-level prose the document loop steps over without effect, taken in
# one match: whitespace, bare words (an ASCII identifier start, then the
# whole \w run) that are not literals, and ASCII chars that are neither
# whitespace, identifier chars nor a JSON value start.  It stops at
# anything else — a value start, a literal, a non-ASCII char — where the
# loop takes its usual single step.
_LITERAL_WORD = "(?:" + "|".join(LITERALS) + r")(?!\w)"
_JUNK_ASCII = [c for c in map(chr, range(128))
               if not (c.isalnum() or c == "_" or c in " \t\r\n" or c in _JSON_START)]
_prose = re.compile(
    r"(?:[ \t\r\n]++|(?!%s)[A-Za-z_]\w*+|[%s])*+"
    % (_LITERAL_WORD, re.escape("".join(_JUNK_ASCII)))).match
# after an object, a step may merge (`, key:` or `key:` ahead) or drop an
# empty trailer (`, []`): words followed by `:`, commas and whitespace
# `\s` has beyond [ \t\r\n] stop the match too
_prose_after_object = re.compile(
    r"(?:[ \t\r\n]++|(?!%s)[A-Za-z_]\w*+(?!\s*:)|[%s])*+"
    % (_LITERAL_WORD, re.escape("".join(
        c for c in _JUNK_ASCII if c != "," and not c.isspace())))).match


def _same_structure(a, b) -> bool:
    """Structurally identical (same keys / same shape, values may differ) —
    the 'updates replace previous value' rule
    (reference utils/multiple_json_detector.ex:252-268)."""
    if isinstance(a, dict) and isinstance(b, dict):
        return sorted(a.keys()) == sorted(b.keys())
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_same_structure(x, y) for x, y in zip(a, b))
    return False


def _is_empty(v) -> bool:
    return (isinstance(v, str) and v == "") or (isinstance(v, (list, dict)) and len(v) == 0)


# ------------------------------------------------------ strict-rewrite lane

# One match of _lane skips a run of tokens the parser reads as themselves
# with no repair, then takes at most one of four malformations whose
# reading is known (groups 1-4).  Every bound is the parser's, not JSON's:
#  - whitespace, `{}[]:`, and a comma not before a close;
#  - a double-quoted string closed at a quote not followed by an
#    identifier char or a quote (parse_string; json refuses the escapes
#    the parser reads differently, such as `\'`);
#  - a lowercase literal that is a whole word;
#  - a number as _SIMPLE_VALUE bounds it: `[1,234]` is one number here;
#  1. an ASCII bare key before `:` ("quoted unquoted key"), unless it is
#     all caps: the parser strips such a word as a junk marker where no
#     `:` follows, so the lane leaves it to the parser;
#  2. a single-quoted string with no `\`, `"` or control char in it
#     ("normalized single-quoted string");
#  3. any other literal ("normalized literal X");
#  4. a comma before a close (dropped without a record).
_lane = re.compile(
    r'(?:[ \t\r\n{}\[\]:]++|,(?![ \t\r\n]*+[}\]])'
    r'|"[^"\\]*+(?:\\.[^"\\]*+)*+"(?![\w"])'
    r"|(?:true|false|null)(?!\w)"
    r"|-?[0-9]++(?:\.[0-9]++)?+(?=[ \t\r\n}\]:]|\Z|,(?!\w)))*+"
    r"(?:(?![A-Z][A-Z0-9_]++(?!\w))([A-Za-z_]\w*+)(?=[ \t\r\n]*+:)"
    r"""|'([^'\\"\x00-\x1f]*+)'(?![\w'])"""
    r"|(True|False|None|TRUE|FALSE|NULL|Null)(?!\w)"
    r"|(,)[ \t\r\n]*+(?=[}\]]))?").match
_JSON_WORD = {w: "null" if v is None else str(v).lower() for w, v in LITERALS.items()}


def _strict_lane(s: str, max_depth: int):
    """``(value, repairs)`` when ``s`` is one object or array that is
    strict JSON once its lane malformations are rewritten, else None.

    The rewritten text goes to json's C scanner.  The parser reads such a
    text as that value with exactly the lane's repairs, at their positions
    in ``s``, provided it nests at most ``max_depth // 2`` deep: the
    parser counts two depth steps per level and raises past max_depth.
    So the lane takes a text with at most that many `{` and `[`."""
    start = _ws_end(s, 0).end()
    if s[start:start + 1] not in ("{", "[") or s.count("{") + s.count("[") > max_depth // 2:
        return None
    out: list[str] = []
    repairs: list[Repair] = []
    last, pos = 0, start
    while True:
        m = _lane(s, pos)
        pos = m.end()
        g = m.lastindex
        if g is None:
            break
        a, b = m.span(g)
        if g == 1:
            word = m.group(1)
            new = '"' + word + '"'
            repairs.append(Repair(LAYER_SYNTAX, f"quoted unquoted key {word!r}", a))
        elif g == 2:
            a -= 1
            b += 1
            new = '"' + m.group(2) + '"'
            repairs.append(Repair(LAYER_SYNTAX, "normalized single-quoted string", a))
        elif g == 3:
            word = m.group(3)
            new = _JSON_WORD[word]
            repairs.append(Repair(LAYER_SYNTAX, f"normalized literal {word}", a))
        else:
            new = ""
        out.append(s[last:a])
        out.append(new)
        last = b
    if pos != len(s):
        return None
    out.append(s[last:])
    t = "".join(out)
    try:
        value, end = _scan_once(t, start)
    except (StopIteration, ValueError, RecursionError):
        return None
    if _ws_end(t, end).end() != len(t):
        return None
    return value, repairs


def parse_document(s: str, repairs: list[Repair] | None = None, max_depth: int = 128,
                   allow_multiple: bool = True, allow_merge: bool = True,
                   allow_ellipsis: bool = True, allow_keywords: bool = True):
    """Parse one document into a JSON value, tolerating and repairing
    malformations.  Implements the top-level multiple-JSON-values
    aggregation (reference utils/multiple_json_detector.ex:28-107) and
    object-boundary merging (reference layer3/object_merger.ex:20-92).

    A document the strict-rewrite lane takes is not parsed again: its
    value and repairs are the ones the parser would give.

    Returns (value, repairs).  Raises ParseError on pathological input.
    """
    lane = _strict_lane(s, max_depth)
    if lane is not None:
        if repairs is None:
            return lane
        repairs.extend(lane[1])
        return lane[0], repairs
    p = TolerantParser(s, repairs=repairs, max_depth=max_depth,
                       allow_ellipsis=allow_ellipsis, allow_keywords=allow_keywords)
    n = p.n
    i = _ws_end(s, 0).end()
    wrapper_text = i < n and s[i] not in _JSON_START
    values: list = []
    guard = -1
    while i < n:
        if i == guard:
            i += 1
            continue
        guard = i
        after_object = bool(values) and isinstance(values[-1], dict)
        i = (_prose_after_object if after_object else _prose)(s, i).end()
        if i >= n:
            break
        c = s[i]
        p.i = i
        # ---- object continuation / trailing-empty after a dict
        if after_object and c == ",":
            if _EMPTY_TRAILER_RE.match(s, i + 1):
                # `{...}, []` / `{...}, {}` -> drop the empty trailer
                # (reference layer3/object_merger.ex:95-194)
                p._rep(LAYER_PREPROCESSING, "dropped trailing empty structure")
                break
            if allow_merge and _KEY_AHEAD_RE.match(s, i + 1):
                p.i = i + 1
                p._rep(LAYER_PREPROCESSING, "merged object boundary")
                p.parse_object(1, cont_into=values[-1])
                i = p.i
                continue
        if after_object and allow_merge and c not in "{[" and _KEY_AHEAD_RE.match(s, i):
            # `{"a":"b"} "c":"d"}` without comma
            p._rep(LAYER_PREPROCESSING, "merged object boundary")
            p.parse_object(1, cont_into=values[-1])
            i = p.i
            continue
        # ---- junk / literal words at top level
        if c.isalpha() or c == "_":
            word = _word(s, i).group()
            if word in LITERALS:
                _update_values(values, p.parse_identifier_value(), p)
                i = p.i
                continue
            # bare prose word at top level is junk (wrapper text)
            i += len(word)
            continue
        if c not in _JSON_START:
            i += 1  # junk char
            continue
        if c == "'":
            # top-level single quotes are wrapper-prose apostrophes unless a
            # quoted token with a JSON continuation follows (`'abc',` etc.)
            j = s.find("'", i + 1, i + 81)
            nxt = _nonspace_at(s, j + 1) if j != -1 else ""
            if not (nxt and nxt in ",:]}"):
                i += 1
                continue
        v = p.parse_value(0)
        i = p.i
        if v is SKIP:
            continue
        _update_values(values, v, p)
        if not allow_multiple and values:
            break
    # ---- post rules (reference utils/multiple_json_detector.ex:44-75)
    if wrapper_text and any(isinstance(v, (list, dict)) for v in values):
        last_struct = max(i for i, v in enumerate(values) if isinstance(v, (list, dict)))
        if last_struct < len(values) - 1:
            p.repairs.append(Repair(LAYER_PREPROCESSING, "dropped trailing primitives after structures", None))
            values = values[: last_struct + 1]
    if len(values) == 2 and values[0] == []:
        return (values[0] if _is_empty(values[1]) else values[1]), p.repairs
    if len(values) == 1:
        return values[0], p.repairs
    if not values:
        return SKIP, p.repairs
    return values, p.repairs


def _update_values(values: list, v, p: TolerantParser) -> None:
    if values and _same_structure(values[-1], v):
        p.repairs.append(Repair(LAYER_PREPROCESSING, "replaced structurally identical previous value", None))
        values[-1] = v
    else:
        values.append(v)
