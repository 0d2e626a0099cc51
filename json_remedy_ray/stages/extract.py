"""HTML -> text extraction — the FIRST stage of a Common-Crawl-style
quality-filter pipeline (the corpus builder's ``html: binary`` column,
sources/corpus.py, the input_hint shape; reference scope analogue:
json_remedy's Layer-1 content cleaning strips code fences / wrapper
markup before parsing — lib/json_remedy/layer1/content_cleaning.ex —
this stage does the web-page equivalent for whole documents).

Design (100 TB posture): stateless ``map_batches`` transform over
zero-copy Arrow batches; every pass is ONE vectorized RE2 kernel
(``pc.replace_substring_regex``) or literal kernel
(``pc.replace_substring``) over the whole column — no per-row Python.
The pass list is module-level constants (compiled once per process, not
per batch).  DuckDB's ``regexp_replace(..., 'g')`` is the same RE2
engine, so the full-SQL oracle replays the identical chain and the
contract is byte-exact.

Pass order is part of the contract:

1. strip HTML comments ``<!-- .. -->`` (dotall, non-greedy)
2. drop ``<script>..</script>`` and ``<style>..</style>`` blocks
   (case-insensitive, dotall, non-greedy — boilerplate JS/CSS must not
   leak into training text)
3. closing BLOCK tags (title/p/div/h1-6/li/nav/footer/header/section/
   article/blockquote/tr/table/ul/ol) and ``<br>`` become newlines so
   block structure survives as line structure
4. every remaining tag is stripped
5. the standard named/numeric entities are decoded — ``&amp;`` LAST so
   double-encoded text is not over-decoded
6. whitespace normalization: runs of spaces/tabs collapse to one space,
   spaces around newlines drop, newline runs collapse, outer
   space/newline trimmed
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from json_remedy_ray.functions.vhash import as_array

# (pattern, replacement) — RE2 syntax, applied top to bottom.  Inline
# flags instead of API flags so DuckDB regexp_replace(.., 'g') can run
# the very same pattern strings.
HTML_REGEX_PASSES: list[tuple[str, str]] = [
    (r"(?s)<!--.*?-->", ""),
    (r"(?is)<script[^>]*>.*?</script>", ""),
    (r"(?is)<style[^>]*>.*?</style>", ""),
    (r"(?i)</(?:title|p|div|h[1-6]|li|nav|footer|header|section"
     r"|article|blockquote|tr|table|ul|ol)>", "\n"),
    (r"(?i)<br[^>]*>", "\n"),
    (r"<[^>]+>", ""),
]

# literal entity decodes — &amp; strictly last
HTML_ENTITY_PASSES: list[tuple[str, str]] = [
    ("&lt;", "<"),
    ("&gt;", ">"),
    ("&quot;", '"'),
    ("&#39;", "'"),
    ("&nbsp;", " "),
    ("&copy;", "©"),
    ("&amp;", "&"),
]

HTML_WS_PASSES: list[tuple[str, str]] = [
    (r"[ \t]+", " "),
    (r" ?\n ?", "\n"),
    (r"\n+", "\n"),
]


def extract_text(col: pa.Array | pa.ChunkedArray) -> pa.Array:
    """Extract visible text from an HTML string/binary column.

    Accepts ``binary`` (the corpus shape — cast to string, utf-8 is the
    corpus encoding contract) or ``string``; returns a string array the
    same length.  NULL html extracts to the empty string (crawl rows
    with a failed fetch must not poison downstream kernels)."""
    col = as_array(col)
    if pa.types.is_binary(col.type) or pa.types.is_large_binary(col.type):
        col = col.cast(pa.string() if pa.types.is_binary(col.type)
                       else pa.large_string())
    if col.null_count:
        col = pc.fill_null(col, "")
    for pat, rep in HTML_REGEX_PASSES:
        col = pc.replace_substring_regex(col, pattern=pat, replacement=rep)
    for lit, rep in HTML_ENTITY_PASSES:
        col = pc.replace_substring(col, pattern=lit, replacement=rep)
    for pat, rep in HTML_WS_PASSES:
        col = pc.replace_substring_regex(col, pattern=pat, replacement=rep)
    return pc.utf8_trim(col, " \n")


def extract_text_sql(expr: str) -> str:
    """The byte-identical DuckDB expression for :func:`extract_text`
    applied to SQL expression ``expr`` — the oracle side of the
    contract, generated from the SAME pass tables so the two chains
    cannot drift."""
    # DuckDB standard string literals do NOT process backslash escapes,
    # so the RE2 pattern text goes in verbatim (only quotes doubled)
    out = f"COALESCE({expr}, '')"
    for pat, rep in HTML_REGEX_PASSES:
        p = pat.replace("'", "''")
        r = rep.replace("\n", "' || chr(10) || '")
        out = f"regexp_replace({out}, '{p}', '{r}', 'g')"
    for lit, rep in HTML_ENTITY_PASSES:
        out = (f"replace({out}, '{lit}', "
               f"'{rep.replace(chr(39), chr(39) * 2)}')")
    for pat, rep in HTML_WS_PASSES:
        p = pat.replace("'", "''")
        r = rep.replace("\n", "' || chr(10) || '")
        out = f"regexp_replace({out}, '{p}', '{r}', 'g')"
    return f"trim({out}, ' ' || chr(10))"
