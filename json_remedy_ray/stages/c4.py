"""C4-style line-level cleaning and Gopher line-shape stats.

Two web-corpus quality operators the doc-level heuristics stage
(stages/heuristics.py) does not cover, both line-granular:

  - ``c4_line_filter_batch``: the C4 cleaning recipe (Raffel et al.
    2020, public): keep only lines that end in terminal punctuation,
    have at least ``min_words`` words, and don't mention "javascript";
    drop whole documents containing "{" or "lorem ipsum" or with fewer
    than ``min_lines`` surviving lines; REASSEMBLE the surviving lines
    into the cleaned text.  Unlike the scorers, this is a rewriting
    operator — its output text feeds downstream stages.
  - ``line_stats_batch``: Gopher line-shape counters (Rae et al. 2021,
    public): lines starting with a bullet glyph and lines ending in an
    ellipsis, plus the resulting keep/drop decision (>90% bullet lines
    or >30% ellipsis lines drops the doc).

Both are single-pass Arrow-kernel pipelines over the flattened line
list — split once, evaluate every per-line predicate vectorized, then
bincount back to documents; no Python per row or per line.  Counts are
emitted as int64 and decisions as bool so the DuckDB oracles compare
exactly (no float fractions in the contract).

Reference scope note: the reference engine (nshkrdotcom/json_remedy,
lib/json_remedy/*.ex) is a JSON repair library with no corpus-quality
operators; these belong to the graft's LLM-data-pipeline extension
surface (SURVEY.md §2.9), same family as stages/heuristics.py.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from json_remedy_ray.functions.vhash import as_array
from json_remedy_ray.stages.textstats import (
    UWS_RE2_CLASS,
    pc_fill_null_empty,
    ws_split,
)

# terminal punctuation at line end, ignoring trailing whitespace — one
# RE2 pattern shared verbatim with the DuckDB oracle (same trick as the
# BPE-ish tokenizer: author the pattern IN RE2 so both engines run the
# identical automaton instead of approximating each other)
TERMINAL_RE = f'[.!?"][{UWS_RE2_CLASS}]*$'
# Gopher line shapes: bullet-start (•, -, *, allowing leading
# whitespace) and ellipsis-end (… or ...), again shared RE2 source
BULLET_RE = f'^[{UWS_RE2_CLASS}]*[•*-]'
ELLIPSIS_RE = f'(\\.\\.\\.|…)[{UWS_RE2_CLASS}]*$'


def _split_lines(col: pa.Array) -> tuple[pa.Array, np.ndarray, np.ndarray]:
    """text column -> (flat line array, parent doc index per line,
    total lines per doc)."""
    lines = pc.split_pattern(col, pattern="\n")
    flat = pc.list_flatten(lines)
    parents = pc.list_parent_indices(lines).to_numpy(zero_copy_only=False)
    total = pc.list_value_length(lines).to_numpy(zero_copy_only=False)
    return flat, parents, total.astype(np.int64)


def c4_line_filter_batch(batch: pa.Table, text_col: str = "text",
                         id_col: str = "doc_id", min_words: int = 5,
                         min_lines: int = 3) -> pa.Table:
    """(doc_id, text) -> (doc_id, clean_text, kept_lines, total_lines)
    for documents that survive the C4 recipe; dropped docs emit no row.

    Line keep: ends in terminal punctuation (``TERMINAL_RE``), has
    >= min_words whitespace words, and doesn't contain "javascript"
    (case-insensitive).  Doc keep: text contains neither "{" nor
    "lorem ipsum" (case-insensitive) and >= min_lines lines survive.
    clean_text is the surviving lines re-joined with \\n.
    """
    col = pc_fill_null_empty(as_array(batch[text_col]))
    n = len(col)
    lower_doc = pc.utf8_lower(col)
    brace = pc.match_substring(col, "{").to_numpy(zero_copy_only=False)
    lorem = pc.match_substring(lower_doc, "lorem ipsum").to_numpy(
        zero_copy_only=False)

    flat, parents, total = _split_lines(col)
    term = pc.match_substring_regex(flat, TERMINAL_RE).to_numpy(
        zero_copy_only=False)
    wc = np.bincount(ws_split(flat)[1], minlength=len(flat))
    js = pc.match_substring(pc.utf8_lower(flat), "javascript").to_numpy(
        zero_copy_only=False)
    keep_line = term & (wc >= min_words) & ~js

    kept_per_doc = np.bincount(parents[keep_line], minlength=n).astype(np.int64)
    doc_keep = ~brace & ~lorem & (kept_per_doc >= min_lines)

    # rebuild clean_text: lines that survive AND belong to kept docs,
    # in original order (parents is non-decreasing), grouped by doc
    final_mask = keep_line & doc_keep[parents]
    kept_flat = flat.filter(pa.array(final_mask))
    counts = kept_per_doc[doc_keep]
    offsets = np.concatenate(([0], np.cumsum(counts)))
    off_type = (pa.int64() if pa.types.is_large_string(kept_flat.type)
                else pa.int32())
    make = (pa.LargeListArray if pa.types.is_large_string(kept_flat.type)
            else pa.ListArray)
    lists = make.from_arrays(pa.array(offsets, type=off_type), kept_flat)
    # separator type must match the values type (large_string corpora)
    clean = pc.binary_join(lists, pa.scalar("\n", type=kept_flat.type))

    keep_idx = np.nonzero(doc_keep)[0]
    return pa.table({
        id_col: batch[id_col].take(pa.array(keep_idx)),
        "clean_text": clean,
        "kept_lines": pa.array(kept_per_doc[doc_keep], type=pa.int64()),
        "total_lines": pa.array(total[doc_keep], type=pa.int64()),
    })


def line_stats_batch(batch: pa.Table, text_col: str = "text",
                     id_col: str = "doc_id",
                     max_bullet_frac: float = 0.9,
                     max_ellipsis_frac: float = 0.3) -> pa.Table:
    """(doc_id, text) -> (doc_id, n_lines, bullet_lines, ellipsis_lines,
    line_keep) — Gopher line-shape counters for every document.

    line_keep is False when bullet_lines > max_bullet_frac * n_lines or
    ellipsis_lines > max_ellipsis_frac * n_lines.  The comparisons are
    evaluated as exact integer cross-products (bullet_lines * 10 >
    9 * n_lines for the defaults; arbitrary thresholds are reduced to
    an exact p/q via Fraction.limit_denominator) so the oracle can
    reproduce the decision without float division."""
    col = pc_fill_null_empty(as_array(batch[text_col]))
    n = len(col)
    flat, parents, total = _split_lines(col)
    bullet = pc.match_substring_regex(flat, BULLET_RE).to_numpy(
        zero_copy_only=False)
    ellip = pc.match_substring_regex(flat, ELLIPSIS_RE).to_numpy(
        zero_copy_only=False)
    bullet_pd = np.bincount(parents[bullet], minlength=n).astype(np.int64)
    ellip_pd = np.bincount(parents[ellip], minlength=n).astype(np.int64)
    # integer cross-multiplication: count/n > p/q  <=>  count*q > p*n.
    # limit_denominator recovers the intended decimal from the float
    # (0.85 -> 17/20) so non-multiple-of-0.1 thresholds stay exact too.
    bf = Fraction(max_bullet_frac).limit_denominator(10**6)
    ef = Fraction(max_ellipsis_frac).limit_denominator(10**6)
    keep = ~((bullet_pd * bf.denominator > bf.numerator * total)
             | (ellip_pd * ef.denominator > ef.numerator * total))
    return pa.table({
        id_col: batch[id_col],
        "n_lines": pa.array(total, type=pa.int64()),
        "bullet_lines": pa.array(bullet_pd, type=pa.int64()),
        "ellipsis_lines": pa.array(ellip_pd, type=pa.int64()),
        "line_keep": pa.array(keep),
    })
