"""Frozen copy of the heuristics batch stage (see __init__.py)."""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it that this for on with as at by".split()
)

# the canonical Unicode White_Space class in RE2 syntax
_UWS_RE2 = r"\s\x{000b}\x{001c}-\x{001f}\x{0085}\x{00a0}\x{1680}\x{2000}-\x{200a}\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}"

_NON_ALPHA_SPACE_RE = f"[^\\pL{_UWS_RE2}]"
EDGE_PUNCT_CHARS = "\"'.,!?;:()[]"
_STOPWORD_ARR = None  # lazily built pa.array of STOPWORDS


def heuristics_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    col = batch[text_col]
    if col.num_chunks != 1:
        col = col.combine_chunks()
    n = len(col)

    n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False).astype(np.float64)
    # ONE whitespace split feeds word_count, mean_word_len AND the
    # stopword path (tokenizing twice measured ~7 us/doc extra).
    # utf8_split_whitespace: dedicated kernel, 3.3x faster than the \s+
    # regex AND unicode-correct like str.split() (empty edge tokens are
    # filtered by the nonempty mask / zero length / not-a-stopword).
    words_list = pc.utf8_split_whitespace(col)
    flat = pc.list_flatten(words_list)
    parents = pc.list_parent_indices(words_list).to_numpy(zero_copy_only=False)
    flat_lens = pc.utf8_length(flat).to_numpy(zero_copy_only=False)
    nonempty_tok = flat_lens > 0
    word_count = np.bincount(parents[nonempty_tok], minlength=n).astype(np.int64)
    nonspace = np.bincount(parents, weights=flat_lens, minlength=n)
    wc_safe = np.maximum(word_count, 1).astype(np.float64)
    mean_word_len = np.where(word_count > 0, nonspace / wc_safe, 0.0)

    # count the NEGATED class: RE2 count cost is proportional to the number
    # of matches, and non-alpha chars are rare in text (34 -> 1.7 us/doc)
    non_alpha = pc.count_substring_regex(col, _NON_ALPHA_SPACE_RE).to_numpy(zero_copy_only=False)
    alpha_space = n_chars - non_alpha
    alpha_ratio = np.where(n_chars > 0, alpha_space / np.maximum(n_chars, 1), 0.0)

    hashes = pc.count_substring(col, "#").to_numpy(zero_copy_only=False)
    dots = pc.count_substring(col, "...").to_numpy(zero_copy_only=False)
    symbol_word_ratio = np.where(word_count > 0, (hashes + dots) / wc_safe, 0.0)

    norm = pc.utf8_lower(pc.utf8_trim(flat, EDGE_PUNCT_CHARS))
    global _STOPWORD_ARR
    if _STOPWORD_ARR is None:
        _STOPWORD_ARR = pa.array(sorted(STOPWORDS))
    sw_hits_mask = pc.is_in(norm, value_set=_STOPWORD_ARR).to_numpy(zero_copy_only=False)
    stopword_hits = np.bincount(parents[sw_hits_mask], minlength=n).astype(np.int64)

    # duplicate-line fraction: only docs containing a line separator can
    # have >=2 lines — the prefilter must cover EVERY separator
    # str.splitlines() recognizes, not just '\n' (round-2 review: a
    # '\r'-only doc was silently skipped)
    has_sep = pc.match_substring_regex(
        col, "[\\n\\r\\x0b\\x0c\\x1c\\x1d\\x1e\\x85\\x{2028}\\x{2029}]"
    ).to_numpy(zero_copy_only=False)
    dup_line_frac = np.zeros(n, dtype=np.float32)
    multi = np.nonzero(has_sep)[0]
    if len(multi):
        texts = col.take(pa.array(multi)).to_pylist()
        for j, t in zip(multi, texts):
            lines = [ln for ln in t.splitlines() if ln.strip()]
            if len(lines) > 1:
                dup_line_frac[j] = 1.0 - len(set(lines)) / len(lines)

    batch = batch.append_column("word_count", pa.array(word_count.astype(np.int32), type=pa.int32()))
    batch = batch.append_column("mean_word_len", pa.array(mean_word_len.astype(np.float32), type=pa.float32()))
    batch = batch.append_column("alpha_ratio", pa.array(alpha_ratio.astype(np.float32), type=pa.float32()))
    batch = batch.append_column("symbol_word_ratio", pa.array(symbol_word_ratio.astype(np.float32), type=pa.float32()))
    batch = batch.append_column("stopword_hits", pa.array(stopword_hits.astype(np.int32), type=pa.int32()))
    batch = batch.append_column("dup_line_frac", pa.array(dup_line_frac, type=pa.float32()))
    return batch
