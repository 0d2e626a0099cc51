"""Frozen copy of the langid batch scorer (see __init__.py)."""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# public, well-known high-frequency marker words per language
_MARKERS: dict[str, str] = {
    "en": "the and of to in is you that it for was with are this have from they not",
    "fr": "le la les de et un une est que pour dans qui sur pas vous nous avec sont",
    "es": "el la los las de y que en un una es por para con no se su al como",
    "de": "der die das und von ein eine ist zu mit den dem nicht auf für sich als",
    "it": "il la le di e che un una per con non sono del si da come anche più",
    "pt": "o a os as de e que um uma para com não se por mais dos como foi",
}

_WORD_RE = re.compile(r"[^\W\d_]+", re.UNICODE)
_CJK_RANGE = r"[\x{4E00}-\x{9FFF}\x{3400}-\x{4DBF}]"
_CJK_RE = re.compile(r"[一-鿿㐀-䶿]")




class LangIdScorer:
    def __init__(self, text_col: str = "text", langs: tuple[str, ...] | None = None):
        self.text_col = text_col
        use = langs or tuple(_MARKERS) + ("zh",)
        self.tables = {
            lang: frozenset(_MARKERS[lang].split()) for lang in use if lang in _MARKERS
        }
        # one combined marker vocabulary: a single pc.index_in per batch
        # replaces one is_in pass per language; marker -> langs bitmask
        self.lang_names = list(self.tables)
        vocab = sorted({w for t in self.tables.values() for w in t})
        self.vocab_arr = pa.array(vocab)
        self.marker_langs = np.zeros((len(vocab), len(self.lang_names)), dtype=np.int64)
        for k, lang in enumerate(self.lang_names):
            for j, w in enumerate(vocab):
                if w in self.tables[lang]:
                    self.marker_langs[j, k] = 1
        self.detect_zh = "zh" in use
        self.word_re = _WORD_RE
        self.cjk_re = _CJK_RE

    # ---- vectorized batch path (Arrow kernels; flatten letter-run tokens
    # once, then one is_in + segment-sum per language)
    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.text_col]
        if col.num_chunks != 1:
            col = col.combine_chunks()
        n = len(col)
        # tokens = lowercased letter-runs (same as the scalar word_re)
        tokens_list = pc.split_pattern_regex(col, r"[^\pL]+")
        flat = pc.utf8_lower(pc.list_flatten(tokens_list))
        parents = pc.list_parent_indices(tokens_list).to_numpy(zero_copy_only=False)
        # n_words = nonempty letter-run count, derived from the split we
        # already did (a count_substring_regex([\pL]+) pass costs ~4 us/doc
        # extra because RE2 count cost scales with the match count)
        flat_nonempty = pc.not_equal(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
        n_words = np.bincount(parents[flat_nonempty], minlength=n).astype(np.int64)
        lang_names = self.lang_names
        idx = pc.index_in(flat, value_set=self.vocab_arr).to_numpy(zero_copy_only=False)
        hit_tok = ~np.isnan(idx) if idx.dtype.kind == "f" else idx >= 0
        hit_matrix = np.zeros((len(lang_names), n), dtype=np.int64)
        if hit_tok.any():
            tok_langs = self.marker_langs[idx[hit_tok].astype(np.int64)]  # (n_hits, n_langs)
            hit_parents = parents[hit_tok]
            for k in range(len(lang_names)):
                sel = tok_langs[:, k] > 0
                if sel.any():
                    hit_matrix[k] = np.bincount(hit_parents[sel], minlength=n)
        best_k = hit_matrix.argmax(axis=0)
        best_hits = hit_matrix.max(axis=0)
        conf = np.where(n_words > 0, best_hits / np.maximum(n_words, 1), 0.0)
        langs = np.where(best_hits > 0, np.array(lang_names, dtype=object)[best_k], "und")
        conf = np.where(best_hits > 0, conf, 0.0)
        if self.detect_zh:
            n_chars = pc.utf8_length(col).to_numpy(zero_copy_only=False)
            cjk = pc.count_substring_regex(col, _CJK_RANGE).to_numpy(zero_copy_only=False)
            frac = cjk / np.maximum(n_chars, 1)
            is_zh = (cjk > 0) & (frac > 0.05)
            langs = np.where(is_zh, "zh", langs)
            conf = np.where(is_zh, np.minimum(1.0, frac * 2.0), conf)
        batch = batch.append_column("lang_pred", pa.array(list(langs), type=pa.string()))
        batch = batch.append_column("lang_conf", pa.array(conf.astype(np.float32), type=pa.float32()))
        return batch
