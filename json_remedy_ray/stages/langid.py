r"""fastText-style language identification — batch scoring stage.

New design (SURVEY §2.9): a self-contained marker-word scorer so the
engine has zero external model dependencies (the container has no
fastText).  A token is a maximal run of letters (Unicode category L*),
lowercased; a document's score per language is how many of its tokens
are that language's marker words, over its token count.

The batch path reads a ``TextScan`` of the text column
(``stages/textscan.py``), the byte scan heuristics reads too, and splits
rows by a property of the input:

- ASCII rows: letters are ``[A-Za-z]``, so letter runs come from one
  byte mask over the whole batch.  A run no longer than the longest
  ASCII marker is packed into a uint64, lowercased with one OR and
  looked up in a collision-free hash table (``WordTable``, built in
  ``__init__`` with the heuristics stopwords in it too) — no regex
  split, no per-token strings.
- Other rows: the RE2 ``[^\pL]+`` split (which also gives heuristics its
  letter count), ``utf8_lower`` and ``index_in`` on just those rows,
  plus the CJK count, which ASCII rows cannot have.  Lowercasing before
  the split is not safe outside ASCII: the full lowercase of ``İ`` is
  ``i`` plus a combining mark, which is not a letter.

The scalar ``score_one`` takes Python's ``str.isalpha`` runs, which
differ from RE2's ``\pL`` on 4,348 code points (U+11F04 among them).

Swapping in a real fastText .bin changes only ``__init__``/``score_one``.
Usable as a callable class for actor pools
(``map_batches(LangIdScorer, concurrency=N)``) or as a plain stateless
stage (model build is microseconds).
"""

from __future__ import annotations

import re
from itertools import groupby

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from json_remedy_ray.stages.heuristics import STOPWORDS
from json_remedy_ray.stages.textscan import TextScan, WordTable

# public, well-known high-frequency marker words per language
_MARKERS: dict[str, str] = {
    "en": "the and of to in is you that it for was with are this have from they not",
    "fr": "le la les de et un une est que pour dans qui sur pas vous nous avec sont",
    "es": "el la los las de y que en un una es por para con no se su al como",
    "de": "der die das und von ein eine ist zu mit den dem nicht auf für sich als",
    "it": "il la le di e che un una per con non sono del si da come anche più",
    "pt": "o a os as de e que um uma para com não se por mais dos como foi",
}

_CJK_RANGE = r"[\x{4E00}-\x{9FFF}\x{3400}-\x{4DBF}]"
_CJK_RE = re.compile(r"[一-鿿㐀-䶿]")


class LangIdScorer:
    def __init__(self, text_col: str = "text", langs: tuple[str, ...] | None = None):
        self.text_col = text_col
        use = langs or tuple(_MARKERS) + ("zh",)
        self.tables = {
            lang: frozenset(_MARKERS[lang].split()) for lang in use if lang in _MARKERS
        }
        # one combined marker vocabulary: a single lookup per batch
        # replaces one pass per language; marker -> langs bitmask
        self.lang_names = list(self.tables)
        vocab = sorted({w for t in self.tables.values() for w in t})
        self.vocab_arr = pa.array(vocab)
        self.marker_langs = np.zeros((len(vocab), len(self.lang_names)), dtype=np.int64)
        for k, lang in enumerate(self.lang_names):
            for j, w in enumerate(vocab):
                if w in self.tables[lang]:
                    self.marker_langs[j, k] = 1
        # ASCII byte path: one packed lookup shared with heuristics, which
        # reads the stopwords from the same table
        self.words = WordTable(vocab, STOPWORDS)
        self.ascii_max_len = self.words.max_len
        self.detect_zh = "zh" in use
        self.cjk_re = _CJK_RE
        # lang_pred codes: a language index, then "und", then "zh"
        self._pred_names = pa.array(self.lang_names + ["und", "zh"], type=pa.string())

    # ---- scalar reference (tests + single-doc API).  Tokens and case as
    # in the batch path: maximal str.isalpha() runs (the L* categories of
    # Python's Unicode tables, older than RE2's: see the module docstring),
    # lowered by Arrow (str.lower turns İ into two code points)
    def score_one(self, text: str) -> tuple[str, float]:
        if not text:
            return "und", 0.0
        if self.detect_zh:
            cjk = len(self.cjk_re.findall(text))
            if cjk and cjk / max(1, len(text)) > 0.05:
                return "zh", min(1.0, cjk / max(1, len(text)) * 2.0)
        runs = ["".join(g) for alpha, g in groupby(text, str.isalpha) if alpha]
        if not runs:
            return "und", 0.0
        words = pc.utf8_lower(pa.array(runs, type=pa.string())).to_pylist()
        best_lang, best_hits = "und", 0
        for lang, table in self.tables.items():
            hits = sum(1 for w in words if w in table)
            if hits > best_hits:
                best_lang, best_hits = lang, hits
        conf = best_hits / len(words)
        return (best_lang, conf) if best_hits else ("und", 0.0)

    # ---- vectorized batch path
    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.append_scores(batch, TextScan(batch[self.text_col], self.words))

    def append_scores(self, batch: pa.Table, scan: TextScan) -> pa.Table:
        """``batch`` with ``lang_pred`` and ``lang_conf`` computed from
        ``scan`` (a scan of its text column with this scorer's table)."""
        n, other = scan.n, scan.other
        # ASCII rows: the byte letter runs and their packed lookup
        starts, _, idx = scan.letter_runs
        n_words = np.diff(idx)
        runs, ids = scan.run_words
        marker = ids < self.words.n_markers
        rows = scan.row_of(starts[runs[marker]])
        keep = scan.ascii_row[rows]
        hit_rows, hit_vocab = [rows[keep]], [ids[marker][keep]]
        if len(other):  # other rows: the RE2 letter-run split
            tok_rows, tok_lens, flat = scan.letter_split
            n_words[other] = np.bincount(tok_rows[tok_lens > 0], minlength=n)[other]
            idx = pc.index_in(pc.utf8_lower(flat), value_set=self.vocab_arr).to_numpy(zero_copy_only=False)
            found = ~np.isnan(idx) if idx.dtype.kind == "f" else idx >= 0
            hit_rows.append(tok_rows[found])
            hit_vocab.append(idx[found].astype(np.int64))
        rows = np.concatenate(hit_rows)
        tok_langs = self.marker_langs[np.concatenate(hit_vocab)]  # (n_hits, n_langs)
        hit_matrix = np.zeros((len(self.lang_names), n), dtype=np.int64)
        for k in range(len(self.lang_names)):
            sel = tok_langs[:, k] > 0
            if sel.any():
                hit_matrix[k] = np.bincount(rows[sel], minlength=n)
        best_k = hit_matrix.argmax(axis=0)
        best_hits = hit_matrix.max(axis=0)
        conf = np.where(n_words > 0, best_hits / np.maximum(n_words, 1), 0.0)
        code = np.where(best_hits > 0, best_k, len(self.lang_names))
        conf = np.where(best_hits > 0, conf, 0.0)
        if self.detect_zh and len(other):  # ASCII rows hold no CJK
            n_chars = scan.n_chars[other]
            cjk = pc.count_substring_regex(scan.sub, _CJK_RANGE).to_numpy(zero_copy_only=False)
            frac = cjk / np.maximum(n_chars, 1)
            is_zh = (cjk > 0) & (frac > 0.05)
            zh = other[is_zh]
            code[zh] = len(self.lang_names) + 1
            conf[zh] = np.minimum(1.0, frac[is_zh] * 2.0)
        batch = batch.append_column("lang_pred", self._pred_names.take(pa.array(code)))
        batch = batch.append_column("lang_conf", pa.array(conf.astype(np.float32), type=pa.float32()))
        return batch
