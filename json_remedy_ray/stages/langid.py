r"""fastText-style language identification — batch scoring stage.

New design (SURVEY §2.9): a self-contained marker-word scorer so the
engine has zero external model dependencies (the container has no
fastText).  A token is a maximal run of letters (Unicode category L*),
lowercased; a document's score per language is how many of its tokens
are that language's marker words, over its token count.

The batch path reads the text column's Arrow buffers directly
(``vhash.string_view``) and splits rows by a property of the input:

- ASCII rows (``pc.string_is_ascii``): letters are ``[A-Za-z]``, so
  letter runs come from one byte mask over the whole batch.  A run no
  longer than the longest ASCII marker is packed into a uint64,
  lowercased with one OR and looked up in a collision-free hash table
  built in ``__init__`` — no regex split, no per-token strings.
- Other rows: the RE2 ``[^\pL]+`` split, ``utf8_lower`` and
  ``index_in`` on just those rows, plus the CJK count, which ASCII rows
  cannot have.  Lowercasing before the split is not safe outside ASCII:
  the full lowercase of ``İ`` is ``i`` plus a combining mark, which is
  not a letter.

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

from json_remedy_ray.functions.vhash import string_view

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

_PACK = 8                                  # bytes per packed run: one uint64
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier (Fibonacci hashing)
# per run length L: the low L bytes (_KEEP) and the 0x20 case bit in each (_LOWER)
_KEEP = np.array([(1 << (8 * k)) - 1 for k in range(_PACK + 1)], dtype=np.uint64)
_LOWER = _KEEP & np.uint64(0x2020202020202020)


def _perfect_table(keys: np.ndarray, values: np.ndarray) -> tuple[np.uint64, np.ndarray, np.ndarray]:
    """(shift, slot keys, slot values) of the smallest power-of-two table
    in which ``(key * _HASH_MUL) >> shift`` puts every key in its own
    slot.  Empty slots hold key 0, which no packed non-empty run equals."""
    bits = max(1, int(len(keys)).bit_length())
    while True:
        shift = np.uint64(64 - bits)
        slots = (keys * _HASH_MUL) >> shift
        if len(np.unique(slots)) == len(keys):
            table_keys = np.zeros(1 << bits, dtype=np.uint64)
            table_values = np.zeros(1 << bits, dtype=values.dtype)
            table_keys[slots] = keys
            table_values[slots] = values
            return shift, table_keys, table_values
        bits += 1


def _letter_run_edges(b: np.ndarray, rel: np.ndarray) -> np.ndarray:
    """Sorted byte positions where a maximal ASCII-letter run of ``b``
    starts or ends (starts at even, ends at odd indices).  A run is cut
    where one row ends and the next begins (``rel``: row offsets)."""
    m = np.zeros(len(b) + 2, dtype=bool)     # m[i + 1] is byte i; False either side
    np.less((b | 0x20) - 97, 26, out=m[1:-1])  # uint8 wrap-around: [A-Za-z]
    edges = np.flatnonzero(m[1:] != m[:-1])
    # a run crossing into the next row ends and restarts at its first byte
    p = rel[1:-1]
    p = p[(p > 0) & (p < rel[2:])]
    p = p[m[p] & m[p + 1]]
    if len(p):
        edges = np.insert(edges, np.repeat(np.searchsorted(edges, p), 2), np.repeat(p, 2))
    return edges


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
        # ASCII byte path: packed ASCII markers -> vocab index.  Non-ASCII
        # markers (für, più, não) can only match through the fallback.
        ascii_ids = [j for j, w in enumerate(vocab) if w.isascii()]
        too_long = [vocab[j] for j in ascii_ids if len(vocab[j]) > _PACK]
        if too_long:
            raise ValueError(f"ASCII markers must fit in {_PACK} bytes: {too_long}")
        self.ascii_max_len = max((len(vocab[j]) for j in ascii_ids), default=0)
        keys = np.array([int.from_bytes(vocab[j].encode(), "little") for j in ascii_ids],
                        dtype=np.uint64)
        # a perfect hash rather than np.searchsorted over the sorted keys:
        # on perfbench flagship_mixed pages (~90 short runs a page) the
        # lookup takes 0.6 us/doc against 2.6 for the binary search
        self._shift, self._slot_keys, self._slot_vocab = _perfect_table(
            keys, np.array(ascii_ids, dtype=np.int64))
        self.detect_zh = "zh" in use
        self.cjk_re = _CJK_RE
        # lang_pred codes: a language index, then "und", then "zh"
        self._pred_names = pa.array(self.lang_names + ["und", "zh"], type=pa.string())

    # ---- scalar reference (tests + single-doc API).  Tokens and case as
    # in the batch path: maximal str.isalpha() runs (exactly the L*
    # categories), lowered by Arrow (str.lower turns İ into two code points)
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
    def _ascii_hits(self, b: np.ndarray, rel: np.ndarray, ascii_row: np.ndarray):
        """Letter runs of every row read as ASCII: (n_words per row, row
        and vocab index of each marker hit in an ``ascii_row``)."""
        edges = _letter_run_edges(b, rel)
        starts = edges[0::2]
        n_words = np.diff(np.searchsorted(starts, rel))
        lens = edges[1::2] - starts
        short = lens <= self.ascii_max_len
        starts, lens = starts[short], lens[short]
        # 8 bytes from each run start: a uint64 view at byte stride over a
        # zero-padded copy, masked to the run and lowercased
        padded = np.zeros(len(b) + _PACK, dtype=np.uint8)
        padded[:len(b)] = b
        words = np.ndarray((len(b),), dtype="<u8", buffer=padded, strides=(1,))[starts]
        words &= _KEEP[lens]
        words |= _LOWER[lens]
        slots = (words * _HASH_MUL) >> self._shift
        hit = np.flatnonzero(self._slot_keys[slots] == words)
        rows = np.searchsorted(rel, starts[hit], side="right") - 1
        keep = ascii_row[rows]
        return n_words, rows[keep], self._slot_vocab[slots[hit[keep]]]

    def _regex_hits(self, sub: pa.Array, rows: np.ndarray, n: int):
        """The RE2 letter-run split of ``sub``, which holds ``rows`` of the
        batch: (n_words per row, row and vocab index of each marker hit)."""
        tokens_list = pc.split_pattern_regex(sub, r"[^\pL]+")
        flat = pc.utf8_lower(pc.list_flatten(tokens_list))
        parents = rows[pc.list_parent_indices(tokens_list).to_numpy(zero_copy_only=False)]
        nonempty = pc.not_equal(pc.utf8_length(flat), 0).to_numpy(zero_copy_only=False)
        n_words = np.bincount(parents[nonempty], minlength=n).astype(np.int64)
        idx = pc.index_in(flat, value_set=self.vocab_arr).to_numpy(zero_copy_only=False)
        hit = ~np.isnan(idx) if idx.dtype.kind == "f" else idx >= 0
        return n_words, parents[hit], idx[hit].astype(np.int64)

    def __call__(self, batch: pa.Table) -> pa.Table:
        col = batch[self.text_col]
        off, data = string_view(col)  # nulls read as ""
        n = len(col)
        rel = off - off[0]
        b = data[off[0]:off[-1]]
        ascii_row = pc.fill_null(pc.string_is_ascii(col), True).to_numpy(zero_copy_only=False)
        other = np.flatnonzero(~ascii_row)
        n_words = np.zeros(n, dtype=np.int64)
        hit_rows, hit_vocab = [np.empty(0, np.int64)], [np.empty(0, np.int64)]
        if len(b) and len(other) < n:
            n_words, r, v = self._ascii_hits(b, rel, ascii_row)
            hit_rows.append(r)
            hit_vocab.append(v)
        if len(other):
            sub = col if len(other) == n else col.take(pa.array(other))
            words, r, v = self._regex_hits(sub, other, n)
            n_words[other] = words[other]
            hit_rows.append(r)
            hit_vocab.append(v)
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
            n_chars = pc.utf8_length(sub).to_numpy(zero_copy_only=False)
            cjk = pc.count_substring_regex(sub, _CJK_RANGE).to_numpy(zero_copy_only=False)
            frac = cjk / np.maximum(n_chars, 1)
            is_zh = (cjk > 0) & (frac > 0.05)
            zh = other[is_zh]
            code[zh] = len(self.lang_names) + 1
            conf[zh] = np.minimum(1.0, frac[is_zh] * 2.0)
        batch = batch.append_column("lang_pred", self._pred_names.take(pa.array(code)))
        batch = batch.append_column("lang_conf", pa.array(conf.astype(np.float32), type=pa.float32()))
        return batch
