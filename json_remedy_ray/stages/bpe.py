"""Character-level BPE tokenizer as a first-class operator (round-4
verdict #7: training pipelines pack by REAL tokenizer counts, not the
"BPE-ish" regex chunks of textstats.bpeish).

Three parts, all deterministic:

  * ``train_bpe`` — classic BPE merge learning (Sennrich et al. 2016,
    "Neural Machine Translation of Rare Words with Subword Units"):
    repeatedly merge the most frequent adjacent symbol pair over a
    (word, count) vocabulary.  Ties break on the lexicographically
    smallest (a, b) string pair, so the merge table is a pure function
    of the vocabulary.
  * ``BPETokenizer`` — applies the merge table with VECTORIZED MERGE
    ROUNDS: the batch's unique words become one flat int64 symbol
    array (codepoints, via one buffer-level UTF-8 -> UTF-32 decode —
    no per-row Python), and each rule is one numpy mask + delete pass
    over the flat array.  Application contract (shared with the SQL
    oracle): rules apply strictly in rank order, one greedy
    left-to-right pass per rule; within a rule a merged symbol never
    re-matches (its id is fresh), so one pass IS the rule's fixpoint.
  * ``default_tokenizer`` — trained once per process (lazy singleton,
    the actor-pool setup convention) on the fixed seed vocabulary
    below, so the merge table is data-independent and the DuckDB
    oracle can embed it as a constant (the perplexity-model posture:
    params shared, APPLICATION recomputed independently in SQL via a
    recursive leftmost-merge CTE, which equals the greedy pass —
    merging the leftmost occurrence repeatedly is the same fixpoint).

Reference scope note: the reference engine (nshkrdotcom/json_remedy)
has no tokenizer; this is a graft-extension operator for the
LLM-data-pipeline family (SURVEY §2.9).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from json_remedy_ray.functions.vhash import as_array
from json_remedy_ray.stages.textstats import ws_split

# Fixed seed vocabulary: the webtext domain words (the corpus
# generator's vocabulary) plus deterministic counts — embedded so
# training is reproducible and the oracle's merge table is a constant.
_SEED_WORDS = (
    "the a fast slow big small key value order sort table scan merge "
    "part window hash join batch stream spark dup group query row data "
    "filter customer line agg column vector"
).split()
_SEED_COUNTS = {w: 3 + (i * 7) % 11 for i, w in enumerate(_SEED_WORDS)}

_MERGED_BASE = 0x110000          # ids above any Unicode codepoint


def train_bpe(word_counts: dict[str, int], num_merges: int = 48
              ) -> list[tuple[str, str]]:
    """Learn ``num_merges`` merges from a (word -> count) vocabulary.
    Stops early when the best pair occurs < 2 times.  Asserts every
    merged symbol STRING is unique (two rules concatenating to the
    same string would make the string-space oracle ambiguous)."""
    vocab = {w: [c for c in w] for w in word_counts}
    merges: list[tuple[str, str]] = []
    seen_syms = {c for w in vocab for c in w}
    for _ in range(num_merges):
        pairs: dict[tuple[str, str], int] = {}
        for w, syms in vocab.items():
            cnt = word_counts[w]
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                pairs[p] = pairs.get(p, 0) + cnt
        if not pairs:
            break
        best = min(pairs.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        if pairs[best] < 2:
            break
        new_sym = best[0] + best[1]
        assert new_sym not in seen_syms, (
            f"duplicate merged symbol {new_sym!r}: string-space oracle "
            "would be ambiguous")
        seen_syms.add(new_sym)
        merges.append(best)
        a, b = best
        for w, syms in vocab.items():
            if len(syms) < 2:
                continue
            out, i, n = [], 0, len(syms)
            while i < n:                       # greedy left-to-right
                if i + 1 < n and syms[i] == a and syms[i + 1] == b:
                    out.append(new_sym)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            vocab[w] = out
    return merges


class BPETokenizer:
    """Rank-order merge application over flat codepoint arrays."""

    def __init__(self, merges: list[tuple[str, str]]):
        self.merges = list(merges)
        sym_id: dict[str, int] = {}

        def _id(s: str) -> int:
            if s in sym_id:
                return sym_id[s]
            assert len(s) == 1, f"component {s!r} not produced by an " \
                "earlier merge"
            return ord(s)

        self.rules: list[tuple[int, int, int]] = []
        for k, (a, b) in enumerate(self.merges):
            ia, ib = _id(a), _id(b)
            new = _MERGED_BASE + k
            assert (a + b) not in sym_id, (
                f"duplicate merged symbol {a + b!r}: string-space oracle "
                "would be ambiguous")
            sym_id[a + b] = new
            self.rules.append((ia, ib, new))
        # id -> symbol string (for debugging / the scalar reference)
        self.id_str = {v: k for k, v in sym_id.items()}

    # ---- scalar reference (tests compare the vectorized path to this)
    def encode_word(self, word: str) -> list[str]:
        syms = [c for c in word]
        for a, b in self.merges:
            out, i, n = [], 0, len(syms)
            while i < n:
                if i + 1 < n and syms[i] == a and syms[i + 1] == b:
                    out.append(a + b)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            syms = out
        return syms

    # ---- vectorized path -------------------------------------------
    def _apply(self, words: pa.Array) -> tuple[np.ndarray, np.ndarray, int]:
        """Apply all merge rules to a UNIQUE-words array: one
        buffer-level codepoint decode, then one numpy pass per rule.
        Returns (flat symbol ids, word index per symbol, n_words)."""
        from json_remedy_ray.functions.vhash import string_view

        words = as_array(words)
        n = len(words)
        if n == 0:
            return np.empty(0, np.int64), np.empty(0, np.int64), 0
        if words.null_count:
            words = pc.fill_null(words, "")
        # flat codepoints: UTF-8 data buffer -> str -> UTF-32 view
        # (string_view handles the None data buffer of all-empty arrays)
        offs, data = string_view(words)
        raw = data[offs[0]:offs[-1]].tobytes().decode("utf-8")
        sym = np.frombuffer(raw.encode("utf-32-le"),
                            dtype=np.uint32).astype(np.int64)
        char_lens = pc.utf8_length(words).to_numpy(zero_copy_only=False)
        wid = np.repeat(np.arange(n, dtype=np.int64), char_lens)
        for ia, ib, new in self.rules:
            if len(sym) < 2:
                break
            m = (sym[:-1] == ia) & (sym[1:] == ib) & (wid[:-1] == wid[1:])
            idx = np.nonzero(m)[0]
            if not len(idx):
                continue
            if ia == ib and len(idx) > 1:
                # greedy parity inside consecutive-match runs (a run of
                # k equal symbols merges at offsets 0, 2, 4, ...)
                grp = np.concatenate(([True], np.diff(idx) != 1))
                rid = np.cumsum(grp) - 1
                starts = idx[grp]
                idx = idx[((idx - starts[rid]) % 2) == 0]
            keep = np.ones(len(sym), dtype=bool)
            keep[idx + 1] = False
            sym[idx] = new
            sym, wid = sym[keep], wid[keep]
        return sym, wid, n

    def token_counts(self, words: pa.Array) -> np.ndarray:
        """Per-word BPE token counts for a UNIQUE-words array."""
        _, wid, n = self._apply(words)
        return np.bincount(wid, minlength=n).astype(np.int64)

    def tokenize_words(self, words: pa.Array, sep: str = "\x1f") -> pa.Array:
        """Per-word token STRINGS (sep-joined) for a UNIQUE-words array:
        the symbol-id output of ``_apply`` rendered through the (tiny)
        id -> string table and re-listed per word — one take + one
        binary_join, no per-word Python."""
        sym, wid, n = self._apply(words)
        counts = np.bincount(wid, minlength=n).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(counts)))
        uniq, inv = np.unique(sym, return_inverse=True)
        strs = [self.id_str[int(u)] if int(u) >= _MERGED_BASE
                else chr(int(u)) for u in uniq]      # bounded: vocab size
        flat = pc.take(pa.array(strs, type=pa.large_string()),
                       pa.array(inv))
        lists = pa.LargeListArray.from_arrays(
            pa.array(offs, type=pa.int64()), flat)
        return pc.binary_join(lists, pa.scalar(sep, pa.large_string()))


@lru_cache(maxsize=1)
def default_tokenizer() -> BPETokenizer:
    """Process-wide singleton: trained ONCE per worker (the actor-pool
    __init__ convention), never shipped per batch."""
    return BPETokenizer(train_bpe(_SEED_COUNTS))


def _split_and_encode(col) -> tuple[int, np.ndarray, np.ndarray, object]:
    """Shared preamble of the two batch operators: ONE whitespace
    split, nonempty-token filter, per-doc word counts, and a
    dictionary-encode of the flat tokens (Zipf: unique words << token
    occurrences).  Returns (n_docs, parents, n_words, enc-or-None)."""
    n = len(col)
    flat, parents = ws_split(col)
    n_words = np.bincount(parents, minlength=n).astype(np.int64)
    enc = None
    if len(flat):
        enc = as_array(pc.dictionary_encode(flat))
    return n, parents, n_words, enc


def bpe_token_counts_batch(batch: pa.Table, text_col: str = "text"
                           ) -> pa.Table:
    """(doc_id, n_words, n_bpe_tokens) for one Arrow batch: BPE-count
    the token DICTIONARY only, scatter back through the indices."""
    tok = default_tokenizer()
    n, parents, n_words, enc = _split_and_encode(batch[text_col])
    if enc is not None:
        inv = enc.indices.to_numpy(zero_copy_only=False)
        per_uniq = tok.token_counts(enc.dictionary)
        n_bpe = np.bincount(parents, weights=per_uniq[inv],
                            minlength=n).astype(np.int64)
    else:
        n_bpe = np.zeros(n, dtype=np.int64)
    return pa.table({
        "doc_id": batch["doc_id"].cast(pa.int64()),
        "n_words": pa.array(n_words),
        "n_bpe_tokens": pa.array(n_bpe),
    })


def bpe_tokenize_batch(batch: pa.Table, text_col: str = "text",
                       sep: str = "\x1f") -> pa.Table:
    """(doc_id, n_bpe_tokens, bpe_tokens) — the ACTUAL segmentation:
    every token of every word, in document order, sep-joined into one
    string per doc (words contain no whitespace, tokens contain no
    sep by the no-separator-in-vocab contract).  Same
    dictionary-encode shape as the count op: tokenization runs over
    unique words only and scatters back through the indices."""
    tok = default_tokenizer()
    n, parents, n_words, enc = _split_and_encode(batch[text_col])
    if enc is not None:
        word_strs = tok.tokenize_words(enc.dictionary, sep=sep)
        per_word = pc.take(word_strs, enc.indices)
        cnt_occ = pc.add(pc.count_substring(per_word, sep),
                         1).to_numpy(zero_copy_only=False)
        n_bpe = np.bincount(parents, weights=cnt_occ,
                            minlength=n).astype(np.int64)
        offs = np.concatenate(([0], np.cumsum(n_words)))
        lists = pa.LargeListArray.from_arrays(
            pa.array(offs, type=pa.int64()), per_word)
        doc_strs = pc.binary_join(lists, pa.scalar(sep, pa.large_string()))
    else:
        n_bpe = np.zeros(n, dtype=np.int64)
        doc_strs = pa.array([""] * n, type=pa.large_string())
    return pa.table({
        "doc_id": batch["doc_id"].cast(pa.int64()),
        "n_bpe_tokens": pa.array(n_bpe),
        "bpe_tokens": doc_strs,
    })


def bpe_counts_for_texts(col) -> np.ndarray:
    """Per-doc BPE token counts for a text column (the pack_sequences
    tokenizer-count mode's count_fn) — same kernel as the batch op."""
    t = bpe_token_counts_batch(
        pa.table({"doc_id": pa.array(np.zeros(len(col), dtype=np.int64)),
                  "text": col}))
    return t["n_bpe_tokens"].to_numpy(zero_copy_only=False)


def merge_table_sql_rows(merges: list[tuple[str, str]], sep_expr: str
                         ) -> str:
    """VALUES rows (rk, pat, rep) for the oracle: pat = sep a sep b sep,
    rep = sep ab sep — built with SQL concatenation of ``sep_expr`` so
    the separator never appears as a literal in the SQL text."""
    def q(s: str) -> str:
        return "'" + s.replace("'", "''") + "'"

    rows = []
    for k, (a, b) in enumerate(merges, start=1):
        pat = f"{sep_expr} || {q(a)} || {sep_expr} || {q(b)} || {sep_expr}"
        rep = f"{sep_expr} || {q(a + b)} || {sep_expr}"
        rows.append(f"({k}, {pat}, {rep})")
    return ", ".join(rows)
