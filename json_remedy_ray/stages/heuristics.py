"""C4/Gopher-style quality heuristics — stateless vectorized map_batches.

New design (not in the reference; SURVEY §2.9 graft extensions).  Rules
follow the published C4 (Raffel et al. 2020) and Gopher (Rae et al.
2021) heuristic families: word counts, mean word length, symbol ratios,
alpha ratio, stopword presence, duplicate-line fraction.

The batch path reads a ``TextScan`` of the text column (see
``stages/textscan.py``), the byte scan langid reads too: whitespace
tokens give word counts and lengths, letter runs give the letter count
of ASCII rows (the RE2 ``\\pL`` split gives it for the other rows), and
a stopword is a letter run the shared packed table holds, alone in its
token between edge punctuation.  ``#`` and ``...`` are counted from
byte positions.  Only duplicate-line detection builds Python strings,
for the rows that hold a line break.  That matters beyond single-core
speed: per-document Python loops allocate millions of PyObjects and
saturate DRAM bandwidth at full-node parallelism, which measurably caps
multi-core scaling on string workloads (see BENCH notes in BASELINE.md).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from json_remedy_ray.stages.textscan import TextScan, WordTable, row_sums

STOPWORDS = frozenset(
    "the a an and or of to in is are was were be been it that this for on with as at by".split()
)

# ONE punctuation set shared by the batch utf8_trim calls, the scalar
# doc_features strip, and the SQL oracle builder — edit here only
EDGE_PUNCT_CHARS = "\"'.,!?;:()[]"


def doc_features(t: str) -> tuple[int, float, float, float, int, float]:
    """Scalar reference implementation (one document) — the semantics the
    vectorized batch path reproduces; used by tests as the oracle.  Its
    letters are Python's ``str.isalpha``, which (Unicode 14 in Python
    3.11) misses 4,348 code points RE2's ``\\pL`` counts, U+11F04 among
    them: on text holding those, ``alpha_ratio`` differs from the batch."""
    from json_remedy_ray.stages.textstats import ws_tokens

    if not t:
        return 0, 0.0, 0.0, 0.0, 0, 0.0
    words = ws_tokens(t)  # canonical Unicode White_Space tokenization
    wc = len(words)
    mwl = swr = 0.0
    sw = 0
    if wc:
        mwl = sum(map(len, words)) / wc
        swr = (t.count("#") + t.count("...")) / wc
        sw = sum(1 for w in words if w.lower().strip(EDGE_PUNCT_CHARS) in STOPWORDS)
    nc = len(t)
    ar = sum(c.isalpha() or c.isspace() for c in t) / nc if nc else 0.0
    dlf = 0.0
    lines = [ln for ln in t.splitlines() if ln.strip()]
    if len(lines) > 1:
        dlf = 1.0 - len(set(lines)) / len(lines)
    return wc, mwl, ar, swr, sw, dlf


# the stopword lookup for heuristics run on their own (a stage that also
# runs langid shares the langid scorer's table, which holds STOPWORDS)
_TABLE = WordTable(stopwords=STOPWORDS)
_EDGE_PUNCT = np.zeros(256, dtype=bool)
_EDGE_PUNCT[list(EDGE_PUNCT_CHARS.encode())] = True


def heuristics_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    return append_features(batch, TextScan(batch[text_col], _TABLE))


def _ellipses(scan: TextScan) -> np.ndarray:
    """Non-overlapping "..." per row (``pc.count_substring``): a run of k
    dots holds k // 3."""
    pos = np.flatnonzero(scan.b == 46)  # "."
    if not len(pos):
        return np.zeros(scan.n, dtype=np.int64)
    rows = scan.row_of(pos)
    first = np.ones(len(pos), dtype=bool)
    first[1:] = (np.diff(pos) != 1) | (np.diff(rows) != 0)
    starts = np.flatnonzero(first)
    run_len = np.diff(np.append(starts, len(pos)))
    return scan.row_counts(pos[starts], weights=run_len // 3)


def _stopword_hits(scan: TextScan) -> np.ndarray:
    """Per row, the whitespace tokens that are a stopword once trimmed of
    EDGE_PUNCT_CHARS and lowercased: a letter run the table calls a
    stopword, alone in its token, with only edge punctuation around it."""
    runs, ids = scan.run_words
    cand = runs[scan.words.is_stopword[ids]]
    if not len(cand):
        return np.zeros(scan.n, dtype=np.int64)
    r_starts, r_lens, _ = scan.letter_runs
    t_starts, t_lens, _ = scan.tokens
    rs = r_starts[cand]
    re_ = rs + r_lens[cand]
    k = np.searchsorted(t_starts, rs, side="right") - 1
    ts = t_starts[k]
    te = ts + t_lens[k]
    # no other letter run in the token: such a run fails the punctuation
    # test below anyway, and dropping it first keeps the bytes that test
    # reads within one pass over the tokens
    prev_end = np.where(cand > 0, r_starts[cand - 1] + r_lens[cand - 1], -1)
    nxt = np.minimum(cand + 1, len(r_starts) - 1)
    next_start = np.where(cand + 1 < len(r_starts), r_starts[nxt], te)
    alone = np.flatnonzero((prev_end <= ts) & (next_start >= te))
    # every other byte of the token is edge punctuation
    seg_start = np.concatenate((ts[alone], re_[alone]))
    seg_len = np.concatenate((rs[alone] - ts[alone], te[alone] - re_[alone]))
    seg = np.repeat(np.arange(len(seg_len)), seg_len)
    pos = np.arange(len(seg)) + np.repeat(seg_start - (np.cumsum(seg_len) - seg_len), seg_len)
    bad = np.bincount(seg[~_EDGE_PUNCT[scan.b[pos]]], minlength=len(seg_len))
    hit = alone[(bad[:len(alone)] == 0) & (bad[len(alone):] == 0)]
    return scan.row_counts(rs[hit])


def _dup_line_frac(col) -> np.ndarray:
    # duplicate-line fraction: only docs containing a line separator can
    # have >=2 lines — the prefilter must cover EVERY separator
    # str.splitlines() recognizes, not just '\n' (round-2 review: a
    # '\r'-only doc was silently skipped)
    has_sep = pc.match_substring_regex(
        col, "[\\n\\r\\x0b\\x0c\\x1c\\x1d\\x1e\\x85\\x{2028}\\x{2029}]"
    ).to_numpy(zero_copy_only=False)
    dup_line_frac = np.zeros(len(col), dtype=np.float32)
    multi = np.nonzero(has_sep)[0]
    if len(multi):
        texts = col.take(pa.array(multi)).to_pylist()
        for j, t in zip(multi, texts):
            lines = [ln for ln in t.splitlines() if ln.strip()]
            if len(lines) > 1:
                dup_line_frac[j] = 1.0 - len(set(lines)) / len(lines)
    return dup_line_frac


def append_features(batch: pa.Table, scan: TextScan) -> pa.Table:
    """``batch`` with the six heuristics columns computed from ``scan``
    (a scan of its text column)."""
    n_chars = scan.n_chars
    _, t_lens, t_idx = scan.tokens
    word_count = np.diff(t_idx)
    # White_Space code points: the bytes outside tokens, less the extra
    # bytes of the multi-byte ones
    ws_pos, ws_size = scan.multibyte_ws
    ws_chars = np.diff(scan.rel) - row_sums(t_lens, t_idx) - scan.row_counts(ws_pos, ws_size - 1)
    wc_safe = np.maximum(word_count, 1).astype(np.float64)
    mean_word_len = np.where(word_count > 0, (n_chars - ws_chars) / wc_safe, 0.0)

    # letters: [A-Za-z] runs in ASCII rows, the RE2 \pL split elsewhere
    _, r_lens, r_idx = scan.letter_runs
    letters = row_sums(r_lens, r_idx)
    if len(scan.other):
        rows, lens, _ = scan.letter_split
        letters[scan.other] = np.bincount(rows, weights=lens, minlength=scan.n)[scan.other]
    alpha_ratio = np.where(n_chars > 0, (letters + ws_chars) / np.maximum(n_chars, 1).astype(np.float64), 0.0)

    hashes = scan.row_counts(np.flatnonzero(scan.b == 35))  # "#"
    symbol_word_ratio = np.where(word_count > 0, (hashes + _ellipses(scan)) / wc_safe, 0.0)

    batch = batch.append_column("word_count", pa.array(word_count.astype(np.int32), type=pa.int32()))
    batch = batch.append_column("mean_word_len", pa.array(mean_word_len.astype(np.float32), type=pa.float32()))
    batch = batch.append_column("alpha_ratio", pa.array(alpha_ratio.astype(np.float32), type=pa.float32()))
    batch = batch.append_column("symbol_word_ratio", pa.array(symbol_word_ratio.astype(np.float32), type=pa.float32()))
    batch = batch.append_column("stopword_hits", pa.array(_stopword_hits(scan).astype(np.int32), type=pa.int32()))
    batch = batch.append_column("dup_line_frac", pa.array(_dup_line_frac(scan.col), type=pa.float32()))
    return batch
