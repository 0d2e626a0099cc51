"""C4/Gopher-style quality heuristics — stateless vectorized map_batches.

New design (not in the reference; SURVEY §2.9 graft extensions).  Rules
follow the published C4 (Raffel et al. 2020) and Gopher (Rae et al.
2021) heuristic families: word counts, mean word length, symbol ratios,
alpha ratio, stopword presence, duplicate-line fraction.

The batch path reads a ``TextScan`` of the text column (see
``stages/textscan.py``), the byte scan langid and perplexity read too:
whitespace tokens give word counts and lengths, letter runs give the
letter count, a stopword is a letter run the shared packed table holds,
alone in its token between edge punctuation, ``#`` and ``...`` are
counted from byte positions, and duplicate lines are found from the
line breaks and token starts, comparing bytes only among lines of equal
length in one row.  No path builds a Python string per document.  That
matters beyond single-core speed: per-document Python loops allocate
millions of PyObjects and saturate DRAM bandwidth at full-node
parallelism, which measurably caps multi-core scaling on string
workloads (see BENCH notes in BASELINE.md).  The counts are public
(``word_count``, ``ws_chars``, ``letter_count``, ``stopword_hits``,
``hash_count``, ``ellipsis_count``), so the classifier and the SQL-twin
query read the same rules from one scan.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from json_remedy_ray.functions.vhash import as_array
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
STOPWORD_TABLE = WordTable(stopwords=STOPWORDS)
_EDGE_PUNCT = np.zeros(256, dtype=bool)
_EDGE_PUNCT[list(EDGE_PUNCT_CHARS.encode())] = True


def heuristics_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    return append_features(batch, TextScan(batch[text_col], STOPWORD_TABLE))


def word_count(scan: TextScan) -> np.ndarray:
    """Whitespace tokens per row."""
    return np.diff(scan.tokens[2])


def ws_chars(scan: TextScan) -> np.ndarray:
    """White_Space code points per row: the bytes outside tokens, less
    the extra bytes of the multi-byte ones."""
    _, t_lens, t_idx = scan.tokens
    ws_pos, ws_size = scan.multibyte_ws
    return np.diff(scan.rel) - row_sums(t_lens, t_idx) - scan.row_counts(ws_pos, ws_size - 1)


def letter_count(scan: TextScan) -> np.ndarray:
    r"""Letters (RE2's ``\pL``) per row: ``[A-Za-z]`` runs in ASCII rows,
    the letter runs of the decoded code points elsewhere."""
    _, r_lens, r_idx = scan.letter_runs
    letters = row_sums(r_lens, r_idx)
    if len(scan.other):
        rows, n_cps, _, _ = scan.wide_runs
        letters[scan.other] = np.bincount(rows, weights=n_cps, minlength=len(scan.other))
    return letters


def hash_count(scan: TextScan) -> np.ndarray:
    """"#" per row."""
    return scan.row_counts(np.flatnonzero(scan.b == 35))


def ellipsis_count(scan: TextScan) -> np.ndarray:
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


def stopword_hits(scan: TextScan) -> np.ndarray:
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


def dup_line_frac(scan: TextScan) -> np.ndarray:
    r"""float32 per row: ``1 - distinct / total`` over its non-blank lines
    when it has two or more, as ``doc_features`` computes with
    ``str.splitlines``, else 0.

    A line is the span between two line breaks (``scan.line_breaks``, the
    characters ``splitlines`` breaks at; the empty span inside ``\r\n``
    is blank, so that pair needs no special case).  A line is blank unless
    a whitespace token starts in it.  Two lines can be equal only if they
    are in one row and of one length, so only those are compared, byte
    for byte, by sorting them with Arrow."""
    out = np.zeros(scan.n, dtype=np.float32)
    pos, size = scan.line_breaks
    if not len(pos):
        return out
    rel = scan.rel
    row = scan.row_of(pos)
    # a line ending at a break starts where the previous break of its row
    # ends, or at the row start; each row's last line ends at the row end
    start = rel[row]
    same = row[1:] == row[:-1]
    start[1:][same] = (pos + size)[:-1][same]
    last = np.flatnonzero(np.append(~same, True))
    l_start = np.concatenate((start, pos[last] + size[last]))
    l_end = np.concatenate((pos, rel[row[last] + 1]))
    l_row = np.concatenate((row, row[last]))
    t_starts = scan.tokens[0]
    full = np.searchsorted(t_starts, l_start) < np.searchsorted(t_starts, l_end)
    l_start, l_row, l_len = l_start[full], l_row[full], (l_end - l_start)[full]
    n_lines = np.bincount(l_row, minlength=scan.n)
    # candidates: lines sharing (row, length) with another line
    order = np.lexsort((l_len, l_row))
    r, ln = l_row[order], l_len[order]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (r[1:] != r[:-1]) | (ln[1:] != ln[:-1])
    group = np.cumsum(new) - 1
    cand = order[np.bincount(group)[group] > 1]
    dups = np.zeros(scan.n, dtype=np.int64)
    if len(cand):
        c_len = l_len[cand]
        off = np.zeros(len(cand) + 1, dtype=np.int64)
        np.cumsum(c_len, out=off[1:])
        at = np.arange(off[-1]) + np.repeat(l_start[cand] - off[:-1], c_len)
        lines = pa.LargeStringArray.from_buffers(len(cand), pa.py_buffer(off), pa.py_buffer(scan.b[at]))
        t = pa.table({"row": l_row[cand], "line": lines}).sort_by([("row", "ascending"), ("line", "ascending")])
        r = t["row"].to_numpy()
        lines = as_array(t["line"])
        k = len(r) - 1
        eq = (r[1:] == r[:-1]) & pc.equal(lines.slice(1), lines.slice(0, k)).to_numpy(zero_copy_only=False)
        dups = np.bincount(r[1:][eq], minlength=scan.n)
    multi = np.flatnonzero(n_lines > 1)
    out[multi] = 1.0 - (n_lines[multi] - dups[multi]) / n_lines[multi]
    return out


def append_features(batch: pa.Table, scan: TextScan) -> pa.Table:
    """``batch`` with the six heuristics columns computed from ``scan``
    (a scan of its text column)."""
    n_chars = scan.n_chars
    words = word_count(scan)
    ws = ws_chars(scan)
    wc_safe = np.maximum(words, 1).astype(np.float64)
    mean_word_len = np.where(words > 0, (n_chars - ws) / wc_safe, 0.0)
    alpha_ratio = np.where(n_chars > 0, (letter_count(scan) + ws) / np.maximum(n_chars, 1).astype(np.float64), 0.0)
    symbol_word_ratio = np.where(words > 0, (hash_count(scan) + ellipsis_count(scan)) / wc_safe, 0.0)

    batch = batch.append_column("word_count", pa.array(words.astype(np.int32), type=pa.int32()))
    batch = batch.append_column("mean_word_len", pa.array(mean_word_len.astype(np.float32), type=pa.float32()))
    batch = batch.append_column("alpha_ratio", pa.array(alpha_ratio.astype(np.float32), type=pa.float32()))
    batch = batch.append_column("symbol_word_ratio", pa.array(symbol_word_ratio.astype(np.float32), type=pa.float32()))
    batch = batch.append_column("stopword_hits", pa.array(stopword_hits(scan).astype(np.int32), type=pa.int32()))
    batch = batch.append_column("dup_line_frac", pa.array(dup_line_frac(scan), type=pa.float32()))
    return batch
