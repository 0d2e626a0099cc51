"""Text analysis: token counting, document fingerprinting (SURVEY §2.9).

  - whitespace token count (SQL-checkable; see docs_token_counts)
  - BPE-ish token count: a GPT-2-style pre-tokenizer regex (public
    pattern family) counts sub-word candidate chunks — the cheap
    stand-in for a real tokenizer's token count at corpus scale
  - content fingerprint: md5 of the exact text (SQL-checkable) plus a
    winnowed rolling-hash fingerprint set (robust to small edits)
"""

from __future__ import annotations

import hashlib
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as _pc

from json_remedy_ray.functions.vhash import as_array


def pc_fill_null_empty(col):
    return _pc.fill_null(col, "") if col.null_count else col

# GPT-2-flavored pre-tokenization pattern (public knowledge), simplified
# to RE2-compatible form: the original's `\s+(?!\S)` lookahead branch is
# dropped (it only re-splits whitespace runs — for COUNTING it differs
# solely on runs ending in non-space whitespace, and removing it makes
# the engine pattern byte-identical to the DuckDB oracle's), and
# re.ASCII pins \s/\d to the ASCII semantics RE2 uses.
_BPEISH_RE = re.compile(
    r"'s|'t|'re|'ve|'m|'ll|'d| ?[A-Za-zÀ-ÿ]+| ?\d+| ?[^\sA-Za-zÀ-ÿ\d]+|\s+",
    re.ASCII,
)

# Canonical whitespace tokenization = the Python str.isspace() set —
# empirically ALSO what Arrow's utf8_split_whitespace splits on
# (verified: it splits \x1c-\x1f and \x85 too).  Spelled out so the
# batch kernels, the scalar reference paths and the RE2/DuckDB oracles
# share ONE definition (RE2's \s is ASCII-only and misses \x0b).
UWS_CHARS = ("\t\n\x0b\x0c\r \x1c\x1d\x1e\x1f\x85\xa0\u1680"
             + "".join(chr(c) for c in range(0x2000, 0x200B))
             + "\u2028\u2029\u202f\u205f\u3000")
_UWS_TOKEN_RE = re.compile(f"[^{re.escape(UWS_CHARS)}]+")
# the same class in RE2 syntax (\x{...}) for DuckDB oracle SQL
UWS_RE2_CLASS = (r"\s\x{000b}\x{001c}-\x{001f}\x{0085}\x{00a0}\x{1680}"
                 r"\x{2000}-\x{200a}\x{2028}\x{2029}\x{202f}\x{205f}\x{3000}")


def ws_tokens(text: str) -> list[str]:
    return _UWS_TOKEN_RE.findall(text or "")


def ws_split(col) -> tuple[pa.Array, np.ndarray]:
    """Whitespace tokens of a string column, the batch form of
    ``ws_tokens``: (flat tokens, int64 parent row per token).

    Arrow's utf8_split_whitespace splits on exactly UWS_CHARS (str.split
    parity, verified incl. \\x1c-\\x1f) but keeps the empty tokens that
    leading/trailing runs and "" leave, and pyarrow 16 can glue a space
    to the last token past an unpadded buffer's end: both are cut here.
    Null rows give no tokens.  Lowered tokens: ``ws_split_lower``."""
    col = as_array(col)
    if pa.types.is_null(col.type):
        col = col.cast(pa.string())
    toks = _pc.utf8_split_whitespace(col)
    flat = _pc.list_flatten(toks)
    parents = _pc.list_parent_indices(toks).to_numpy(zero_copy_only=False)
    nonempty = _pc.binary_length(flat).to_numpy(zero_copy_only=False) > 0
    if not nonempty.all():
        flat, parents = flat.filter(pa.array(nonempty)), parents[nonempty]
    if len(flat) and flat[-1].as_py()[-1:].isspace():   # the glued space
        last = flat[-1].as_py().rstrip()
        flat = pa.concat_arrays([flat[:-1], pa.array([last] if last else [],
                                                     flat.type)])
        parents = parents[:len(flat)]
    return flat, parents


def ws_split_lower(col) -> tuple[pa.Array, np.ndarray]:
    """``ws_split``, then lowered tokens (lowering adds and removes no
    UWS_CHARS), so null-typed text gives no tokens, not an error."""
    flat, parents = ws_split(col)
    return _pc.utf8_lower(flat), parents


def ws_token_count(text: str) -> int:
    return len(_UWS_TOKEN_RE.findall(text or ""))


def bpeish_token_count(text: str) -> int:
    return len(_BPEISH_RE.findall(text or ""))


def winnowed_fingerprints(text: str, k: int = 8, window: int = 4) -> list[int]:
    """Winnowing (Schleimer et al. 2003): rolling k-gram hashes, keep the
    min in each sliding window -> compact, edit-robust fingerprint set.

    Scalar reference path — exactly the vectorized batch computation
    (functions/vhash rolling_hashes + winnow_positions) on one row.
    Docs shorter than k are space-padded (one window -> one fingerprint)."""
    W, wo, sel, fo = _winnow_batch(pa.array([text or ""], type=pa.string()), k, window)
    return [int(v) for v in W[sel[fo[0]:fo[1]]]]


def _winnow_batch(col, k: int = 8, window: int = 4):
    from json_remedy_ray.functions.vhash import rolling_hashes, winnow_positions

    W, wo = rolling_hashes(col, k)
    sel, fo = winnow_positions(W, wo, window)
    return W, wo, sel, fo


def ws_token_counts_batch(col) -> np.ndarray:
    """Per-doc whitespace token counts (the scalar ws_token_count)."""
    return np.bincount(ws_split(col)[1], minlength=len(col)).astype(np.int64)


def textstats_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """All-Arrow/numpy batch path (round-2 verdict: this was the last
    per-row Python loop on a headline text stage):

      ws_token_count     — utf8_split_whitespace kernel (scalar parity
                           by the shared canonical whitespace set)
      bpeish_token_count — count_substring_regex with the VERBATIM
                           engine pattern (RE2-compatible by authoring,
                           same leftmost counting as re.findall — the
                           DuckDB oracle already runs it verbatim)
      fingerprint        — md5 per doc; hashlib stays (the oracle is
                           md5(text)) but now hashes zero-copy slices
                           of the raw Arrow buffer instead of
                           re-encoding Python strings
      n_winnowed_fps     — vectorized rolling-hash winnowing (vhash)
    """
    col = pc_fill_null_empty(as_array(batch[text_col]))
    n = len(col)

    ws_counts = ws_token_counts_batch(col)
    bpe_tokens = _pc.cast(
        _pc.count_substring_regex(col, _BPEISH_RE.pattern), pa.int64())

    # md5 over zero-copy views of the UTF-8 buffer (hashlib accepts any
    # buffer object; numpy slices are contiguous views, no bytes copies)
    from json_remedy_ray.functions.vhash import string_view

    offsets, data = string_view(col)
    md5s = [hashlib.md5(data[offsets[i]:offsets[i + 1]]).hexdigest()
            for i in range(n)]

    _, _, _, fo = _winnow_batch(col)
    n_fps = (fo[1:] - fo[:-1]).astype(np.int32)
    batch = batch.append_column("ws_token_count", pa.array(ws_counts, type=pa.int64()))
    batch = batch.append_column("bpeish_token_count", bpe_tokens)
    batch = batch.append_column("fingerprint", pa.array(md5s, type=pa.string()))
    batch = batch.append_column("n_winnowed_fps", pa.array(n_fps, type=pa.int32()))
    return batch


def gopher_repetition_batch(batch: pa.Table, text_col: str = "text") -> pa.Table:
    """Gopher-style repetition features (Rae et al. 2021, public rule
    family): duplicate-word fraction and top-bigram coverage — the
    repetition signals next to heuristics.dup_line_frac.

    Fully vectorized: ONE whitespace split, tokens hashed with the shared
    vhash core, per-doc distinct counts via a (parent, hash) lexsort and
    adjacent-difference, bigram runs via a second lexsort.  Bigram
    equality is hash equality (64-bit, same collision posture as exact
    dedup's key).  All-integer counts (exact SQL oracle) plus two REAL
    ratios that are single divisions of those integers."""
    from json_remedy_ray.functions.vhash import _mix64, _P, hash_strings

    n = batch.num_rows
    flat, parents = ws_split_lower(batch[text_col])
    n_words = np.bincount(parents, minlength=n).astype(np.int64)

    if len(parents):
        th = hash_strings(flat)
        order = np.lexsort((th, parents))
        ps, hs = parents[order], th[order]
        new_run = np.ones(len(ps), dtype=bool)
        new_run[1:] = (ps[1:] != ps[:-1]) | (hs[1:] != hs[:-1])
        n_distinct = np.bincount(ps[new_run], minlength=n).astype(np.int64)

        same = parents[1:] == parents[:-1]
        bg_parent = parents[:-1][same]
        with np.errstate(over="ignore"):
            bgh = _mix64(th[:-1][same] * _P + th[1:][same])
        top = np.zeros(n, dtype=np.int64)
        if len(bg_parent):
            order2 = np.lexsort((bgh, bg_parent))
            p2, h2 = bg_parent[order2], bgh[order2]
            new2 = np.ones(len(p2), dtype=bool)
            new2[1:] = (p2[1:] != p2[:-1]) | (h2[1:] != h2[:-1])
            run_ids = np.cumsum(new2) - 1
            run_len = np.bincount(run_ids)
            np.maximum.at(top, p2[new2], run_len)
    else:
        n_distinct = np.zeros(n, dtype=np.int64)
        top = np.zeros(n, dtype=np.int64)

    nw = n_words.astype(np.float64)
    dup_word_frac = np.where(n_words > 0, 1.0 - n_distinct / np.maximum(nw, 1), 0.0)
    top_bigram_frac = np.where(n_words >= 2, 2.0 * top / np.maximum(nw, 1), 0.0)
    batch = batch.append_column("n_words", pa.array(n_words))
    batch = batch.append_column("n_distinct_words", pa.array(n_distinct))
    batch = batch.append_column("top_bigram_count", pa.array(top))
    batch = batch.append_column("dup_word_frac",
                                pa.array(dup_word_frac.astype(np.float32), type=pa.float32()))
    batch = batch.append_column("top_bigram_frac",
                                pa.array(top_bigram_frac.astype(np.float32), type=pa.float32()))
    return batch


_TOP_NS = (3, 4)          # top-n-gram coverage (Gopher: most frequent n-gram)
_DUP_NS = (5, 6, 7, 8)    # duplicate-n-gram mass (Gopher: repeated n-grams)


def gopher_ngram_repetition_batch(batch: pa.Table, text_col: str = "text",
                                  top_ns: tuple = _TOP_NS,
                                  dup_ns: tuple = _DUP_NS,
                                  badwords: tuple | None = None) -> pa.Table:
    """The FULL Gopher n-gram repetition suite (Rae et al. 2021 Table A1
    rule family, token-weighted variant): for n in {3,4} the count of
    the most frequent n-gram and its coverage fraction n*top/n_words;
    for n in {5..8} the number of n-gram occurrences belonging to a
    gram seen >= 2 times in the doc and its fraction of all n-gram
    occurrences.  Complements gopher_repetition_batch (words/bigrams).

    Vectorized like the bigram path: ONE whitespace split, token hashes
    from the shared vhash core, rolling shifted-FNV combine over n
    positions (n <= 8 -> at most 7 vector ops per n), per-doc stats via
    lexsort + run boundaries.  Gram equality is 64-bit hash equality —
    the same collision posture as exact dedup's key.  All-integer
    counts (exact SQL oracle) plus REAL ratios that are single
    divisions of those integers."""
    import pyarrow.compute as pc

    from json_remedy_ray.functions.vhash import _mix64, _P, hash_strings

    n_docs = batch.num_rows
    flat, parents = ws_split_lower(batch[text_col])
    n_words = np.bincount(parents, minlength=n_docs).astype(np.int64)
    th = hash_strings(flat) if len(parents) else np.empty(0, np.uint64)

    out = {"doc_id": batch["doc_id"], "n_words": pa.array(n_words)}
    if badwords is not None:
        # blocklist membership on the kernel's already-split lowered
        # tokens — one pass serves the composed filter pipeline
        hit = pc.is_in(flat, value_set=pa.array(sorted(badwords))
                       ).to_numpy(zero_copy_only=False)
        out["n_badwords"] = pa.array(
            np.bincount(parents[hit], minlength=n_docs).astype(np.int64))
    nw = n_words.astype(np.float64)
    for gram_n in (*top_ns, *dup_ns):
        L = len(th) - gram_n + 1
        top = np.zeros(n_docs, dtype=np.int64)
        dup = np.zeros(n_docs, dtype=np.int64)
        if L > 0:
            valid = parents[:L] == parents[gram_n - 1:]
            gp = parents[:L][valid]
            gh = th[:L].copy()
            with np.errstate(over="ignore"):
                for j in range(1, gram_n):
                    gh = _mix64(gh * _P + th[j:j + L])
            gh = gh[valid]
            if len(gp):
                order = np.lexsort((gh, gp))
                p2, h2 = gp[order], gh[order]
                new = np.ones(len(p2), dtype=bool)
                new[1:] = (p2[1:] != p2[:-1]) | (h2[1:] != h2[:-1])
                run_ids = np.cumsum(new) - 1
                run_len = np.bincount(run_ids)
                np.maximum.at(top, p2[new], run_len)
                multi = run_len >= 2
                if multi.any():
                    np.add.at(dup, p2[new][multi], run_len[multi])
        n_grams = np.maximum(n_words - gram_n + 1, 0)
        if gram_n in top_ns:
            frac = np.where(n_words >= gram_n,
                            gram_n * top / np.maximum(nw, 1), 0.0)
            out[f"top{gram_n}_count"] = pa.array(top)
            out[f"top{gram_n}_frac"] = pa.array(
                frac.astype(np.float32), type=pa.float32())
        else:
            frac = np.where(n_grams > 0,
                            dup / np.maximum(n_grams.astype(np.float64), 1),
                            0.0)
            out[f"dup{gram_n}_count"] = pa.array(dup)
            out[f"dup{gram_n}_frac"] = pa.array(
                frac.astype(np.float32), type=pa.float32())
    return pa.table(out)


def gopher_ngram_repetition_one(text: str) -> dict:
    """Scalar reference for gopher_ngram_repetition_batch (tests)."""
    from collections import Counter

    toks = ws_tokens((text or "").lower())
    nw = len(toks)
    out = {"n_words": nw}
    for gram_n in (*_TOP_NS, *_DUP_NS):
        grams = [tuple(toks[i:i + gram_n])
                 for i in range(nw - gram_n + 1)] if nw >= gram_n else []
        cnt = Counter(grams)
        top = cnt.most_common(1)[0][1] if cnt else 0
        dup = sum(c for c in cnt.values() if c >= 2)
        if gram_n in _TOP_NS:
            out[f"top{gram_n}_count"] = top
            out[f"top{gram_n}_frac"] = (gram_n * top / nw) if nw >= gram_n else 0.0
        else:
            ng = max(nw - gram_n + 1, 0)
            out[f"dup{gram_n}_count"] = dup
            out[f"dup{gram_n}_frac"] = dup / ng if ng > 0 else 0.0
    return out


def gopher_repetition_one(text: str) -> tuple[int, int, int, float, float]:
    """Scalar reference for gopher_repetition_batch (tests)."""
    from collections import Counter

    toks = ws_tokens((text or "").lower())
    nw = len(toks)
    nd = len(set(toks))
    top = 0
    if nw >= 2:
        top = Counter(zip(toks[:-1], toks[1:])).most_common(1)[0][1]
    dwf = (1.0 - nd / nw) if nw > 0 else 0.0
    tbf = (2.0 * top / nw) if nw >= 2 else 0.0
    return nw, nd, top, np.float32(dwf), np.float32(tbf)


def contamination_flags_batch(batch: pa.Table, snippets: list[str],
                              text_col: str = "text") -> pa.Table:
    """Benchmark-contamination scan: which documents contain any of the
    (small, broadcast) benchmark snippets as an exact substring.

    The snippet list is an eval-suite extract — small by nature — so the
    scan is one SIMD match_substring kernel pass per snippet over the
    whole batch (no per-row Python).  n_hits counts how many DISTINCT
    snippets occur (not occurrences).  For benchmark sets too large to
    scan per-snippet, swap the inner loop for hashed n-gram membership
    over rolling_hashes — same plumbing, documented scale path."""
    import pyarrow.compute as pc

    col = pc_fill_null_empty(as_array(batch[text_col]))
    n = len(col)
    hits = np.zeros(n, dtype=np.int64)
    for s in snippets:
        m = pc.match_substring(col, s).to_numpy(zero_copy_only=False)
        hits += np.asarray(m, dtype=np.int64)
    batch = batch.append_column("n_snippet_hits", pa.array(hits))
    batch = batch.append_column("contaminated", pa.array(hits > 0))
    return batch


def block_token_counts(col):
    """Exact token counts for one block's text column — THE canonical
    lower/whitespace token-count partial (one Arrow lower + split +
    empty-filter + group_by).  Shared by the exact vocabulary top-k
    (functions/queries.top_tokens_corpus) and the Misra-Gries sketch so
    their "same tokenization" contract is structural, not copy-paste.
    Returns (token Array, count int64 ndarray)."""
    flat, _ = ws_split_lower(col)
    g = (pa.table({"token": flat}).group_by("token")
         .aggregate([("token", "count")]))
    toks = as_array(g["token"])
    cnts = g["token_count"].to_numpy(zero_copy_only=False).astype(np.int64)
    return toks, cnts


def nfc_normalize_batch(batch: pa.Table, text_col: str = "text",
                        id_col: str = "doc_id") -> pa.Table:
    """Unicode NFC normalization — the standard first text-hygiene step
    of a web pipeline (decomposed accents, compatibility glyphs from
    different crawl encoders make byte-level dedup miss equal text).
    Output (doc_id, text_nfc, changed).

    Arrow's utf8_normalize does not COMPOSE on this build (e +
    combining-acute stays decomposed; probed), so the composing kernel
    is Python's C-implemented unicodedata.normalize — but only on the
    rows an Arrow string_is_ascii prefilter flags: ASCII text is NFC by
    definition, and web corpora are dominantly ASCII, so the Python
    call touches the small minority (the scrub/repair prefilter
    convention).  DuckDB's nfc_normalize agrees codepoint-for-codepoint
    with unicodedata (probed), so the oracle is exact."""
    import unicodedata

    col = pc_fill_null_empty(as_array(batch[text_col]))
    is_ascii = _pc.string_is_ascii(col).to_numpy(zero_copy_only=False)
    n = len(col)
    changed = np.zeros(n, dtype=bool)
    if is_ascii.all():
        out_col = col
    else:
        idx = np.nonzero(~is_ascii)[0]
        originals = col.take(pa.array(idx)).to_pylist()
        normed = [unicodedata.normalize("NFC", t) for t in originals]
        diff = [a != b for a, b in zip(normed, originals)]
        changed[idx] = diff
        if any(diff):
            # rebuild only when something actually changed
            py = col.to_pylist()
            for i, t in zip(idx, normed):
                py[i] = t
            out_col = pa.array(py, type=col.type)
        else:
            out_col = col
    return pa.table({id_col: batch[id_col],
                     "text_nfc": out_col,
                     "changed": pa.array(changed)})
