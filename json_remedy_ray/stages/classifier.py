"""Model-based quality scoring: a fixed linear (logistic) classifier
over the heuristic features — the corpus-scale stand-in for a
fastText-style quality model (training is offline; SCORING every
document is the pipeline operator, same family as the perplexity
scorer).  Weights are fixed constants, so the whole scorer is a
deterministic closed-form function of integer text features and gets a
FULL DuckDB oracle.

Parity contract (the repo's standard float pattern): features are exact
integers; the logit is accumulated in fixed order with the same decimal
literals the SQL uses; the score narrows to float32 so libm exp/ln ulp
differences cancel; the keep decision compares the FLOAT32 score to the
literal 0.5 on both sides.

The features are the heuristics stage's counts (``stages/heuristics.py``)
read from one ``TextScan``: whitespace tokens, letters (RE2's ``\\pL``)
plus White_Space characters, and tokens that are a stopword once trimmed
of edge punctuation and lowercased.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from json_remedy_ray.stages.heuristics import (
    STOPWORD_TABLE,
    letter_count,
    stopword_hits,
    word_count,
    ws_chars,
)
from json_remedy_ray.stages.textscan import TextScan

# fixed classifier weights (documented constants, shared with the SQL)
W_BIAS = -3.0
W_LOGWC = 0.8
W_ALPHA = 2.0
W_STOPW = 0.3
STOPW_CAP = 8


def quality_classifier_batch(batch: pa.Table, text_col: str = "text",
                             id_col: str = "doc_id") -> pa.Table:
    """(doc_id, text) -> (doc_id, word_count, alpha_space_chars,
    stopword_capped, quality_score: float32, keep: bool).

    logit = -3.0 + 0.8 * ln(1 + word_count)
                 + 2.0 * (alpha_space_chars / max(n_chars, 1))
                 + 0.3 * min(stopword_count, 8)
    score = sigmoid(logit), narrowed to float32; keep = score >= 0.5.
    """
    scan = TextScan(batch[text_col], STOPWORD_TABLE)  # a null row reads as ""
    n_chars = scan.n_chars
    wc = word_count(scan)
    alpha_space = letter_count(scan) + ws_chars(scan)
    sw = np.minimum(stopword_hits(scan), STOPW_CAP)

    logit = (W_BIAS
             + W_LOGWC * np.log(1 + wc.astype(np.float64))
             + W_ALPHA * (alpha_space / np.maximum(n_chars, 1).astype(np.float64))
             + W_STOPW * sw.astype(np.float64))
    score = (1.0 / (1.0 + np.exp(-logit))).astype(np.float32)
    return pa.table({
        id_col: batch[id_col],
        "word_count": pa.array(wc, type=pa.int64()),
        "alpha_space_chars": pa.array(alpha_space, type=pa.int64()),
        "stopword_capped": pa.array(sw.astype(np.int64), type=pa.int64()),
        "quality_score": pa.array(score, type=pa.float32()),
        "keep": pa.array(score >= np.float32(0.5)),
    })
