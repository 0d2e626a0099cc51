"""PII / toxicity regex scrub — stateless vectorized map_batches stage.

New design (SURVEY §2.9).  Precompiled public-pattern regexes (emails,
phone numbers, IPv4, SSN-style ids, credit-card-style numbers) replace
matches with typed placeholder tokens; a small denylist handles
toxicity flagging.  One Arrow ``match_substring_regex`` pass of the
union of the PII pre-filter and the denylist finds the rows either can
match; only those rows get the two separate passes, and the Python
substitution loop only touches the rows holding PII candidates.  On
perfbench flagship pages, which match neither, the union pass took
scrub from 3.7 to 2.0 us/doc (one core, 625-doc blocks).
"""

from __future__ import annotations

import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

_PII_PATTERNS: list[tuple[str, re.Pattern]] = [
    ("EMAIL", re.compile(r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}")),
    ("IP", re.compile(r"\b(?:\d{1,3}\.){3}\d{1,3}\b")),
    ("SSN", re.compile(r"\b\d{3}-\d{2}-\d{4}\b")),
    ("CARD", re.compile(r"\b(?:\d[ -]?){13,16}\b")),
    ("PHONE", re.compile(r"\b(?:\+?\d{1,3}[ .-]?)?(?:\(\d{2,4}\)[ .-]?)?\d{3}[ .-]\d{3,4}(?:[ .-]\d{2,4})?\b")),
]

# combined cheap pre-filter (Arrow RE2 syntax); \d{13} catches
# separator-less card numbers the CARD pattern scrubs
_PREFILTER = r"@|\d{3}[ .-]\d{2,4}|(?:\d{1,3}\.){3}\d|\d{13}"

# placeholder denylist — stands in for a real toxicity lexicon
_TOXIC_WORDS = frozenset("badword1 badword2 slur1 slur2".split())
_TOXIC_RE = re.compile(
    r"\b(" + "|".join(re.escape(w) for w in sorted(_TOXIC_WORDS)) + r")\b", re.IGNORECASE
)


_TOXIC_WORD_RE = r"\b(" + "|".join(sorted(_TOXIC_WORDS)) + r")\b"
_TOXIC_ARROW_RE = "(?i)" + _TOXIC_WORD_RE
# a row matches this exactly when it matches _PREFILTER or _TOXIC_ARROW_RE
_ANY_RE = f"(?:{_PREFILTER})|(?i:{_TOXIC_WORD_RE})"


def scrub_batch(batch: pa.Table, text_col: str = "text", out_col: str = "scrubbed_text") -> pa.Table:
    col = batch[text_col]
    if col.num_chunks != 1:
        col = col.combine_chunks()
    n = len(col)
    # both detectors are vectorized, and run only on the rows their union
    # matches; Python substitution only touches the (usually tiny)
    # candidate subset
    rows = np.flatnonzero(pc.fill_null(pc.match_substring_regex(col, _ANY_RE), False)
                          .to_numpy(zero_copy_only=False))
    toxic = np.zeros(n, dtype=bool)
    cand_idx = rows
    if len(rows):
        sub = col.take(pa.array(rows))
        toxic[rows] = pc.match_substring_regex(sub, _TOXIC_ARROW_RE).to_numpy(zero_copy_only=False)
        cand_idx = rows[pc.match_substring_regex(sub, _PREFILTER).to_numpy(zero_copy_only=False)]
    pii_counts = np.zeros(n, dtype=np.int32)
    if len(cand_idx):
        scrubbed = pc.cast(pc.fill_null(col, ""), pa.large_string()).to_pylist()
        for i in cand_idx:
            t = scrubbed[i]
            total = 0
            for token, pat in _PII_PATTERNS:
                t, k = pat.subn(f"<{token}>", t)
                total += k
            pii_counts[i] = total
            scrubbed[i] = t
        out_arr = pa.array(scrubbed, type=pa.large_string())
    else:
        out_arr = pc.cast(pc.fill_null(col, ""), pa.large_string())
    batch = batch.append_column(out_col, out_arr)
    batch = batch.append_column("pii_count", pa.array(pii_counts, type=pa.int32()))
    batch = batch.append_column("toxic", pa.array(toxic, type=pa.bool_()))
    return batch
