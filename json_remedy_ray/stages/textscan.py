r"""One byte scan of a text column, shared by the heuristics and langid scorers.

Both scorers tokenize the same text: heuristics by Unicode White_Space
(word counts, stopwords) and by letters (alpha ratio), langid by maximal
letter runs (marker words).  A ``TextScan`` reads the column's Arrow
buffers once (``vhash.string_view``) and computes each shared piece the
first time a scorer asks for it, so a stage that runs both scorers over
one batch pays for each piece once:

- ``ascii_row``: the rows whose largest byte is below 0x80 (one
  ``np.maximum.reduceat``).  In an ASCII row the letters (Unicode
  category L*) are exactly ``[A-Za-z]``.
- ``letter_runs``: maximal ``[A-Za-z]`` runs, from one byte mask over
  the whole batch, cut where one row ends and the next begins.
- ``run_words``: each run of at most 8 bytes packed into a uint64,
  lowercased with one OR and looked up in one collision-free hash table
  (``WordTable``) holding both the langid markers and the stopwords.
- ``tokens``: maximal runs of non-White_Space bytes (the whitespace
  tokens), from a second byte mask.
- ``letter_split``: for the non-ASCII rows only, one ``col.take`` and
  one RE2 ``[^\pL]+`` split.  RE2's ``\pL`` defines what a letter is:
  Python's ``str.isalpha`` and utf8proc disagree with it on 4,348 code
  points (U+11F04 among them), so no code-point table stands in for it.

Non-ASCII rows need two more things from the bytes, found at the lead
bytes of their multi-byte characters: the multi-byte White_Space
characters (U+00A0, U+3000, ...), which end tokens, and the two
characters Arrow's ``utf8_lower`` maps to ASCII letters (U+0130 ``İ`` to
``i``, U+212A ``K`` to ``k``), which count as letters of a run, so that a
stopword spelled with them (``İS``) is still found.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from json_remedy_ray.functions.vhash import string_view
from json_remedy_ray.stages.textstats import UWS_CHARS

_PACK = 8                                  # bytes per packed run: one uint64
_HASH_MUL = np.uint64(0x9E3779B97F4A7C15)  # odd multiplier (Fibonacci hashing)
# per run length L: the low L bytes (_KEEP) and the 0x20 case bit in each (_LOWER)
_KEEP = np.array([(1 << (8 * k)) - 1 for k in range(_PACK + 1)], dtype=np.uint64)
_LOWER = _KEEP & np.uint64(0x2020202020202020)

# the only non-ASCII characters that Arrow's utf8_lower maps to ASCII
# (pinned over every code point in tests/test_scorer_reference.py)
ASCII_LOWERING = {"\u0130": "i", "\u212a": "k"}


def _utf8_codes(chars) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 encodings of ``chars`` as big-endian integers: (sorted
    2-byte codes, sorted 3-byte codes)."""
    enc = [c.encode() for c in chars]
    if any(not 2 <= len(e) <= 3 for e in enc):
        raise ValueError("only 2- and 3-byte characters are located")
    return tuple(np.array(sorted(int.from_bytes(e, "big") for e in enc if len(e) == k),
                          dtype=np.int64) for k in (2, 3))


_WS_CODES = _utf8_codes(c for c in UWS_CHARS if not c.isascii())
_CAPITAL_CODES = _utf8_codes(ASCII_LOWERING)


def _pack(word: bytes) -> int:
    """The lookup key of a run: its bytes, little-endian, lowercased the
    way ``WordTable.lookup`` lowercases a run (0x20 set in every byte)."""
    return int.from_bytes(word, "little") | int(_LOWER[len(word)])


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


class WordTable:
    """The langid markers and the stopwords in one packed lookup.

    ``words`` lists the markers in the given order (so a marker's id is
    its index), then the stopwords that are not markers.  ASCII words are
    keyed by their packed bytes.  Non-ASCII markers (für, più, não) are
    left out: they match only through the RE2 path.  A stopword is also
    keyed by each spelling with ``ASCII_LOWERING`` capitals (``İs``),
    because heuristics decides stopwords from the byte runs in every row,
    while langid reads byte runs only in ASCII rows.
    """

    def __init__(self, markers=(), stopwords=frozenset()):
        markers = list(markers)
        self.n_markers = len(markers)
        self.words = markers + sorted(set(stopwords) - set(markers))
        self.is_stopword = np.array([w in stopwords for w in self.words], dtype=bool)
        capital = {v: k for k, v in ASCII_LOWERING.items()}
        spellings: dict[bytes, int] = {}
        for j, w in enumerate(self.words):
            if not w.isascii():
                continue
            choices = [(c, capital[c]) if c in capital and self.is_stopword[j] else (c,)
                       for c in w]
            for s in product(*choices):
                spellings["".join(s).encode()] = j
        too_long = sorted(s.decode() for s in spellings if len(s) > _PACK)
        if too_long:
            raise ValueError(f"ASCII markers and stopwords must fit in {_PACK} bytes: {too_long}")
        self.max_len = max(map(len, spellings), default=0)
        keys = np.array([_pack(s) for s in spellings], dtype=np.uint64)
        # a perfect hash rather than np.searchsorted over the sorted keys:
        # on perfbench flagship_mixed pages (~90 short runs a page) the
        # lookup takes 0.6 us/doc against 2.6 for the binary search
        self._shift, self._slot_keys, self._slot_ids = _perfect_table(
            keys, np.array(list(spellings.values()), dtype=np.int64))

    def lookup(self, b: np.ndarray, starts: np.ndarray, lens: np.ndarray):
        """(index, word id) of each run ``b[starts:starts + lens]`` that is
        in the table.  Case is folded by setting 0x20 in each byte, which
        maps exactly the ASCII capitals onto the lowercase letter keys."""
        short = np.flatnonzero(lens <= self.max_len)
        # 8 bytes from each run start: a uint64 view at byte stride over a
        # zero-padded copy, masked to the run and lowercased
        padded = np.zeros(len(b) + _PACK, dtype=np.uint8)
        padded[:len(b)] = b
        words = np.ndarray((len(b),), dtype="<u8", buffer=padded, strides=(1,))[starts[short]]
        k = lens[short]
        words &= _KEEP[k]
        words |= _LOWER[k]
        slots = (words * _HASH_MUL) >> self._shift
        hit = np.flatnonzero(self._slot_keys[slots] == words)
        return short[hit], self._slot_ids[slots[hit]]


def _mark(mask: np.ndarray, pos: np.ndarray, size: np.ndarray, value: bool) -> None:
    """Set ``mask`` over each character of ``size`` (2 or 3) bytes at ``pos``."""
    mask[pos] = value
    mask[pos + 1] = value
    mask[pos[size == 3] + 2] = value


def row_sums(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-row sums of ``values``, whose row ``i`` holds ``values[idx[i]:idx[i + 1]]``."""
    cs = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=cs[1:])
    return cs[idx[1:]] - cs[idx[:-1]]


class TextScan:
    """The shared intermediates of one batch's text column (see module
    docstring).  Byte positions index ``b``, the bytes of all rows back to
    back; row ``i`` is ``b[rel[i]:rel[i + 1]]``, and a null row is empty."""

    def __init__(self, col, words: WordTable):
        if isinstance(col, pa.ChunkedArray):
            col = col.chunk(0) if col.num_chunks == 1 else col.combine_chunks()
        self.col, self.words, self.n = col, words, len(col)
        off, data = string_view(col)
        self.rel = off - off[0]
        self.b = data[off[0]:off[-1]]
        # a row is ASCII when its largest byte is below 0x80 (on perfbench
        # flagship pages, one core: 0.1 us/doc; pc.string_is_ascii 1.0)
        lens = np.diff(self.rel)
        self.ascii_row = lens == 0
        full = np.flatnonzero(lens)
        if len(full):
            self.ascii_row[full] = np.maximum.reduceat(self.b, self.rel[full]) < 0x80
        self.other = np.flatnonzero(~self.ascii_row)

    def row_of(self, pos: np.ndarray) -> np.ndarray:
        """The row holding each byte position."""
        return np.searchsorted(self.rel, pos, side="right") - 1

    def row_counts(self, pos: np.ndarray, weights=None) -> np.ndarray:
        """int64 per row: how many of ``pos`` (or their summed ``weights``) fall in it."""
        if not len(pos):
            return np.zeros(self.n, dtype=np.int64)
        return np.bincount(self.row_of(pos), weights=weights, minlength=self.n).astype(np.int64)

    @cached_property
    def sub(self) -> pa.Array:
        """The non-ASCII rows, in order."""
        return self.col if len(self.other) == self.n else self.col.take(pa.array(self.other))

    @cached_property
    def n_chars(self) -> np.ndarray:
        """int64 code points per row."""
        n = np.diff(self.rel)
        if len(self.other):
            n[self.other] = pc.utf8_length(self.sub).to_numpy(zero_copy_only=False)
        return n

    @cached_property
    def _multibyte(self):
        """((positions, byte sizes) of the multi-byte White_Space
        characters, the same of the ``ASCII_LOWERING`` capitals)."""
        empty = np.empty(0, dtype=np.int64)
        if not len(self.other):
            return (empty, empty), (empty, empty)
        b = self.b
        lead = np.flatnonzero(b >= 0xC2)  # a lead byte of every 2- to 4-byte character
        last = len(b) - 1  # valid UTF-8 never ends on a lead byte; clip anyway
        v2 = (b[lead].astype(np.int64) << 8) | b[np.minimum(lead + 1, last)]
        v3 = (v2 << 8) | b[np.minimum(lead + 2, last)]
        found = []
        for two, three in (_WS_CODES, _CAPITAL_CODES):
            is2 = np.isin(v2, two)
            at = is2 | np.isin(v3, three)
            found.append((lead[at], np.where(is2[at], 2, 3)))
        return tuple(found)

    @property
    def multibyte_ws(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions, byte sizes) of the multi-byte White_Space characters."""
        return self._multibyte[0]

    def _runs(self, m: np.ndarray):
        """(starts, lengths, per-row index bounds) of the maximal True runs
        of ``m[1:-1]`` (``m`` is False at both ends), cut at row starts."""
        rel = self.rel
        edges = np.flatnonzero(m[1:] != m[:-1])
        # a run crossing into the next row ends and restarts at its first byte
        p = rel[1:-1]
        p = p[(p > 0) & (p < rel[2:])]
        p = p[m[p] & m[p + 1]]
        if len(p):
            edges = np.insert(edges, np.repeat(np.searchsorted(edges, p), 2), np.repeat(p, 2))
        starts = np.ascontiguousarray(edges[0::2])
        return starts, edges[1::2] - starts, np.searchsorted(starts, rel)

    @cached_property
    def letter_runs(self):
        """(starts, lengths, per-row index bounds) of the letter runs:
        ``[A-Za-z]`` bytes and the ``ASCII_LOWERING`` capitals."""
        b = self.b
        m = np.zeros(len(b) + 2, dtype=bool)     # m[i + 1] is byte i
        np.less((b | 0x20) - 97, 26, out=m[1:-1])  # uint8 wrap-around: [A-Za-z]
        _mark(m[1:-1], *self._multibyte[1], True)
        return self._runs(m)

    @cached_property
    def run_words(self) -> tuple[np.ndarray, np.ndarray]:
        """(index, ``WordTable`` id) of each letter run that is in the table."""
        starts, lens, _ = self.letter_runs
        return self.words.lookup(self.b, starts, lens)

    @cached_property
    def tokens(self):
        """(starts, lengths, per-row index bounds) of the whitespace
        tokens: maximal runs of bytes outside Unicode White_Space."""
        b = self.b
        m = np.zeros(len(b) + 2, dtype=bool)
        t = m[1:-1]
        x = b - np.uint8(9)  # uint8 wrap-around: \t \n \v \f \r at 0-4
        np.greater_equal(x, 5, out=t)
        x -= np.uint8(19)    # \x1c-\x1f and space at 0-4
        t &= x >= 5
        _mark(t, *self.multibyte_ws, False)
        return self._runs(m)

    @cached_property
    def letter_split(self):
        """For the non-ASCII rows: (row of each RE2 ``[^\\pL]+`` split
        token, its length in code points, the tokens).  Edge tokens may
        be empty."""
        tokens = pc.split_pattern_regex(self.sub, r"[^\pL]+")
        rows = self.other[pc.list_parent_indices(tokens).to_numpy(zero_copy_only=False)]
        flat = pc.list_flatten(tokens)
        return rows, pc.utf8_length(flat).to_numpy(zero_copy_only=False), flat
