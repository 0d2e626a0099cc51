r"""One byte scan of a text column, shared by the scorers.

Heuristics, langid and perplexity read the same text: heuristics by
Unicode White_Space (word counts, stopwords), by letters (alpha ratio)
and by lines (duplicate lines), langid by maximal letter runs (marker
words), perplexity by byte pairs of the lowercased text.  A
``TextScan`` reads the column's Arrow buffers once
(``vhash.string_view``) and computes each shared piece the first time a
scorer asks for it, so a stage that runs all three over one batch pays
for each piece once:

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
- ``line_breaks``: the characters ``str.splitlines`` breaks at, ASCII
  ones from one mask of the bytes below 0x1F.

The non-ASCII rows (``other``) are taken out once (``sub``) and their
multi-byte characters decoded to code points (``chars``).  That gives
the multi-byte White_Space characters (U+00A0, U+3000, ...), which end
tokens; the multi-byte line breaks (U+0085, U+2028, U+2029); the two
characters Arrow's ``utf8_lower`` maps to ASCII letters (U+0130 ``İ`` to
``i``, U+212A ``K`` to ``k``), which count as letters of a run, so that a
stopword spelled with them (``İS``) is still found; the code points per
row; and ``wide_runs``, the rows' maximal letter runs.

What a letter is outside ASCII is RE2's ``\pL``, the class the scorers
have always split on.  Python's ``str.isalpha`` and utf8proc disagree
with it on 4,348 code points (U+11F04 among them), so neither stands in
for it, and no table of it is committed: ``is_letter`` keeps one
process-wide byte per code point and asks RE2, in one
``match_substring_regex`` call over the new ones, about each code point
the first time a batch holds it.  RE2 builds its ``\pL`` program on
every call (1 to 2 ms whatever the input size), so a process pays that
only while it still meets code points it has not seen.
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


_WS_CPS = np.array(sorted(ord(c) for c in UWS_CHARS if not c.isascii()))
_CAPITAL_CPS = np.array(sorted(map(ord, ASCII_LOWERING)))
# the characters str.splitlines breaks a line at (pinned over every code
# point in tests/test_scorer_reference.py); all of them are White_Space
LINE_BREAKS = "\n\x0b\x0c\r\x1c\x1d\x1e\x85\u2028\u2029"
_ASCII_BREAK = np.zeros(0x1F, dtype=bool)  # the ASCII ones are all below 0x1F
_ASCII_BREAK[[ord(c) for c in LINE_BREAKS if c.isascii()]] = True
_BREAK_CPS = np.array([ord(c) for c in LINE_BREAKS if not c.isascii()])

# RE2's \pL per code point: 0 not asked yet, 1 a letter, 2 not a letter.
# np.zeros leaves untouched pages unmapped, so only the pages of the
# scripts a process meets become resident.  An entry is a pure function
# of its code point, so concurrent fills write the same bytes.
_LETTER_CLASS = np.zeros(0x110000, dtype=np.uint8)


def is_letter(cps: np.ndarray) -> np.ndarray:
    r"""bool per code point: is it in RE2's ``\pL``?  Code points not
    asked about before go to RE2 in one call."""
    cls = _LETTER_CLASS[cps]
    new = np.unique(cps[cls == 0])
    if len(new):
        chars = pa.array([chr(c) for c in new.tolist()], type=pa.string())
        found = pc.match_substring_regex(chars, r"\pL").to_numpy(zero_copy_only=False)
        _LETTER_CLASS[new] = np.where(found, 1, 2)
        cls = _LETTER_CLASS[cps]
    return cls == 1


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
    """Set ``mask`` over each character of ``size`` (2 to 4) bytes at ``pos``."""
    mask[pos] = value
    mask[pos + 1] = value
    for k in (2, 3):
        mask[pos[size > k] + k] = value


def row_sums(values: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """Per-row sums of ``values``, whose row ``i`` holds ``values[idx[i]:idx[i + 1]]``."""
    cs = np.zeros(len(values) + 1, dtype=np.int64)
    np.cumsum(values, out=cs[1:])
    return cs[idx[1:]] - cs[idx[:-1]]


def _runs(m: np.ndarray, rel: np.ndarray):
    """(starts, lengths, per-row index bounds) of the maximal True runs
    of ``m[1:-1]`` (``m`` is False at both ends), cut at the row starts
    ``rel``."""
    edges = np.flatnonzero(m[1:] != m[:-1])
    # a run crossing into the next row ends and restarts at its first byte
    p = rel[1:-1]
    p = p[(p > 0) & (p < rel[2:])]
    p = p[m[p] & m[p + 1]]
    if len(p):
        edges = np.insert(edges, np.repeat(np.searchsorted(edges, p), 2), np.repeat(p, 2))
    starts = np.ascontiguousarray(edges[0::2])
    return starts, edges[1::2] - starts, np.searchsorted(starts, rel)


def _decode(b: np.ndarray, lead: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(byte size, code point) of the UTF-8 characters of 2 to 4 bytes
    whose lead bytes are at ``lead``."""
    b0 = b[lead]
    size = 2 + (b0 >= 0xE0).astype(np.int64) + (b0 >= 0xF0)
    cp = (b0 & (0x7F >> size)).astype(np.int64)
    last = len(b) - 1  # valid UTF-8 never ends inside a character; clip anyway
    for k in (1, 2, 3):
        nxt = b[np.minimum(lead + k, last)] & 0x3F
        cp = np.where(size > k, (cp << 6) | nxt, cp)
    return size, cp


class TextScan:
    """The shared intermediates of one batch's text column (see module
    docstring).  Byte positions index ``b``, the bytes of all rows back to
    back; row ``i`` is ``b[rel[i]:rel[i + 1]]``, and a null row is empty.
    ``words`` is the packed lookup that ``run_words`` reads."""

    def __init__(self, col, words: WordTable | None = None):
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
    def sub_bytes(self) -> tuple[np.ndarray, np.ndarray]:
        """(row starts, bytes) of ``sub``, as ``rel`` and ``b`` are of the batch.
        Raises ``pa.ArrowInvalid`` on bytes that are not UTF-8 (an Arrow
        string array built from raw buffers is not checked), which could
        not be decoded to code points."""
        self.sub.validate(full=True)
        off, data = string_view(self.sub)
        return off - off[0], data[off[0]:off[-1]]

    @cached_property
    def chars(self):
        """The multi-byte characters of ``sub``: (index into ``other`` of
        each one's row, its position in ``sub_bytes``, its byte size, its
        code point)."""
        srel, sb = self.sub_bytes
        lead = np.flatnonzero(sb >= 0xC0)  # the lead byte of every 2- to 4-byte character
        size, cp = _decode(sb, lead)
        return np.searchsorted(srel, lead, side="right") - 1, lead, size, cp

    def _chars_in(self, cps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(positions in ``b``, byte sizes) of the multi-byte characters in ``cps``."""
        if not len(self.other):
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        rows, lead, size, cp = self.chars
        at = np.flatnonzero(np.isin(cp, cps))
        rows = rows[at]
        return lead[at] - self.sub_bytes[0][rows] + self.rel[self.other[rows]], size[at]

    @cached_property
    def n_chars(self) -> np.ndarray:
        """int64 code points per row."""
        n = np.diff(self.rel)
        if len(self.other):
            rows, _, size, _ = self.chars
            n[self.other] -= np.bincount(rows, weights=size - 1,
                                         minlength=len(self.other)).astype(np.int64)
        return n

    @cached_property
    def multibyte_ws(self) -> tuple[np.ndarray, np.ndarray]:
        """(positions, byte sizes) of the multi-byte White_Space characters."""
        return self._chars_in(_WS_CPS)

    @cached_property
    def line_breaks(self) -> tuple[np.ndarray, np.ndarray]:
        """(sorted positions, byte sizes) of the characters ``str.splitlines``
        breaks at."""
        b = self.b
        pos = np.flatnonzero(b < 0x1F)
        pos = pos[_ASCII_BREAK[b[pos]]]
        size = np.ones(len(pos), dtype=np.int64)
        wide, wide_size = self._chars_in(_BREAK_CPS)
        if len(wide):
            pos, size = np.concatenate((pos, wide)), np.concatenate((size, wide_size))
            order = np.argsort(pos)
            pos, size = pos[order], size[order]
        return pos, size

    @cached_property
    def letter_runs(self):
        """(starts, lengths, per-row index bounds) of the letter runs:
        ``[A-Za-z]`` bytes and the ``ASCII_LOWERING`` capitals."""
        b = self.b
        m = np.zeros(len(b) + 2, dtype=bool)     # m[i + 1] is byte i
        np.less((b | 0x20) - 97, 26, out=m[1:-1])  # uint8 wrap-around: [A-Za-z]
        _mark(m[1:-1], *self._chars_in(_CAPITAL_CPS), True)
        return _runs(m, self.rel)

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
        return _runs(m, self.rel)

    @cached_property
    def wide_runs(self):
        r"""The maximal letter runs (RE2's ``\pL``) of the non-ASCII rows:
        (index into ``other`` of each run's row, its length in code
        points, its start and its byte length in ``sub_bytes``)."""
        srel, sb = self.sub_bytes
        rows, lead, size, cp = self.chars
        m = np.zeros(len(sb) + 2, dtype=bool)
        np.less((sb | 0x20) - 97, 26, out=m[1:-1])
        letter = is_letter(cp)
        _mark(m[1:-1], lead[letter], size[letter], True)
        starts, lens, idx = _runs(m, srel)
        # code points: the bytes less the extra bytes of the multi-byte characters
        extra = np.zeros(len(lead) + 1, dtype=np.int64)
        np.cumsum(size - 1, out=extra[1:])
        n_cps = lens - (extra[np.searchsorted(lead, starts + lens)] - extra[np.searchsorted(lead, starts)])
        return np.repeat(np.arange(len(srel) - 1), np.diff(idx)), n_cps, starts, lens

    def wide_words(self, max_chars: int) -> tuple[np.ndarray, pa.Array]:
        """(index into ``other`` of each row, the runs) for the
        ``wide_runs`` of at most ``max_chars`` code points.  The runs are
        the even entries of a string array over ``sub_bytes`` with no copy:
        its odd entries are the text between two runs."""
        rows, n_cps, starts, lens = self.wide_runs
        keep = np.flatnonzero(n_cps <= max_chars)
        if not len(keep):
            return rows[keep], pa.array([], type=pa.large_string())
        bounds = np.empty(2 * len(keep), dtype=np.int64)
        bounds[0::2] = starts[keep]
        bounds[1::2] = starts[keep] + lens[keep]
        runs = pa.LargeStringArray.from_buffers(len(bounds) - 1, pa.py_buffer(bounds),
                                                pa.py_buffer(self.sub_bytes[1]))
        return rows[keep], runs
