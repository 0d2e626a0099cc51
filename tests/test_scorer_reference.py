"""Differential test: the batch scorers against their frozen reference.

``tests/scorer_reference`` is a verbatim copy of ``LangIdScorer.__call__``
and ``PerplexityScorer._batch_nll`` as they stood before the scorers were
rewritten to read the Arrow byte buffer directly, and of
``heuristics_batch`` as it stood before heuristics and langid came to
share one byte scan (``stages/textscan.py``).  Every input here must
give the same six heuristics columns (float columns bit for bit), the
same ``lang_pred``, the same ``lang_conf`` bits, the same ``nll_micro``
and ``n_pairs`` and the same ``ppl`` bits, in every column form a batch
can arrive in: ``string`` and ``large_string``, sliced at a non-zero
offset, and split over several chunks.  The fused scorer stage must
equal frozen heuristics, then frozen langid, then perplexity, and the
Ray pipelines must equal the same chain run in-process.  Hypothesis
runs derandomized, so the suite sees the same examples on every run.

The scalar ``LangIdScorer.score_one`` is checked against the batch path
here too: both take maximal runs of letters (Unicode category L*).
"""

from __future__ import annotations

import ast
import json
import os
import random

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from json_remedy_ray.pipelines.quality_filter import FusedScorer
from json_remedy_ray.stages import langid
from json_remedy_ray.stages.heuristics import EDGE_PUNCT_CHARS, STOPWORDS, heuristics_batch
from json_remedy_ray.stages.langid import LangIdScorer
from json_remedy_ray.stages.perplexity import PerplexityScorer
from json_remedy_ray.stages.textscan import ASCII_LOWERING
from json_remedy_ray.stages.textstats import UWS_CHARS
from tests.scorer_reference import langid as ref_langid
from tests.scorer_reference.heuristics import heuristics_batch as ref_heuristics_batch
from tests.scorer_reference.langid import LangIdScorer as RefLangIdScorer
from tests.scorer_reference.perplexity import PerplexityScorer as RefPerplexityScorer
from tests.test_ray_pipeline import SF_DIR  # the sf0.001 test tables

REF_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "scorer_reference")
SF_DIRS = (SF_DIR, os.path.join(os.path.dirname(SF_DIR), "sf0.01"))

LANGID, REF_LANGID = LangIdScorer(), RefLangIdScorer()
PPL, REF_PPL = PerplexityScorer(), RefPerplexityScorer()
FUSED = FusedScorer()

MARKERS = sorted({w for t in LANGID.tables.values() for w in t})
# longer than any marker, but starting with one: must never hit
LONG_WORDS = ["thereafter", "andersen", "another", "island", "thesaurus", "forever"]


def _forms(texts: list, ty: pa.DataType):
    """The same texts as every column form a batch can carry."""
    arr = pa.array(texts, type=ty)
    yield arr
    # sliced at a non-zero offset, with other rows' bytes on both sides
    padded = pa.array(["the and before", None] + texts + ["after the"], type=ty)
    yield padded.slice(2, len(texts))
    k = len(texts) // 2
    yield pa.chunked_array([arr.slice(0, k), arr.slice(k, 0), arr.slice(k)], type=ty)
    if not texts:
        yield pa.chunked_array([], type=ty)


def _bits(col) -> list:
    return col.to_numpy().view(np.uint32).tolist()


def assert_same_table(got: pa.Table, want: pa.Table, texts) -> None:
    """Same columns in the same order, same values, float32 bit for bit."""
    assert got.column_names == want.column_names, texts
    for name in got.column_names:
        assert got[name].type == want[name].type, (name, texts)
        if got[name].type == pa.float32():
            assert _bits(got[name]) == _bits(want[name]), (name, texts)
        else:
            assert got[name].to_pylist() == want[name].to_pylist(), (name, texts)


def assert_same(texts: list) -> None:
    for ty in (pa.string(), pa.large_string()):
        for col in _forms(texts, ty):
            batch = pa.table({"text": col})
            assert_same_table(heuristics_batch(batch), ref_heuristics_batch(batch), texts)
            assert_same_table(FUSED(batch), REF_PPL(REF_LANGID(ref_heuristics_batch(batch))), texts)
            got, want = LANGID(batch), REF_LANGID(batch)
            assert got["lang_pred"].to_pylist() == want["lang_pred"].to_pylist(), texts
            assert _bits(got["lang_conf"]) == _bits(want["lang_conf"]), texts
            got, want = PPL.nll_batch(batch), REF_PPL.nll_batch(batch)
            assert got["nll_micro"].to_pylist() == want["nll_micro"].to_pylist(), texts
            assert got["n_pairs"].to_pylist() == want["n_pairs"].to_pylist(), texts
            assert _bits(PPL(batch)["ppl"]) == _bits(REF_PPL(batch)["ppl"]), texts


def _sf_texts(sf_dir: str) -> list:
    path = os.path.join(sf_dir, "documents.parquet")
    if not os.path.exists(path):
        pytest.skip(f"{path} is not present")
    return pq.read_table(path, columns=["text"])["text"].to_pylist()


def test_reference_is_independent_of_the_package():
    """The frozen copy must not import what it is compared against."""
    for name in sorted(os.listdir(REF_DIR)):
        if not name.endswith(".py"):
            continue
        tree = ast.parse(open(os.path.join(REF_DIR, name), encoding="utf-8").read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                mods = [node.module or ""]
            elif isinstance(node, ast.Import):
                mods = [a.name for a in node.names]
            else:
                continue
            for m in mods:
                assert not m.startswith("json_remedy_ray"), (name, m)


@pytest.mark.parametrize("sf_dir", SF_DIRS, ids=os.path.basename)
def test_sf_documents_match_reference(sf_dir):
    texts = _sf_texts(sf_dir)
    assert len(texts) >= 100
    assert_same(texts)
    for lo in range(0, len(texts), 97):
        assert_same(texts[lo:lo + 97])


def test_webpage_corpus_matches_reference():
    """Flagship input: the synthetic webpage corpus over sf0.001, half
    of it with a malformed JSON snippet in the prose."""
    from json_remedy_ray.sources.corpus import make_webpage_batch

    docs = pq.read_table(os.path.join(SF_DIR, "documents.parquet"),
                         columns=["doc_id", "text", "lang"])
    assert_same(make_webpage_batch(docs)["text"].to_pylist())


def _flagship_pages(seed: int, n: int) -> list:
    """Pages in the flagship's shape: prose lines from the sf0.001
    documents, some with an embedded JSON snippet in straight or smart
    quotes (the smart ones make the row non-ASCII)."""
    rng = random.Random(seed)
    docs = [t for t in _sf_texts(SF_DIR) if t]
    pages = []
    for _ in range(n):
        lines = [rng.choice(docs) for _ in range(rng.randrange(1, 4))]
        if rng.random() < 0.5:
            rec = {rng.choice(MARKERS): rng.choice([1, "The", None, [1, 2]])
                   for _ in range(rng.randrange(1, 4))}
            snippet = json.dumps(rec)
            if rng.random() < 0.3:
                snippet = snippet.replace('"', "“")
            lines.insert(rng.randrange(len(lines) + 1), "Here is the data: " + snippet)
        pages.append("\n".join(lines))
    return pages


@pytest.mark.parametrize("seed", [11, 12])
def test_flagship_pages_match_reference(seed):
    pages = _flagship_pages(seed, 600)
    assert_same(pages)
    assert_same([p for p in pages if p.isascii()])
    assert_same([p for p in pages if not p.isascii()])


EDGE_CASES = [
    [],
    [""],
    [None],
    [None, None],
    ["a"],
    ["ab"],
    ["a", "b", "c"],
    ["the", ""],                      # trailing empty doc
    ["", "the", None, "x", ""],
    ["the", "and", "of"],             # letter runs meeting at row boundaries
    ["THE AND Of", "tHe", "AnD", "oF"],
    ["thereafter andersen another island the", "forever"],
    ["theé", "éthe", "thé and", "café the"],
    ["für die das", "FÜR DIE", "più il la", "não o a"],
    ["İN the İS", "İn"],  # lowers to "in"/"is"
    ["中文字符 the", "中 the and of to in is you that"],
    ["the\u00a0and\u2003of\u3000to", "the_and1of2to"],  # Unicode spaces
    ["éthe", "thë and", "the ² and x", "the Ⅻ and"],
    ["x" * 5000, "the " * 2000],
    ["the and", "é"],             # all-ASCII row next to a non-ASCII one
    # heuristics: every White_Space character as a separator, alone and together
    ["the" + c + "and" + c + c + "of" + c for c in UWS_CHARS],
    ["a" + UWS_CHARS + "the" + UWS_CHARS[::-1] + "İs"],
    # stopwords wrapped in edge punctuation (and words that only look so)
    ['(the) "and," ...of the... ((a)) a.b \'IS\' [in]! ?to; :by: (the',
     "the2 2the the- -the (the)x x(the) the.the a.a.a ((((((((((an))))))))))",
     "(thé) é(the) (the)é (THE) AnD, OF. \"tHe\"", "...", "((", "()", "the"],
    # a non-ASCII character Arrow lowercases to an ASCII letter
    ["İS İN İT thİs wİth (İs) İ İİ İs. kİn", "\u212a \u212aIN is\u212a", "İS", "is"],
    # runs of dots, "#" next to multi-byte characters
    ["." * k for k in range(1, 10)] + ["a" + "." * k + "b" + "." * k for k in range(3, 8)],
    ["é#", "#中", "#İ#", "##é##", "#", "é...é", "中...#...中", "a # b ## c"],
    # line breaks: duplicate lines
    ["a\r\nb\r\na", "x\x1cy\x1cx", "p\u2028q\u2028p", "a\n\na\n", "a\rb\r\na\x85b"],
    # all rows non-ASCII; no row non-ASCII
    ["é", "中文 the", "İS", "the\u00a0of", "naïve café"],
    ["the cat", "a b", "", None, "x"],
    ["", "aé", "", None, "", "é", ""],  # empty rows around non-ASCII ones
]


@pytest.mark.parametrize("texts", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_edge_cases_match_reference(texts):
    assert_same(texts)


def _mixcase(word: str, bits: int) -> str:
    return "".join(c.upper() if bits >> i & 1 else c for i, c in enumerate(word))


_ALPHABET = ("abcdeIOTHXZ0123456789_#" + EDGE_PUNCT_CHARS + UWS_CHARS
             + "İéÉüãùß中文㐀\u212a\U00011f04")
_WORD = st.one_of(
    st.builds(_mixcase, st.sampled_from(MARKERS + sorted(STOPWORDS) + LONG_WORDS),
              st.integers(0, 1023)),
    st.text(alphabet=_ALPHABET, max_size=12),
)
_TEXT = st.builds("".join, st.lists(_WORD, max_size=30))
_BATCH = st.lists(st.one_of(st.none(), _TEXT), max_size=12)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_BATCH)
def test_generated_text_matches_reference(texts):
    assert_same(texts)


def test_markers_up_to_eight_bytes_match_reference(monkeypatch):
    """Packed lookups hold for every marker length the ASCII path takes."""
    extra = " because between whatever"
    for mod in (langid, ref_langid):
        monkeypatch.setitem(mod._MARKERS, "en", mod._MARKERS["en"] + extra)
    new, ref = LangIdScorer(), RefLangIdScorer()
    assert new.ascii_max_len == 8
    texts = ["Because of that, WHATEVER between us", "whateverx because_ between1",
             "Whateveré because", "", None, "betwee whateve becaus"]
    for ty in (pa.string(), pa.large_string()):
        for col in _forms(texts, ty):
            got, want = new(pa.table({"text": col})), ref(pa.table({"text": col}))
            assert got.equals(want)


def test_ascii_marker_over_eight_bytes_is_refused(monkeypatch):
    monkeypatch.setitem(langid._MARKERS, "en", "the thereafter")
    with pytest.raises(ValueError, match="thereafter"):
        LangIdScorer()


# ---- scalar score_one against the batch path

def _batch_scores(texts: list) -> list:
    out = LANGID(pa.table({"text": pa.array(texts, type=pa.string())}))
    return list(zip(out["lang_pred"].to_pylist(), _bits(out["lang_conf"])))


def _scalar_scores(texts: list) -> list:
    out = []
    for t in texts:
        lang, conf = LANGID.score_one(t)
        out.append((lang, int(np.float32(conf).view(np.uint32))))
    return out


def test_scalar_counts_letters_only():
    """No/Nl characters are not letters: the batch split drops them."""
    assert LANGID.score_one("the Ⅻ and") == ("en", 1.0)
    assert LANGID.score_one("the ² and x") == ("en", 2 / 3)
    texts = ["the Ⅻ and", "the ² and x", "İN the"]
    assert _scalar_scores(texts) == _batch_scores(texts)


# letters, digits, "_", No (superscripts), Nl (Roman numerals), Mn
# (combining acute and diaeresis), "İ" and CJK
_PARITY_ALPHABET = ("abcTHE019_ \n.,\u00b2\u00b3\u216b\u2160\u0301\u0308"
                    "\u00e9\u00fc\u0130\u00df\u4e2d\u3400\u3000")
_PARITY_WORD = st.one_of(
    st.builds(_mixcase, st.sampled_from(MARKERS + LONG_WORDS), st.integers(0, 1023)),
    st.text(alphabet=_PARITY_ALPHABET, max_size=8),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.builds("".join, st.lists(_PARITY_WORD, max_size=12)), min_size=1, max_size=8))
def test_scalar_matches_batch(texts):
    assert _scalar_scores(texts) == _batch_scores(texts)


# ---- where the byte scan defers to RE2 and to Arrow

def test_re2_only_letters_stay_letters():
    """RE2's \\pL, not Python's str.isalpha or a code-point table, decides
    what a letter is: U+11F04 and U+1123F are letters to RE2 only."""
    for c in ("\U00011f04", "\U0001123f"):
        assert not c.isalpha()
        texts = [f"the{c}and", f"the {c} and", c, f"{c}{c} {c}"]
        batch = pa.table({"text": texts})
        heur = heuristics_batch(batch)
        assert heur["alpha_ratio"].to_pylist() == [1.0] * 4
        assert_same_table(heur, ref_heuristics_batch(batch), texts)
        got = LANGID(batch)
        assert got["lang_pred"].to_pylist()[:2] == ["und", "en"]
        assert got["lang_conf"].to_pylist()[1] == np.float32(2 / 3)
        assert_same(texts)


def test_ascii_lowering_covers_every_code_point():
    """The byte scan counts a stopword spelled with a non-ASCII capital
    (``İS``) only for the characters in ASCII_LOWERING: no other code
    point lowercases to ASCII in Arrow."""
    cps = [chr(c) for c in range(0x80, 0x110000) if not 0xD800 <= c < 0xE000]
    lowered = pc.utf8_lower(pa.array(cps)).to_pylist()
    assert {c: low for c, low in zip(cps, lowered) if low.isascii()} == ASCII_LOWERING


# ---- the Ray pipelines against the frozen chain run in-process

def _frozen_chain(table: pa.Table, cascade: bool) -> pa.Table:
    """repair, frozen heuristics, [gate], frozen langid, perplexity, scrub,
    decide, [filter]: what ``quality_filter`` (and its cascade) compute."""
    from json_remedy_ray.config import DEFAULT_FILTER_CONFIG
    from json_remedy_ray.stages.decide import decide_batch
    from json_remedy_ray.stages.repair_stage import make_repair_fn
    from json_remedy_ray.stages.scrub import scrub_batch

    b = ref_heuristics_batch(make_repair_fn()(table))
    if cascade:
        b = b.filter(decide_batch(b, DEFAULT_FILTER_CONFIG)["keep"])
    b = decide_batch(scrub_batch(PPL(REF_LANGID(b))), DEFAULT_FILTER_CONFIG)
    return b.filter(b["keep"]) if cascade else b


def _rows(table: pa.Table) -> list:
    return sorted(table.to_pylist(), key=repr)


def test_pipelines_match_frozen_chain(ray_session, tmp_path):
    import ray.data as rd

    from json_remedy_ray.pipelines.quality_filter import (
        FLAGSHIP_COLUMNS,
        quality_filter,
        quality_filter_cascade,
    )
    from json_remedy_ray.sources.corpus import build_webpages

    corpus = build_webpages(SF_DIR, str(tmp_path / "pages"), num_files=2)
    table = pq.read_table(corpus, columns=FLAGSHIP_COLUMNS)
    for pipeline, cascade in ((quality_filter, False), (quality_filter_cascade, True)):
        got = pa.Table.from_pandas(
            pipeline(rd.read_parquet(corpus, columns=FLAGSHIP_COLUMNS)).to_pandas(),
            preserve_index=False)
        want = _frozen_chain(table, cascade)
        assert got.column_names == want.column_names
        assert _rows(got) == _rows(want)
