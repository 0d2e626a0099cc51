"""Frozen reference of the batch scorers, for differential tests only.

A verbatim copy of ``LangIdScorer.__call__`` (with its marker tables and
``__init__``) and of ``PerplexityScorer._batch_nll`` (with its log-prob
table and the batch wrappers) as they stood before the scorers were
rewritten to read the Arrow byte buffer directly, and of
``heuristics_batch`` (with its constants) as it stood before heuristics
and langid came to share one byte scan.  It imports nothing from
``json_remedy_ray``, so the package can be compared against it bit for bit
(tests/test_scorer_reference.py).  Never edit it to make a test pass:
a difference is a behaviour change in the package.
"""
