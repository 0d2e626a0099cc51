"""Frozen reference of the repair path, for differential tests only.

A verbatim copy of ``json_remedy_ray.repair`` (pre-processing, Layers 1,
4 and 5, the pipeline) and of ``stages.repair_stage.repair_arrow_batch``
as they stood before the hot path was rewritten with ``re`` scanners.
It imports nothing from ``json_remedy_ray.repair``, so the optimized
package can be compared against it byte for byte
(tests/test_repair_reference.py).  Never edit it to make a test pass:
a difference is a behaviour change in the package.
"""
