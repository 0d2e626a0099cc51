"""Repair-action lineage records.

Mirror of the reference's repair_action map
(reference lib/json_remedy/layer_behaviour.ex:9-15): every mutation any
layer makes is recorded as (layer, action, position).  At 100 TB scale we
drop the original/replacement payloads and keep compact per-layer hit
counts in the manifest (SURVEY §1.3).
"""

from __future__ import annotations

from dataclasses import dataclass

LAYER_CONTENT = "content_cleaning"
LAYER_STRUCTURAL = "structural_repair"
LAYER_SYNTAX = "syntax_normalization"
LAYER_VALIDATION = "validation"
LAYER_PREPROCESSING = "preprocessing"
LAYER_PARSE = "tolerant_parse"

ALL_LAYERS = (
    LAYER_PREPROCESSING,
    LAYER_CONTENT,
    LAYER_STRUCTURAL,
    LAYER_SYNTAX,
    LAYER_VALIDATION,
    LAYER_PARSE,
)


@dataclass
class Repair:
    layer: str
    action: str
    position: int | None = None

    def as_dict(self) -> dict:
        return {"layer": self.layer, "action": self.action, "position": self.position}
