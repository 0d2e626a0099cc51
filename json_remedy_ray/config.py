"""Frozen repair/pipeline configuration.

The reference reads feature flags from mutable global config
(`Application.get_env(:json_remedy, ...)`, reference
lib/json_remedy.ex:355-448, FEATURE_FLAGS.md:36-100).  In a distributed
engine global mutable state is a hazard, so the whole configuration is
one frozen dataclass whose hash becomes the *stage version* recorded in
per-partition lineage manifests (north_rule: checkpoint manifests record
stage versions).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class RepairConfig:
    # --- reference feature-flag parity (defaults mirror the reference) ---
    # reference lib/json_remedy.ex:355-356
    enable_multiple_json_aggregation: bool = True
    # reference lib/json_remedy.ex:389
    enable_object_merging: bool = True
    # reference lib/json_remedy.ex:398
    enable_early_hardcoded_patterns: bool = True
    # reference lib/json_remedy.ex:439
    enable_hardcoded_patterns: bool = True
    # reference lib/json_remedy.ex:441
    enable_ellipsis_filtering: bool = True
    # reference lib/json_remedy.ex:448
    enable_keyword_filtering: bool = True
    # reference layer3/syntax_normalization.ex:474 (default OFF)
    enable_escape_normalization: bool = False
    # reference lib/json_remedy.ex:119-127 fast path (json.loads first)
    fast_path: bool = True
    # strict mode: parse strictly + reject duplicate/empty keys
    # (reference utils/strict_mode_validator.ex:10-21)
    strict_mode: bool = False
    # logging parity (reference `logging: true` option): repairs are always
    # collected; this flag only controls whether actions carry positions.
    logging: bool = True

    # --- engine guards (reference SURVEY §7.3 pathological inputs) ---
    max_doc_bytes: int = 8 * 1024 * 1024     # docs above this -> error row
    max_parse_depth: int = 128               # recursion guard
    max_reentry_depth: int = 3               # fence-extractor re-entry guard
    trailing_dots_threshold: int = 10        # reference content_cleaning.ex:149

    def config_hash(self) -> str:
        """Deterministic stage-version string for lineage manifests."""
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def __post_init__(self):
        # per-layer option validation (reference layer_behaviour.ex:36-60
        # validate_options/1 contract; each layer rejects wrong-typed
        # values, e.g. content_cleaning.ex:223-251): unknown keys already
        # raise TypeError via the dataclass; bad VALUES raise here with
        # reference-style messages.
        _validate_fields(self, _REPAIR_BOOL_FIELDS, _REPAIR_POS_INT_FIELDS)


_REPAIR_BOOL_FIELDS = (
    "enable_multiple_json_aggregation", "enable_object_merging",
    "enable_early_hardcoded_patterns", "enable_hardcoded_patterns",
    "enable_ellipsis_filtering", "enable_keyword_filtering",
    "enable_escape_normalization", "fast_path", "strict_mode", "logging",
)
_REPAIR_POS_INT_FIELDS = (
    "max_doc_bytes", "max_parse_depth", "max_reentry_depth",
    "trailing_dots_threshold",
)


def _validate_fields(cfg, bool_fields: tuple[str, ...],
                     pos_int_fields: tuple[str, ...] = (),
                     pos_num_fields: tuple[str, ...] = ()) -> None:
    for name in bool_fields:
        v = getattr(cfg, name)
        if not isinstance(v, bool):
            raise ValueError(f"Option {name} must be a boolean, got: {v!r}")
    for name in pos_int_fields:
        v = getattr(cfg, name)
        if not isinstance(v, int) or isinstance(v, bool) or v <= 0:
            raise ValueError(f"Option {name} must be a positive integer, got: {v!r}")
    for name in pos_num_fields:
        v = getattr(cfg, name)
        if isinstance(v, bool) or not isinstance(v, (int, float)) or v < 0:
            raise ValueError(f"Option {name} must be a non-negative number, got: {v!r}")


DEFAULT_CONFIG = RepairConfig()


@dataclass(frozen=True)
class FilterConfig:
    """Quality-filter thresholds (C4/Gopher-style heuristics, public rules).

    Tuned for the synthetic corpus scale; every threshold is explicit so the
    keep/drop decision is a pure deterministic function of the row.
    """

    min_words: int = 10
    max_words: int = 200_000
    min_mean_word_len: float = 2.0
    max_mean_word_len: float = 12.0
    max_symbol_word_ratio: float = 0.1     # '#' and '...' per word (Gopher)
    max_nonalpha_ratio: float = 0.4        # 1 - alpha_chars/chars
    min_stopword_hits: int = 1             # docs need >=1 stopword (C4-ish)
    max_duplicate_line_frac: float = 0.5
    max_ppl: float = 1e6                   # perplexity cutoff
    min_lang_conf: float = 0.02
    allowed_langs: tuple[str, ...] = ("en", "fr", "es", "de", "zh")

    def config_hash(self) -> str:
        payload = json.dumps(
            {k: list(v) if isinstance(v, tuple) else v for k, v in asdict(self).items()},
            sort_keys=True,
        ).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def __post_init__(self):
        _validate_fields(
            self, (),
            pos_int_fields=("min_words", "max_words"),
            pos_num_fields=("min_mean_word_len", "max_mean_word_len",
                            "max_symbol_word_ratio", "max_nonalpha_ratio",
                            "max_duplicate_line_frac", "max_ppl", "min_lang_conf"),
        )
        if not isinstance(self.min_stopword_hits, int) or self.min_stopword_hits < 0:
            raise ValueError(
                f"Option min_stopword_hits must be a non-negative integer, "
                f"got: {self.min_stopword_hits!r}")
        if self.min_words > self.max_words:
            raise ValueError("Option min_words must be <= max_words")
        if not isinstance(self.allowed_langs, tuple) or not all(
                isinstance(x, str) for x in self.allowed_langs):
            raise ValueError("Option allowed_langs must be a tuple of strings")


DEFAULT_FILTER_CONFIG = FilterConfig()
