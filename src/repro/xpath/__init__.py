"""The XPath fragment ``XP{/,[],//,*}`` of the paper (Section 2)."""

from repro.xpath.ast import Axis, Pattern, Pred, Step, make_path, normalize
from repro.xpath.bitset import BitsetEvaluator
from repro.xpath.canonical import (
    CanonicalModel,
    canonical_models,
    count_desc_edges,
    count_wildcards,
    model_count,
    smallest_model,
)
from repro.xpath.containment import (
    canonical_contained,
    contained,
    equivalent,
    find_separating_model,
    hom_contained,
)
from repro.xpath.evaluator import evaluate, evaluate_ids, matches_at, selects
from repro.xpath.intersection import (
    escape_witness,
    intersect_child_only,
    intersection_contained,
    intersection_equivalent,
    product_patterns,
)
from repro.xpath.parser import parse
from repro.xpath.properties import (
    Fragment,
    fragment_of,
    is_child_only,
    is_linear,
    labels_of,
    max_star_length,
    star_length,
    wildcard_gap_bound,
)

__all__ = [
    "Axis",
    "Pattern",
    "Pred",
    "Step",
    "make_path",
    "normalize",
    "parse",
    "evaluate",
    "evaluate_ids",
    "selects",
    "matches_at",
    "BitsetEvaluator",
    "contained",
    "hom_contained",
    "canonical_contained",
    "equivalent",
    "find_separating_model",
    "CanonicalModel",
    "canonical_models",
    "smallest_model",
    "model_count",
    "count_desc_edges",
    "count_wildcards",
    "intersect_child_only",
    "product_patterns",
    "intersection_contained",
    "intersection_equivalent",
    "escape_witness",
    "Fragment",
    "fragment_of",
    "labels_of",
    "star_length",
    "max_star_length",
    "wildcard_gap_bound",
    "is_linear",
    "is_child_only",
]
