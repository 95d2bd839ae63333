"""Static analysis over compiled constraint sets and the stream-op algebra.

``repro.analysis`` sits between the compiled constraint layer and the
enforcement stream: it turns a :class:`~repro.constraints.model.
ConstraintSet` into per-constraint :class:`ImpactSignature` values and a
whole-set :class:`IndependenceIndex`, from which the stream engine learns
— without mask work — which constraints an update can affect: it
re-checks only those, and none at all (the zero-work fast path) when the
update can affect nothing.
"""

from repro.analysis.independence import (
    KIND_ADD,
    KIND_MOVE,
    KIND_REMOVE,
    ImpactSignature,
    IndependenceAnalyzer,
    IndependenceIndex,
    impact_signature,
)

__all__ = [
    "ImpactSignature", "IndependenceIndex", "IndependenceAnalyzer",
    "impact_signature", "KIND_ADD", "KIND_MOVE", "KIND_REMOVE",
]
