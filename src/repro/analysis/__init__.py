"""Static analysis over compiled constraint sets and the stream-op algebra.

``repro.analysis`` sits between the compiled constraint layer and the
enforcement stream: it turns a :class:`~repro.constraints.model.
ConstraintSet` into per-constraint :class:`ImpactSignature` values and a
whole-set :class:`IndependenceIndex`, from which the stream engine's
zero-work fast path decides — without mask work — that an update cannot
affect any constraint.
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
