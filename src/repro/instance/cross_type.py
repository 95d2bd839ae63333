"""Cross-type corners of instance-based implication (exact).

With the current instance ``J`` fixed, premise sets devoid of the
conclusion's type admit closed-form answers:

* all-``↑`` premises, conclusion ``(q, ↓)``: the *empty* past instance
  satisfies every no-remove constraint vacuously, so implication holds iff
  ``q(J) = ∅`` (nothing could have been inserted because nothing is there);
* all-``↓`` premises, conclusion ``(q, ↑)``: never implied — enlarge the
  past with a fresh canonical ``q``-branch; no-insert premises only
  constrain ``J``, which is untouched.
"""

from __future__ import annotations

from repro.constraints.model import ConstraintSet, ConstraintType, UpdateConstraint
from repro.implication.result import (
    Counterexample,
    ImplicationResult,
    implied,
    not_implied,
)
from repro.trees.ops import graft_at_root
from repro.trees.tree import DataTree
from repro.xpath.canonical import smallest_model
from repro.xpath.evaluator import evaluate_ids

ENGINE = "instance-cross-type"


def implies_cross_type(premises: ConstraintSet, current: DataTree,
                       conclusion: UpdateConstraint,
                       context=None) -> ImplicationResult:
    """Exact answer when no premise has the conclusion's type.

    ``context`` optionally carries a bitset snapshot of ``current``.
    """
    assert len(premises.of_type(conclusion.type)) == 0
    if conclusion.type is ConstraintType.NO_INSERT:
        answers = evaluate_ids(conclusion.range, current, context=context)
        if not answers:
            return implied(ENGINE, premises, conclusion,
                           reason="q(J) is empty: no insertion to explain")
        past = DataTree()  # the empty past: every no-remove premise holds
        witness = min(answers)
        return not_implied(ENGINE, premises, conclusion,
                           Counterexample(past, current, witness=witness),
                           reason="an empty past explains any content of q(J)")
    # Conclusion no-remove, premises all no-insert: never implied.
    model = smallest_model(conclusion.range)
    past = current.copy()
    mapping = graft_at_root(past, model.tree, fresh=False)
    return not_implied(ENGINE, premises, conclusion,
                       Counterexample(past, current, witness=mapping[model.output]),
                       reason="a fresh q-branch in the past violates no "
                              "no-insert premise")
