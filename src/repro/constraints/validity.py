"""Validity of instance pairs with respect to update constraints.

Definition 2.3: ``(I, J) ⊨ (q, ↑)`` iff ``q(I) ⊆ q(J)``, and
``(I, J) ⊨ (q, ↓)`` iff ``q(J) ⊆ q(I)`` — inclusions of *node sets*
(``(id, label)`` pairs), so a node that moved but kept its identity still
counts, while a node replaced by a fresh copy does not.

Besides the boolean check, :func:`explain_violations` produces per-constraint
witness nodes — these are the machine-checkable certificates the implication
engines attach to "not implied" verdicts, and the audit trail the examples
print.  :func:`check_sequence` implements the pairwise-validity notion of
Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

from repro.constraints.model import ConstraintSet, ConstraintType, UpdateConstraint
from repro.trees.node import Node
from repro.trees.tree import DataTree
from repro.xpath.evaluator import evaluate


@dataclass(frozen=True)
class Violation:
    """Witness that a pair breaks one constraint.

    ``removed`` lists nodes in ``q(I) - q(J)`` for a no-remove constraint;
    ``inserted`` lists nodes in ``q(J) - q(I)`` for a no-insert constraint.
    """

    constraint: UpdateConstraint
    removed: frozenset[Node]
    inserted: frozenset[Node]

    def __str__(self) -> str:
        parts = []
        if self.removed:
            names = ", ".join(sorted(str(n) for n in self.removed))
            parts.append(f"removed from range: {names}")
        if self.inserted:
            names = ", ".join(sorted(str(n) for n in self.inserted))
            parts.append(f"inserted into range: {names}")
        return f"{self.constraint} violated ({'; '.join(parts)})"


def range_violation(constraint: UpdateConstraint,
                    answers_before: Iterable[Node],
                    answers_after: Iterable[Node]) -> Violation | None:
    """Definition 2.3 on *already-evaluated* answer sets.

    The node-set diff of :func:`violation_of`, which evaluates both sides.
    """
    before_set = (answers_before if isinstance(answers_before, (set, frozenset))
                  else set(answers_before))
    after_set = (answers_after if isinstance(answers_after, (set, frozenset))
                 else set(answers_after))
    if constraint.type is ConstraintType.NO_REMOVE:
        missing = before_set - after_set
        if missing:
            return Violation(constraint, frozenset(missing), frozenset())
        return None
    extra = after_set - before_set
    if extra:
        return Violation(constraint, frozenset(), frozenset(extra))
    return None


def violation_of(before: DataTree, after: DataTree,
                 constraint: UpdateConstraint,
                 before_ctx=None, after_ctx=None) -> Violation | None:
    """The violation witness of one constraint on ``(before, after)``.

    ``before_ctx`` / ``after_ctx`` optionally carry
    :class:`repro.xpath.bitset.BitsetEvaluator` snapshots of the two
    trees; the refutation searches re-check thousands of candidate pasts
    against one fixed ``after``, so its snapshot amortises across them all.
    """
    answers_before = evaluate(constraint.range, before, context=before_ctx)
    answers_after = evaluate(constraint.range, after, context=after_ctx)
    return range_violation(constraint, answers_before, answers_after)


def satisfies(before: DataTree, after: DataTree,
              constraint: UpdateConstraint,
              before_ctx=None, after_ctx=None) -> bool:
    """Definition 2.3 for a single constraint."""
    return violation_of(before, after, constraint,
                        before_ctx=before_ctx, after_ctx=after_ctx) is None


def is_valid(before: DataTree, after: DataTree,
             constraints: ConstraintSet | Iterable[UpdateConstraint],
             before_ctx=None, after_ctx=None) -> bool:
    """Is the pair valid for every constraint?"""
    return all(satisfies(before, after, c,
                         before_ctx=before_ctx, after_ctx=after_ctx)
               for c in constraints)


def explain_violations(before: DataTree, after: DataTree,
                       constraints: ConstraintSet | Iterable[UpdateConstraint],
                       before_ctx=None, after_ctx=None) -> list[Violation]:
    """All violation witnesses of the pair (empty list = valid)."""
    found = []
    for constraint in constraints:
        violation = violation_of(before, after, constraint,
                                 before_ctx=before_ctx, after_ctx=after_ctx)
        if violation is not None:
            found.append(violation)
    return found


def check_sequence(instances: Sequence[DataTree],
                   constraints: ConstraintSet | Iterable[UpdateConstraint],
                   pairwise: bool = True) -> list[tuple[int, int, Violation]]:
    """Validity of an instance sequence (Section 2.2).

    With ``pairwise=True`` every pair ``(I_i, I_j), i < j`` is checked (the
    paper's *pairwise valid* notion); otherwise only ``(I_0, I_k)`` — the
    data-oriented *valid for I_k* notion.  Returns all violations found,
    tagged with the pair indices.
    """
    from repro.xpath.bitset import BitsetEvaluator

    constraint_list = list(constraints)
    problems: list[tuple[int, int, Violation]] = []
    if pairwise:
        pairs = [
            (i, j)
            for i in range(len(instances))
            for j in range(i + 1, len(instances))
        ]
    else:
        pairs = [(0, len(instances) - 1)] if len(instances) > 1 else []
    # Each checked instance participates in up to n-1 pairs; one snapshot
    # per instance shares every range's evaluation across them.  Instances
    # outside `pairs` (non-pairwise mode) never pay for a snapshot.
    needed = {index for pair in pairs for index in pair}
    contexts = {index: BitsetEvaluator.for_tree(instances[index])
                for index in needed}
    for i, j in pairs:
        for violation in explain_violations(instances[i], instances[j],
                                            constraint_list,
                                            before_ctx=contexts[i],
                                            after_ctx=contexts[j]):
            problems.append((i, j, violation))
    return problems
