"""Relative update constraints (Section 6).

A relative constraint ``(q_s, q_r, σ)`` fixes a *scope* query and requires,
for every node ``x`` selected by the scope in **both** instances, that the
range evaluated *at* ``x`` only grows (``↑``) or only shrinks (``↓``)::

    (I, J) ⊨ (q_s, q_r, ↑)   iff   ∀ x ∈ q_s(I) ∩ q_s(J):  q_r(x, I) ⊆ q_r(x, J)

The paper only sketches this extension; we implement its semantics exactly
(Definition 6.2) and the two phenomena it demonstrates (an absolute
constraint is the relative one with root scope; it needs none of this
machinery and is checked by :mod:`repro.constraints.validity`):

* Example 6.1 — the *same-type property* of Theorem 4.1 fails for relative
  constraints even in ``XP{/,[]}``;
* Example 6.2 — stepwise-valid sequences need not compose: a *friend*'s
  appointment can be deleted in three individually-valid steps.

Both examples ship as executable constructors used by tests and the
``relative_constraints`` example script.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.constraints.model import ConstraintType, UpdateConstraint
from repro.trees.tree import DataTree
from repro.xpath.ast import Pattern
from repro.xpath.evaluator import evaluate, evaluate_ids
from repro.xpath.parser import parse


@dataclass(frozen=True)
class RelativeConstraint:
    """A scoped update constraint ``(scope, range, type)`` (Definition 6.1)."""

    scope: Pattern
    range: Pattern
    type: ConstraintType

    def __str__(self) -> str:
        return f"({self.scope}, {self.range}, {self.type.arrow})"


def relative(scope: str | Pattern, range_: str | Pattern, kind: str) -> RelativeConstraint:
    """Build a relative constraint from XPath text.

    ``kind`` is ``"up"`` (no-remove) or ``"down"`` (no-insert).
    """
    scope_p = parse(scope) if isinstance(scope, str) else scope
    range_p = parse(range_) if isinstance(range_, str) else range_
    ctype = ConstraintType.NO_REMOVE if kind in ("up", "^", "↑") else ConstraintType.NO_INSERT
    return RelativeConstraint(scope_p, range_p, ctype)


def satisfies_relative(before: DataTree, after: DataTree,
                       constraint: RelativeConstraint) -> bool:
    """Definition 6.2: check the constraint at every shared scope node."""
    scope_before = evaluate(constraint.scope, before)
    scope_after = evaluate(constraint.scope, after)
    for node in scope_before & scope_after:
        at_before = evaluate(constraint.range, before, start=node.nid)
        at_after = evaluate(constraint.range, after, start=node.nid)
        if constraint.type is ConstraintType.NO_REMOVE:
            if not at_before <= at_after:
                return False
        else:
            if not at_after <= at_before:
                return False
    return True


def relative_violations(before: DataTree, after: DataTree,
                        constraint: RelativeConstraint) -> list[tuple[int, frozenset]]:
    """Scope nodes at which the constraint breaks, with the offending nodes."""
    problems: list[tuple[int, frozenset]] = []
    scope_shared = (
        evaluate_ids(constraint.scope, before) & evaluate_ids(constraint.scope, after)
    )
    for scope_nid in scope_shared:
        at_before = evaluate(constraint.range, before, start=scope_nid)
        at_after = evaluate(constraint.range, after, start=scope_nid)
        if constraint.type is ConstraintType.NO_REMOVE:
            bad = at_before - at_after
        else:
            bad = at_after - at_before
        if bad:
            problems.append((scope_nid, frozenset(bad)))
    return problems


# ----------------------------------------------------------------------
# Example 6.1 — failure of the same-type property for relative constraints
# ----------------------------------------------------------------------
def example_61() -> tuple[list, UpdateConstraint, UpdateConstraint, RelativeConstraint]:
    """The constraint family of Example 6.1.

    Returns ``(C, c, c3, c2_relative)`` where ``C`` mixes two absolute
    constraints with one relative constraint::

        c1 = (/patient, ↓)
        c2 = (/patient, /visit, ↓)     (relative)
        c3 = (/patient/visit, ↑)
        c  = (/patient[/visit], ↑)

    ``C`` implies ``c`` but the no-remove constraint ``c3`` alone does not —
    the same-type property fails in ``XP{/,[]}`` once scopes are allowed.
    """
    from repro.constraints.model import no_insert, no_remove

    c1 = no_insert("/patient")
    c2 = relative("/patient", "/visit", "down")
    c3 = no_remove("/patient/visit")
    c = no_remove("/patient[/visit]")
    return ([c1, c2, c3], c, c3, c2)


# ----------------------------------------------------------------------
# Example 6.2 — stepwise validity does not compose
# ----------------------------------------------------------------------
def example_62() -> tuple[RelativeConstraint, list[DataTree]]:
    """The appointment-deletion sequence of Example 6.2.

    Builds the relative constraint
    ``(/person[/friend], /appointment, ↑)`` and a sequence
    ``I0 → I1 → I2 → I3`` in which every consecutive pair is valid but the
    overall pair ``(I0, I3)`` silently loses a friend's appointment.
    """
    from repro.trees.builders import branch, build

    constraint = relative("/person[/friend]", "/appointment", "up")

    person_id, friend_id, appointment_id = 9001, 9002, 9003
    i0 = build(
        branch(
            "person",
            branch("friend", nid=friend_id),
            branch("appointment", nid=appointment_id),
            nid=person_id,
        )
    )
    # Step 1: drop the friend qualifier — the scope no longer selects person.
    i1 = i0.copy()
    i1.remove_subtree(friend_id)
    # Step 2: delete the appointment — allowed, person is not in scope.
    i2 = i1.copy()
    i2.remove_subtree(appointment_id)
    # Step 3: restore the friend qualifier (as a fresh node).
    i3 = i2.copy()
    i3.add_child(person_id, "friend")
    return constraint, [i0, i1, i2, i3]
