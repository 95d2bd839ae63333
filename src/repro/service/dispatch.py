"""How the service and the legacy free functions build their sessions.

Every question reaches :class:`~repro.api.session.Reasoner`'s Table 1 /
Table 2 dispatch; the helpers below fix the session settings its callers
share.  The service's document store (and perfbench's in-process
harness) pool :func:`compiled_session` sessions and bind them through
:func:`bind_session`; the legacy free functions
(:func:`repro.implication.general.implies`,
:func:`repro.instance.general.implies_on`) answer one query on a
cache-free :func:`transient_session`.  ``Reasoner.bind`` and
``Reasoner.open_stream`` call their constructors directly.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.api.session import BoundReasoner, Reasoner
from repro.constraints.model import ConstraintSet, UpdateConstraint
from repro.implication.result import ImplicationResult
from repro.trees.tree import DataTree
from repro.xpath.bitset import BitsetEvaluator


def compiled_session(constraints: ConstraintSet | Iterable[UpdateConstraint],
                     ) -> Reasoner:
    """A fully compiled, memoising session — the service's unit of pooling."""
    return Reasoner(constraints)


def transient_session(constraints: ConstraintSet | Iterable[UpdateConstraint],
                      ) -> Reasoner:
    """A cache-free, lazily compiled session: one query costs exactly what
    the legacy free functions always did."""
    return Reasoner(constraints, memo_size=0, precompile=False)


def bind_session(reasoner: Reasoner, current: DataTree, *,
                 engine: str = "bitset",
                 context: BitsetEvaluator | None = None) -> BoundReasoner:
    """Fix a current instance for a session (the Table 2 entry point)."""
    return BoundReasoner(reasoner, current, engine=engine, context=context)


def one_shot_implies(premises: ConstraintSet | Iterable[UpdateConstraint],
                     conclusion: UpdateConstraint,
                     require_decision: bool = False) -> ImplicationResult:
    """The legacy ``implies(C, c)`` semantics: transient session, one query."""
    return transient_session(premises).implies(
        conclusion, require_decision=require_decision)


def one_shot_implies_on(premises: ConstraintSet | Iterable[UpdateConstraint],
                        current: DataTree, conclusion: UpdateConstraint, *,
                        require_decision: bool = False, max_moves: int = 2,
                        search_budget: int = 5000,
                        engine: str = "naive") -> ImplicationResult:
    """The legacy ``implies_on(C, J, c)`` semantics, one binding, one query."""
    session = transient_session(premises)
    bound = bind_session(session, current, engine=engine)
    return bound.implies_on(conclusion, require_decision=require_decision,
                            max_moves=max_moves, search_budget=search_budget)


__all__ = [
    "compiled_session", "transient_session", "bind_session",
    "one_shot_implies", "one_shot_implies_on",
]
