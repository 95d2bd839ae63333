"""The one dispatch layer under every entry point of the system.

Historically the library grew three parallel front doors — the legacy
free functions, the compiled session API and the enforcement stream.
Each already funnelled into :class:`~repro.api.session.Reasoner`'s Table 1
/ Table 2 dispatch; this module makes the funnel explicit: the session
methods (``Reasoner.bind`` / ``Reasoner.open_stream``), the legacy free
functions (:func:`repro.implication.general.implies`,
:func:`repro.instance.general.implies_on`) and the service executors all
route through the helpers below, so a change to how sessions are built,
bound or streamed happens in exactly one place.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.api.session import BoundReasoner, Reasoner
from repro.constraints.model import ConstraintSet, UpdateConstraint
from repro.implication.result import ImplicationResult
from repro.stream.engine import StreamEnforcer
from repro.trees.index import TreeIndex
from repro.trees.tree import DataTree


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
                 indexed: bool = True, engine: str | None = None,
                 snapshot: TreeIndex | None = None) -> BoundReasoner:
    """Fix a current instance for a session (the Table 2 entry point)."""
    return BoundReasoner(reasoner, current, indexed=indexed, engine=engine,
                         snapshot=snapshot)


def open_enforcer(constraints: ConstraintSet | Iterable[UpdateConstraint],
                  tree: DataTree, *, engine: str = "bitset") -> StreamEnforcer:
    """Open an online enforcement stream (adopts ``tree``)."""
    return StreamEnforcer(constraints, tree, engine=engine)


def one_shot_implies(premises: ConstraintSet | Iterable[UpdateConstraint],
                     conclusion: UpdateConstraint,
                     require_decision: bool = False) -> ImplicationResult:
    """The legacy ``implies(C, c)`` semantics: transient session, one query."""
    return transient_session(premises).implies(
        conclusion, require_decision=require_decision)


def one_shot_implies_on(premises: ConstraintSet | Iterable[UpdateConstraint],
                        current: DataTree, conclusion: UpdateConstraint, *,
                        require_decision: bool = False, max_moves: int = 2,
                        search_budget: int = 5000, indexed: bool = False,
                        engine: str | None = None) -> ImplicationResult:
    """The legacy ``implies_on(C, J, c)`` semantics, one binding, one query."""
    session = transient_session(premises)
    bound = bind_session(session, current, indexed=indexed, engine=engine)
    return bound.implies_on(conclusion, require_decision=require_decision,
                            max_moves=max_moves, search_budget=search_budget)


__all__ = [
    "compiled_session", "transient_session", "bind_session", "open_enforcer",
    "one_shot_implies", "one_shot_implies_on",
]
