"""How the service builds and binds its sessions.

Every question reaches :class:`~repro.api.session.Reasoner`'s Table 1 /
Table 2 dispatch; the helpers below fix the session settings its callers
share.  The service's document store (and perfbench's in-process
harness) pool :func:`compiled_session` sessions and bind them through
:func:`bind_session`.  The legacy free functions
(:func:`repro.implication.general.implies`,
:func:`repro.instance.general.implies_on`) build their own cache-free
session per call, and ``Reasoner.bind`` and ``Reasoner.open_stream``
call their constructors directly.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.api.session import BoundReasoner, Reasoner
from repro.constraints.model import ConstraintSet, UpdateConstraint
from repro.trees.tree import DataTree
from repro.xpath.bitset import BitsetEvaluator


def compiled_session(constraints: ConstraintSet | Iterable[UpdateConstraint],
                     ) -> Reasoner:
    """A fully compiled, memoising session — the service's unit of pooling."""
    return Reasoner(constraints)


def bind_session(reasoner: Reasoner, current: DataTree, *,
                 engine: str = "bitset",
                 context: BitsetEvaluator | None = None) -> BoundReasoner:
    """Fix a current instance for a session (the Table 2 entry point)."""
    return BoundReasoner(reasoner, current, engine=engine, context=context)


__all__ = ["compiled_session", "bind_session"]
