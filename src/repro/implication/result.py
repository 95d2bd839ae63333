"""Verdicts and certificates for the implication problems.

Every engine returns an :class:`ImplicationResult`.  A ``NOT_IMPLIED``
verdict should carry a *counterexample certificate*: a pair ``(I, J)`` valid
for the premise constraints and violating the conclusion, plus the witness
node.  Certificates are machine-checkable — :meth:`ImplicationResult.verify`
re-validates them with the independent checker of
:mod:`repro.constraints.validity`, and the test-suite calls it on every
refutation any engine ever produces.  The instance-based no-insert engine
records its past ``I`` as a :class:`PastEdit` of ``J``; the tree is built
only when something reads :attr:`Counterexample.before`.

``UNKNOWN`` verdicts are legal only for the hybrid engines covering the
paper's NEXPTIME cell (mixed types, predicates and descendant axis
together); they are never silent — ``reason`` explains which sound tests
were exhausted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any

from repro.constraints.model import ConstraintSet, UpdateConstraint
from repro.constraints.validity import explain_violations, violation_of
from repro.trees.ops import graft_at_root
from repro.trees.tree import DataTree


class Answer(Enum):
    IMPLIED = "implied"
    NOT_IMPLIED = "not-implied"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        raise TypeError(
            "an Answer is three-valued; compare explicitly or use "
            "ImplicationResult.is_implied / .is_refuted"
        )


@dataclass(frozen=True)
class PastEdit:
    """The edit that makes a past ``I`` from the current instance ``J``.

    ``I`` is ``J`` with ``node`` replaced by the fresh ``fresh`` (same
    label, children and place), plus the top-level subtrees of ``branch``,
    ids kept, grafted at the root when ``branch`` is given.  Every branch
    node is fresh too, except at most one carrying ``node``'s id.
    ``version`` is ``J``'s mutation version when the edit was recorded:
    the edit describes that state only.
    """

    node: int
    fresh: int
    branch: DataTree | None
    version: int

    def check_fresh(self, current: DataTree) -> None:
        """Refuse a ``J`` that changed since the edit was recorded."""
        if current.version != self.version:
            raise ValueError(
                "the current instance mutated since the certificate was "
                "made; its past is an edit of the old state — re-ask the "
                "query on the new one")

    def apply(self, current: DataTree) -> DataTree:
        """Build ``I`` from ``current`` (which must be the unchanged ``J``)."""
        self.check_fresh(current)
        past = current.copy()
        past.relabel_fresh(self.node, new_id=self.fresh)
        if self.branch is not None:
            graft_at_root(past, self.branch, fresh=False)
        return past


class Counterexample:
    """A certificate of non-implication: a valid pair violating ``c``.

    Built from both trees, or from ``J`` and the :class:`PastEdit` that
    makes ``I`` from it (``before=None, edit=...``).  An edit's past is
    built on the first read of :attr:`before` and kept; a first read after
    ``J`` changed raises ``ValueError`` instead of copying the new state.
    """

    __slots__ = ("_before", "_after", "_witness", "_edit")

    def __init__(self, before: DataTree | None, after: DataTree,
                 witness: int | None = None, *,
                 edit: PastEdit | None = None) -> None:
        if (before is None) == (edit is None):
            raise TypeError("a counterexample takes its past tree or the "
                            "edit that makes it, exactly one of the two")
        self._before = before
        self._after = after
        self._witness = witness
        self._edit = edit

    @property
    def before(self) -> DataTree:
        """The past instance ``I`` (built from the edit on first read)."""
        if self._before is None:
            assert self._edit is not None
            self._before = self._edit.apply(self._after)
        return self._before

    @property
    def after(self) -> DataTree:
        return self._after

    @property
    def witness(self) -> int | None:
        """Id of a node violating the conclusion."""
        return self._witness

    @property
    def edit(self) -> PastEdit | None:
        """The edit making ``before`` from ``after``, when recorded as one."""
        return self._edit

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Counterexample):
            return NotImplemented
        return ((self.before, self.after, self.witness)
                == (other.before, other.after, other.witness))

    def __hash__(self) -> int:
        return hash((self.before, self.after, self.witness))

    def check(self, premises: ConstraintSet, conclusion: UpdateConstraint) -> list[str]:
        """Return a list of problems (empty = the certificate is sound)."""
        problems = [
            f"premise broken: {violation}"
            for violation in explain_violations(self.before, self.after, premises)
        ]
        if violation_of(self.before, self.after, conclusion) is None:
            problems.append(f"conclusion {conclusion} is not violated")
        return problems


@dataclass(frozen=True)
class ImplicationResult:
    """Outcome of an implication query, with provenance and certificate."""

    answer: Answer
    engine: str
    premises: ConstraintSet
    conclusion: UpdateConstraint
    reason: str = ""
    counterexample: Counterexample | None = None
    details: dict[str, Any] = field(default_factory=dict)

    @property
    def is_implied(self) -> bool:
        return self.answer is Answer.IMPLIED

    @property
    def is_refuted(self) -> bool:
        return self.answer is Answer.NOT_IMPLIED

    @property
    def is_unknown(self) -> bool:
        return self.answer is Answer.UNKNOWN

    def verify(self) -> list[str]:
        """Re-check the attached certificate; empty list means consistent."""
        if self.counterexample is None:
            return []
        return self.counterexample.check(self.premises, self.conclusion)

    def __str__(self) -> str:
        tag = {Answer.IMPLIED: "⊨", Answer.NOT_IMPLIED: "⊭", Answer.UNKNOWN: "?"}[self.answer]
        note = f" ({self.reason})" if self.reason else ""
        return f"C {tag} {self.conclusion} [{self.engine}]{note}"


def implied(engine: str, premises: ConstraintSet, conclusion: UpdateConstraint,
            reason: str = "", **details: Any) -> ImplicationResult:
    return ImplicationResult(Answer.IMPLIED, engine, premises, conclusion, reason,
                             None, dict(details))


def not_implied(engine: str, premises: ConstraintSet, conclusion: UpdateConstraint,
                counterexample: Counterexample | None = None, reason: str = "",
                **details: Any) -> ImplicationResult:
    return ImplicationResult(Answer.NOT_IMPLIED, engine, premises, conclusion, reason,
                             counterexample, dict(details))


def unknown(engine: str, premises: ConstraintSet, conclusion: UpdateConstraint,
            reason: str, **details: Any) -> ImplicationResult:
    return ImplicationResult(Answer.UNKNOWN, engine, premises, conclusion, reason,
                             None, dict(details))
