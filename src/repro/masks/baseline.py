"""Per-constraint baseline answer *masks*, delta-maintained.

The per-op fast path of the bitset engine behind
:class:`~repro.stream.engine.StreamEnforcer`: the frozen baseline answer
set of each constraint is mirrored as a slot mask over the live
snapshot, patched from the same :class:`~repro.trees.index.EditDelta`
log as the predicate masks — relocations move bits, deletions drop them
into a per-constraint *missing* ledger, and a revived node (the rollback
journal's re-add) re-earns its bit iff it carries its baseline label, so
the mask always marks exactly the baseline answer nodes present in the
document as their baseline ``(id, label)`` selves.  The cumulative check
then degenerates to mask compares — ``q_c(J_now)``'s sweep mask against
the baseline mask — and node sets are only materialised when a diff (an
actual witness) exists.  Verdicts and witnesses are bit-identical to
:class:`~repro.constraints.validity.BaselineValidity` (the Hypothesis
stream-equivalence suite pins this).
"""

from __future__ import annotations

from collections.abc import Collection
from typing import TYPE_CHECKING, Any

from repro.constraints.model import ConstraintType, UpdateConstraint
from repro.constraints.validity import BaselineValidity, Violation
from repro.masks.bigint import slots_of
from repro.trees.node import Node
from repro.xpath.ast import Pattern

if TYPE_CHECKING:  # the bitset module imports this package at runtime
    from repro.xpath.bitset import BitsetEvaluator

class MaskedBaseline:
    """Delta-maintained baseline masks over one live snapshot."""

    __slots__ = ("_ctx", "_revision", "_entries")

    def __init__(self, checker: BaselineValidity, ctx: "BitsetEvaluator"):
        self._ctx = ctx
        idx = ctx.index
        self._revision = idx.revision
        # Per constraint: [constraint, {id: baseline label}, mask, missing].
        # Iterates the constraint *list*, not the answers dict — duplicated
        # constraints must keep reporting duplicated witnesses, exactly
        # like the generic checker.
        base_answers = checker.baseline_answers()
        self._entries: list[list[Any]] = []
        for constraint in checker.constraints:
            answers = base_answers[constraint]
            labels = {node.nid: node.label for node in answers}
            # A freshly opened stream has every baseline node present; a
            # *restored* one may not — no-insert baseline nodes removed
            # since the stream opened start life in the missing ledger.
            present: list[int] = []
            missing: set[int] = set()
            for node in answers:
                if node.nid in idx and idx.label(node.nid) == node.label:
                    present.append(idx.pre(node.nid))
                else:
                    missing.add(node.nid)
            self._entries.append(
                [constraint, labels, idx.pack_slots(present), missing])

    def sync(self) -> None:
        """Catch the masks up with the snapshot's applied edits."""
        idx = self._ctx.index
        rev = idx.revision
        if rev == self._revision:
            return
        deltas = idx.deltas_since(self._revision)
        self._revision = rev
        if deltas is None:
            self._rebuild()
            return
        for entry in self._entries:
            _, labels, mask, missing = entry
            revived: set[int] = set()
            for delta in deltas:
                for nid, _ in delta.vanished:
                    if nid in labels:
                        missing.add(nid)
                mask = delta.patch_mask(mask)
                for nid in delta.added:
                    if nid in missing:
                        revived.add(nid)
            back = [nid for nid in revived
                    if nid in idx and idx.label(nid) == labels[nid]]
            if back:
                missing.difference_update(back)
                mask |= idx.pack_slots(map(idx.pre, back))
            entry[2] = mask

    def _rebuild(self) -> None:
        """Past the delta log's horizon: re-anchor every mask from ids."""
        idx = self._ctx.index
        for entry in self._entries:
            _, labels, _, missing = entry
            present: list[int] = []
            missing.clear()
            for nid, label in labels.items():
                if nid in idx and idx.label(nid) == label:
                    present.append(idx.pre(nid))
                else:
                    missing.add(nid)
            entry[2] = idx.pack_slots(present)

    def violations(self, only: Collection[int] | None = None
                   ) -> tuple[Violation, ...]:
        """The cumulative check, in constraint order (duplicates included).

        ``only`` restricts the sweeps to those constraint positions — the
        caller vouches that every other constraint holds (the stream
        engine passes what its independence analysis says an edit can
        reach, plus whatever is currently violated), so the result is
        still the full check's.  ``None`` checks every constraint.
        """
        self.sync()
        ctx = self._ctx
        idx = ctx.index
        found: list[Violation] = []
        # One sweep per *distinct* range per call: a policy stating both
        # directions over one range (the immutability pair) must not pay
        # for the answer mask twice.
        swept: dict[Pattern, int] = {}
        for pos, (constraint, labels, base_mask, missing) in enumerate(
                self._entries):
            if only is not None and pos not in only:
                continue
            answer_mask = swept.get(constraint.range)
            if answer_mask is None:
                answer_mask = ctx.evaluate_mask(constraint.range)
                swept[constraint.range] = answer_mask
            violation = diff_violation(constraint, labels, base_mask,
                                       missing, answer_mask, idx)
            if violation is not None:
                found.append(violation)
        return tuple(found)


def diff_violation(constraint: UpdateConstraint, labels: dict[int, str],
                   base_mask: int, missing: set[int], answer_mask: int,
                   idx: Any) -> Violation | None:
    """One constraint's verdict from its baseline/answer mask pair.

    The witness-materialisation kernel of the per-op and commit checks:
    ``None`` when the constraint holds, otherwise a
    :class:`Violation` whose node sets are decoded from the diff bits
    (and, for no-remove, the missing ledger) only.
    """
    if constraint.type is ConstraintType.NO_REMOVE:
        lost = base_mask & ~answer_mask
        if not lost and not missing:
            return None
        removed = {Node(nid, labels[nid]) for nid in missing}
        node_at = idx.node_at
        for s in slots_of(lost):
            nid = node_at(s)
            removed.add(Node(nid, labels[nid]))
        return Violation(constraint, frozenset(removed), frozenset())
    extra = answer_mask & ~base_mask
    if not extra:
        return None
    node_at = idx.node_at
    inserted = {idx.node(node_at(s)) for s in slots_of(extra)}
    return Violation(constraint, frozenset(), frozenset(inserted))


__all__ = ["MaskedBaseline", "diff_violation"]
