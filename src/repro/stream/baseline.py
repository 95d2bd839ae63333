"""Per-constraint baseline answer *masks*, delta-patched when read.

The per-op fast path behind :class:`~repro.stream.engine.StreamEnforcer`:
each constraint's frozen baseline answer set ``q_c(I₀)`` is held once, as
an ``{id: label}`` *ledger* mirrored as a slot mask over the live
snapshot.  A fresh stream takes both from one
:meth:`~repro.xpath.bitset.BitsetEvaluator.evaluate_mask` per distinct
range; a restored one reads its ledgers from the checkpoint.  Each mask
carries the index revision it is current at and catches up only when a
check reads its constraint, from the same
:class:`~repro.trees.index.EditDelta` log as the predicate masks —
relocations move bits, deletions drop them into a per-constraint
*missing* ledger, and a revived node (the rollback journal's re-add)
re-earns its bit iff it carries its baseline label, so a caught-up mask
marks exactly the baseline answer nodes present in the document as their
baseline ``(id, label)`` selves.  Past the delta log's horizon a mask and
its missing ledger are re-anchored from the ids.  The cumulative check
then degenerates to mask compares — ``q_c(J_now)``'s sweep mask against
the baseline mask — and node sets are only materialised when a diff (an
actual witness) exists.  Verdicts and witnesses are bit-identical to
:func:`~repro.constraints.validity.explain_violations` against the
opening instance (the Hypothesis stream-equivalence suite pins this).
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass

from repro.constraints.model import ConstraintType, UpdateConstraint
from repro.constraints.validity import Violation
from repro.trees.index import TreeIndex
from repro.trees.node import Node
from repro.xpath.ast import Pattern
from repro.xpath.bitset import BitsetEvaluator, slots_of


@dataclass(slots=True)
class _Entry:
    """One constraint position's baseline: its ledger, and the mask and
    missing set current at index revision ``stamp``."""

    constraint: UpdateConstraint
    labels: dict[int, str]
    mask: int
    missing: set[int]
    stamp: int

    def catch_up(self, idx: TreeIndex) -> None:
        """Replay the edits since :attr:`stamp` into the mask and the
        missing set (or re-anchor both past the log's horizon)."""
        rev = idx.revision
        if self.stamp == rev:
            return
        deltas = idx.deltas_since(self.stamp)
        self.stamp = rev
        labels = self.labels
        if deltas is None:
            self.mask, self.missing = _anchor(labels, idx)
            return
        mask, missing = self.mask, self.missing
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
        self.mask = mask


class MaskedBaseline:
    """Baseline masks over one live snapshot, patched when read.

    ``ledgers`` — a checkpoint's ``(id, label)`` lists, aligned with
    ``constraints`` — restores a baseline frozen on an earlier instance;
    without it the snapshot's current state *is* ``I₀``.
    """

    __slots__ = ("_ctx", "_entries")

    def __init__(self, constraints: Iterable[UpdateConstraint],
                 ctx: BitsetEvaluator,
                 ledgers: Sequence[Iterable[tuple[int, str]]] | None = None):
        self._ctx = ctx
        idx = ctx.index
        rev = idx.revision
        # One entry per constraint *position*: duplicated constraints must
        # keep reporting duplicated witnesses, like the naive check.
        self._entries: list[_Entry] = []
        if ledgers is not None:
            # A restored stream may have lost baseline nodes: no-insert
            # ones removed since the stream opened start life missing.
            for constraint, ledger in zip(constraints, ledgers, strict=True):
                labels = dict(ledger)
                mask, missing = _anchor(labels, idx)
                self._entries.append(
                    _Entry(constraint, labels, mask, missing, rev))
            return
        swept: dict[Pattern, tuple[dict[int, str], int]] = {}
        for constraint in constraints:
            frozen = swept.get(constraint.range)
            if frozen is None:
                mask = ctx.evaluate_mask(constraint.range)
                labels = {nid: idx.label(nid)
                          for nid in map(idx.node_at, slots_of(mask))}
                frozen = swept[constraint.range] = (labels, mask)
            # Ledgers are never written after this, so equal ranges share.
            self._entries.append(
                _Entry(constraint, frozen[0], frozen[1], set(), rev))

    def ledgers(self) -> list[tuple[UpdateConstraint, dict[int, str]]]:
        """Each constraint's frozen ``q_c(I₀)`` as ``{id: label}``, in
        constraint order (duplicates included)."""
        return [(entry.constraint, entry.labels) for entry in self._entries]

    def violations(self, only: Collection[int] | None = None
                   ) -> tuple[Violation, ...]:
        """The cumulative check, in constraint order (duplicates included).

        ``only`` restricts the sweeps to those constraint positions — the
        caller vouches that every other constraint holds (the stream
        engine passes what its independence analysis says an edit can
        reach, plus whatever is currently violated), so the result is
        still the full check's.  ``None`` checks every constraint.  Only
        the checked positions' masks catch up with the snapshot.
        """
        ctx = self._ctx
        idx = ctx.index
        found: list[Violation] = []
        # One sweep per *distinct* range per call: a policy stating both
        # directions over one range (the immutability pair) must not pay
        # for the answer mask twice.
        swept: dict[Pattern, int] = {}
        for pos, entry in enumerate(self._entries):
            if only is not None and pos not in only:
                continue
            # Before reading mask or missing: a re-anchor replaces both.
            entry.catch_up(idx)
            constraint = entry.constraint
            answer_mask = swept.get(constraint.range)
            if answer_mask is None:
                answer_mask = ctx.evaluate_mask(constraint.range)
                swept[constraint.range] = answer_mask
            violation = _diff_violation(constraint, entry.labels, entry.mask,
                                        entry.missing, answer_mask, idx)
            if violation is not None:
                found.append(violation)
        return tuple(found)


def _anchor(labels: dict[int, str], idx: TreeIndex) -> tuple[int, set[int]]:
    """A ledger's mask and missing set, read from ids on the snapshot."""
    present: list[int] = []
    missing: set[int] = set()
    for nid, label in labels.items():
        if nid in idx and idx.label(nid) == label:
            present.append(idx.pre(nid))
        else:
            missing.add(nid)
    return idx.pack_slots(present), missing


def _diff_violation(constraint: UpdateConstraint, labels: dict[int, str],
                    base_mask: int, missing: set[int], answer_mask: int,
                    idx: TreeIndex) -> Violation | None:
    """One constraint's verdict from its baseline/answer mask pair.

    ``None`` when the constraint holds, otherwise a :class:`Violation`
    whose node sets are decoded from the diff bits (and, for no-remove,
    the missing ledger) only.
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


__all__ = ["MaskedBaseline"]
