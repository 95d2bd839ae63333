"""Decisions and the append-only audit trail of an enforcement stream.

Every operation and every transaction marker submitted to a
:class:`~repro.stream.engine.StreamEnforcer` yields exactly one
:class:`Decision`; the :class:`AuditTrail` accumulates them in submission
order and never forgets a rejection — it is the machine-checkable record
of *why* the live document is in the state it is in, mirroring the
per-constraint :class:`~repro.constraints.validity.Violation` witnesses
the offline checker attaches to invalid pairs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Iterator

from repro.constraints.validity import Violation
from repro.stream.ops import StreamOp


@dataclass(frozen=True)
class Decision:
    """The verdict on one submitted operation or marker.

    ``accepted`` means the cumulative edit satisfies the constraint set
    after this entry took effect; for an entry inside an open transaction
    (``pending=True``) the verdict is provisional — the transaction's
    :class:`~repro.stream.ops.Commit` decision is the binding one, and a
    failing commit (or an explicit rollback) undoes the whole bracket.
    ``violations`` carries the witnesses that justified a rejection (or,
    for pending entries, the violations currently standing).
    ``independent=True`` is the static analyzer's witness: the op was
    accepted with zero mask work because no constraint's impact signature
    intersects it (:mod:`repro.analysis`) — the verdict itself is
    bit-identical to what a full check would have produced.
    """

    seq: int
    op: StreamOp
    accepted: bool
    violations: tuple[Violation, ...] = ()
    txn: int | None = None
    pending: bool = False
    note: str = ""
    independent: bool = False

    @property
    def rejected(self) -> bool:
        return not self.accepted

    def __str__(self) -> str:
        verdict = "ok" if self.accepted else "REJECTED"
        if self.pending:
            verdict += " (pending)"
        txn = f" [txn {self.txn}]" if self.txn is not None else ""
        tail = ""
        if self.violations:
            tail = " | " + "; ".join(str(v) for v in self.violations)
        elif self.note:
            tail = f" | {self.note}"
        elif self.independent:
            tail = " | independent"
        return f"#{self.seq:<4} {self.op}{txn}: {verdict}{tail}"


@dataclass
class AuditTrail:
    """Append-only log of every decision a stream has taken.

    ``dropped`` counts entries compacted away (a durable server that
    checkpointed a stream keeps the trail's *length* — sequence numbers
    keep growing monotonically — without keeping every early decision in
    memory); ``len(trail)`` is always the total number of decisions ever
    taken, and indexing/iteration cover only the retained suffix.
    """

    entries: list[Decision] = field(default_factory=list)
    dropped: int = 0

    def append(self, decision: Decision) -> None:
        self.entries.append(decision)

    def compact(self, keep_last: int = 0) -> int:
        """Forget all but the last ``keep_last`` retained decisions.

        Sequence numbering is unaffected (the forgotten prefix still
        counts toward ``len``); returns how many entries were dropped.
        """
        cut = max(0, len(self.entries) - max(0, keep_last))
        if cut:
            self.dropped += cut
            del self.entries[:cut]
        return cut

    def __len__(self) -> int:
        return self.dropped + len(self.entries)

    def __iter__(self) -> Iterator[Decision]:
        return iter(self.entries)

    def __getitem__(self, at: int) -> Decision:
        return self.entries[at]

    def rejections(self) -> list[Decision]:
        """Every non-pending rejection, in submission order."""
        return [d for d in self.entries if d.rejected and not d.pending]

    def render(self) -> str:
        """The whole trail as one line per decision (examples print this)."""
        return "\n".join(str(d) for d in self.entries)

    def __str__(self) -> str:
        accepted = sum(1 for d in self.entries if d.accepted and not d.pending)
        rejected = sum(1 for d in self.entries if d.rejected and not d.pending)
        compacted = f", {self.dropped} compacted" if self.dropped else ""
        return (f"AuditTrail({len(self)} entries, "
                f"{accepted} accepted, {rejected} rejected{compacted})")


_FOLD = 1_000_003
_MOD = 2 ** 61


def decision_checksum(decisions: Iterable[Decision]) -> int:
    """Order-sensitive fold of per-decision verdicts (id-independent).

    Folds every decision's (accepted, pending, violation-count) triple in
    order, so two replays of one log can be compared bit for bit — across
    engines, analyzer settings, processes and machines.
    """
    total = 0
    for d in decisions:
        code = int(d.accepted) << 1 | int(d.pending)
        total = (total * _FOLD + code * 31 + len(d.violations)) % _MOD
    return total


__all__ = ["Decision", "AuditTrail", "decision_checksum"]
