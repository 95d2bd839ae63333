"""The online enforcement engine: one live snapshot, per-op verdicts.

A :class:`StreamEnforcer` adopts a document and a compiled constraint set
and then ingests an update log (:mod:`repro.stream.ops`), deciding after
every operation whether the *cumulative* edit — the pair ``(I₀, J_now)``
of the opening instance and the live document — still satisfies every
constraint (Definition 2.3, in the data-oriented "valid for the current
instance" reading of Section 2.2).

The hot loop never re-snapshots:

* the document lives behind **one** incrementally-maintained
  :class:`~repro.trees.index.TreeIndex`, mutated in place through the
  ``apply_*`` edits (the same machinery the refutation-search journals
  drive);
* the evaluator's predicate masks are **delta-patched** per edit from the
  index's :class:`~repro.trees.index.EditDelta` log — per-op re-checking
  costs the edit's footprint (ancestor chains), not the document;
* the baseline side of every constraint is evaluated exactly once, at
  open, and frozen (:class:`~repro.constraints.validity.BaselineValidity`).

Rejected operations — and transactions whose commit finds the cumulative
edit invalid — are rolled back through the shared edit journal of
:mod:`repro.stream.ops` (:func:`~repro.stream.ops.perform` /
:func:`~repro.stream.ops.undo`): every applied edit records its inverse (a
move records the old parent, an add records the leaf to re-remove, a
remove records the doomed subtree's preorder spec for revival into the
freed slot run), and a rollback replays the inverses newest-first.
Every submitted entry yields exactly one
:class:`~repro.stream.log.Decision` in the append-only
:class:`~repro.stream.log.AuditTrail`, with per-constraint
:class:`~repro.constraints.validity.Violation` witnesses on rejection.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING
from collections.abc import Iterable, Sequence

if TYPE_CHECKING:  # imported lazily at runtime (see _build_analyzer)
    from repro.analysis.independence import IndependenceAnalyzer
    from repro.certify.templates import Bindings, UpdateTemplate

from repro.constraints.model import (
    ConstraintSet,
    UpdateConstraint,
    constraint_set,
)
from repro.constraints.validity import BaselineValidity, Violation
from repro.errors import CertifyError, StreamError, TreeError
from repro.masks.baseline import MaskedBaseline
from repro.obs import MetricsRegistry, registry as _obs_registry
from repro.stream.log import AuditTrail, Decision
from repro.stream.ops import (
    Begin,
    Commit,
    Rollback,
    StreamOp,
    UndoEntry,
    perform,
    undo,
)
from repro.trees import serialize
from repro.trees.node import Node
from repro.trees.tree import DataTree
from repro.xpath.bitset import BitsetEvaluator


def _build_analyzer(constraints: ConstraintSet, tree_index
                    ) -> "IndependenceAnalyzer":
    # Imported lazily: repro.analysis consumes the stream-op algebra, so a
    # top-level import here would cycle through the package __init__.
    from repro.analysis.independence import (
        IndependenceAnalyzer,
        IndependenceIndex,
    )
    return IndependenceAnalyzer(IndependenceIndex(constraints), tree_index)


@dataclass(frozen=True)
class StreamStats:
    """Counters of a stream's life so far (all final, non-pending)."""

    entries: int            # decisions taken (ops + markers)
    ops: int                # update operations submitted
    accepted: int           # update ops whose effect survived
    rejected: int           # update ops rejected (violation or structural)
    transactions: int       # brackets opened
    committed: int          # brackets committed successfully
    rolled_back: int        # brackets undone (failed commit or rollback)
    revision: int           # snapshot revision (applied edits, incl. undos)
    independent: int = 0    # ops accepted with zero mask work (fast path)
    certified: int = 0      # ops applied through the certified hot path

    def wire_pairs(self) -> tuple[tuple[str, int], ...]:
        """The counters as sorted ``(name, value)`` pairs for the wire.

        This is what a :class:`~repro.service.protocol.StreamStatus` ack
        carries so reconnecting clients recover observability state:
        every counter except ``revision``, a snapshot-internal number
        that legitimately differs between a live stream and its
        checkpoint-restored twin (everything returned here is part of
        the recovery-equivalence contract, pinned by the fault suite).
        """
        return tuple(sorted({
            "entries": self.entries, "ops": self.ops,
            "accepted": self.accepted, "rejected": self.rejected,
            "transactions": self.transactions, "committed": self.committed,
            "rolled_back": self.rolled_back,
            "independent": self.independent,
            "certified": self.certified,
        }.items()))

    def __str__(self) -> str:
        return (f"{self.ops} ops ({self.accepted} accepted, "
                f"{self.rejected} rejected, {self.independent} independent), "
                f"{self.transactions} txns "
                f"({self.committed} committed, {self.rolled_back} rolled "
                f"back), rev {self.revision}")


class StreamEnforcer:
    """An update-constraint policy enforced online over one live document.

    Parameters:
        constraints: the policy (a :class:`ConstraintSet`, any iterable of
            constraints, or specs accepted by :func:`constraint_set`).
        tree: the document — **adopted**: the enforcer mutates it in place
            and the caller must not (foreign mutations stale the snapshot
            and raise on the next operation).  Per-op re-checks run on a
            :class:`~repro.xpath.bitset.BitsetEvaluator` over it, with
            delta-maintained predicate masks.
        analysis: enable the static independence fast path (default).
            An op no constraint's impact signature intersects is accepted
            with zero mask work — still journaled for rollback, audited
            with an ``independent=True`` witness, and bit-identical in
            verdict to full checking (:mod:`repro.analysis`).  Subclasses
            that bypass the live snapshot (recompute-from-scratch
            baselines) must pass ``analysis=False``.
        metrics: the :class:`~repro.obs.MetricsRegistry` the stream
            counts into (``stream.*`` counters).  Defaults to the
            process-global registry; pass :data:`repro.obs.NULL` to
            disable instrumentation (the overhead benchmark's baseline).
    """

    def __init__(self,
                 constraints: ConstraintSet | Iterable[UpdateConstraint],
                 tree: DataTree, *, analysis: bool = True,
                 metrics: MetricsRegistry | None = None):
        if not isinstance(constraints, ConstraintSet):
            constraints = constraint_set(*constraints)
        constraints.require_concrete()
        self._constraints = constraints
        self._tree = tree
        self._ctx = BitsetEvaluator.for_tree(tree)
        self._checker = BaselineValidity(constraints, tree, context=self._ctx)
        self._metrics = metrics
        self._finish_init(analysis)

    def _finish_init(self, analysis: bool) -> None:
        """State shared by a fresh open and a checkpoint restore."""
        # Instruments are resolved once here so the hot loop pays one
        # attribute load and one ``inc`` per event, never a registry
        # lookup; ``metrics=NULL`` resolves to shared no-op instruments.
        m = self._metrics if self._metrics is not None else _obs_registry()
        self._m_ops = m.counter("stream.ops_total")
        self._m_accepted = m.counter("stream.accepted_total")
        self._m_rejected = m.counter("stream.rejected_total")
        self._m_independent = m.counter("stream.independent_total")
        self._m_rollbacks = m.counter("stream.rollbacks_total")
        self._m_decisions = m.counter("stream.decisions_total")
        self._m_certified = m.counter("stream.certified_ops_total")
        self._m_certified_seconds = m.histogram("certify.certified_seconds")
        # Per-op checks compare whole answer masks against the baseline.
        self._masked = MaskedBaseline(self._checker, self._ctx)
        self._analyzer = (_build_analyzer(self._constraints, self._ctx.index)
                          if analysis else None)
        # Violations standing after the last full check — the fast path's
        # gate: independence verdicts assume a currently-valid pair.
        self._standing: tuple[Violation, ...] = ()
        self._audit = AuditTrail()
        self._journal: list[UndoEntry] | None = None  # open txn's undo journal
        self._txn_id: int | None = None
        self._txn_count = 0
        self._ops = 0
        self._accepted = 0
        self._rejected = 0
        self._committed = 0
        self._rolled_back = 0
        self._independent = 0
        self._certified_ops = 0

    # ------------------------------------------------------------------
    # State surface
    # ------------------------------------------------------------------
    @property
    def constraints(self) -> ConstraintSet:
        return self._constraints

    @property
    def tree(self) -> DataTree:
        """The live document (read-only by convention — see class docs)."""
        return self._tree

    @property
    def context(self) -> BitsetEvaluator:
        """The live snapshot evaluator driving the per-op re-checks."""
        return self._ctx

    @property
    def audit(self) -> AuditTrail:
        return self._audit

    @property
    def in_transaction(self) -> bool:
        return self._journal is not None

    @property
    def analyzer(self) -> "IndependenceAnalyzer | None":
        """The static independence analyzer (``None`` when disabled)."""
        return self._analyzer

    @property
    def stats(self) -> StreamStats:
        return StreamStats(
            entries=len(self._audit), ops=self._ops,
            accepted=self._accepted, rejected=self._rejected,
            transactions=self._txn_count, committed=self._committed,
            rolled_back=self._rolled_back,
            revision=self._ctx.index.revision,
            independent=self._independent,
            certified=self._certified_ops)

    def baseline_answers(self) -> dict[UpdateConstraint, frozenset[Node]]:
        """``{c: q_c(I₀)}`` as frozen when the stream opened."""
        return self._checker.baseline_answers()

    def violations(self) -> list[Violation]:
        """Current witnesses of ``(I₀, J_now)`` (empty = valid)."""
        self._check_fresh()
        return list(self._current_violations())

    def _current_violations(self) -> tuple[Violation, ...]:
        """The per-op re-check — the one override point for alternative
        validation strategies (the benchmarks' recompute-from-scratch
        baseline replaces the live snapshot with a fresh one per call)."""
        return self._masked.violations()

    def is_valid(self) -> bool:
        """Does the cumulative edit satisfy every constraint right now?"""
        self._check_fresh()
        return not self._current_violations()

    def _check_fresh(self) -> None:
        if not self._ctx.covers(self._tree):
            raise StreamError(
                "the document was mutated behind the stream; a "
                "StreamEnforcer owns its tree — submit operations instead "
                "of editing the tree directly")

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def apply(self, op: StreamOp) -> Decision:
        """Ingest one log entry; returns (and records) its decision."""
        self._check_fresh()
        if isinstance(op, Begin):
            return self._begin(op)
        if isinstance(op, Commit):
            return self._commit(op)
        if isinstance(op, Rollback):
            return self._rollback(op)
        return self._apply_update(op)

    def submit(self, ops: Sequence[StreamOp]) -> list[Decision]:
        """Ingest a whole log, in order; one decision per entry."""
        return [self.apply(op) for op in ops]

    def replay(self, ops: Sequence[StreamOp]) -> list[Decision]:
        """The journal-recovery entry: re-ingest a previously accepted log.

        Enforcement is deterministic, so replaying the ops a durable
        journal recorded (with leaf ids pinned) through a fresh — or
        checkpoint-:meth:`restore`-d — enforcer reproduces the original
        decisions bit for bit: same verdicts, same sequence numbers, same
        counters, same final document.  It *is* :meth:`submit`; the alias
        marks call sites that rebuild state rather than serve traffic.
        """
        return self.submit(ops)

    # ------------------------------------------------------------------
    # The certified hot path (repro.certify)
    # ------------------------------------------------------------------
    def apply_certified(self, template: "UpdateTemplate",
                        bindings: "Bindings", *,
                        ops: "Sequence[StreamOp] | None" = None
                        ) -> list[Decision]:
        """Run one certified-template instantiation with zero checking.

        The caller vouches (via :func:`repro.certify.certify`) that every
        guard-passing instantiation of ``template`` preserves the policy;
        this path therefore validates only the template's **guard** —
        binding domains, node existence, per-op structural preconditions,
        subtree-label bounds — and applies the whole bracket with no mask
        work: no per-op re-check, no commit-time validation.  The audit
        trail and the returned decisions are bit-identical to replaying
        ``[Begin(name), *template.instantiate(bindings), Commit]``
        through an uncertified enforcer (the Hypothesis oracle suite pins
        this), so journals mixing certified and per-op traffic replay to
        the same stream either way.

        ``ops`` optionally supplies the pre-instantiated sequence — the
        durable service pins fresh-leaf ids there so recovery replays
        produce the same node ids.  A guard failure raises
        :class:`~repro.errors.CertifyError` with nothing applied and
        nothing recorded; a mid-template structural conflict (one op
        invalidating a later op's target, which the per-op guard against
        the pre-state cannot see) undoes the applied prefix and raises
        :class:`~repro.errors.CertifyError`, leaving document, audit and
        counters untouched.
        """
        started = perf_counter()
        self._check_fresh()
        if self._journal is not None:
            raise StreamError("certified templates run as their own "
                              "bracket: commit or roll back the open "
                              "transaction first")
        error = template.guard_errors(bindings, self._tree)
        if error is not None:
            raise CertifyError(
                f"template {template.name!r} guard rejected the "
                f"bindings: {error}")
        concrete = (tuple(ops) if ops is not None
                    else template.instantiate(bindings))
        if len(concrete) != len(template.ops):
            raise CertifyError(
                f"template {template.name!r} has {len(template.ops)} "
                f"op(s) but {len(concrete)} were supplied")
        undos: list[UndoEntry] = []
        try:
            for op in concrete:
                undos.append(perform(self._ctx, op))
        except TreeError as err:
            undo(self._ctx, undos)
            raise CertifyError(
                f"template {template.name!r} op {len(undos)} failed "
                f"structurally after the guard passed (an earlier op in "
                f"the template invalidated its target): {err}") from None
        # All applied: record the full bracket exactly as an uncertified
        # commit would have (certification guarantees it would accept).
        applied = len(concrete)
        self._txn_count += 1
        txn = self._txn_count
        decisions = [self._record(Begin(template.name), accepted=True,
                                  txn=txn)]
        for op in concrete:
            decisions.append(self._record(op, accepted=True, txn=txn,
                                          pending=True))
        decisions.append(self._record(Commit(), accepted=True, txn=txn,
                                      note=f"{applied} op(s) committed"))
        self._ops += applied
        self._accepted += applied
        self._committed += 1
        self._certified_ops += applied
        self._m_ops.inc(applied)
        self._m_accepted.inc(applied)
        self._m_certified.inc(applied)
        self._m_certified_seconds.observe(perf_counter() - started)
        return decisions

    # ------------------------------------------------------------------
    # Checkpoint / restore (the durable server's snapshot boundary)
    # ------------------------------------------------------------------
    #: Bumped when the checkpoint shape changes; ``restore`` refuses
    #: snapshots written by a different shape.
    STATE_VERSION = 1

    def state_dict(self) -> dict:
        """The stream's durable state as one JSON-safe dict.

        Captures everything a :meth:`restore` needs to continue the
        stream *exactly* where it stands: the live document, the frozen
        baseline answer sets (``q_c(I₀)`` — **not** re-derivable from the
        snapshot: rebasing the baseline onto the current document would
        extend no-remove protection to nodes added since open), and the
        decision counters that keep sequence numbers monotonic.  Only
        defined at a transaction boundary — an open bracket's undo
        journal holds live node references that do not serialise.
        """
        if self._journal is not None:
            raise StreamError("cannot checkpoint inside an open "
                              "transaction: commit or roll back first")
        base = self._checker.baseline_answers()
        return {
            "version": self.STATE_VERSION,
            "engine": "bitset",
            "analysis": self._analyzer is not None,
            "tree": serialize.to_dict(self._tree),
            "baseline": [sorted([n.nid, n.label] for n in base[c])
                         for c in self._checker.constraints],
            "counters": {
                "entries": len(self._audit),
                "ops": self._ops,
                "accepted": self._accepted,
                "rejected": self._rejected,
                "transactions": self._txn_count,
                "committed": self._committed,
                "rolled_back": self._rolled_back,
                "independent": self._independent,
                "certified": self._certified_ops,
            },
        }

    @classmethod
    def restore(cls, constraints: ConstraintSet | Iterable[UpdateConstraint],
                state: dict) -> "StreamEnforcer":
        """Rebuild a stream from a :meth:`state_dict` checkpoint.

        The restored enforcer adopts a fresh tree decoded from the
        snapshot, keeps checking against the *original* opening baseline,
        and continues sequence numbering where the checkpoint left off
        (the audit trail's compacted prefix counts toward ``len`` but is
        not retained).  Replaying the journal suffix after the checkpoint
        then reconverges with the uninterrupted stream.
        """
        version = state.get("version")
        if version != cls.STATE_VERSION:
            raise StreamError(f"cannot restore a stream checkpoint of "
                              f"version {version!r} (expected "
                              f"{cls.STATE_VERSION})")
        if not isinstance(constraints, ConstraintSet):
            constraints = constraint_set(*constraints)
        constraints.require_concrete()
        engine = state.get("engine")
        if engine != "bitset":
            raise StreamError(f"unknown evaluation engine {engine!r} in "
                              f"stream checkpoint (expected 'bitset')")
        stream = cls.__new__(cls)
        stream._constraints = constraints
        stream._tree = serialize.from_dict(state["tree"])
        stream._ctx = BitsetEvaluator.for_tree(stream._tree)
        answers = [frozenset(Node(int(nid), label) for nid, label in entry)
                   for entry in state["baseline"]]
        try:
            stream._checker = BaselineValidity.from_answers(constraints,
                                                            answers)
        except ValueError as err:
            raise StreamError(f"stream checkpoint does not match the "
                              f"constraint set: {err}") from None
        stream._metrics = None  # restored streams count into the global
        stream._finish_init(bool(state.get("analysis", True)))
        counters = state["counters"]
        stream._audit.dropped = int(counters["entries"])
        stream._ops = int(counters["ops"])
        stream._accepted = int(counters["accepted"])
        stream._rejected = int(counters["rejected"])
        stream._txn_count = int(counters["transactions"])
        stream._committed = int(counters["committed"])
        stream._rolled_back = int(counters["rolled_back"])
        stream._independent = int(counters["independent"])
        stream._certified_ops = int(counters.get("certified", 0))
        return stream

    def begin(self, name: str | None = None) -> Decision:
        return self.apply(Begin(name))

    def commit(self) -> Decision:
        return self.apply(Commit())

    def rollback(self) -> Decision:
        return self.apply(Rollback())

    # ------------------------------------------------------------------
    # Update operations
    # ------------------------------------------------------------------
    def _apply_update(self, op: StreamOp) -> Decision:
        self._ops += 1
        self._m_ops.inc()
        # The zero-work fast path: decided on the *pre-edit* snapshot,
        # only meaningful when no violations are standing (the analyzer's
        # verdicts assume a currently-valid cumulative pair — see
        # repro.analysis).  Outside a bracket the pair is always valid
        # here; inside one, `_standing` carries the last full check.
        fast = (self._analyzer is not None and not self._standing
                and self._analyzer.independent(op))
        try:
            inverse = perform(self._ctx, op)
        except TreeError as err:
            # Nothing was applied: the edit paths validate before mutating.
            self._rejected += 1
            self._m_rejected.inc()
            return self._record(op, accepted=False, txn=self._txn_id,
                                note=f"structural error: {err}")
        if fast:
            self._independent += 1
            self._m_independent.inc()
            violations: tuple[Violation, ...] = ()
        else:
            violations = self._current_violations()
            self._standing = violations
        if self._journal is not None:
            # Inside a bracket: the edit stands until commit decides; the
            # verdict recorded here is the provisional cumulative one.
            self._journal.append(inverse)
            return self._record(op, accepted=not violations,
                                violations=violations, txn=self._txn_id,
                                pending=True, independent=fast)
        if violations:
            undo(self._ctx, [inverse])
            self._standing = ()  # the undo restored the last valid state
            self._rejected += 1
            self._m_rejected.inc()
            return self._record(op, accepted=False, violations=violations)
        self._accepted += 1
        self._m_accepted.inc()
        return self._record(op, accepted=True, independent=fast)

    # ------------------------------------------------------------------
    # Transactions (flat brackets)
    # ------------------------------------------------------------------
    def _begin(self, op: Begin) -> Decision:
        if self._journal is not None:
            raise StreamError("transactions do not nest: commit or roll "
                              "back the open one before begin")
        self._txn_count += 1
        self._txn_id = self._txn_count
        self._journal = []
        return self._record(op, accepted=True, txn=self._txn_id)

    def _commit(self, op: Commit) -> Decision:
        journal = self._require_open("commit")
        violations = self._current_violations()
        txn = self._txn_id
        applied = len(journal)
        if violations:
            undo(self._ctx, journal)
            self._rolled_back += 1
            self._rejected += applied
            self._m_rollbacks.inc()
            self._m_rejected.inc(applied)
            decision = self._record(op, accepted=False,
                                    violations=violations, txn=txn,
                                    note=f"{applied} op(s) rolled back")
        else:
            self._committed += 1
            self._accepted += applied
            self._m_accepted.inc(applied)
            decision = self._record(op, accepted=True, txn=txn,
                                    note=f"{applied} op(s) committed")
        self._journal = None
        self._txn_id = None
        self._standing = ()  # committed-valid or rolled back to valid
        return decision

    def _rollback(self, op: Rollback) -> Decision:
        journal = self._require_open("rollback")
        txn = self._txn_id
        applied = len(journal)
        undo(self._ctx, journal)
        self._rolled_back += 1
        self._rejected += applied
        self._m_rollbacks.inc()
        self._m_rejected.inc(applied)
        self._journal = None
        self._txn_id = None
        self._standing = ()  # rolled back to the pre-bracket valid state
        return self._record(op, accepted=True, txn=txn,
                            note=f"{applied} op(s) rolled back")

    def _require_open(self, what: str) -> list[UndoEntry]:
        if self._journal is None:
            raise StreamError(f"{what} outside a transaction")
        return self._journal

    def _record(self, op: StreamOp, accepted: bool,
                violations: tuple[Violation, ...] = (),
                txn: int | None = None, pending: bool = False,
                note: str = "", independent: bool = False) -> Decision:
        decision = Decision(seq=len(self._audit), op=op, accepted=accepted,
                            violations=violations, txn=txn, pending=pending,
                            note=note, independent=independent)
        self._audit.append(decision)
        self._m_decisions.inc()
        return decision

    def __repr__(self) -> str:
        state = f"txn {self._txn_id} open" if self.in_transaction else "idle"
        return (f"StreamEnforcer({len(self._constraints)} constraints, "
                f"|J|={self._tree.size}, {state}, "
                f"{self.stats})")


__all__ = ["StreamEnforcer", "StreamStats"]
