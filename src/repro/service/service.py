"""The multi-document constraint service: one front door for everything.

A :class:`ConstraintService` serves the whole protocol of
:mod:`repro.service.protocol` against a
:class:`~repro.service.store.DocumentStore` (named documents, named
compiled constraint sets, live enforcement streams), synchronously and
in-process, through one method — :meth:`handle` — with wire-level twins
(:meth:`handle_dict`, :meth:`handle_json`) for callers on the other side
of a serialisation boundary.  Each request kind is one private handler
that raises :class:`~repro.errors.ReproError` subclasses; :meth:`handle`
turns them into :class:`~repro.service.protocol.ErrorResponse` objects
carrying the exception class and message, so a misbehaving client cannot
take the service down.

>>> from repro import ConstraintService, DataTree
>>> from repro.service import ImplicationQuery
>>> from repro.constraints import no_insert
>>> svc = ConstraintService()
>>> _ = svc.register_constraints("policy", [("/patient[/visit]", "down"),
...                                         ("/patient[/clinicalTrial]", "up"),
...                                         ("/patient[/clinicalTrial]", "down")])
>>> reply = svc.handle(ImplicationQuery(
...     "policy", (no_insert("/patient[/visit][/clinicalTrial]"),)))
>>> reply.answers
('implied',)

The live-object conveniences (:meth:`register_document`,
:meth:`session`, :meth:`enforcer`, …) expose the same store to in-process
callers that want :class:`~repro.api.session.Reasoner` objects rather
than wire verdicts.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Sequence

from repro.analysis import IndependenceIndex
from repro.api.session import BoundReasoner, Reasoner
from repro.constraints.model import ConstraintSet
from repro.errors import ReproError, ServiceError, StreamError
from repro.obs import registry as _obs_registry
from repro.service.protocol import (
    Ack,
    CertifiedSubmit,
    ErrorResponse,
    FleetDecisions,
    FleetSubmit,
    ImplicationQuery,
    InstanceQuery,
    MetricsRequest,
    MetricsSnapshot,
    QueryAnswers,
    RegisterConstraints,
    RegisterDocument,
    RegisterTemplate,
    Request,
    Response,
    StreamDecisions,
    StreamStatus,
    StreamSubmit,
    Verdict,
    WireDecision,
    WireEpoch,
    WireViolation,
    request_from_dict,
)
from repro.service.store import DocumentStore
from repro.stream.engine import StreamEnforcer
from repro.stream.log import EpochOutcome, chain_checksum, epoch_checksum
from repro.stream.ops import UPDATE_OPS, Begin, Commit, Rollback, StreamOp
from repro.trees.tree import DataTree

#: One validated epoch: ``(fleet position, member, ops)`` per edited
#: member, in fleet order.
_EpochPlan = list[tuple[int, str, tuple[StreamOp, ...]]]


class ConstraintService:
    """Documents + compiled constraint sets behind one request protocol."""

    def __init__(self, *, store: DocumentStore | None = None):
        self._store = store if store is not None else DocumentStore()

    @property
    def store(self) -> DocumentStore:
        return self._store

    # ------------------------------------------------------------------
    # The protocol surface
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Serve one request; service-level failures become responses."""
        try:
            serve = self._HANDLERS.get(type(request))
            if serve is None:
                raise ServiceError(
                    f"unhandled request type {type(request).__name__}")
            return serve(self, request)
        except ReproError as err:
            return ErrorResponse(error=type(err).__name__, message=str(err))

    def handle_dict(self, payload: dict) -> dict:
        """The wire twin: dict in, dict out (parse errors included)."""
        try:
            request = request_from_dict(payload)
        except ReproError as err:
            return ErrorResponse(error=type(err).__name__,
                                 message=str(err)).to_dict()
        return self.handle(request).to_dict()

    def handle_json(self, payload: str) -> str:
        """The byte-boundary twin: JSON text in, JSON text out."""
        try:
            data = json.loads(payload)
        except (ValueError, RecursionError) as err:  # too deep to decode
            return ErrorResponse(error="ParseError",
                                 message=f"bad JSON: {err}").to_json()
        return json.dumps(self.handle_dict(data), sort_keys=True)

    def metrics_snapshot(self) -> MetricsSnapshot:
        """The live introspection payload: global registry + per-entity state.

        The ``metrics`` section is the process-wide
        :func:`repro.obs.registry` snapshot; ``streams`` carries each open
        stream's :meth:`~repro.stream.engine.StreamStats.wire_pairs`
        (fleet members' included) and ``fleets`` each open fleet's
        ledger.  The socket server's inline ``metrics`` branch (served
        before its backpressure gate) and a ``metrics`` request served
        here both answer with it, so the two cannot drift.
        """
        store = self._store
        streams = tuple(
            (doc, enforcer.stats.wire_pairs())
            for doc, _set_name, enforcer in store.live_streams())
        fleets = tuple(
            ("+".join(docs), tuple(sorted({
                "set": set_name, "docs": len(docs), "epoch": ledger.epoch,
                "checksum": ledger.checksum}.items())))
            for docs, set_name, ledger in store.live_fleets())
        return MetricsSnapshot(metrics=_obs_registry().to_dict(),
                               streams=streams, fleets=fleets)

    # ------------------------------------------------------------------
    # Registration and query handlers
    # ------------------------------------------------------------------
    def _register_constraints(self, request: RegisterConstraints) -> Ack:
        compiled = self._store.add_constraints(
            request.name, request.constraints, replace=request.replace)
        stats = tuple(sorted(IndependenceIndex(compiled).stats().items()))
        return Ack("constraints", request.name, len(compiled), stats=stats)

    def _register_document(self, request: RegisterDocument) -> Ack:
        tree = self._store.add_document(request.name, request.tree,
                                        replace=request.replace)
        return Ack("document", request.name, tree.size)

    def _register_template(self, request: RegisterTemplate) -> Ack:
        outcome = self._store.add_template(
            request.name, request.template, request.constraints,
            replace=request.replace)
        return Ack("template", request.name, len(request.template.ops),
                   stats=outcome.wire_stats())

    def _implication(self, request: ImplicationQuery) -> QueryAnswers:
        report = self._store.session(request.constraints).implies_all(
            request.conclusions, fail_fast=request.fail_fast,
            require_decision=request.require_decision)
        return QueryAnswers(tuple(
            Verdict.of(result) if result is not None else None
            for result in report.results))

    def _instance(self, request: InstanceQuery) -> QueryAnswers:
        bound = self._store.binding(request.constraints, request.document)
        report = bound.implies_all(
            request.conclusions, fail_fast=request.fail_fast,
            require_decision=request.require_decision,
            max_moves=request.max_moves, search_budget=request.search_budget)
        return QueryAnswers(tuple(
            Verdict.of(result) if result is not None else None
            for result in report.results))

    def _metrics(self, request: MetricsRequest) -> MetricsSnapshot:
        return self.metrics_snapshot()

    def _stream_status(self, request: StreamStatus) -> Ack:
        self._store.document(request.document)  # unknown name -> ServiceError
        live = self._store.live_stream(request.document)
        if live is None:
            return Ack("stream", request.document, 0)
        stats = live[1].stats
        # ``wire_pairs`` deliberately excludes ``revision`` — a
        # snapshot-internal counter that legitimately differs between a
        # live stream and its checkpoint-restored twin; everything it
        # does carry is part of the recovery-equivalence contract, so a
        # reconnecting client recovers its observability state exactly.
        return Ack("stream", request.document, stats.entries,
                   stats=stats.wire_pairs())

    # ------------------------------------------------------------------
    # Stream handlers
    # ------------------------------------------------------------------
    def _close_if_idle(self, doc: str, enforcer: StreamEnforcer) -> None:
        """Close a stream that has taken no decision.

        Such a stream journaled nothing, so a restart would not reopen
        it; closing it keeps the live process (its ``stream-status``,
        its fleet admission) equal to a restarted one.
        """
        if len(enforcer.audit) == 0:
            self._store.close_stream(doc)

    def _stream(self, request: StreamSubmit) -> StreamDecisions:
        doc, set_name, store = request.document, request.constraints, self._store
        enforcer = store.enforcer(doc, set_name)
        # Pin fresh-leaf ids at the durable boundary (no-op when the store
        # has no journal): what is applied is exactly what is journaled,
        # so replay reallocates the same ids.
        ops = store.prepare_stream_ops(doc, request.ops)
        decisions: list = []
        try:
            for op in ops:
                decisions.append(enforcer.apply(op))
        finally:
            # A protocol-misuse op (nested begin, commit outside a
            # bracket, mutated-behind) aborts the submission mid-log;
            # the prefix already took effect and must still be journaled
            # or a recovered replica would silently lack those edits.
            store.commit_stream_ops(doc, set_name, ops[:len(decisions)],
                                    enforcer)
            self._close_if_idle(doc, enforcer)
        return StreamDecisions(tuple(WireDecision.of(d) for d in decisions))

    def _certified(self, request: CertifiedSubmit) -> StreamDecisions:
        doc, set_name, store = request.document, request.constraints, self._store
        template, _outcome = store.template(request.template, set_name)
        enforcer = store.enforcer(doc, set_name)
        bindings = dict(request.bindings)
        try:
            # Instantiate first (bad binding domains fail before any op
            # is applied), then pin fresh-leaf ids at the durable
            # boundary so the journaled record replays to identical
            # trees.  All-or-nothing: a guard or structural failure
            # raises with nothing applied and nothing recorded, so —
            # unlike the per-op path — there is never a prefix to journal.
            ops = store.prepare_stream_ops(doc,
                                           template.instantiate(bindings))
            decisions = enforcer.apply_certified(template, bindings, ops=ops)
        finally:
            self._close_if_idle(doc, enforcer)
        store.commit_certified(doc, set_name, request.template, bindings,
                               ops, enforcer)
        return StreamDecisions(tuple(WireDecision.of(d) for d in decisions))

    def _fleet(self, request: FleetSubmit) -> FleetDecisions:
        """Run each epoch as per-member brackets on the members' streams.

        The whole request is validated before any document is touched,
        so a refused submission changes nothing.  A new fleet's ledger
        is journaled as it opens.  Each edited member then runs, in
        fleet order, as ``Begin``, its ops and ``Commit`` — journaled
        like a ``stream-submit`` — and the fleet's ledger record follows
        the members' records.
        """
        docs, set_name, store = request.documents, request.constraints, self._store
        key = store.check_fleet(docs, set_name)
        position = {name: pos for pos, name in enumerate(docs)}
        plans = [self._plan_epoch(epoch, position, docs)
                 for epoch in request.epochs]
        ledger = store.open_fleet(key)
        epochs: list[WireEpoch] = []
        for plan in plans:
            outcomes: list[EpochOutcome] = [
                (pos, *self._bracket(doc, set_name, ops))
                for pos, doc, ops in plan]
            ledger.epoch += 1
            ledger.checksum = chain_checksum(
                ledger.checksum, epoch_checksum(ledger.epoch, outcomes))
            epochs.append(WireEpoch(
                epoch=ledger.epoch,
                edited=tuple(docs[pos] for pos, *_ in outcomes),
                rejected=tuple(docs[pos] for pos, bad, _, _ in outcomes
                               if bad),
                structural=tuple(sorted((docs[pos], note)
                                        for pos, _, _, note in outcomes
                                        if note)),
                violations=tuple(sorted(
                    (docs[pos], tuple(WireViolation.of(v) for v in vs))
                    for pos, _, vs, _ in outcomes if vs))))
        store.commit_fleet(key, ledger)
        return FleetDecisions(docs=len(docs), epochs=tuple(epochs),
                              checksum=ledger.checksum)

    @staticmethod
    def _plan_epoch(epoch, position: dict[str, int],
                    docs: tuple[str, ...]) -> _EpochPlan:
        """Validate one epoch's members and ops; order them by position."""
        edits: dict[int, tuple[str, tuple[StreamOp, ...]]] = {}
        for doc, ops in epoch:
            pos = position.get(doc)
            if pos is None:
                raise ServiceError(
                    f"document {doc!r} is not in this fleet "
                    f"(members: {list(docs)})")
            if pos in edits:
                raise ServiceError(
                    f"document {doc!r} appears twice in one epoch; "
                    "merge its operations into one entry")
            edits[pos] = (doc, tuple(ops))
        for _, ops in edits.values():
            for op in ops:
                if not isinstance(op, UPDATE_OPS):
                    raise StreamError(
                        f"epochs are the fleet's transaction brackets; "
                        f"marker {op!r} is not a fleet operation")
        return [(pos, *edits[pos]) for pos in sorted(edits)]

    def _bracket(self, doc: str, set_name: str,
                 ops: Sequence[StreamOp]) -> tuple[bool, tuple, str]:
        """One member's share of an epoch: ``(rejected, witnesses, note)``.

        ``Begin``, the ops, then ``Commit`` — or ``Rollback`` right after
        the first op rejected with no violations (a structural error),
        whose note becomes the member's.  Leaf ids are pinned for every
        op at once, like a ``stream-submit``; only the journaled record
        moves the counter, so ops a structural error cuts off consume no
        ids.
        """
        store = self._store
        enforcer = store.stream(doc, set_name)
        applied: list[StreamOp] = [Begin()]
        enforcer.apply(applied[0])
        note = ""
        for op in store.prepare_stream_ops(doc, ops):
            applied.append(op)
            decision = enforcer.apply(op)
            if not decision.accepted and not decision.violations:
                note = decision.note
                break
        applied.append(Rollback() if note else Commit())
        closing = enforcer.apply(applied[-1])
        store.commit_stream_ops(doc, set_name, applied, enforcer)
        return bool(note) or not closing.accepted, closing.violations, note

    #: Each request class's handler.
    _HANDLERS = {
        RegisterConstraints: _register_constraints,
        RegisterDocument: _register_document,
        RegisterTemplate: _register_template,
        ImplicationQuery: _implication,
        InstanceQuery: _instance,
        StreamSubmit: _stream,
        CertifiedSubmit: _certified,
        StreamStatus: _stream_status,
        FleetSubmit: _fleet,
        MetricsRequest: _metrics,
    }

    # ------------------------------------------------------------------
    # Live-object conveniences (same store, no wire forms)
    # ------------------------------------------------------------------
    def register_document(self, name: str, tree: DataTree | dict, *,
                          replace: bool = False) -> DataTree:
        return self._store.add_document(name, tree, replace=replace)

    def register_constraints(self, name: str,
                             constraints: ConstraintSet | Iterable, *,
                             replace: bool = False) -> ConstraintSet:
        return self._store.add_constraints(name, constraints, replace=replace)

    def session(self, constraints: str) -> Reasoner:
        """The compiled session behind a registered constraint set."""
        return self._store.session(constraints)

    def binding(self, constraints: str, document: str) -> BoundReasoner:
        """A bound session on the named document's current state."""
        return self._store.binding(constraints, document)

    def enforcer(self, document: str, constraints: str) -> StreamEnforcer:
        """The named document's live enforcement stream."""
        return self._store.enforcer(document, constraints)

    def __repr__(self) -> str:
        return f"ConstraintService({self._store!r})"


__all__ = ["ConstraintService"]
