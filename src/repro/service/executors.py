"""Request execution: one request in, one response out.

:class:`InlineExecutor` turns one :class:`~repro.service.protocol.Request`
into one :class:`~repro.service.protocol.Response` against a
:class:`~repro.service.store.DocumentStore`, synchronously and
in-process.  :class:`~repro.service.async_service.AsyncService` is the
``asyncio`` façade over it that serves requests in submission order
behind awaitable responses; the Hypothesis equivalence suite pins both
to direct calls on raw sessions and streams by response checksum.

The executor never swallows errors: it raises
:class:`~repro.errors.ReproError` subclasses and lets
:class:`~repro.service.service.ConstraintService.handle` turn them into
wire-level :class:`~repro.service.protocol.ErrorResponse` objects.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis import IndependenceIndex
from repro.errors import ReproError, ServiceError, StreamError
from repro.obs import registry as _obs_registry
from repro.service.protocol import (
    Ack,
    CertifiedSubmit,
    FleetDecisions,
    FleetSubmit,
    ImplicationQuery,
    InstanceQuery,
    MetricsRequest,
    MetricsSnapshot,
    RegisterConstraints,
    RegisterDocument,
    RegisterTemplate,
    Request,
    Response,
    StreamStatus,
    StreamSubmit,
    QueryAnswers,
    StreamDecisions,
    Verdict,
    WireDecision,
    WireEpoch,
    WireViolation,
)
from repro.service.store import DocumentStore
from repro.stream.log import EpochOutcome, chain_checksum, epoch_checksum
from repro.stream.ops import UPDATE_OPS, Begin, Commit, Rollback, StreamOp

#: One validated epoch: ``(fleet position, member, ops)`` per edited
#: member, in fleet order.
_EpochPlan = list[tuple[int, str, tuple[StreamOp, ...]]]


def build_metrics_snapshot(store: DocumentStore) -> MetricsSnapshot:
    """The live introspection payload: global registry + per-entity state.

    The ``metrics`` section is the process-wide
    :func:`repro.obs.registry` snapshot; ``streams`` carries each open
    stream's :meth:`~repro.stream.engine.StreamStats.wire_pairs` (fleet
    members' included) and ``fleets`` each open fleet's ledger.  Both the
    server's inline short-circuit (served before the backpressure gate)
    and the :class:`InlineExecutor` dispatch build their answer here, so
    the two paths cannot drift.
    """
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


class InlineExecutor:
    """Synchronous in-process execution of every request kind."""

    def execute(self, request: Request, store: DocumentStore) -> Response:
        if isinstance(request, RegisterConstraints):
            compiled = store.add_constraints(request.name, request.constraints,
                                             replace=request.replace)
            stats = tuple(sorted(IndependenceIndex(compiled).stats().items()))
            return Ack("constraints", request.name, len(compiled),
                       stats=stats)
        if isinstance(request, RegisterDocument):
            tree = store.add_document(request.name, request.tree,
                                      replace=request.replace)
            return Ack("document", request.name, tree.size)
        if isinstance(request, ImplicationQuery):
            return self._implication(request, store)
        if isinstance(request, InstanceQuery):
            return self._instance(request, store)
        if isinstance(request, RegisterTemplate):
            outcome = store.add_template(request.name, request.template,
                                         request.constraints,
                                         replace=request.replace)
            return Ack("template", request.name, len(request.template.ops),
                       stats=outcome.wire_stats())
        if isinstance(request, StreamSubmit):
            return self._stream(request, store)
        if isinstance(request, CertifiedSubmit):
            return self._certified(request, store)
        if isinstance(request, StreamStatus):
            return self._stream_status(request, store)
        if isinstance(request, FleetSubmit):
            return self._fleet(request, store)
        if isinstance(request, MetricsRequest):
            return build_metrics_snapshot(store)
        raise ServiceError(f"unhandled request type {type(request).__name__}")

    # -- query handlers -------------------------------------------------
    def _implication(self, request: ImplicationQuery,
                     store: DocumentStore) -> QueryAnswers:
        report = store.session(request.constraints).implies_all(
            request.conclusions, fail_fast=request.fail_fast,
            require_decision=request.require_decision)
        return QueryAnswers(tuple(
            Verdict.of(result) if result is not None else None
            for result in report.results))

    def _instance(self, request: InstanceQuery,
                  store: DocumentStore) -> QueryAnswers:
        bound = store.binding(request.constraints, request.document)
        report = bound.implies_all(
            request.conclusions, fail_fast=request.fail_fast,
            require_decision=request.require_decision,
            max_moves=request.max_moves, search_budget=request.search_budget)
        return QueryAnswers(tuple(
            Verdict.of(result) if result is not None else None
            for result in report.results))

    def _stream(self, request: StreamSubmit,
                store: DocumentStore) -> StreamDecisions:
        enforcer = store.enforcer(request.document, request.constraints)
        # Pin fresh-leaf ids at the durable boundary (no-op when the store
        # has no journal): what is applied is exactly what is journaled,
        # so replay reallocates the same ids.
        ops = store.prepare_stream_ops(request.document, request.ops)
        decisions: list = []
        error: ReproError | None = None
        try:
            for op in ops:
                decisions.append(enforcer.apply(op))
        except ReproError as err:
            # A protocol-misuse op (nested begin, commit outside a
            # bracket, mutated-behind) aborts the submission mid-log;
            # the prefix already took effect and must still be journaled
            # or a recovered replica would silently lack those edits.
            error = err
        store.commit_stream_ops(request.document, request.constraints,
                                ops[:len(decisions)], enforcer)
        if error is not None:
            raise error
        return StreamDecisions(tuple(WireDecision.of(d) for d in decisions))

    def _certified(self, request: CertifiedSubmit,
                   store: DocumentStore) -> StreamDecisions:
        template, _outcome = store.template(request.template,
                                            request.constraints)
        enforcer = store.enforcer(request.document, request.constraints)
        bindings = dict(request.bindings)
        # Instantiate first (bad binding domains fail before the stream is
        # touched), then pin fresh-leaf ids at the durable boundary so the
        # journaled record replays to identical trees.
        ops = store.prepare_stream_ops(request.document,
                                       template.instantiate(bindings))
        # All-or-nothing: a guard or structural failure raises with
        # nothing applied and nothing recorded, so — unlike the per-op
        # path — there is never an applied prefix to journal.
        decisions = enforcer.apply_certified(template, bindings, ops=ops)
        store.commit_certified(request.document, request.constraints,
                               request.template, bindings, ops, enforcer)
        return StreamDecisions(tuple(WireDecision.of(d) for d in decisions))

    def _fleet(self, request: FleetSubmit,
               store: DocumentStore) -> FleetDecisions:
        """Run each epoch as per-member brackets on the members' streams.

        The whole request is validated before any document is touched,
        so a refused submission changes nothing.  A new fleet's ledger
        is journaled as it opens.  Each edited member then runs, in
        fleet order, as ``Begin``, its ops and ``Commit`` — journaled
        like a ``stream-submit`` — and the fleet's ledger record follows
        the members' records.
        """
        docs, set_name = request.documents, request.constraints
        key = store.check_fleet(docs, set_name)
        position = {name: pos for pos, name in enumerate(docs)}
        plans = [self._plan_epoch(epoch, position, docs)
                 for epoch in request.epochs]
        ledger = store.open_fleet(key)
        epochs: list[WireEpoch] = []
        for plan in plans:
            outcomes: list[EpochOutcome] = [
                (pos, *self._bracket(store, doc, set_name, ops))
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

    @staticmethod
    def _bracket(store: DocumentStore, doc: str, set_name: str,
                 ops: Sequence[StreamOp]) -> tuple[bool, tuple, str]:
        """One member's share of an epoch: ``(rejected, witnesses, note)``.

        ``Begin``, the ops, then ``Commit`` — or ``Rollback`` right after
        the first op rejected with no violations (a structural error),
        whose note becomes the member's.  Leaf ids are pinned one op at a
        time, so ops a structural error cuts off consume no ids.
        """
        enforcer = store.stream(doc, set_name)
        applied: list[StreamOp] = [Begin()]
        enforcer.apply(applied[0])
        note = ""
        for op in ops:
            (op,) = store.prepare_stream_ops(doc, (op,))
            applied.append(op)
            decision = enforcer.apply(op)
            if not decision.accepted and not decision.violations:
                note = decision.note
                break
        applied.append(Rollback() if note else Commit())
        closing = enforcer.apply(applied[-1])
        store.commit_stream_ops(doc, set_name, applied, enforcer)
        return bool(note) or not closing.accepted, closing.violations, note

    def _stream_status(self, request: StreamStatus,
                       store: DocumentStore) -> Ack:
        store.document(request.document)  # unknown name -> ServiceError
        live = store.live_stream(request.document)
        if live is None:
            return Ack("stream", request.document, 0)
        _, enforcer = live
        stats = enforcer.stats
        # ``wire_pairs`` deliberately excludes ``revision`` — a
        # snapshot-internal counter that legitimately differs between a
        # live stream and its checkpoint-restored twin; everything it
        # does carry is part of the recovery-equivalence contract, so a
        # reconnecting client recovers its observability state exactly.
        return Ack("stream", request.document, stats.entries,
                   stats=stats.wire_pairs())


__all__ = ["InlineExecutor", "build_metrics_snapshot"]
