"""Request execution: one request in, one response out.

:class:`InlineExecutor` turns one :class:`~repro.service.protocol.Request`
into one :class:`~repro.service.protocol.Response` against a
:class:`~repro.service.store.DocumentStore`, synchronously and
in-process.  :class:`~repro.service.async_service.AsyncService` is the
``asyncio`` façade over it that serialises requests per document and
awaits responses; the Hypothesis equivalence suite pins both to direct
calls on raw sessions and streams by response checksum.

The executor never swallows errors: it raises
:class:`~repro.errors.ReproError` subclasses and lets
:class:`~repro.service.service.ConstraintService.handle` turn them into
wire-level :class:`~repro.service.protocol.ErrorResponse` objects.
"""

from __future__ import annotations

from repro.analysis import IndependenceIndex
from repro.errors import ReproError, ServiceError
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
)
from repro.service.store import DocumentStore


def build_metrics_snapshot(store: DocumentStore) -> MetricsSnapshot:
    """The live introspection payload: global registry + per-entity state.

    The ``metrics`` section is the process-wide
    :func:`repro.obs.registry` snapshot; ``streams`` carries each open
    stream's :meth:`~repro.stream.engine.StreamStats.wire_pairs` and
    ``fleets`` each open fleet's shape.  Both the server's inline
    short-circuit (served before the backpressure gate) and the
    :class:`InlineExecutor` dispatch build their answer here, so the two
    paths cannot drift.
    """
    streams = tuple(
        (doc, enforcer.stats.wire_pairs())
        for doc, _set_name, enforcer in store.live_streams())
    fleets = tuple(
        ("+".join(docs), tuple(sorted({
            "set": set_name, "backend": fleet.backend,
            "docs": fleet.size, "epoch": fleet.epoch,
            "checksum": fleet.checksum}.items())))
        for docs, set_name, fleet in store.live_fleets())
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
        fleet = store.fleet_session(request.documents, request.constraints,
                                    request.backend)
        position = {name: pos for pos, name in enumerate(fleet.names)}
        epochs: list[WireEpoch] = []
        for epoch in request.epochs:
            edits: dict[int, list] = {}
            for doc_name, ops in epoch:
                pos = position.get(doc_name)
                if pos is None:
                    raise ServiceError(
                        f"document {doc_name!r} is not in this fleet "
                        f"(members: {list(fleet.names)})")
                if pos in edits:
                    raise ServiceError(
                        f"document {doc_name!r} appears twice in one epoch; "
                        "merge its operations into one entry")
                edits[pos] = list(ops)
            report = fleet.submit_epoch(edits)
            epochs.append(WireEpoch.of(report, fleet.names))
        return FleetDecisions(docs=fleet.size, epochs=tuple(epochs),
                              checksum=fleet.checksum)

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
