"""Pluggable execution strategies for service requests.

An :class:`Executor` turns one :class:`~repro.service.protocol.Request`
into one :class:`~repro.service.protocol.Response` against a
:class:`~repro.service.store.DocumentStore`.  Three strategies ship:

* :class:`InlineExecutor` — synchronous, in-process; the reference
  semantics every other executor must match bit-for-bit (the Hypothesis
  equivalence suite compares response checksums);
* :class:`ProcessExecutor` — fans *stateless* query batches across a
  ``multiprocessing`` pool (conclusions are independent, so a batch
  splits into contiguous chunks reassembled in submission order) and
  parallelises the refutation search of single-conclusion mixed-type
  instance queries across candidate families
  (:func:`repro.instance.search.cascade_refutation` with ``workers>1``).
  Stateful requests — registration, stream enforcement — always run
  inline: they mutate the store and are inherently serial per document;
* :class:`~repro.service.async_service.AsyncService` — not an executor
  but an ``asyncio`` façade that serialises requests per document and
  awaits responses; it drives whichever executor its service holds.

Executors never swallow errors: they raise
:class:`~repro.errors.ReproError` subclasses and let
:class:`~repro.service.service.ConstraintService.handle` turn them into
wire-level :class:`~repro.service.protocol.ErrorResponse` objects.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.pool
from time import perf_counter

from repro.analysis import IndependenceIndex
from repro.api.session import GENERAL_UNDECIDED, INSTANCE_UNDECIDED
from repro.constraints.model import ConstraintSet
from repro.errors import ReproError, ServiceError, UnsupportedProblemError
from repro.implication.result import Answer
from repro.obs import registry as _obs_registry
from repro.service.dispatch import bind_session, compiled_session
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
from repro.trees.serialize import from_dict, to_dict


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


class Executor:
    """Strategy interface: one request in, one response out."""

    def execute(self, request: Request,
                store: DocumentStore) -> Response:  # pragma: no cover - abstract
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources (idempotent; inline executors no-op)."""

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class InlineExecutor(Executor):
    """Synchronous in-process execution — the reference semantics."""

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


# ----------------------------------------------------------------------
# Process fan-out (top-level functions: pool workers must pickle them)
# ----------------------------------------------------------------------
class _Failed:
    """A conclusion whose decision raised, carried back positionally.

    The assembler replays the sequential loop's control flow, so an
    error is surfaced only if its conclusion would actually have been
    reached — a failure past a ``fail_fast`` cutoff must stay invisible,
    exactly as in :class:`InlineExecutor`.
    """

    __slots__ = ("error", "message")

    def __init__(self, err: Exception):
        self.error = type(err).__name__
        self.message = str(err)


def _decide_chunk(decide, conclusions) -> list:
    out = []
    for conclusion in conclusions:
        try:
            out.append(Verdict.of(decide(conclusion)))
        except ReproError as err:
            out.append(_Failed(err))
    return out


# Per-worker compiled-session cache, pinned by the pool initializer.
# Compiling a session (DFA products, canonical forms, containment memo
# shells) is the expensive part of a chunk; consecutive chunks of one
# query — and consecutive queries against the same registered set — hit
# the same constraints, so each worker keeps the last few compilations.
# ``None`` means "no pool initializer ran" (direct in-process calls):
# the cache is bypassed and behaviour is exactly the old compile-per-chunk.
_SESSION_CACHE: dict[tuple, object] | None = None
_SESSION_CACHE_LIMIT = 8


def _pin_session_cache(limit: int = 8) -> None:
    """Pool initializer: give this worker its own compiled-session cache."""
    global _SESSION_CACHE, _SESSION_CACHE_LIMIT
    _SESSION_CACHE = {}
    _SESSION_CACHE_LIMIT = max(1, limit)


def _worker_session(constraints: tuple):
    """The worker's compiled session for ``constraints`` (FIFO-evicted).

    Constraints hash by canonical key, so the pickled wire tuple keys the
    cache stably across chunks and across requests.
    """
    if _SESSION_CACHE is None:
        return compiled_session(ConstraintSet(constraints))
    session = _SESSION_CACHE.get(constraints)
    if session is None:
        if len(_SESSION_CACHE) >= _SESSION_CACHE_LIMIT:
            _SESSION_CACHE.pop(next(iter(_SESSION_CACHE)))
        session = compiled_session(ConstraintSet(constraints))
        _SESSION_CACHE[constraints] = session
    return session


def _implication_chunk(payload: tuple) -> list:
    """Worker: answer one contiguous chunk of implication conclusions."""
    constraints, conclusions = payload
    session = _worker_session(constraints)
    return _decide_chunk(session.implies, conclusions)


def _instance_chunk(payload: tuple) -> list:
    """Worker: answer one contiguous chunk of instance conclusions."""
    constraints, tree_dict, conclusions, max_moves, search_budget = payload
    session = _worker_session(constraints)
    bound = bind_session(session, from_dict(tree_dict))

    def decide(conclusion):
        return bound.implies_on(conclusion, max_moves=max_moves,
                                search_budget=search_budget)

    return _decide_chunk(decide, conclusions)


def _chunked(items: tuple, parts: int) -> list[tuple]:
    """Split into at most ``parts`` contiguous, order-preserving chunks."""
    parts = max(1, min(parts, len(items)))
    size, extra = divmod(len(items), parts)
    chunks, at = [], 0
    for i in range(parts):
        step = size + (1 if i < extra else 0)
        chunks.append(items[at:at + step])
        at += step
    return chunks


class ProcessExecutor(Executor):
    """Fan stateless query batches across a ``multiprocessing`` pool.

    Responses are reassembled in submission order and are bit-identical
    to :class:`InlineExecutor`'s — ``fail_fast`` masking and the
    ``require_decision`` raise are applied *after* reassembly, on the
    same first-not-implied / first-unknown entry the sequential loop
    would have stopped at.  Single-conclusion mixed-type instance
    queries, where the work is one refutation search rather than many
    conclusions, instead parallelise **inside** the search: every worker
    owns a scratch tree and an incremental snapshot and validates one
    stride of the shared candidate enumeration.

    The pool initializer pins a small per-worker compiled-session cache
    (``session_cache`` entries, FIFO), so repeated chunks against the
    same registered constraint set recompile nothing after the first
    touch in each worker.
    """

    def __init__(self, workers: int | None = None,
                 session_cache: int = 8):
        self._workers = workers or (multiprocessing.cpu_count() or 2)
        self._session_cache = max(1, session_cache)
        self._pool: multiprocessing.pool.Pool | None = None
        self._inline = InlineExecutor()

    @property
    def workers(self) -> int:
        return self._workers

    def _get_pool(self) -> multiprocessing.pool.Pool:
        if self._pool is None:
            self._pool = multiprocessing.Pool(
                processes=self._workers,
                initializer=_pin_session_cache,
                initargs=(self._session_cache,))
            _obs_registry().gauge("executor.pool_workers").set(self._workers)
        return self._pool

    def _map(self, fn, payloads: list) -> list:
        """``pool.map`` with fan-out accounting (chunks, wall time).

        Workers are separate processes, so their side of the work cannot
        reach this registry; the parent times the whole fan-out and
        attributes the per-chunk average — exact enough to spot a slow
        batch, free enough for the hot path.
        """
        m = _obs_registry()
        started = perf_counter()
        results = self._get_pool().map(fn, payloads)
        elapsed = perf_counter() - started
        m.counter("executor.chunks_total").inc(len(payloads))
        m.histogram("executor.chunk_seconds").observe(
            elapsed / max(1, len(payloads)))
        m.histogram("executor.map_seconds").observe(elapsed)
        return results

    def close(self) -> None:
        if self._pool is not None:
            self._pool.terminate()
            self._pool.join()
            self._pool = None

    def execute(self, request: Request, store: DocumentStore) -> Response:
        if isinstance(request, ImplicationQuery) and len(request.conclusions) > 1:
            wire = tuple(store.constraints(request.constraints))
            chunks = _chunked(request.conclusions, self._workers)
            results = self._map(
                _implication_chunk, [(wire, chunk) for chunk in chunks])
            verdicts = [v for chunk in results for v in chunk]
            return self._assemble(verdicts, request.fail_fast,
                                  request.require_decision, GENERAL_UNDECIDED)
        if isinstance(request, InstanceQuery):
            return self._instance(request, store)
        return self._inline.execute(request, store)

    def _instance(self, request: InstanceQuery,
                  store: DocumentStore) -> Response:
        if len(request.conclusions) <= 1:
            # One conclusion: the parallelism worth having is inside the
            # refutation search (candidate families), not across the batch.
            bound = store.binding(request.constraints, request.document)
            report = bound.implies_all(
                request.conclusions, fail_fast=request.fail_fast,
                require_decision=request.require_decision,
                max_moves=request.max_moves,
                search_budget=request.search_budget,
                search_workers=self._workers)
            return QueryAnswers(tuple(
                Verdict.of(result) if result is not None else None
                for result in report.results))
        wire = tuple(store.constraints(request.constraints))
        tree_dict = to_dict(store.document(request.document))
        chunks = _chunked(request.conclusions, self._workers)
        results = self._map(
            _instance_chunk,
            [(wire, tree_dict, chunk, request.max_moves,
              request.search_budget) for chunk in chunks])
        verdicts = [v for chunk in results for v in chunk]
        return self._assemble(verdicts, request.fail_fast,
                              request.require_decision, INSTANCE_UNDECIDED)

    @staticmethod
    def _assemble(verdicts: list, fail_fast: bool, require_decision: bool,
                  undecided_msg: str) -> Response:
        """Re-impose the sequential loop's observable control flow.

        The workers decided every conclusion; the inline loop would have
        decided only a prefix.  Walking in order: a failure or (with
        ``require_decision``) an UNKNOWN is surfaced exactly when the
        inline loop would have reached it, and everything past a
        ``fail_fast`` stop is masked to ``None`` — so the response (or
        error) is bit-identical to :class:`InlineExecutor`'s.
        """
        out: list[Verdict | None] = []
        stopped = False
        for verdict in verdicts:
            if stopped:
                out.append(None)
                continue
            if isinstance(verdict, _Failed):
                return ErrorResponse(error=verdict.error,
                                     message=verdict.message)
            if require_decision and verdict.answer == Answer.UNKNOWN.value:
                raise UnsupportedProblemError(undecided_msg)
            out.append(verdict)
            if fail_fast and verdict.answer != Answer.IMPLIED.value:
                stopped = True
        return QueryAnswers(tuple(out))

    def __repr__(self) -> str:
        state = "idle" if self._pool is None else "pool up"
        return f"ProcessExecutor({self._workers} workers, {state})"


__all__ = ["Executor", "InlineExecutor", "ProcessExecutor",
           "build_metrics_snapshot"]
