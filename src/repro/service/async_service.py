"""The ``asyncio`` front end: awaitable decisions, per-document ordering.

The ROADMAP's enforcement-log IO front end: concurrent clients submit
requests from coroutines and ``await`` their responses, while the service
guarantees exactly the ordering that matters — requests naming the same
document are applied **in submission order** (each document has its own
queue drained by its own worker task), and requests for different
documents interleave freely.  Document-independent requests (constraint
registration, pure implication queries) flow through a shared control
queue.

The façade adds no semantics: every request is served by the underlying
:class:`~repro.service.service.ConstraintService`, so answer streams are
bit-identical to synchronous calls — the equivalence suite compares
response checksums.  Single-client overhead is one queue hop and one
future per request; the service benchmark pins it within a few percent
of direct :meth:`~repro.stream.engine.StreamEnforcer.apply` calls.

>>> import asyncio
>>> from repro import AsyncService, DataTree
>>> from repro.stream import AddLeaf
>>> async def main():
...     async with AsyncService() as svc:
...         doc = DataTree()
...         patient = doc.add_child(doc.root, "patient")
...         await svc.register_constraints("policy", [("/patient", "down")])
...         await svc.register_document("ward", doc)
...         reply = await svc.enforce("ward", "policy",
...                                   [AddLeaf(patient, "visit")])
...         return [d.accepted for d in reply.decisions]
>>> asyncio.run(main())
[True]
"""

from __future__ import annotations

import asyncio
from collections.abc import Iterable, Sequence

from repro.constraints.model import ConstraintSet, UpdateConstraint
from repro.errors import ServiceError
from repro.obs import registry as _obs_registry, trace_id, tracing
from repro.service.protocol import (
    Ack,
    CertifiedSubmit,
    ImplicationQuery,
    InstanceQuery,
    RegisterConstraints,
    RegisterDocument,
    Request,
    Response,
    StreamDecisions,
    StreamStatus,
    StreamSubmit,
    WireDecision,
)
from repro.service.service import ConstraintService
from repro.stream.ops import StreamOp
from repro.trees.tree import DataTree

#: Queue key for document-independent requests.
_CONTROL = None


def _route_key(request: Request) -> str | None:
    """The serialisation domain of a request: its document, or control."""
    if isinstance(request, (RegisterDocument,)):
        return request.name
    if isinstance(request, (InstanceQuery, StreamSubmit, StreamStatus,
                            CertifiedSubmit)):
        return request.document
    return _CONTROL


class AsyncService:
    """Awaitable façade over a (synchronous) :class:`ConstraintService`."""

    def __init__(self, service: ConstraintService | None = None):
        self._service = (service if service is not None
                         else ConstraintService())
        self._queues: dict[str | None, asyncio.Queue] = {}
        self._workers: dict[str | None, asyncio.Task] = {}
        # The future of the most recently submitted *registration*: every
        # later request (any queue) waits for it before executing, so a
        # pipelined sequence can never observe a store state older than
        # its submission order implies — cross-queue dependencies resolve
        # exactly as in a synchronous replay.
        self._barrier: asyncio.Future | None = None
        self._closed = False
        m = _obs_registry()
        self._m_requests = m.counter("service.requests_total")
        self._m_depth = m.gauge("service.queue_depth")

    @property
    def service(self) -> ConstraintService:
        return self._service

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def __aenter__(self) -> "AsyncService":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    async def close(self) -> None:
        """Drain every queue and stop the workers."""
        self._closed = True
        for queue in self._queues.values():
            queue.put_nowait(None)
        for task in self._workers.values():
            await task
        self._queues.clear()
        self._workers.clear()

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> "asyncio.Future[Response]":
        """Enqueue one request; the returned future resolves to its response.

        Ordering guarantee: two requests routed to the same document
        resolve in submission order.  ``submit`` is synchronous (the
        enqueue itself never blocks), so a client can pipeline a whole
        log and ``await asyncio.gather(*futures)``.
        """
        if self._closed:
            raise ServiceError("the async service is closed")
        future: asyncio.Future[Response] = (
            asyncio.get_running_loop().create_future())
        barrier = self._barrier
        if barrier is not None and barrier.done():
            barrier = None
        # Capture the submitter's trace id here: worker tasks were created
        # in their own context, so a contextvar set around ``submit`` would
        # never reach ``_drain`` — the id must ride the queue item.
        self._queue_for(_route_key(request)).put_nowait(
            (request, future, barrier, trace_id()))
        self._m_requests.inc()
        self._m_depth.set(sum(q.qsize() for q in self._queues.values()))
        if isinstance(request, (RegisterConstraints, RegisterDocument)):
            self._barrier = future
        return future

    async def request(self, request: Request) -> Response:
        """Submit and await one request."""
        return await self.submit(request)

    def _queue_for(self, key: str | None) -> asyncio.Queue:
        queue = self._queues.get(key)
        if queue is None:
            queue = self._queues[key] = asyncio.Queue()
            self._workers[key] = asyncio.get_running_loop().create_task(
                self._drain(queue))
        return queue

    #: Requests a worker serves back-to-back before yielding the loop.
    FAIRNESS_STRIDE = 16

    async def _drain(self, queue: asyncio.Queue) -> None:
        """One document's worker: strictly serial, never raises."""
        served = 0
        while True:
            item = await queue.get()
            if item is None:
                queue.task_done()
                return
            request, future, barrier, trace = item
            if barrier is not None and not barrier.done():
                # An earlier-submitted registration has not executed yet
                # (it lives in a sibling queue); wait for it so this
                # request sees at least the store state its submission
                # order promised.  Registration failures do not block —
                # a synchronous replay would carry on past them too.
                try:
                    await barrier
                except Exception:
                    pass
            try:
                with tracing(trace):
                    response = self._service.handle(request)
            except Exception as err:  # handle() already absorbs ReproError
                if not future.cancelled():
                    future.set_exception(err)
            else:
                if not future.cancelled():
                    future.set_result(response)
            queue.task_done()
            self._m_depth.set(sum(q.qsize() for q in self._queues.values()))
            # Yield periodically so sibling documents interleave even under
            # one saturating client; an empty queue suspends in get() anyway,
            # so the stride only matters for long pipelined bursts.
            served += 1
            if served % self.FAIRNESS_STRIDE == 0:
                await asyncio.sleep(0)

    # ------------------------------------------------------------------
    # Conveniences (one protocol request each)
    # ------------------------------------------------------------------
    async def register_document(self, name: str, tree: DataTree, *,
                                replace: bool = False) -> Ack:
        return await self.submit(RegisterDocument(name, tree, replace=replace))

    async def register_constraints(self, name: str,
                                   constraints: ConstraintSet | Iterable, *,
                                   replace: bool = False) -> Ack:
        if not isinstance(constraints, ConstraintSet):
            from repro.constraints.model import constraint_set
            constraints = constraint_set(*constraints)
        return await self.submit(
            RegisterConstraints(name, tuple(constraints), replace=replace))

    async def implies(self, constraints: str,
                      conclusions: Sequence[UpdateConstraint], *,
                      fail_fast: bool = False,
                      require_decision: bool = False) -> Response:
        return await self.submit(ImplicationQuery(
            constraints, tuple(conclusions), fail_fast=fail_fast,
            require_decision=require_decision))

    async def implies_on(self, constraints: str, document: str,
                         conclusions: Sequence[UpdateConstraint], *,
                         fail_fast: bool = False,
                         require_decision: bool = False,
                         max_moves: int = 2,
                         search_budget: int = 5000) -> Response:
        return await self.submit(InstanceQuery(
            constraints, document, tuple(conclusions), fail_fast=fail_fast,
            require_decision=require_decision, max_moves=max_moves,
            search_budget=search_budget))

    async def enforce(self, document: str, constraints: str,
                      ops: Sequence[StreamOp]) -> Response:
        """Submit a log slice; resolves to its :class:`StreamDecisions`."""
        return await self.submit(StreamSubmit(document, constraints,
                                              tuple(ops)))

    async def status(self, document: str) -> Response:
        """Where the document's stream stands (ordered after its edits)."""
        return await self.submit(StreamStatus(document))

    async def apply(self, document: str, constraints: str,
                    op: StreamOp) -> WireDecision:
        """Submit one operation; resolves to its single decision."""
        response = await self.enforce(document, constraints, (op,))
        if not isinstance(response, StreamDecisions):
            raise ServiceError(f"{response.to_dict()}")
        return response.decisions[0]

    def __repr__(self) -> str:
        docs = sorted(k for k in self._queues if k is not None)
        return (f"AsyncService({self._service!r}, "
                f"{len(docs)} document queue(s))")


__all__ = ["AsyncService"]
