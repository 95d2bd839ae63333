"""The ``asyncio`` front end: awaitable decisions in submission order.

The ROADMAP's enforcement-log IO front end: concurrent clients submit
requests from coroutines and ``await`` their responses.  ``submit``
serves each request at once, on the event loop, so every request runs
**in submission order** — the one ordered log of Definition 2.3, across
documents and registrations alike.  A server's submission order is the
order its connections' frames are decoded.

The façade adds no semantics: every request is served by the underlying
:class:`~repro.service.service.ConstraintService`, so answer streams are
bit-identical to synchronous calls — the equivalence suite compares
response checksums.  Single-client overhead is one future per request;
the service benchmark gates it against direct
:meth:`~repro.stream.engine.StreamEnforcer.apply` calls.

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
from repro.obs import registry as _obs_registry
from repro.service.protocol import (
    Ack,
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


class AsyncService:
    """Awaitable façade over a (synchronous) :class:`ConstraintService`."""

    def __init__(self, service: ConstraintService | None = None):
        self._service = (service if service is not None
                         else ConstraintService())
        self._closed = False
        self._m_requests = _obs_registry().counter("service.requests_total")

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
        """Refuse further submissions (every earlier one has been served)."""
        self._closed = True

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------
    def submit(self, request: Request) -> "asyncio.Future[Response]":
        """Serve one request now; the returned future holds its response.

        Requests run in the order they are submitted, so a client can
        pipeline a whole log and ``await asyncio.gather(*futures)``.  The
        future carries the exception instead when serving raises one
        that :meth:`ConstraintService.handle` does not absorb.
        """
        if self._closed:
            raise ServiceError("the async service is closed")
        future: asyncio.Future[Response] = (
            asyncio.get_running_loop().create_future())
        self._m_requests.inc()
        try:
            future.set_result(self._service.handle(request))
        except Exception as err:  # handle() already absorbs ReproError
            future.set_exception(err)
        return future

    async def request(self, request: Request) -> Response:
        """Submit and await one request."""
        return await self.submit(request)

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
        """Where the document's stream stands (after every earlier edit)."""
        return await self.submit(StreamStatus(document))

    async def apply(self, document: str, constraints: str,
                    op: StreamOp) -> WireDecision:
        """Submit one operation; resolves to its single decision."""
        response = await self.enforce(document, constraints, (op,))
        if not isinstance(response, StreamDecisions):
            raise ServiceError(f"{response.to_dict()}")
        return response.decisions[0]

    def __repr__(self) -> str:
        return f"AsyncService({self._service!r})"


__all__ = ["AsyncService"]
