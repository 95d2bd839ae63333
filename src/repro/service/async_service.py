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

from repro.certify.templates import Bindings, UpdateTemplate
from repro.constraints.model import ConstraintSet, UpdateConstraint, constraint_set
from repro.errors import ServiceError
from repro.obs import registry as _obs_registry
from repro.service.protocol import (
    CertifiedSubmit,
    ImplicationQuery,
    InstanceQuery,
    MetricsRequest,
    RegisterConstraints,
    RegisterDocument,
    RegisterTemplate,
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


class RequestMethods:
    """One protocol request per convenience, on top of ``request()``.

    Shared by :class:`AsyncService` and the socket client
    (:class:`~repro.server.client.ReproClient`), so the two fronts build
    every request the same way; each only defines how one request is
    sent and its response awaited.
    """

    async def request(self, request: Request) -> Response:
        raise NotImplementedError

    async def register_document(self, name: str, tree: DataTree, *,
                                replace: bool = False) -> Response:
        return await self.request(RegisterDocument(name, tree,
                                                   replace=replace))

    async def register_constraints(self, name: str,
                                   constraints: ConstraintSet | Iterable, *,
                                   replace: bool = False) -> Response:
        if not isinstance(constraints, ConstraintSet):
            constraints = constraint_set(*constraints)
        return await self.request(RegisterConstraints(
            name, tuple(constraints), replace=replace))

    async def register_template(self, name: str, template: UpdateTemplate,
                                constraints: str, *,
                                replace: bool = False) -> Response:
        """Certify-and-register an update template against a named set.

        The :class:`~repro.service.protocol.Ack` carries the verdict in
        ``stats`` (``certify.certified`` is 1 iff the template may be
        submitted through :meth:`certified_submit`).
        """
        return await self.request(RegisterTemplate(name, template,
                                                   constraints,
                                                   replace=replace))

    async def implies(self, constraints: str,
                      conclusions: Sequence[UpdateConstraint], *,
                      fail_fast: bool = False,
                      require_decision: bool = False) -> Response:
        return await self.request(ImplicationQuery(
            constraints, tuple(conclusions), fail_fast=fail_fast,
            require_decision=require_decision))

    async def implies_on(self, constraints: str, document: str,
                         conclusions: Sequence[UpdateConstraint], *,
                         fail_fast: bool = False,
                         require_decision: bool = False,
                         max_moves: int = 2,
                         search_budget: int = 5000) -> Response:
        return await self.request(InstanceQuery(
            constraints, document, tuple(conclusions), fail_fast=fail_fast,
            require_decision=require_decision, max_moves=max_moves,
            search_budget=search_budget))

    async def enforce(self, document: str, constraints: str,
                      ops: Sequence[StreamOp]) -> Response:
        """Submit a log slice; resolves to its :class:`StreamDecisions`."""
        return await self.request(StreamSubmit(document, constraints,
                                               tuple(ops)))

    async def apply(self, document: str, constraints: str,
                    op: StreamOp) -> WireDecision:
        """Submit one operation; resolves to its single decision."""
        response = await self.enforce(document, constraints, (op,))
        if not isinstance(response, StreamDecisions):
            raise ServiceError(f"{response.to_dict()}")
        return response.decisions[0]

    async def certified_submit(self, document: str, constraints: str,
                               template: str,
                               bindings: Bindings) -> Response:
        """Run one certified-template instantiation on the hot path."""
        return await self.request(CertifiedSubmit(
            document, constraints, template,
            tuple(sorted(dict(bindings).items()))))

    async def status(self, document: str) -> Response:
        """Where the document's stream stands (after every earlier edit)."""
        return await self.request(StreamStatus(document))

    async def metrics(self) -> Response:
        """The live introspection snapshot.

        The socket server serves it inline — before its backpressure
        gate and ahead of the requests still waiting to run — so it
        answers even while the server is overloaded or draining.
        """
        return await self.request(MetricsRequest())


class AsyncService(RequestMethods):
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

    def __repr__(self) -> str:
        return f"AsyncService({self._service!r})"


__all__ = ["AsyncService", "RequestMethods"]
