"""The durable socket front end: a length-prefixed wire over AsyncService.

A :class:`ReproServer` listens on a TCP socket and serves the whole
request protocol of :mod:`repro.service.protocol` over CRC-framed JSON
frames (:mod:`repro.server.framing`).  Each connection starts with a
one-frame handshake (``{"hello": {"protocol": N}}`` both ways; a version
mismatch is answered and the connection closed), then carries envelopes::

    {"id": 7, "body": {"request": "stream-submit", ...}}
    {"id": 7, "body": {"response": "decisions", ...}}

Envelope ids are chosen by the client and echoed back, so a client may
pipeline requests and match responses by id.  Requests run in submission
order — the order the server decodes their frames — through
:class:`~repro.service.async_service.AsyncService`, which serves each
one as it is submitted; only the ``metrics`` request is answered ahead
of requests decoded before it.

Robustness contract, pinned by ``tests/server``:

* **per-request timeout** — a request whose response is still pending
  after ``request_timeout`` is answered with a typed
  :class:`~repro.service.protocol.ErrorResponse` (the work itself is
  shielded, not cancelled: a mutating submission must never be torn).
  The stock service resolves every request as it is submitted, so only
  a service that defers its work ever waits;
* **bounded backpressure** — at most ``max_inflight`` requests execute
  at once; excess requests are refused immediately with an
  ``ErrorResponse`` rather than queued without bound;
* **no silent failure** — a request whose decoding or handling raises
  anything but a :class:`~repro.errors.ReproError` is still answered
  (and its connection kept), with a typed
  ``ErrorResponse`` (``details={"internal": True}``), logged and counted
  in ``server.internal_errors_total``;
* **graceful shutdown** — :meth:`close` stops accepting, lets every
  in-flight request finish and write its response, flushes the journal
  and only then closes the transports; :meth:`abort` is the
  opposite on purpose — it drops everything on the floor, simulating
  ``kill -9`` for the crash-recovery tests;
* **durability** — with a :class:`~repro.server.journal.ServerJournal`
  attached (:meth:`durable`), every acknowledged registration and
  stream submission is journaled and fsync'd *before* its response
  frame is written, so an acknowledged op survives any later crash and
  :meth:`durable` on the same directory reconverges on the exact
  pre-crash state.
"""

from __future__ import annotations

import asyncio
import logging
from pathlib import Path
from time import perf_counter

from repro.errors import ReproError, ServerError
from repro.obs import registry as _obs_registry, tracing
from repro.obs.registry import Counter, Histogram
from repro.server.framing import read_frame, write_frame
from repro.server.journal import RecoveryReport, ServerJournal
from repro.service.async_service import AsyncService
from repro.service.protocol import (
    PROTOCOL_VERSION,
    ErrorResponse,
    request_from_dict,
)
from repro.service.service import ConstraintService
from repro.service.store import DocumentStore

_logger = logging.getLogger("repro.server")


class ReproServer:
    """One listening socket in front of an :class:`AsyncService`."""

    def __init__(self, service: AsyncService | None = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 journal: ServerJournal | None = None,
                 request_timeout: float | None = 30.0,
                 max_inflight: int = 256):
        self._service = service if service is not None else AsyncService()
        self._host = host
        self._port = port
        self._journal = journal
        self.request_timeout = request_timeout
        self.max_inflight = max(1, max_inflight)
        self._server: asyncio.base_events.Server | None = None
        self._inflight = 0
        self._requests: set[asyncio.Task] = set()
        self._connections: set[asyncio.Task] = set()
        self._writers: set[asyncio.StreamWriter] = set()
        self._closing = False
        self.recovery: RecoveryReport | None = None
        self._overloads = 0  # monotone over this server's lifetime
        m = _obs_registry()
        self._metrics = m
        self._m_inflight = m.gauge("server.inflight_requests")
        self._m_connections = m.counter("server.connections_total")
        self._m_handshakes = m.counter("server.handshakes_total")
        self._m_handshake_failures = m.counter(
            "server.handshake_failures_total")
        self._m_frame_errors = m.counter("server.frame_errors_total")
        self._m_timeouts = m.counter("server.timeouts_total")
        self._m_overloads = m.counter("server.overload_total")
        self._m_internal_errors = m.counter("server.internal_errors_total")
        # Per-kind (requests_total, request_seconds) pairs, resolved on a
        # kind's first request and held, never looked up per request.
        self._m_by_kind: dict[str, tuple[Counter, Histogram]] = {}

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def durable(cls, journal_root: str | Path, *,
                fsync: bool = True, checkpoint_every: int = 256,
                faults=None, **kwargs) -> "ReproServer":
        """A server whose whole state lives under ``journal_root``.

        Recovers whatever a previous process left there (journals are
        replayed, checkpoints restored, torn tails truncated — see
        :meth:`~repro.server.journal.ServerJournal.recover`), attaches
        the journal for write-through, and reports what it found in
        :attr:`recovery`.
        """
        store = DocumentStore()
        journal = ServerJournal(journal_root, fsync=fsync,
                                checkpoint_every=checkpoint_every,
                                faults=faults)
        report = journal.recover(store)
        store.attach_journal(journal)
        service = AsyncService(ConstraintService(store=store))
        server = cls(service, journal=journal, **kwargs)
        server.recovery = report
        server._publish_recovery(report)
        return server

    def _publish_recovery(self, report: RecoveryReport) -> None:
        """Mirror the last :class:`RecoveryReport` as ``recovery.*`` gauges."""
        m = self._metrics
        m.gauge("recovery.documents").set(len(report.documents))
        m.gauge("recovery.constraint_sets").set(len(report.constraint_sets))
        m.gauge("recovery.records_replayed").set(report.records_replayed)
        m.gauge("recovery.decisions_replayed").set(report.decisions_replayed)
        m.gauge("recovery.checkpoints_used").set(len(report.checkpoints_used))
        m.gauge("recovery.torn_tails").set(len(report.torn_tails))

    @property
    def service(self) -> AsyncService:
        return self._service

    @property
    def journal(self) -> ServerJournal | None:
        return self._journal

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (the OS picks the port when 0)."""
        if self._server is None:
            raise ServerError("the server is not listening (call start())")
        return self._server.sockets[0].getsockname()[:2]

    @property
    def inflight(self) -> int:
        """Requests currently executing (the backpressure gauge)."""
        return self._inflight

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound address."""
        if self._server is not None:
            raise ServerError("the server is already listening")
        self._closing = False
        self._server = await asyncio.start_server(
            self._on_connect, self._host, self._port)
        return self.address

    async def close(self) -> None:
        """Graceful shutdown: drain in-flight work, flush, then close.

        New connections are refused and connection readers stop, but
        every request already decoded runs to completion (its response
        is still written when the transport survives), and the journal
        is flushed and closed — the on-disk state is clean, with no torn
        tail.
        """
        self._closing = True
        server = self._stop_listening()
        for task in list(self._connections):
            task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._requests:
            await asyncio.gather(*self._requests, return_exceptions=True)
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()
        if server is not None:
            await server.wait_closed()
        await self._service.close()
        if self._journal is not None:
            self._journal.close()

    async def abort(self) -> None:
        """Simulated ``kill -9``: drop connections and in-flight work.

        Nothing is drained, responded to, fsync'd or checkpointed; the
        journal files are let go as the operating system lets go of a
        dead process's (:meth:`ServerJournal.abandon`).  The recovery
        tests restart from the same directory and must reconverge on
        every acknowledged operation.
        """
        self._closing = True
        server = self._stop_listening()
        for task in list(self._connections) + list(self._requests):
            task.cancel()
        await asyncio.gather(*self._connections, *self._requests,
                             return_exceptions=True)
        for writer in list(self._writers):
            writer.transport.abort()
        self._writers.clear()
        if server is not None:
            await server.wait_closed()
        # Deliberately no journal.close() (it would fsync): the process
        # just "died".
        if self._journal is not None:
            self._journal.abandon()

    def _stop_listening(self) -> asyncio.Server | None:
        """Refuse new connections; returns the server to wait on.

        Its ``wait_closed()`` must come after the accepted connections
        are closed: from Python 3.12.1 on it also waits for every one of
        them, so awaiting it first would never return.
        """
        server, self._server = self._server, None
        if server is not None:
            server.close()
        return server

    async def __aenter__(self) -> "ReproServer":
        await self.start()
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _on_connect(self, reader: asyncio.StreamReader,
                          writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections.add(task)
        self._writers.add(writer)
        self._m_connections.inc()
        lock = asyncio.Lock()  # response frames must not interleave
        try:
            if not await self._handshake(reader, writer):
                return
            while not self._closing:
                try:
                    frame = await read_frame(reader)
                except ServerError as err:
                    # Desynchronised stream: one best-effort error frame,
                    # then drop the connection (no id to echo).
                    self._m_frame_errors.inc()
                    await self._send(writer, lock, None, ErrorResponse(
                        error="ServerError", message=str(err)))
                    break
                if frame is None:
                    break  # clean EOF, or the peer vanished mid-frame
                envelope_id = frame.get("id")
                raw_trace = frame.get("trace")
                trace = raw_trace if isinstance(raw_trace, str) else None
                body = frame.get("body")
                if not isinstance(body, dict):
                    self._m_frame_errors.inc()
                    await self._send(writer, lock, envelope_id, ErrorResponse(
                        error="ServerError",
                        message="envelope must carry a 'body' object"),
                        trace=trace)
                    continue
                if body.get("request") == "metrics":
                    # Introspection must stay answerable under load: serve
                    # the snapshot inline, before the backpressure gate and
                    # ahead of the requests still waiting to be served.
                    with tracing(trace):
                        snapshot = self._service.service.metrics_snapshot()
                    await self._send(writer, lock, envelope_id, snapshot,
                                     trace=trace)
                    continue
                if self._inflight >= self.max_inflight:
                    self._overloads += 1
                    self._m_overloads.inc()
                    await self._send(writer, lock, envelope_id, ErrorResponse(
                        error="ServerError",
                        message=f"server overloaded: {self._inflight} "
                                f"request(s) in flight (limit "
                                f"{self.max_inflight}); retry later",
                        details={"inflight": self._inflight,
                                 "limit": self.max_inflight,
                                 "overload_total": self._overloads}),
                        trace=trace)
                    continue
                try:
                    request = request_from_dict(body)
                except ReproError as err:
                    self._m_frame_errors.inc()
                    await self._send(writer, lock, envelope_id, ErrorResponse(
                        error=type(err).__name__, message=str(err)),
                        trace=trace)
                    continue
                except Exception as err:
                    # A decoder bug must not kill the connection (requests
                    # pipelined behind it would only see EOF): answer it
                    # exactly as _serve answers a handler bug.
                    self._m_internal_errors.inc()
                    _logger.error("internal error decoding a %r request",
                                  body.get("request"), exc_info=err)
                    await self._send(writer, lock, envelope_id, ErrorResponse(
                        error=type(err).__name__,
                        message=f"internal error while decoding the "
                                f"request: {err}",
                        details={"internal": True}), trace=trace)
                    continue
                self._inflight += 1
                self._m_inflight.set(self._inflight)
                serve = asyncio.get_running_loop().create_task(
                    self._serve(envelope_id, request, writer, lock, trace))
                self._requests.add(serve)
                serve.add_done_callback(self._requests.discard)
        except asyncio.CancelledError:
            pass  # close()/abort() cancelled the reader
        except ConnectionError:
            pass
        finally:
            self._connections.discard(task)
            self._writers.discard(writer)
            writer.close()

    async def _handshake(self, reader: asyncio.StreamReader,
                         writer: asyncio.StreamWriter) -> bool:
        try:
            frame = await read_frame(reader)
        except ServerError:
            self._m_handshake_failures.inc()
            return False
        if frame is None:
            self._m_handshake_failures.inc()
            return False
        hello = frame.get("hello")
        version = hello.get("protocol") if isinstance(hello, dict) else None
        if version != PROTOCOL_VERSION:
            self._m_handshake_failures.inc()
            try:
                await write_frame(writer, {"error": {
                    "error": "ServerError",
                    "message": f"protocol version mismatch: server speaks "
                               f"{PROTOCOL_VERSION}, client sent "
                               f"{version!r}"}})
            except ConnectionError:
                pass
            return False
        try:
            await write_frame(writer, {"hello": {
                "protocol": PROTOCOL_VERSION, "server": "repro"}})
        except ConnectionError:
            self._m_handshake_failures.inc()
            return False
        self._m_handshakes.inc()
        return True

    async def _serve(self, envelope_id, request, writer, lock,
                     trace=None) -> None:
        """Execute one request and write its response envelope."""
        started = perf_counter()
        try:
            try:
                with tracing(trace):
                    future = self._service.submit(request)
                if not future.done():
                    # A service that defers its work: shield() it, since a
                    # timed-out mutating request must finish server-side
                    # (it may already be journaled); only the *wait* is
                    # bounded, and the client learns it timed out.
                    await asyncio.wait_for(asyncio.shield(future),
                                           self.request_timeout)
                response = future.result()
            except asyncio.TimeoutError:
                self._m_timeouts.inc()
                response = ErrorResponse(
                    error="TimeoutError",
                    message=f"request did not complete within "
                            f"{self.request_timeout}s (it keeps executing "
                            f"server-side; reconcile with stream-status)")
            except ReproError as err:
                response = ErrorResponse(error=type(err).__name__,
                                         message=str(err))
            except Exception as err:
                # A handler bug must not kill this task silently: the
                # client would wait forever for its response.
                self._m_internal_errors.inc()
                _logger.error("internal error serving a %r request",
                              request.kind, exc_info=err)
                response = ErrorResponse(
                    error=type(err).__name__,
                    message=f"internal error while serving the request: "
                            f"{err}",
                    details={"internal": True})
        finally:
            self._inflight -= 1
            self._m_inflight.set(self._inflight)
            instruments = self._m_by_kind.get(request.kind)
            if instruments is None:
                instruments = self._m_by_kind[request.kind] = (
                    self._metrics.counter("server.requests_total",
                                          kind=request.kind),
                    self._metrics.histogram("server.request_seconds",
                                            kind=request.kind))
            instruments[0].inc()
            instruments[1].observe(perf_counter() - started)
        await self._send(writer, lock, envelope_id, response, trace=trace)

    async def _send(self, writer, lock, envelope_id, response,
                    trace=None) -> None:
        envelope = {"id": envelope_id, "body": response.to_dict()}
        if trace is not None:
            envelope["trace"] = trace
        try:
            async with lock:
                await write_frame(writer, envelope)
        except (ConnectionError, RuntimeError):
            pass  # the peer is gone; the work (and journal) still stand

    def __repr__(self) -> str:
        state = "listening" if self._server is not None else "stopped"
        durable = ", durable" if self._journal is not None else ""
        return (f"ReproServer({state}, {self._inflight} in flight"
                f"{durable})")


__all__ = ["ReproServer"]
