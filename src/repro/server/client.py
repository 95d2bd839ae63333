"""The asyncio client of a :class:`~repro.server.server.ReproServer`.

A :class:`ReproClient` speaks the CRC-framed envelope protocol: one
handshake frame, then ``{"id": n, "body": ...}`` envelopes with
client-chosen ids.  A background reader task resolves pending futures as
response frames arrive, so a client can pipeline requests (submit many,
``await asyncio.gather``) and still match every response to its request
by id.  The server runs requests in submission order; only a ``metrics``
request is answered ahead of the requests sent before it.

>>> import asyncio
>>> from repro import DataTree
>>> from repro.server import ReproServer, ReproClient
>>> async def main():
...     async with ReproServer() as server:
...         host, port = server.address
...         client = await ReproClient.connect(host, port)
...         doc = DataTree()
...         _ = doc.add_child(doc.root, "patient")
...         ack = await client.register_document("ward", doc)
...         await client.close()
...         return ack.to_dict()["size"]
>>> asyncio.run(main())
2
"""

from __future__ import annotations

import asyncio

from repro.errors import ServerError
from repro.obs import new_trace_id, trace_id
from repro.server.framing import read_frame, write_frame
from repro.service.async_service import RequestMethods
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Request,
    Response,
    response_from_dict,
)


class ReproClient(RequestMethods):
    """One connection to a repro server; safe to pipeline from one task.

    The request conveniences (:meth:`register_document`, :meth:`enforce`,
    :meth:`status`, :meth:`metrics`, …) come from
    :class:`~repro.service.async_service.RequestMethods`, shared with
    :class:`~repro.service.async_service.AsyncService`.
    """

    def __init__(self, reader: asyncio.StreamReader,
                 writer: asyncio.StreamWriter):
        self._reader = reader
        self._writer = writer
        self._next_id = 1
        self._pending: dict[int, asyncio.Future] = {}
        self._reader_task: asyncio.Task | None = None
        self._closed = False
        self._stopped: BaseException | None = None  # why the reader ended

    @classmethod
    async def connect(cls, host: str, port: int) -> "ReproClient":
        """Dial, handshake, and start the response reader."""
        reader, writer = await asyncio.open_connection(host, port)
        await write_frame(writer, {"hello": {"protocol": PROTOCOL_VERSION}})
        frame = await read_frame(reader)
        if frame is None:
            writer.close()
            raise ServerError("the server hung up during the handshake")
        if "hello" not in frame:
            writer.close()
            error = frame.get("error", {})
            raise ServerError(error.get("message",
                                        f"handshake refused: {frame!r}"))
        client = cls(reader, writer)
        client._reader_task = asyncio.get_running_loop().create_task(
            client._read_responses())
        return client

    async def _read_responses(self) -> None:
        """Resolve pending futures as response envelopes arrive; a frame
        that does not decode fails only its own request."""
        try:
            while True:
                frame = await read_frame(self._reader)
                if frame is None:
                    error = ServerError("the server closed the connection")
                    break
                envelope_id = frame.get("id")
                future = (self._pending.pop(envelope_id, None)
                          if isinstance(envelope_id, int) else None)
                if future is None or future.done():
                    continue  # not an id of ours: nothing waits for it
                try:
                    future.set_result(response_from_dict(frame["body"]))
                except Exception as err:
                    future.set_exception(ServerError(
                        f"the response does not decode: {err}"))
        except asyncio.CancelledError:
            error = ServerError("the client is closed")
        except Exception as err:
            error = err
        self._stopped = error
        for future in self._pending.values():
            if not future.done():
                future.set_exception(error)
        self._pending.clear()

    # ------------------------------------------------------------------
    # Requests
    # ------------------------------------------------------------------
    async def request(self, request: Request, *,
                      trace: str | None = None) -> Response:
        """Send one request and await its (id-matched) response."""
        future = await self.submit(request, trace=trace)
        return await future

    async def submit(self, request: Request, *,
                     trace: str | None = None
                     ) -> "asyncio.Future[Response]":
        """Send one request; the future resolves when its response lands.

        Unlike :meth:`request` this returns as soon as the frame is on
        the wire, so a caller can pipeline a batch and gather the
        futures.  Every envelope carries a trace id the server installs
        around execution and echoes on the response: ``trace`` when
        given, else the caller's ambient :func:`~repro.obs.trace_id`,
        else a fresh :func:`~repro.obs.new_trace_id`.
        """
        if self._closed:
            raise ServerError("the client is closed")
        if self._stopped is not None:
            raise ServerError(f"the connection is gone: {self._stopped}")
        envelope_id = self._next_id
        self._next_id += 1
        if trace is None:
            trace = trace_id() or new_trace_id()
        future: asyncio.Future[Response] = (
            asyncio.get_running_loop().create_future())
        self._pending[envelope_id] = future
        try:
            # write() queues the whole frame at once, so concurrent
            # submits never interleave bytes; their drains may overlap.
            await write_frame(self._writer, {"id": envelope_id,
                                             "body": request.to_dict(),
                                             "trace": trace})
        except (ConnectionError, RuntimeError) as err:
            self._pending.pop(envelope_id, None)
            raise ServerError(f"the connection is gone: {err}") from None
        return future

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def close(self) -> None:
        """Hang up; outstanding futures fail with :class:`ServerError`."""
        if self._closed:
            return
        self._closed = True
        if self._reader_task is not None:
            self._reader_task.cancel()
            try:
                await self._reader_task
            except asyncio.CancelledError:
                pass
        self._writer.close()
        try:
            await self._writer.wait_closed()
        except (ConnectionError, RuntimeError):
            pass

    async def __aenter__(self) -> "ReproClient":
        return self

    async def __aexit__(self, *exc) -> None:
        await self.close()

    def __repr__(self) -> str:
        state = "closed" if self._closed else "connected"
        return f"ReproClient({state}, {len(self._pending)} pending)"


__all__ = ["ReproClient"]
