"""Per-layer spans for the traced run, recorded from the benchmark's side.

:meth:`Tracer.installed` swaps the functions each layer exposes for
timing wrappers and puts the originals back on exit; nothing in the
package changes.  Every span is keyed by the request's trace id, which
already rides each envelope: the client draws it (captured here through
``new_trace_id``), the server installs it around execution, and echoes
it on the response frame.

Spans (trace, layer, start, end) are kept in memory and reduced when the
run ends.  A layer's self time is its span minus the spans of the layers
it calls; ``trace.unattributed_frac`` is the share of client-observed
request time that no span covers (event-loop hops, socket buffers).
"""

from __future__ import annotations

import asyncio
import statistics
from collections import defaultdict
from contextlib import contextmanager
from contextvars import ContextVar
from functools import partial
from time import perf_counter

import repro.server.client as client_module
import repro.server.server as server_module
from repro.api.session import BoundReasoner, Reasoner
from repro.obs import registry, trace_id
from repro.server.client import ReproClient
from repro.server.framing import HEADER, encode_payload
from repro.server.journal import ServerJournal
from repro.server.server import ReproServer
from repro.service.async_service import AsyncService
from repro.service.service import ConstraintService
from repro.service.store import DocumentStore
from repro.stream.engine import StreamEnforcer

#: The trace id the client drew for the caller's last request.
SENT_TRACE: ContextVar[str | None] = ContextVar("perfbench_sent_trace",
                                                default=None)

#: Layers ``ConstraintService.handle`` calls into (excluded from its self time).
HANDLE_CHILDREN = ("stream.apply", "journal.append", "api.bind",
                   "api.implies", "api.instance")
#: One response frame in this many is re-encoded to measure its size.
FRAME_SAMPLE = 16


def _median_us(values: list[float]) -> float:
    """Median in microseconds; 0.0 when the layer never ran."""
    return statistics.median(values) * 1e6 if values else 0.0


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = float("-inf")
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        total += end - max(start, reach)
        reach = end
    return total


class Tracer:
    """Span recorder for the traced slices of one measurement."""

    def __init__(self) -> None:
        self.spans: list[tuple[str | None, str, float, float]] = []
        #: ``(trace, sent, done)`` per traced request, from the caller.
        self.walls: list[tuple[str | None, float, float]] = []
        self.frame_bytes: list[int] = []
        self.inflight_max = 0
        self.depth_max = 0
        self.completed = 0
        self.elapsed = 0.0
        self._queued: dict[str | None, float] = {}
        self._handled: dict[str | None, float] = {}
        self._server_trace: str | None = None
        self._client_trace: str | None = None
        self._frames = 0

    @contextmanager
    def installed(self):
        """Wrap every layer's entry points for the duration of the block."""
        patches = self._patches()
        saved = [(owner, name, getattr(owner, name))
                 for owner, name, _ in patches]
        try:
            for owner, name, wrapper in patches:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def _patches(self) -> list[tuple[object, str, object]]:
        record = self.spans.append
        now = perf_counter
        depth = registry().gauge("service.queue_depth")

        def timed(fn, layer):
            def wrapper(*args, **kwargs):
                start = now()
                try:
                    return fn(*args, **kwargs)
                finally:
                    record((trace_id(), layer, start, now()))
            return wrapper

        def read_start(reader, called: float) -> float:
            # A read that had to wait starts when its bytes arrived.
            return max(called, getattr(reader, "_perfbench_fed", called))

        feed_data = asyncio.StreamReader.feed_data

        def stamped_feed(reader, data):
            reader._perfbench_fed = now()
            feed_data(reader, data)

        new_trace_id = client_module.new_trace_id

        def captured_trace_id():
            trace = new_trace_id()
            SENT_TRACE.set(trace)
            return trace

        submit = ReproClient.submit

        async def client_send(client, request, *, trace=None):
            start = now()
            future = await submit(client, request, trace=trace)
            record((SENT_TRACE.get(), "client.send", start, now()))
            return future

        client_read_frame = client_module.read_frame

        async def client_read(reader):
            called = now()
            frame = await client_read_frame(reader)
            if frame is not None:
                self._client_trace = frame.get("trace")
                record((self._client_trace, "client.read",
                        read_start(reader, called), now()))
            return frame

        response_from_dict = client_module.response_from_dict

        def client_decode(body):
            start = now()
            response = response_from_dict(body)
            record((self._client_trace, "client.decode", start, now()))
            return response

        server_read_frame = server_module.read_frame

        async def server_read(reader):
            called = now()
            frame = await server_read_frame(reader)
            if frame is not None and "trace" in frame:
                self._server_trace = frame["trace"]
                record((self._server_trace, "framing.read",
                        read_start(reader, called), now()))
            return frame

        request_from_dict = server_module.request_from_dict

        def server_decode(body):
            start = now()
            request = request_from_dict(body)
            record((self._server_trace, "protocol.decode", start, now()))
            return request

        serve = ReproServer._serve

        async def server_serve(server, envelope_id, request, writer, lock,
                               trace=None):
            start = now()
            self.inflight_max = max(self.inflight_max, server.inflight)
            await serve(server, envelope_id, request, writer, lock, trace)
            record((trace, "server.serve", start, now()))

        send = ReproServer._send

        async def server_send(server, writer, lock, envelope_id, response,
                              trace=None):
            start = now()
            await send(server, writer, lock, envelope_id, response,
                       trace=trace)
            record((trace, "server.send", start, now()))

        write_frame = server_module.write_frame

        async def server_write(writer, data):
            start = now()
            await write_frame(writer, data)
            trace = data.get("trace")
            if trace is None:
                return
            record((trace, "framing.write", start, now()))
            self._frames += 1
            if self._frames % FRAME_SAMPLE == 0:
                self.frame_bytes.append(HEADER.size +
                                        len(encode_payload(data)))

        async_submit = AsyncService.submit

        def resumed(trace, _future):
            # Scheduled before the awaiting server task's wake-up, so this
            # is when the finished request gets the event loop back.
            at = now()
            record((trace, "async.resume", self._handled.pop(trace, at), at))

        def queue(service, request):
            future = async_submit(service, request)
            trace = trace_id()
            self._queued[trace] = now()
            future.add_done_callback(partial(resumed, trace))
            self.depth_max = max(self.depth_max, int(depth.value))
            return future

        handle = ConstraintService.handle

        def service_handle(service, request):
            trace = trace_id()
            start = now()
            try:
                return handle(service, request)
            finally:
                end = self._handled[trace] = now()
                record((trace, "service.handle", start, end))
                queued = self._queued.pop(trace, None)
                if queued is not None:
                    record((trace, "async.queue_wait", queued, start))

        return [
            (asyncio.StreamReader, "feed_data", stamped_feed),
            (client_module, "new_trace_id", captured_trace_id),
            (ReproClient, "submit", client_send),
            (client_module, "read_frame", client_read),
            (client_module, "response_from_dict", client_decode),
            (server_module, "read_frame", server_read),
            (server_module, "request_from_dict", server_decode),
            (ReproServer, "_serve", server_serve),
            (ReproServer, "_send", server_send),
            (server_module, "write_frame", server_write),
            (AsyncService, "submit", queue),
            (ConstraintService, "handle", service_handle),
            (StreamEnforcer, "apply", timed(StreamEnforcer.apply,
                                            "stream.apply")),
            (ServerJournal, "stream_submitted",
             timed(ServerJournal.stream_submitted, "journal.append")),
            (DocumentStore, "binding", timed(DocumentStore.binding,
                                             "api.bind")),
            (Reasoner, "implies_all", timed(Reasoner.implies_all,
                                            "api.implies")),
            (BoundReasoner, "implies_all", timed(BoundReasoner.implies_all,
                                                 "api.instance")),
        ]

    def layers(self) -> dict[str, float]:
        """Per-layer medians (µs per call) and the waterfall's closure."""
        by_trace: dict = defaultdict(list)
        calls: dict = defaultdict(list)
        for trace, layer, start, end in self.spans:
            by_trace[trace].append((layer, start, end))
            calls[layer].append(end - start)
        derived: dict = defaultdict(list)
        for spans in by_trace.values():
            total: dict = defaultdict(float)
            for layer, start, end in spans:
                total[layer] += end - start
            if "server.serve" in total:
                derived["server.self"].append(
                    total["server.serve"] - total["async.queue_wait"]
                    - total["service.handle"] - total["async.resume"]
                    - total["server.send"])
            if "server.send" in total:
                derived["protocol.encode"].append(
                    total["server.send"] - total["framing.write"])
            if "service.handle" in total:
                derived["service.handle_self"].append(
                    total["service.handle"]
                    - sum(total[child] for child in HANDLE_CHILDREN))
            if "client.read" in total:
                derived["client.recv"].append(
                    total["client.read"] + total["client.decode"])
        wall = covered = 0.0
        for trace, sent, done in self.walls:
            wall += done - sent
            covered += _covered([
                (max(sent, start), min(done, end))
                for _, start, end in by_trace.get(trace, ())
                if min(done, end) > max(sent, start)])
        return {
            "client.send_us": _median_us(calls["client.send"]),
            "client.recv_us": _median_us(derived["client.recv"]),
            "framing.read_us": _median_us(calls["framing.read"]),
            "framing.write_us": _median_us(calls["framing.write"]),
            "framing.frame_bytes": (statistics.median(self.frame_bytes)
                                    if self.frame_bytes else 0.0),
            "protocol.decode_us": _median_us(calls["protocol.decode"]),
            "protocol.encode_us": _median_us(derived["protocol.encode"]),
            "server.self_us": _median_us(derived["server.self"]),
            "server.inflight_max": self.inflight_max,
            "async.queue_wait_us": _median_us(calls["async.queue_wait"]),
            "async.resume_us": _median_us(calls["async.resume"]),
            "async.queue_depth_max": self.depth_max,
            "service.handle_self_us": _median_us(
                derived["service.handle_self"]),
            "stream.apply_us": _median_us(calls["stream.apply"]),
            "journal.append_us": _median_us(calls["journal.append"]),
            "api.implies_us": _median_us(calls["api.implies"]),
            "api.bind_us": _median_us(calls["api.bind"]),
            "api.instance_us": _median_us(calls["api.instance"]),
            "trace.unattributed_frac": 1 - covered / wall if wall else 0.0,
        }


__all__ = ["SENT_TRACE", "Tracer"]
