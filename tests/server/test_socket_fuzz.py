"""Fuzzing the socket: every mutated envelope is answered, none kills it.

The byte-boundary fuzzer's mutations (``tests/service/test_wire_fuzz.py``:
a key dropped, a value replaced by another JSON type, a value wrapped in
a list) go to a live :class:`ReproServer` as framed envelopes.  Each kind
gets its own freshly seeded server and one connection, on which every
single mutation of that kind's valid request is pipelined; then the
envelope's own ``id``, ``trace`` and ``body`` keys are mutated, one frame
at a time.  Whatever comes in:

* every frame gets exactly one reply, echoing its id (and its trace when
  the trace is a string);
* no reply carries ``details.internal`` — nothing reached a handler bug;
* afterwards the connection still answers a valid ``stream-status``.
"""

from __future__ import annotations

import asyncio
import sys
from pathlib import Path

import pytest

from repro.server import ReproServer
from repro.server.framing import encode_record, read_frame, write_frame
from repro.service.async_service import AsyncService
from repro.service.protocol import PROTOCOL_VERSION

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "service"))
from test_wire_fuzz import (  # noqa: E402  (the byte-boundary fuzzer)
    VALID,
    mutate,
    mutations,
    paths,
    seeded,
)

#: Longest wait for any one reply; a missing reply fails, never hangs.
REPLY_TIMEOUT = 10.0


async def reply_to(reader: asyncio.StreamReader) -> dict:
    frame = await asyncio.wait_for(read_frame(reader), REPLY_TIMEOUT)
    assert frame is not None, "the server dropped the connection"
    details = frame["body"].get("details")
    assert not (isinstance(details, dict) and details.get("internal")), frame
    return frame


def envelopes(request: dict) -> list[dict]:
    """The request's envelope with its own keys mutated, one at a time."""
    envelope = {"id": 0, "trace": "fuzz", "body": request}
    return [mutate(envelope, (key,), how)
            for key in ("id", "trace", "body")
            for how in mutations((key,))]


async def fuzz(request: dict) -> None:
    # Pipelined mutations must not meet the overload refusal instead.
    server = ReproServer(AsyncService(seeded()), max_inflight=10_000)
    await server.start()
    reader, writer = await asyncio.open_connection(*server.address)
    try:
        await write_frame(writer, {"hello": {"protocol": PROTOCOL_VERSION}})
        assert "hello" in await read_frame(reader)
        bodies = [mutate(request, at, how)
                  for at in list(paths(request)) for how in mutations(at)]
        for n, body in enumerate(bodies, start=1):
            writer.write(encode_record({"id": n, "trace": f"t{n}",
                                        "body": body}))
        await writer.drain()
        replies = [await reply_to(reader) for _ in bodies]
        assert sorted(frame["id"] for frame in replies) == \
            list(range(1, len(bodies) + 1))
        assert all(frame["trace"] == f"t{frame['id']}" for frame in replies)
        for envelope in envelopes(request):
            await write_frame(writer, envelope)
            frame = await reply_to(reader)
            assert frame["id"] == envelope.get("id"), (envelope, frame)
            trace = envelope.get("trace")
            assert frame.get("trace") == (
                trace if isinstance(trace, str) else None), (envelope, frame)
        await write_frame(writer, {"id": -1, "body": {
            "request": "stream-status", "document": "d"}})
        frame = await reply_to(reader)
        assert frame["id"] == -1 and frame["body"]["response"] == "ack", frame
    finally:
        writer.close()
        await writer.wait_closed()
        await server.close()


@pytest.mark.parametrize("request_", VALID, ids=[r["request"] for r in VALID])
def test_every_mutated_frame_is_answered_once(request_):
    asyncio.run(fuzz(request_))
