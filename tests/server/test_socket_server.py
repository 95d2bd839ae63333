"""The socket front end: handshake, envelopes, robustness, durability.

The acceptance test of the server PR lives here: multiple concurrent
clients over a real socket, a ``kill -9`` (transport-level abort, journal
left exactly as the last fsync left it), and a restart that reconverges
on every acknowledged operation.  Around it, the wire-level robustness
contract — version-checked handshake, typed errors for malformed frames
and unknown kinds, per-request timeouts, bounded backpressure, graceful
shutdown draining in-flight work.

No ``pytest-asyncio`` in the toolchain: each test drives its own loop
with ``asyncio.run``.
"""

from __future__ import annotations

import asyncio
import json
import socket
import zlib

import pytest

from repro.certify import LabelHole, NodeHole, TemplateAdd, UpdateTemplate
from repro.constraints import constraint_set, no_insert
from repro.errors import ServerError
from repro.server import ReproClient, ReproServer, ServerJournal
from repro.server.framing import HEADER, encode_record, read_frame, write_frame
from repro.service.async_service import AsyncService
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Ack,
    ErrorResponse,
    ImplicationQuery,
    StreamStatus,
    StreamSubmit,
    response_checksum,
)
from repro.service.service import ConstraintService
from repro.service.store import DocumentStore
from repro.stream.ops import AddLeaf, Begin, Commit, RemoveSubtree, Rollback
from repro.trees.tree import DataTree
from repro.xpath.parser import parse

POLICY = constraint_set(("/patient[/clinicalTrial]", "up"),
                        ("/patient[/visit]", "down"))


ANNOTATE = UpdateTemplate("annotate", (
    TemplateAdd(NodeHole("p", parse("//patient")),
                LabelHole("l", frozenset({"note", "memo"}))),
))


def fresh_doc() -> DataTree:
    doc = DataTree(root_id=1)
    doc.add_child(1, "patient", nid=5)
    doc.add_child(5, "clinicalTrial", nid=8)
    return doc


async def dial_raw(server):
    host, port = server.address
    return await asyncio.open_connection(host, port)


# ----------------------------------------------------------------------
# Handshake
# ----------------------------------------------------------------------
class TestHandshake:
    def test_version_mismatch_is_refused(self):
        async def run():
            async with ReproServer() as server:
                reader, writer = await dial_raw(server)
                await write_frame(writer, {"hello": {"protocol": 999}})
                reply = await read_frame(reader)
                eof = await read_frame(reader)
                writer.close()
                return reply, eof

        reply, eof = asyncio.run(run())
        assert "error" in reply
        assert "protocol version mismatch" in reply["error"]["message"]
        assert eof is None  # the server hung up

    def test_missing_hello_is_refused(self):
        async def run():
            async with ReproServer() as server:
                reader, writer = await dial_raw(server)
                await write_frame(writer, {"id": 1, "body": {"request": "x"}})
                reply = await read_frame(reader)
                eof = await read_frame(reader)
                writer.close()
                return reply, eof

        reply, eof = asyncio.run(run())
        assert "error" in reply  # a frame that is not a hello is refused
        assert eof is None

    def test_matching_hello_is_answered(self):
        async def run():
            async with ReproServer() as server:
                reader, writer = await dial_raw(server)
                await write_frame(writer,
                                  {"hello": {"protocol": PROTOCOL_VERSION}})
                reply = await read_frame(reader)
                writer.close()
                return reply

        reply = asyncio.run(run())
        assert reply["hello"]["protocol"] == PROTOCOL_VERSION


# ----------------------------------------------------------------------
# Malformed traffic -> typed errors, never a dead server
# ----------------------------------------------------------------------
class TestWireRobustness:
    def test_unknown_request_kind_gets_error_response(self):
        async def run():
            async with ReproServer() as server:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                reader, writer = client._reader, client._writer
                await write_frame(writer, {"id": 9,
                                           "body": {"request": "no-such"}})
                # bypass the client plumbing: read the raw envelope
                client._reader_task.cancel()
                try:
                    await client._reader_task
                except asyncio.CancelledError:
                    pass
                frame = await read_frame(reader)
                await client.close()
                return frame

        frame = asyncio.run(run())
        assert frame["id"] == 9
        assert frame["body"]["response"] == "error"
        assert frame["body"]["error"] == "ServiceError"

    def test_envelope_without_body_gets_error_response(self):
        async def run():
            async with ReproServer() as server:
                reader, writer = await dial_raw(server)
                await write_frame(writer,
                                  {"hello": {"protocol": PROTOCOL_VERSION}})
                await read_frame(reader)
                await write_frame(writer, {"id": 3})
                frame = await read_frame(reader)
                writer.close()
                return frame

        frame = asyncio.run(run())
        assert frame["id"] == 3
        assert frame["body"]["error"] == "ServerError"
        assert "body" in frame["body"]["message"]

    def test_non_object_frame_payload_drops_the_connection(self):
        async def run():
            async with ReproServer() as server:
                reader, writer = await dial_raw(server)
                await write_frame(writer,
                                  {"hello": {"protocol": PROTOCOL_VERSION}})
                await read_frame(reader)
                payload = json.dumps([1, 2, 3]).encode()
                import zlib
                from repro.server.framing import HEADER
                writer.write(HEADER.pack(len(payload), zlib.crc32(payload))
                             + payload)
                await writer.drain()
                error = await read_frame(reader)
                eof = await read_frame(reader)
                writer.close()
                return error, eof

        error, eof = asyncio.run(run())
        assert error["body"]["error"] == "ServerError"
        assert eof is None

    def test_server_survives_a_dropped_connection_mid_frame(self):
        """The fault harness's mid-request drop: half a frame, then gone."""
        async def run():
            async with ReproServer() as server:
                reader, writer = await dial_raw(server)
                await write_frame(writer,
                                  {"hello": {"protocol": PROTOCOL_VERSION}})
                await read_frame(reader)
                blob = encode_record({"id": 1, "body": {"request": "x"}})
                writer.write(blob[:len(blob) // 2])
                await writer.drain()
                writer.close()  # vanish mid-frame
                await asyncio.sleep(0.05)
                # the server is still alive and serves a fresh client
                host, port = server.address
                client = await ReproClient.connect(host, port)
                ack = await client.register_constraints("p", tuple(POLICY))
                await client.close()
                return ack.to_dict()

        assert asyncio.run(run())["registered"] == "constraints"

    def test_non_repro_error_is_answered_and_the_connection_survives(self):
        """A failure outside ReproError while serving (a handler bug
        surfacing as a TypeError) is answered with a typed error,
        counted, and the next request on the same connection is still
        served."""
        async def run():
            async with ReproServer(_BuggyStatusService()) as server:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                bad = await asyncio.wait_for(
                    client.request(StreamStatus("d")), timeout=5)
                ack = await asyncio.wait_for(
                    client.register_constraints("p", tuple(POLICY)),
                    timeout=5)
                snapshot = await client.metrics()
                await client.close()
                return bad, ack, snapshot

        bad, ack, snapshot = asyncio.run(run())
        assert isinstance(bad, ErrorResponse)
        assert bad.error == "TypeError"
        assert bad.details == {"internal": True}
        assert ack.to_dict()["registered"] == "constraints"
        assert snapshot.counters["server.internal_errors_total"] == 1
        assert snapshot.counters[
            'server.requests_total{kind="stream-status"}'] == 1

    def test_non_string_name_is_refused_at_decode(self):
        """An unhashable document name never reaches a handler: the
        frame decodes to a typed ServiceError, not an internal error."""
        async def run():
            async with ReproServer() as server:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                before = await client.metrics()
                bad = await asyncio.wait_for(
                    client.request(StreamStatus(["x"])), timeout=5)
                after = await client.metrics()
                await client.close()
                return bad, before, after

        bad, before, after = asyncio.run(run())
        assert isinstance(bad, ErrorResponse)
        assert bad.error == "ServiceError"
        assert "'document' must be a string" in bad.message
        key = "server.internal_errors_total"
        assert after.counters.get(key, 0) == before.counters.get(key, 0)


    def test_bad_bindings_frame_is_answered_and_the_next_one_too(self):
        """A ``certified-submit`` whose bindings are a JSON list, with a
        ``metrics`` frame pipelined behind it: both are answered (the
        decoder once raised AttributeError and the connection died)."""
        async def run():
            async with ReproServer() as server:
                reader, writer = await dial_raw(server)
                await write_frame(writer,
                                  {"hello": {"protocol": PROTOCOL_VERSION}})
                await read_frame(reader)
                await write_frame(writer, {"id": 1, "body": {
                    "request": "certified-submit", "document": "d",
                    "constraints": "p", "template": "t",
                    "bindings": [["p", 5]]}})
                await write_frame(writer, {"id": 2,
                                           "body": {"request": "metrics"}})
                frames = [await read_frame(reader), await read_frame(reader)]
                writer.close()
                return frames

        bad, metrics = asyncio.run(run())
        assert bad["id"] == 1
        assert bad["body"]["error"] == "ServiceError"
        assert "bindings must be a JSON object" in bad["body"]["message"]
        assert metrics["id"] == 2
        assert metrics["body"]["response"] == "metrics-snapshot"

    def test_decoder_bug_is_answered_and_the_connection_survives(
            self, monkeypatch):
        """A decode failure outside ReproError is answered like a handler
        bug — typed, flagged internal, counted — and the connection keeps
        serving."""
        import repro.server.server as server_module
        decode = server_module.request_from_dict

        def buggy(body):
            if body.get("request") == "stream-status":
                raise RuntimeError("decoder bug")
            return decode(body)

        monkeypatch.setattr(server_module, "request_from_dict", buggy)

        async def run():
            async with ReproServer() as server:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                before = await client.metrics()
                bad = await asyncio.wait_for(
                    client.request(StreamStatus("d")), timeout=5)
                ack = await asyncio.wait_for(
                    client.register_constraints("p", tuple(POLICY)),
                    timeout=5)
                after = await client.metrics()
                await client.close()
                return bad, ack, before, after

        bad, ack, before, after = asyncio.run(run())
        assert isinstance(bad, ErrorResponse)
        assert bad.error == "RuntimeError"
        assert bad.details == {"internal": True}
        assert ack.to_dict()["registered"] == "constraints"
        key = "server.internal_errors_total"
        assert after.counters.get(key, 0) == before.counters.get(key, 0) + 1


    def test_deeply_nested_frame_is_answered_before_the_drop(self):
        """A CRC-valid frame nested 5,000 deep once raised RecursionError
        out of the connection handler: no error frame, a silent drop."""
        async def run():
            async with ReproServer() as server:
                host, port = server.address
                probe = await ReproClient.connect(host, port)
                before = (await probe.metrics()).counters.get(
                    "server.frame_errors_total", 0)
                reader, writer = await dial_raw(server)
                await write_frame(writer,
                                  {"hello": {"protocol": PROTOCOL_VERSION}})
                await read_frame(reader)
                payload = ('{"id": 1, "body": ' + "[" * 5000 + "]" * 5000
                           + "}").encode()
                writer.write(HEADER.pack(len(payload), zlib.crc32(payload))
                             + payload)
                writer.write(encode_record({"id": 2, "body": {
                    "request": "stream-status", "document": "d"}}))
                await writer.drain()
                error, eof = await read_frame(reader), await read_frame(reader)
                writer.close()
                after = await probe.metrics()
                ack = await probe.register_constraints("p", tuple(POLICY))
                await probe.close()
                return error, eof, before, after, ack

        error, eof, before, after, ack = asyncio.run(run())
        assert error["body"]["error"] == "ServerError"
        assert "not valid JSON" in error["body"]["message"]
        assert eof is None
        assert after.counters["server.frame_errors_total"] == before + 1
        assert ack.to_dict()["registered"] == "constraints"


class TestClientResponseDecoding:
    def test_an_undecodable_response_fails_only_its_own_request(self):
        """A response that does not decode once left its request — and
        every later one on the client — waiting forever."""
        async def fake_server(reader, writer):
            await read_frame(reader)
            await write_frame(writer, {"hello": {
                "protocol": PROTOCOL_VERSION, "server": "fake"}})
            first, second = await read_frame(reader), await read_frame(reader)
            await write_frame(writer, {"id": first["id"],
                                       "body": {"response": "ack"}})
            await write_frame(writer, {"id": second["id"], "body": Ack(
                "stream", "d", 0).to_dict()})
            writer.close()

        async def run():
            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await ReproClient.connect(host, port)
            first = await client.submit(StreamStatus("d"))
            second = await client.submit(StreamStatus("d"))
            with pytest.raises(ServerError, match="does not decode"):
                await asyncio.wait_for(first, timeout=2)
            ack = await asyncio.wait_for(second, timeout=2)
            await asyncio.wait_for(client._reader_task, timeout=2)
            with pytest.raises(ServerError, match="connection is gone"):
                await client.submit(StreamStatus("d"))
            await client.close()
            server.close()
            await server.wait_closed()
            return ack

        assert asyncio.run(run()) == Ack("stream", "d", 0)

    def test_a_stray_response_id_is_skipped(self):
        """A list or object id once stopped the reader (unhashable), and
        every pending request failed with it."""
        async def fake_server(reader, writer):
            await read_frame(reader)
            await write_frame(writer, {"hello": {
                "protocol": PROTOCOL_VERSION, "server": "fake"}})
            first, second = await read_frame(reader), await read_frame(reader)
            for stray in ([first["id"]], {"id": first["id"]}, "1", None,
                          10**6):
                await write_frame(writer, {"id": stray, "body": Ack(
                    "stream", "d", 9).to_dict()})
            for size, frame in enumerate((first, second), start=1):
                await write_frame(writer, {"id": frame["id"], "body": Ack(
                    "stream", "d", size).to_dict()})
            writer.close()

        async def run():
            server = await asyncio.start_server(fake_server, "127.0.0.1", 0)
            host, port = server.sockets[0].getsockname()[:2]
            client = await ReproClient.connect(host, port)
            futures = [await client.submit(StreamStatus("d"))
                       for _ in range(2)]
            replies = await asyncio.wait_for(asyncio.gather(*futures),
                                             timeout=2)
            await client.close()
            server.close()
            await server.wait_closed()
            return replies

        assert asyncio.run(run()) == [Ack("stream", "d", 1),
                                      Ack("stream", "d", 2)]


class TestCertifiedClientCalls:
    def test_register_template_then_certified_submit(self):
        async def run():
            async with ReproServer() as server:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                await client.register_constraints("p", tuple(POLICY))
                await client.register_document("d", fresh_doc())
                ack = await client.register_template("annotate", ANNOTATE,
                                                     "p")
                duplicate = await client.register_template(
                    "annotate", ANNOTATE, "p")
                replaced = await client.register_template(
                    "annotate", ANNOTATE, "p", replace=True)
                out = await client.certified_submit(
                    "d", "p", "annotate", {"p": 5, "l": "note"})
                await client.close()
                return ack, duplicate, replaced, out

        ack, duplicate, replaced, out = asyncio.run(run())
        assert ack.to_dict()["registered"] == "template"
        assert dict(ack.stats)["certify.certified"] == 1
        assert isinstance(duplicate, ErrorResponse)
        assert dict(replaced.stats)["certify.certified"] == 1
        assert [d.accepted for d in out.decisions] == [True] * 3


#: Every request convenience, defined once in RequestMethods.
CONVENIENCES = ("register_document", "register_constraints",
                "register_template", "implies", "implies_on", "enforce",
                "apply", "certified_submit", "status", "metrics")


def test_both_fronts_share_every_request_convenience(tmp_path):
    """``AsyncService`` and ``ReproClient`` define no convenience of
    their own, and each convenience answers alike through both: the
    in-process front over a journaled service and a durable server."""
    for front in (AsyncService, ReproClient):
        assert not set(CONVENIENCES) & set(vars(front)), front
        assert all(callable(getattr(front, name)) for name in CONVENIENCES)

    async def drive(front):
        conclusion = no_insert("/patient[/visit]")
        replies = [
            await front.register_constraints("p", tuple(POLICY)),
            await front.register_document("d", fresh_doc()),
            await front.register_template("annotate", ANNOTATE, "p"),
            await front.implies("p", [conclusion]),
            await front.implies_on("p", "d", [conclusion], max_moves=1),
            await front.enforce("d", "p", [AddLeaf(5, "note")]),
            await front.apply("d", "p", AddLeaf(5, "visit")),
            await front.certified_submit("d", "p", "annotate",
                                         {"p": 5, "l": "memo"}),
            await front.status("d"),
        ]
        snapshot = await front.metrics()
        return ([response_checksum(reply) for reply in replies],
                snapshot.streams, snapshot.fleets)

    async def run():
        store = DocumentStore()
        journal = ServerJournal(tmp_path / "inline")
        journal.recover(store)
        store.attach_journal(journal)
        async with AsyncService(ConstraintService(store=store)) as inline:
            direct = await drive(inline)
        journal.close()
        async with ReproServer.durable(tmp_path / "socket") as server:
            client = await ReproClient.connect(*server.address)
            remote = await drive(client)
            await client.close()
        return direct, remote

    direct, remote = asyncio.run(run())
    assert direct == remote
    assert direct[1]  # the stream the conveniences opened is reported


class _BuggyStatusService(AsyncService):
    """Stream-status requests hit a handler bug (a plain TypeError)."""

    def submit(self, request):
        if isinstance(request, StreamStatus):
            raise TypeError("simulated handler bug")
        return super().submit(request)


# ----------------------------------------------------------------------
# Timeout and backpressure
# ----------------------------------------------------------------------
class _StallingService(AsyncService):
    """Implication queries never resolve — a deterministic slow request."""

    def submit(self, request):
        if isinstance(request, ImplicationQuery):
            return asyncio.get_running_loop().create_future()
        return super().submit(request)


class TestTimeouts:
    def test_slow_request_times_out_with_typed_error(self):
        async def run():
            service = _StallingService()
            async with ReproServer(service, request_timeout=0.05) as server:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                await client.register_constraints("p", tuple(POLICY))
                reply = await client.request(ImplicationQuery("p", ()))
                # the connection is still perfectly usable afterwards
                again = await client.register_constraints(
                    "p", tuple(POLICY), replace=True)
                await client.close()
                return reply, again

        reply, again = asyncio.run(run())
        assert isinstance(reply, ErrorResponse)
        assert reply.error == "TimeoutError"
        assert again.to_dict()["registered"] == "constraints"


class TestBackpressure:
    def test_overload_is_refused_not_queued(self):
        async def run():
            service = _StallingService()
            server = ReproServer(service, request_timeout=None,
                                 max_inflight=2)
            await server.start()
            try:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                stuck = [await client.submit(ImplicationQuery("p", ()))
                         for _ in range(2)]
                # the gauge is full: the next request is refused at once
                refused = await client.request(ImplicationQuery("p", ()))
                assert server.inflight == 2
                for future in stuck:
                    future.cancel()
                await client.close()
                return refused
            finally:
                # graceful close would wait forever on the stalled pair
                await server.abort()

        refused = asyncio.run(run())
        assert isinstance(refused, ErrorResponse)
        assert "overloaded" in refused.message
        assert refused.details == {"inflight": 2, "limit": 2,
                                   "overload_total": 1}


# ----------------------------------------------------------------------
# Ordering and shutdown
# ----------------------------------------------------------------------
class TestOrderingAndShutdown:
    def test_pipelined_same_document_requests_keep_order(self):
        async def run():
            async with ReproServer() as server:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                await client.register_constraints("p", tuple(POLICY))
                await client.register_document("ward", fresh_doc())
                futures = [await client.submit(
                    StreamSubmit("ward", "p", (AddLeaf(5, "note"),)))
                    for _ in range(8)]
                replies = await asyncio.gather(*futures)
                await client.close()
                return [r.decisions[0].seq for r in replies]

        assert asyncio.run(run()) == list(range(8))

    def test_concurrent_submitters_share_one_connection(self):
        """Tasks submitting at once on a transport that keeps pausing:
        their drains wait together, and no two frames interleave."""
        def big_doc(notes: int) -> DataTree:
            doc = fresh_doc()
            for i in range(notes):
                doc.add_child(5, f"note{i}", nid=100 + i)
            return doc

        async def run():
            async with ReproServer() as server:
                client = await ReproClient.connect(*server.address)
                # A small send buffer keeps the transport pausing, so the
                # submitters' drains are waiting at the same time.
                writer = client._writer
                writer.get_extra_info("socket").setsockopt(
                    socket.SOL_SOCKET, socket.SO_SNDBUF, 4096)
                writer.transport.set_write_buffer_limits(high=8192)
                acks = await asyncio.gather(*(
                    client.register_document(f"d{k}", big_doc(300))
                    for k in range(8)))
                await client.close()
                return [(a.to_dict()["name"], a.to_dict()["size"])
                        for a in acks]

        assert asyncio.run(run()) == [(f"d{k}", 303) for k in range(8)]

    def test_graceful_close_drains_in_flight_requests(self):
        async def run():
            server = ReproServer()
            await server.start()
            host, port = server.address
            client = await ReproClient.connect(host, port)
            await client.register_constraints("p", tuple(POLICY))
            await client.register_document("ward", fresh_doc())
            futures = [await client.submit(
                StreamSubmit("ward", "p", (AddLeaf(5, "note"),)))
                for _ in range(6)]
            await asyncio.sleep(0.05)  # let the reader ingest the frames
            await server.close()
            replies = await asyncio.gather(*futures)
            await client.close()
            return [r.to_dict()["response"] for r in replies]

        assert asyncio.run(run()) == ["decisions"] * 6


# ----------------------------------------------------------------------
# The acceptance test: multi-client, kill -9, recovery over the socket
# ----------------------------------------------------------------------
class TestDurableAcceptance:
    def test_two_clients_kill_dash_nine_recover(self, tmp_path):
        async def run():
            server = ReproServer.durable(tmp_path, checkpoint_every=6)
            await server.start()
            host, port = server.address
            alice = await ReproClient.connect(host, port)
            bob = await ReproClient.connect(host, port)
            await alice.register_constraints("policy", tuple(POLICY))
            await alice.register_document("ward", fresh_doc())
            await bob.register_document("clinic", fresh_doc())

            # interleaved acknowledged traffic from both clients
            checksums = []
            for i in range(9):
                ops = ((Begin(), AddLeaf(5, "note"), Commit()) if i % 3 == 0
                       else (Begin(), AddLeaf(5, "note"), Rollback())
                       if i % 3 == 1 else (AddLeaf(5, "note"),))
                a = await alice.enforce("ward", "policy", ops)
                b = await bob.enforce("clinic", "policy",
                                      (AddLeaf(5, "visit"),))
                checksums += [response_checksum(a), response_checksum(b)]
            rejected = await bob.enforce("clinic", "policy",
                                         (RemoveSubtree(8),))
            checksums.append(response_checksum(rejected))
            ward = (await alice.status("ward")).to_dict()
            clinic = (await bob.status("clinic")).to_dict()

            await server.abort()  # kill -9: no drain, no flush, no goodbye
            await alice.close()
            await bob.close()

            revived = ReproServer.durable(tmp_path, checkpoint_every=6)
            await revived.start()
            host, port = revived.address
            carol = await ReproClient.connect(host, port)
            ward2 = (await carol.status("ward")).to_dict()
            clinic2 = (await carol.status("clinic")).to_dict()
            # the recovered fleet keeps serving: same policy, same stream
            more = await carol.enforce("ward", "policy",
                                       (AddLeaf(5, "note"),))
            await carol.close()
            await revived.close()
            return (ward, clinic, ward2, clinic2, revived.recovery,
                    more.decisions[0].seq, ward["size"])

        (ward, clinic, ward2, clinic2, recovery,
         next_seq, entries) = asyncio.run(run())
        assert ward2 == ward
        assert clinic2 == clinic
        assert sorted(recovery.documents) == ["clinic", "ward"]
        assert recovery.checkpoints_used  # checkpoint_every=6 kicked in
        assert next_seq == entries  # decisions continue exactly where cut

    def test_restart_from_clean_close_also_reconverges(self, tmp_path):
        async def run():
            server = ReproServer.durable(tmp_path)
            await server.start()
            host, port = server.address
            client = await ReproClient.connect(host, port)
            await client.register_constraints("policy", tuple(POLICY))
            await client.register_document("ward", fresh_doc())
            await client.enforce("ward", "policy", (AddLeaf(5, "note"),))
            before = (await client.status("ward")).to_dict()
            await client.close()
            await server.close()  # graceful: flushed, no torn tail

            revived = ReproServer.durable(tmp_path)
            await revived.start()
            host, port = revived.address
            client = await ReproClient.connect(host, port)
            after = (await client.status("ward")).to_dict()
            await client.close()
            await revived.close()
            return before, after, revived.recovery.torn_tails

        before, after, torn = asyncio.run(run())
        assert after == before
        assert torn == []
