"""The live introspection endpoint: metrics wire kind, traces, recovery.

The acceptance contract of the observability PR: a ``ReproClient.
metrics()`` call against a durable server returns a snapshot whose
journal fsync histogram, stream fast-path counters (fleet members'
brackets included), fleet ledgers and post-recovery ``recovery.*``
gauges are all live and correct; trace
ids round-trip through the wire envelope (error responses included); and
the endpoint stays serveable while the server refuses everything else.

Each test counts into a fresh process-global registry (the autouse
fixture in ``conftest.py``), swapped in *before* its servers are built,
so counts here are exact, not cumulative across tests.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.constraints import constraint_set
from repro.obs import registry
from repro.server import ReproClient, ReproServer
from repro.server.framing import read_frame, write_frame
from repro.service.async_service import AsyncService
from repro.service.protocol import (
    PROTOCOL_VERSION,
    Ack,
    ErrorResponse,
    FleetSubmit,
    ImplicationQuery,
    MetricsSnapshot,
)
from repro.stream.ops import AddLeaf, RemoveSubtree
from repro.trees.tree import DataTree

POLICY = constraint_set(("/patient[/clinicalTrial]", "up"),
                        ("/patient[/visit]", "down"))


def fresh_doc() -> DataTree:
    doc = DataTree(root_id=1)
    doc.add_child(1, "patient", nid=5)
    doc.add_child(5, "clinicalTrial", nid=8)
    return doc


def small_doc(root_id: int) -> DataTree:
    doc = DataTree(root_id=root_id)
    doc.add_child(root_id, "patient", nid=root_id + 1)
    return doc


# ----------------------------------------------------------------------
# The acceptance test: one snapshot, every layer visible
# ----------------------------------------------------------------------
class TestMetricsSnapshot:
    def test_durable_server_snapshot_covers_every_layer(self, tmp_path):
        async def run():
            server = ReproServer.durable(tmp_path)
            await server.start()
            try:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                await client.register_constraints("policy", tuple(POLICY))
                await client.register_document("ward", fresh_doc())
                for name, root in (("a", 100), ("b", 200)):
                    await client.register_document(name, small_doc(root))
                # the "note" label is untouched by the policy: the static
                # independence analysis serves it through the fast path
                decisions = await client.enforce(
                    "ward", "policy",
                    (AddLeaf(5, "note"), AddLeaf(5, "visit"),
                     RemoveSubtree(8)))
                fleet = await client.request(FleetSubmit(
                    ("a", "b"), "policy",
                    ((("a", (AddLeaf(101, "note"),)),),)))
                snapshot = await client.metrics()
                await client.close()
                return decisions, fleet, snapshot
            finally:
                await server.close()

        decisions, fleet, snapshot = asyncio.run(run())
        assert isinstance(snapshot, MetricsSnapshot)
        counters = snapshot.counters

        # journal: every registration/submission record was fsync'd
        assert snapshot.histogram_count("journal.fsync_seconds") > 0
        assert counters["journal.records_total"] >= 5
        assert counters["journal.bytes_written_total"] > 0

        # stream: op counters live, fast-path hits equal the decisions'
        # own independent flags; the fleet epoch ran as one bracket on
        # member "a"'s stream (Begin, one op, Commit) and counts too
        assert fleet.epochs[0].accepted
        member = snapshot.stream_counters("a")
        assert (member["entries"], member["ops"], member["committed"]) \
            == (3, 1, 1)
        independent = sum(d.independent for d in decisions.decisions)
        assert independent >= 1
        assert counters["stream.ops_total"] == 3 + 1
        assert counters["stream.independent_total"] == (
            independent + member["independent"])
        assert counters["stream.decisions_total"] == 3 + 3

        # server: per-kind request accounting (metrics itself is served
        # out-of-band and deliberately not a "request")
        assert counters['server.requests_total{kind="stream-submit"}'] == 1
        assert counters['server.requests_total{kind="fleet-submit"}'] == 1
        assert snapshot.histogram_count(
            'server.request_seconds{kind="stream-submit"}') == 1

        # per-entity sections: live stream counters and fleet shape
        streams = dict(snapshot.streams)
        assert dict(streams["ward"])["ops"] == 3
        assert snapshot.stream_counters("ward")["ops"] == 3
        assert snapshot.stream_counters("no-such-doc") == {}
        fleets = dict(snapshot.fleets)
        (key, pairs), = fleets.items()
        assert key == "a+b"
        assert dict(pairs) == {"set": "policy", "docs": 2, "epoch": 1,
                               "checksum": fleet.checksum}

    def test_recovery_gauges_match_the_report(self, tmp_path):
        async def run():
            server = ReproServer.durable(tmp_path)
            await server.start()
            host, port = server.address
            client = await ReproClient.connect(host, port)
            await client.register_constraints("policy", tuple(POLICY))
            await client.register_document("ward", fresh_doc())
            await client.enforce("ward", "policy", (AddLeaf(5, "note"),))
            await client.close()
            await server.close()

            revived = ReproServer.durable(tmp_path)
            await revived.start()
            host, port = revived.address
            client = await ReproClient.connect(host, port)
            snapshot = await client.metrics()
            await client.close()
            report = revived.recovery
            await revived.close()
            return snapshot, report

        snapshot, report = asyncio.run(run())
        assert report.records_replayed > 0
        gauges = snapshot.gauges
        assert gauges["recovery.documents"] == len(report.documents) == 1
        assert gauges["recovery.constraint_sets"] == len(
            report.constraint_sets) == 1
        assert gauges["recovery.records_replayed"] == report.records_replayed
        assert gauges["recovery.decisions_replayed"] == (
            report.decisions_replayed)
        assert gauges["recovery.checkpoints_used"] == len(
            report.checkpoints_used)
        assert gauges["recovery.torn_tails"] == len(report.torn_tails)

    def test_inmemory_server_serves_metrics_too(self):
        async def run():
            async with ReproServer() as server:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                await client.register_constraints("policy", tuple(POLICY))
                snapshot = await client.metrics()
                await client.close()
                return snapshot

        snapshot = asyncio.run(run())
        assert isinstance(snapshot, MetricsSnapshot)
        assert snapshot.counters[
            'server.requests_total{kind="register-constraints"}'] == 1
        assert snapshot.streams == ()


# ----------------------------------------------------------------------
# Availability under pressure
# ----------------------------------------------------------------------
class _StallingService(AsyncService):
    """Implication queries never resolve — a deterministic slow request."""

    def submit(self, request):
        if isinstance(request, ImplicationQuery):
            return asyncio.get_running_loop().create_future()
        return super().submit(request)


class TestServeableWhileOverloaded:
    def test_metrics_answers_while_everything_else_is_refused(self):
        async def run():
            service = _StallingService()
            server = ReproServer(service, request_timeout=None,
                                 max_inflight=1)
            await server.start()
            try:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                stuck = await client.submit(ImplicationQuery("p", ()))
                refused = await client.request(ImplicationQuery("p", ()))
                snapshot = await client.metrics()
                stuck.cancel()
                await client.close()
                return refused, snapshot
            finally:
                await server.abort()

        refused, snapshot = asyncio.run(run())
        assert isinstance(refused, ErrorResponse)
        assert refused.details["overload_total"] == 1
        assert isinstance(snapshot, MetricsSnapshot)
        assert snapshot.counters["server.overload_total"] == 1
        assert snapshot.gauges["server.inflight_requests"] == 1


# ----------------------------------------------------------------------
# Trace ids through the wire envelope
# ----------------------------------------------------------------------
class TestTraceRoundTrip:
    def test_trace_echoes_on_success_and_error_frames(self):
        async def run():
            async with ReproServer() as server:
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                await write_frame(writer, {"hello": {
                    "protocol": PROTOCOL_VERSION}})
                await read_frame(reader)  # server hello
                # a well-formed request with a trace
                await write_frame(writer, {
                    "id": 1, "trace": "t-good",
                    "body": {"request": "register-constraints",
                             "name": "p", "constraints": [],
                             "replace": False}})
                ok = await read_frame(reader)
                # an unknown kind errors before reaching the service —
                # the trace must still come back on the error envelope
                await write_frame(writer, {
                    "id": 2, "trace": "t-bad",
                    "body": {"request": "no-such-kind"}})
                bad = await read_frame(reader)
                # a malformed envelope (body not an object) echoes too
                await write_frame(writer, {"id": 3, "trace": "t-ugly",
                                           "body": "nope"})
                ugly = await read_frame(reader)
                # no trace sent: no trace key answered
                await write_frame(writer, {
                    "id": 4, "body": {"request": "metrics"}})
                plain = await read_frame(reader)
                writer.close()
                return ok, bad, ugly, plain

        ok, bad, ugly, plain = asyncio.run(run())
        assert ok["trace"] == "t-good"
        assert ok["body"]["registered"] == "constraints"
        assert bad["trace"] == "t-bad"
        assert bad["body"]["response"] == "error"
        assert ugly["trace"] == "t-ugly"
        assert ugly["body"]["response"] == "error"
        assert "trace" not in plain
        assert plain["body"]["response"] == "metrics-snapshot"

    def test_client_stamps_a_trace_on_every_envelope(self):
        async def run():
            async with ReproServer() as server:
                host, port = server.address
                client = await ReproClient.connect(host, port)
                await client.register_constraints("p", tuple(POLICY))
                # an explicit trace rides the timeout/refusal path too
                reply = await client.request(
                    ImplicationQuery("p", ()), trace="t-mine")
                await client.close()
                return reply

        reply = asyncio.run(run())
        assert reply.to_dict()["response"] == "answers"
        # the client generated ids for both requests: one per envelope
        counters = registry().to_dict()["counters"]
        assert counters['server.requests_total{kind="implication"}'] == 1


# ----------------------------------------------------------------------
# Satellite: StreamStatus carries the stream's counters
# ----------------------------------------------------------------------
class TestStatusCarriesStats:
    def test_reconnecting_client_recovers_observability_state(self):
        async def run():
            async with ReproServer() as server:
                host, port = server.address
                first = await ReproClient.connect(host, port)
                await first.register_constraints("policy", tuple(POLICY))
                await first.register_document("ward", fresh_doc())
                await first.enforce("ward", "policy",
                                    (AddLeaf(5, "note"),
                                     AddLeaf(5, "visit"),
                                     RemoveSubtree(8)))
                await first.close()
                # a brand-new connection sees the same counters
                second = await ReproClient.connect(host, port)
                status = await second.status("ward")
                await second.close()
                return status

        status = asyncio.run(run())
        assert isinstance(status, Ack)
        stats = dict(status.stats)
        assert stats["ops"] == 3
        assert stats["accepted"] + stats["rejected"] == 3
        assert stats["entries"] == 3
        assert "independent" in stats and stats["independent"] >= 1
        assert "revision" not in stats  # snapshot-internal, not wire state


# ----------------------------------------------------------------------
# Faults lane: the endpoint survives kill -9 and recovery
# ----------------------------------------------------------------------
@pytest.mark.faults
class TestMetricsAcrossCrash:
    def test_endpoint_serves_across_a_kill9_recover_cycle(self, tmp_path):
        async def run():
            server = ReproServer.durable(tmp_path)
            await server.start()
            host, port = server.address
            client = await ReproClient.connect(host, port)
            await client.register_constraints("policy", tuple(POLICY))
            await client.register_document("ward", fresh_doc())
            await client.enforce("ward", "policy", (AddLeaf(5, "note"),))
            before = await client.metrics()
            await server.abort()  # kill -9: no drain, no flush, no goodbye
            await client.close()

            revived = ReproServer.durable(tmp_path)
            await revived.start()
            host, port = revived.address
            client2 = await ReproClient.connect(host, port)
            after = await client2.metrics()
            status = await client2.status("ward")
            await client2.close()
            report = revived.recovery
            await revived.close()
            return before, after, status, report

        before, after, status, report = asyncio.run(run())
        assert isinstance(before, MetricsSnapshot)
        assert isinstance(after, MetricsSnapshot)
        # the recovered process replayed the acknowledged history...
        assert report.records_replayed > 0
        gauges = after.gauges
        assert gauges["recovery.documents"] == len(report.documents) == 1
        assert gauges["recovery.records_replayed"] == report.records_replayed
        assert gauges["recovery.decisions_replayed"] == (
            report.decisions_replayed) == 1
        # ...and its per-stream counters match what the live process saw
        assert dict(dict(after.streams)["ward"]) == dict(
            dict(before.streams)["ward"])
