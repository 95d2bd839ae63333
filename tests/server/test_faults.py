"""Deterministic crash and corruption injection (``-m faults``).

Every failure mode the journal claims to survive is provoked here at an
exact durability point and the recovery contract checked against a clean
reference service driven over the same accepted prefix:

* a crash *before* fsync loses exactly the unacknowledged operation;
* a crash *after* fsync keeps it, acknowledged or not;
* a torn tail is truncated in place and the server carries on;
* corrupt committed history refuses loudly — never a silent divergence;
* a crash anywhere inside the checkpoint/compact dance leaves either
  the old snapshot or the new one, never a torn in-between;
* an acknowledged ``fleet-submit`` survives a kill, and a crash inside
  one leaves the fleet's ledger at the last acknowledged submission (a
  crash inside a fleet's first submission leaves it open at epoch 0).

The reference oracle is the same one ``test_recovery`` uses: a second
durable service (journals pin leaf ids; a plain in-memory service would
allocate different node ids) replaying the accepted prefix.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.constraints import constraint_set
from repro.errors import JournalCorruptError
from repro.server import ReproClient, ReproServer
from repro.server.faults import CrashSchedule, SimulatedCrash, flip_byte, tear_tail
from repro.server.framing import encode_record, scan_records
from repro.server.journal import ServerJournal
from repro.service.protocol import (
    FleetDecisions,
    FleetSubmit,
    MetricsRequest,
    RegisterConstraints,
    RegisterDocument,
    StreamStatus,
    StreamSubmit,
)
from repro.service.service import ConstraintService
from repro.service.store import DocumentStore
from repro.stream.ops import AddLeaf, Begin, Commit, RemoveSubtree, Rollback
from repro.trees import serialize
from repro.trees.tree import DataTree

pytestmark = pytest.mark.faults

POLICY = constraint_set(("/patient[/clinicalTrial]", "up"),
                        ("/patient[/visit]", "down"))

SUBMITS = [
    (AddLeaf(5, "note"),),
    (Begin(), AddLeaf(5, "visit"), Commit()),
    (RemoveSubtree(7),),
    (AddLeaf(5, "note"),),
    (Begin(), AddLeaf(5, "note"), Rollback()),
    (AddLeaf(5, "visit"),),
]


def fresh_doc() -> DataTree:
    doc = DataTree(root_id=1)
    doc.add_child(1, "patient", nid=5)
    doc.add_child(5, "visit", nid=7)
    doc.add_child(5, "clinicalTrial", nid=8)
    return doc


def durable_service(root, **journal_opts):
    store = DocumentStore()
    journal = ServerJournal(root, **journal_opts)
    report = journal.recover(store)
    store.attach_journal(journal)
    return ConstraintService(store=store), journal, report


def boot(root, **journal_opts):
    """A registered durable service; faults are armed *after* set-up so
    crash ordinals count submissions, not registration records."""
    svc, journal, report = durable_service(root, **journal_opts)
    svc.handle(RegisterConstraints("policy", tuple(POLICY)))
    svc.handle(RegisterDocument("ward", fresh_doc()))
    return svc, journal, report


def drive(svc, count: int) -> None:
    for ops in SUBMITS[:count]:
        svc.handle(StreamSubmit("ward", "policy", ops))


def fingerprint(svc) -> tuple:
    return (svc.handle(StreamStatus("ward")).to_dict(),
            serialize.to_dict(svc.store.document("ward")))


def reference(root, count: int) -> tuple:
    """What the state after ``count`` accepted submissions must look like."""
    svc, journal, _ = boot(root)
    drive(svc, count)
    journal.close()
    return fingerprint(svc)


# ----------------------------------------------------------------------
# The kill-between-fsync window
# ----------------------------------------------------------------------
class TestKillBetweenFsync:
    def test_crash_before_fsync_loses_only_the_unacked_op(self, tmp_path):
        svc, journal, _ = boot(tmp_path / "crash")
        drive(svc, 2)
        journal.faults = crash = CrashSchedule("journal-write")
        with pytest.raises(SimulatedCrash):
            svc.handle(StreamSubmit("ward", "policy", SUBMITS[2]))
        journal.simulate_power_loss()  # un-fsync'd bytes vanish
        assert crash.fired and crash.seen == ["journal-write"]

        recovered, j2, report = durable_service(tmp_path / "crash")
        # the record for submission #3 was written but never fsync'd: a
        # power cut takes it back, and with it nothing else.
        assert fingerprint(recovered) == reference(tmp_path / "ref", 2)
        # ...and the revived journal keeps accepting work where it left off
        drive_from = SUBMITS[2:3]
        for ops in drive_from:
            recovered.handle(StreamSubmit("ward", "policy", ops))
        assert fingerprint(recovered) == reference(tmp_path / "ref3", 3)
        j2.close()

    def test_crash_after_fsync_keeps_the_op(self, tmp_path):
        svc, journal, _ = boot(tmp_path / "crash")
        drive(svc, 2)
        journal.faults = CrashSchedule("journal-fsync")
        with pytest.raises(SimulatedCrash):
            svc.handle(StreamSubmit("ward", "policy", SUBMITS[2]))
        journal.simulate_power_loss()

        recovered, j2, _ = durable_service(tmp_path / "crash")
        # fsync won the race: the op is durable even though its response
        # never went out — at-most-once on the wire, exactly-once on disk.
        assert fingerprint(recovered) == reference(tmp_path / "ref", 3)
        j2.close()

    def test_no_fsync_mode_may_take_back_acknowledged_ops(self, tmp_path):
        svc, journal, _ = boot(tmp_path / "crash", fsync=False)
        synced_at = 2
        drive(svc, synced_at)
        journal.sync()  # explicit durability line in the sand
        drive_more = SUBMITS[synced_at:4]
        for ops in drive_more:
            svc.handle(StreamSubmit("ward", "policy", ops))
        journal.simulate_power_loss()

        recovered, j2, _ = durable_service(tmp_path / "crash")
        assert fingerprint(recovered) == reference(tmp_path / "ref",
                                                   synced_at)
        j2.close()


# ----------------------------------------------------------------------
# Torn tails and rotten history
# ----------------------------------------------------------------------
class TestTornTail:
    def test_torn_tail_is_truncated_and_survived(self, tmp_path):
        svc, journal, _ = boot(tmp_path / "crash")
        drive(svc, 4)
        journal.close()
        path = journal.doc_journal_path("ward")
        tear_tail(path, drop=7)  # interrupted append: half a record

        recovered, j2, report = durable_service(tmp_path / "crash")
        assert [p for p, _ in report.torn_tails] == [str(path)]
        # the torn record was submission #4; everything before it holds
        assert fingerprint(recovered) == reference(tmp_path / "ref", 3)
        j2.close()

        # the tail was physically repaired: a second recovery is clean
        again, j3, report2 = durable_service(tmp_path / "crash")
        assert report2.torn_tails == []
        assert fingerprint(again) == fingerprint(recovered)
        j3.close()

    def test_tail_torn_down_to_mid_header_is_survived(self, tmp_path):
        svc, journal, _ = boot(tmp_path / "crash")
        drive(svc, 2)
        journal.close()
        path = journal.doc_journal_path("ward")
        size = path.stat().st_size
        records, _ = scan_records(path.read_bytes(), path=str(path))
        last = len(encode_record(records[-1]))
        tear_tail(path, drop=last - 3)  # 3 bytes of header survive

        recovered, j2, report = durable_service(tmp_path / "crash")
        assert report.torn_tails == [(str(path), 3)]  # 3 dangling bytes
        assert fingerprint(recovered) == reference(tmp_path / "ref", 1)
        assert path.stat().st_size == size - last
        j2.close()


class TestCorruptHistory:
    def test_flipped_byte_mid_history_refuses_loudly(self, tmp_path):
        svc, journal, _ = boot(tmp_path / "crash")
        drive(svc, 4)
        journal.close()
        path = journal.doc_journal_path("ward")
        flip_byte(path, offset=30)

        with pytest.raises(JournalCorruptError) as err:
            durable_service(tmp_path / "crash")
        assert err.value.path == str(path)
        assert err.value.offset is not None

    def test_corruption_in_the_sets_journal_refuses_too(self, tmp_path):
        svc, journal, _ = boot(tmp_path / "crash")
        journal.close()
        flip_byte(journal.sets_journal_path, offset=12)
        with pytest.raises(JournalCorruptError):
            durable_service(tmp_path / "crash")


# ----------------------------------------------------------------------
# Crashes inside the checkpoint/compact dance
# ----------------------------------------------------------------------
class TestCheckpointCrashes:
    @pytest.mark.parametrize("point,uses_checkpoint", [
        ("checkpoint-write", False),   # tmp written, never renamed in
        ("checkpoint-rename", True),   # new snapshot in place, journal full
        ("compact", True),             # snapshot + compacted journal
    ])
    def test_crash_mid_checkpoint_reconverges(self, tmp_path, point,
                                              uses_checkpoint):
        svc, journal, _ = boot(tmp_path / "crash", checkpoint_every=3)
        drive(svc, 2)
        journal.faults = CrashSchedule(point)
        # submission #3 is journaled (durably) and then trips the
        # checkpoint, which crashes at the parametrized instant
        with pytest.raises(SimulatedCrash):
            svc.handle(StreamSubmit("ward", "policy", SUBMITS[2]))
        journal.simulate_power_loss()

        recovered, j2, report = durable_service(tmp_path / "crash",
                                                checkpoint_every=3)
        assert bool(report.checkpoints_used) == uses_checkpoint
        assert report.torn_tails == []
        assert fingerprint(recovered) == reference(tmp_path / "ref", 3)
        j2.close()

    @pytest.mark.parametrize("point", ["checkpoint-write",
                                       "checkpoint-rename", "compact"])
    def test_checkpoint_on_disk_is_never_torn(self, tmp_path, point):
        svc, journal, _ = boot(tmp_path / "crash", checkpoint_every=3)
        drive(svc, 2)
        journal.faults = CrashSchedule(point)
        with pytest.raises(SimulatedCrash):
            svc.handle(StreamSubmit("ward", "policy", SUBMITS[2]))
        journal.simulate_power_loss()

        checkpoint = journal.doc_checkpoint_path("ward")
        if checkpoint.exists():
            blob = checkpoint.read_bytes()
            records, good = scan_records(blob, path=str(checkpoint))
            assert good == len(blob) and len(records) == 1
            assert records[0]["kind"] == "checkpoint"

    def test_second_crash_during_recovery_checkpointing_is_safe(
            self, tmp_path):
        """Crash, recover, crash again mid-checkpoint, recover again."""
        svc, journal, _ = boot(tmp_path / "crash", checkpoint_every=3)
        drive(svc, 2)
        journal.faults = CrashSchedule("checkpoint-rename")
        with pytest.raises(SimulatedCrash):
            svc.handle(StreamSubmit("ward", "policy", SUBMITS[2]))
        journal.simulate_power_loss()

        once, j2, _ = durable_service(tmp_path / "crash", checkpoint_every=3)
        j2.faults = CrashSchedule("checkpoint-write")
        with pytest.raises(SimulatedCrash):
            # three more submissions trip the next checkpoint
            for ops in SUBMITS[3:6]:
                once.handle(StreamSubmit("ward", "policy", ops))
        j2.simulate_power_loss()

        twice, j3, _ = durable_service(tmp_path / "crash",
                                       checkpoint_every=3)
        assert fingerprint(twice) == reference(tmp_path / "ref", 6)
        j3.close()


# ----------------------------------------------------------------------
# The same story through the socket
# ----------------------------------------------------------------------
class TestSocketFaults:
    def test_mid_request_drop_leaves_acknowledged_work_durable(
            self, tmp_path):
        """One client vanishes mid-frame; another's acked writes hold."""
        from repro.server.framing import encode_record, write_frame
        from repro.service.protocol import PROTOCOL_VERSION

        async def run():
            server = ReproServer.durable(tmp_path / "crash")
            await server.start()
            host, port = server.address
            good = await ReproClient.connect(host, port)
            await good.register_constraints("policy", tuple(POLICY))
            await good.register_document("ward", fresh_doc())
            for ops in SUBMITS[:3]:
                await good.enforce("ward", "policy", ops)

            # a second client dies halfway through a submission frame
            reader, writer = await asyncio.open_connection(host, port)
            await write_frame(writer, {"hello": {"protocol":
                                                 PROTOCOL_VERSION}})
            await reader.readexactly(8)  # its hello echo header
            blob = encode_record({"id": 1, "body": StreamSubmit(
                "ward", "policy", SUBMITS[3]).to_dict()})
            writer.write(blob[:len(blob) - 4])
            await writer.drain()
            writer.close()
            await asyncio.sleep(0.02)

            await server.abort()  # and then the machine dies too
            await good.close()

            recovered, j2, report = durable_service(tmp_path / "crash")
            state = fingerprint(recovered)
            j2.close()
            return state, report

        state, report = asyncio.run(run())
        # the half-submitted frame never became a request, let alone a
        # journal record: exactly the three acknowledged submissions live
        assert state == reference(tmp_path / "ref", 3)
        assert report.torn_tails == []


# ----------------------------------------------------------------------
# Fleet submissions: member brackets, then the ledger record
# ----------------------------------------------------------------------
FLEET = ("f0", "f1", "f2")


def boot_fleet(root):
    svc, journal, _ = boot(root)
    for doc in FLEET:
        svc.handle(RegisterDocument(doc, fresh_doc()))
    return svc, journal


def fleet_submit(*members):
    """One epoch: a visit for each member named (accepted)."""
    return FleetSubmit(FLEET, "policy", (
        tuple((doc, (AddLeaf(5, "visit"),)) for doc in members),))


def fleet_state(svc) -> tuple:
    return ({doc: (svc.handle(StreamStatus(doc)).to_dict(),
                   serialize.to_dict(svc.store.document(doc)))
             for doc in FLEET},
            svc.handle(MetricsRequest()).to_dict().get("fleets"))


class TestFleetFaults:
    def test_acknowledged_fleet_submit_survives_a_kill(self, tmp_path):
        svc, journal = boot_fleet(tmp_path / "crash")
        reply = svc.handle(fleet_submit("f0", "f2"))
        assert isinstance(reply, FleetDecisions)
        assert reply.epochs[0].accepted == ("f0", "f2")
        live = fleet_state(svc)
        journal.simulate_power_loss()  # kill -9: no close, no flush

        recovered, j2, _ = durable_service(tmp_path / "crash")
        assert fleet_state(recovered) == live
        assert recovered.store.document("f0").size == 5  # the visit stayed
        # ...and the fleet carries on where the acknowledged reply left it
        again = recovered.handle(fleet_submit("f1"))
        assert again.epochs[0].epoch == 2
        j2.close()

    def test_crash_inside_an_epoch_recovers_the_acked_ledger(
            self, tmp_path):
        svc, journal = boot_fleet(tmp_path / "crash")
        acked = svc.handle(fleet_submit(*FLEET))
        # The second fsync of the next submission is f1's bracket: f0's
        # and f1's records are durable, f2's bracket and the ledger
        # record never happen.
        journal.faults = crash = CrashSchedule("journal-fsync", at=2)
        with pytest.raises(SimulatedCrash):
            svc.handle(fleet_submit(*FLEET))
        journal.simulate_power_loss()
        assert crash.fired

        recovered, j2, _ = durable_service(tmp_path / "crash")
        _, fleets = fleet_state(recovered)
        assert fleets == {"+".join(FLEET): {
            "set": "policy", "docs": 3, "epoch": 1,
            "checksum": acked.checksum}}
        # stream-status tells the client which brackets survived
        brackets = {doc: dict(recovered.handle(StreamStatus(doc)).stats)
                    ["transactions"] for doc in FLEET}
        assert brackets == {"f0": 2, "f1": 2, "f2": 1}
        j2.close()

    def test_crash_inside_the_first_submission_keeps_the_fleet(
            self, tmp_path):
        svc, journal = boot_fleet(tmp_path / "crash")
        # A new fleet's first fsync is its opening ledger record, the
        # second f0's bracket: the fleet and f0's bracket are durable.
        journal.faults = crash = CrashSchedule("journal-fsync", at=2)
        with pytest.raises(SimulatedCrash):
            svc.handle(fleet_submit(*FLEET))
        journal.simulate_power_loss()
        assert crash.fired

        recovered, j2, _ = durable_service(tmp_path / "crash")
        _, fleets = fleet_state(recovered)
        assert fleets == {"+".join(FLEET): {
            "set": "policy", "docs": 3, "epoch": 0, "checksum": 0}}
        assert recovered.store.live_stream("f0") is not None
        assert recovered.store.live_stream("f1") is None
        # The client retries: the fleet carries on from epoch 0, with
        # f0 now on its second visit.
        again = recovered.handle(fleet_submit(*FLEET))
        assert isinstance(again, FleetDecisions), again
        assert again.epochs[0].epoch == 1
        assert again.epochs[0].accepted == FLEET
        assert recovered.store.document("f0").size == 6
        j2.close()
