"""Crash recovery reconverges on the live state — the core contract.

The durable server's promise: restart from the journal directory and the
recovered fleet is *indistinguishable* from the live one — same response
checksums for any continuation workload, same final documents, same
stream counters, same fleet ledgers.  These tests run a seeded
multi-document workload — stream submits on two documents, fleet
submits (structural errors, violating epochs, member re-registrations,
member stream submits, two fleets over overlapping members) on three
more — cut it at arbitrary points, recover into a fresh store,
and drive the live and recovered services with the identical
continuation, comparing response checksums pairwise (the same
equivalence oracle the service suite uses).

Requests are served in their wire form, decoded afresh per service: a
``RegisterDocument`` adopts its tree, so one request object handed to
both services would make them share a document.
"""

from __future__ import annotations

import random
import re
import shutil

import pytest

from repro.certify import (
    LabelHole,
    NodeHole,
    SubtreeHole,
    TemplateAdd,
    TemplateRemove,
    UpdateTemplate,
)
from repro.constraints import constraint_set
from repro.errors import JournalCorruptError, JournalError
from repro.server.journal import ServerJournal
from repro.service.protocol import (
    CertifiedSubmit,
    FleetSubmit,
    MetricsRequest,
    RegisterConstraints,
    RegisterDocument,
    RegisterTemplate,
    StreamStatus,
    StreamSubmit,
    request_from_dict,
    response_checksum,
)
from repro.service.service import ConstraintService
from repro.service.store import DocumentStore
from repro.stream.ops import AddLeaf, Begin, Commit, Move, RemoveSubtree, Rollback
from repro.trees import serialize

POLICY = constraint_set(
    ("/patient[/clinicalTrial]", "up"),
    ("/patient[/clinicalTrial]", "down"),
    ("/patient[/visit]", "down"),
)

DOCS = ("ward", "clinic")
FLEET = ("f0", "f1", "f2")


def durable_service(root, **journal_opts):
    store = DocumentStore()
    journal = ServerJournal(root, **journal_opts)
    report = journal.recover(store)
    store.attach_journal(journal)
    return ConstraintService(store=store), journal, report


def fresh_doc():
    """Every id pinned (root included): two calls build *identical* trees,
    so cross-service checksum comparisons see the same node ids."""
    from repro.trees.tree import DataTree
    doc = DataTree(root_id=1)
    doc.add_child(1, "patient", nid=5)
    doc.add_child(5, "visit", nid=7)
    doc.add_child(5, "clinicalTrial", nid=8)
    return doc


def register_all(svc):
    svc.handle(RegisterConstraints("policy", tuple(POLICY)))
    for doc in DOCS + FLEET:
        svc.handle(RegisterDocument(doc, fresh_doc()))


def fleet_epoch(rng: random.Random, members):
    """One epoch over a random subset of the members: accepted edits,
    violations (the policy freezes visits and trials), structural errors
    (a missing node, the root), and unpinned leaves after them."""
    epoch = []
    for doc in members:
        if rng.random() < 0.4:
            continue
        ops = []
        for _ in range(rng.randint(0, 3)):
            roll = rng.random()
            if roll < 0.45:
                ops.append(AddLeaf(5, rng.choice(["note", "visit"])))
            elif roll < 0.6:
                ops.append(RemoveSubtree(rng.choice([7, 8])))
            elif roll < 0.75:
                ops.append(Move(7, 5))
            elif roll < 0.85:
                ops.append(RemoveSubtree(999))
            else:
                ops.append(Move(1, 5))
        epoch.append((doc, tuple(ops)))
    return tuple(epoch)


def workload(seed: int, length: int):
    """A seeded request stream: stream submits (ops + transactions) on
    two documents; on three more, fleet submits over all three or the
    first two, member re-registrations (which drop the fleet), and
    stream submits that a live fleet refuses and a dropped one admits."""
    rng = random.Random(seed)
    requests = []
    for _ in range(length):
        if rng.random() < 0.3:
            roll = rng.random()
            if roll < 0.15:
                requests.append(RegisterDocument(
                    rng.choice(FLEET), fresh_doc(), replace=True))
            elif roll < 0.3:
                requests.append(StreamSubmit(rng.choice(FLEET), "policy",
                                             (AddLeaf(5, "note"),)))
            else:
                members = FLEET if rng.random() < 0.7 else FLEET[:2]
                requests.append(FleetSubmit(members, "policy", tuple(
                    fleet_epoch(rng, members)
                    for _ in range(rng.randint(1, 2)))))
            continue
        doc = rng.choice(DOCS)
        roll = rng.random()
        if roll < 0.45:
            ops = (AddLeaf(5, rng.choice(["note", "visit", "clinicalTrial"])),)
        elif roll < 0.6:
            ops = (RemoveSubtree(rng.choice([7, 8])),)
        elif roll < 0.7:
            ops = (Move(7, 5),)
        elif roll < 0.85:
            ops = (Begin(), AddLeaf(5, "note"), AddLeaf(5, "visit"), Commit())
        else:
            ops = (Begin(), AddLeaf(5, "note"), Rollback())
        requests.append(StreamSubmit(doc, "policy", ops))
    return requests


def drive(svc, requests):
    """Serve a request list in wire form; returns the response checksum
    stream."""
    return [response_checksum(svc.handle(request_from_dict(r.to_dict())))
            for r in requests]


def fingerprint(svc):
    """Everything observable: per-document status + serialized trees,
    and every live fleet's ledger."""
    state = {}
    for doc in DOCS + FLEET:
        state[doc] = (svc.handle(StreamStatus(doc)).to_dict(),
                      serialize.to_dict(svc.store.document(doc)))
    state["fleets"] = svc.handle(MetricsRequest()).to_dict().get("fleets")
    return state


class TestRecoveryEquivalence:
    @pytest.mark.parametrize("cut", [0, 1, 7, 13, 29, 50])
    @pytest.mark.parametrize("checkpoint_every", [2, 4, 1000])
    def test_recovered_equals_live_at_any_cut(self, tmp_path, cut,
                                              checkpoint_every):
        """Cut the workload anywhere; recovery must reconverge exactly.

        ``checkpoint_every=4`` exercises snapshot+replay recovery,
        ``1000`` pure journal replay — both must be invisible.
        """
        live, journal, _ = durable_service(
            tmp_path, checkpoint_every=checkpoint_every)
        register_all(live)
        requests = workload(seed=0xD1CE + cut, length=50)
        drive(live, requests[:cut])

        # fsync=True means every record is on disk the moment its request
        # was answered — recovery needs no clean shutdown (that is the
        # point); the live service carries on with its own journal.
        recovered, journal2, report = durable_service(
            tmp_path, checkpoint_every=checkpoint_every)
        assert sorted(report.documents) == sorted(DOCS + FLEET)
        assert fingerprint(recovered) == fingerprint(live)

        # ...and the futures agree too: the identical continuation yields
        # bit-identical response streams on both fleets.
        continuation = requests[cut:]
        assert drive(recovered, continuation) == drive(live, continuation)
        assert fingerprint(recovered) == fingerprint(live)
        journal.close()
        journal2.close()

    def test_checkpoint_and_full_replay_agree(self, tmp_path):
        """The same history through snapshots and through pure replay."""
        a_root = tmp_path / "a"
        b_root = tmp_path / "b"
        requests = workload(seed=0xFACE, length=40)
        svc_a, ja, _ = durable_service(a_root, checkpoint_every=5)
        svc_b, jb, _ = durable_service(b_root, checkpoint_every=10 ** 6)
        register_all(svc_a)
        register_all(svc_b)
        assert drive(svc_a, requests) == drive(svc_b, requests)
        ja.close()
        jb.close()
        rec_a, ja2, rep_a = durable_service(a_root, checkpoint_every=5)
        rec_b, jb2, rep_b = durable_service(b_root, checkpoint_every=10 ** 6)
        assert rep_a.checkpoints_used and not rep_b.checkpoints_used
        assert fingerprint(rec_a) == fingerprint(rec_b) == fingerprint(svc_a)
        ja2.close()
        jb2.close()

    def test_recover_recover_is_idempotent(self, tmp_path):
        live, journal, _ = durable_service(tmp_path, checkpoint_every=3)
        register_all(live)
        drive(live, workload(seed=7, length=20))
        journal.close()
        once, j1, _ = durable_service(tmp_path, checkpoint_every=3)
        j1.close()
        twice, j2, _ = durable_service(tmp_path, checkpoint_every=3)
        assert fingerprint(once) == fingerprint(twice) == fingerprint(live)
        j2.close()

    def test_recovery_replays_decisions_bit_for_bit(self, tmp_path):
        """Sequence numbers, rejections and fast-path flags all survive."""
        live, journal, _ = durable_service(tmp_path, checkpoint_every=1000)
        register_all(live)
        drive(live, workload(seed=3, length=25))
        _, live_enf = live.store.live_stream("ward")
        live_trail = [str(d) for d in live_enf.audit]
        journal.close()
        recovered, j2, _ = durable_service(tmp_path, checkpoint_every=1000)
        _, rec_enf = recovered.store.live_stream("ward")
        assert [str(d) for d in rec_enf.audit] == live_trail
        j2.close()

    def test_replaced_set_interleaving_recovers_in_order(self, tmp_path):
        """A set replacement between submissions lands at the right lsn.

        Replacing a constraint set drops the live streams enforcing it;
        submissions after the replacement open a *fresh* stream with a
        fresh baseline.  Only the global lsn order reconstructs that
        correctly — per-file replay would reopen the stream against the
        wrong policy epoch.
        """
        live, journal, _ = durable_service(tmp_path, checkpoint_every=1000)
        register_all(live)
        first = [StreamSubmit("ward", "policy", (AddLeaf(5, "note"),)),
                 StreamSubmit("ward", "policy", (RemoveSubtree(7),))]
        drive(live, first)
        live.handle(RegisterConstraints(
            "policy", tuple(constraint_set(("/patient[/note]", "down"))),
            replace=True))
        second = [StreamSubmit("ward", "policy", (AddLeaf(5, "note"),)),
                  StreamSubmit("ward", "policy", (AddLeaf(5, "visit"),))]
        drive(live, second)

        recovered, j2, _ = durable_service(tmp_path, checkpoint_every=1000)
        assert fingerprint(recovered) == fingerprint(live)
        # the post-replacement policy epoch governs both fleets alike:
        # notes are now frozen (rejected), visits free (accepted) — on the
        # clinic document, untouched so far, with identical checksums.
        tail = [StreamSubmit("clinic", "policy", (AddLeaf(5, "note"),)),
                StreamSubmit("clinic", "policy", (AddLeaf(5, "visit"),))]
        assert drive(recovered, tail) == drive(live, tail)
        note, visit = (recovered.store.live_stream("clinic")[1]
                       .audit.entries[-2:])
        assert note.rejected and visit.accepted
        journal.close()
        j2.close()


#: Two notes under one node: certified against POLICY.
TWO_NOTES = UpdateTemplate("two-notes", (
    TemplateAdd(NodeHole("p"), "note"),
    TemplateAdd(NodeHole("p"), "note"),
))
#: Remove a note-only subtree, then add a note under a node: certified
#: against POLICY, and structurally broken halfway when ``x`` and ``y``
#: bind one node (the guard checks each op against the pre-state).
REMOVE_THEN_ADD = UpdateTemplate("remove-then-add", (
    TemplateRemove(SubtreeHole("x", frozenset({"note"}))),
    TemplateAdd(NodeHole("y"), LabelHole("l", frozenset({"note"}))),
))


def certified(template, **bindings):
    return CertifiedSubmit("ward", "policy", template,
                           tuple(sorted(bindings.items())))


#: Refused requests that took no decision; ``ward`` has no stream yet.
IDLE = {
    "empty stream-submit": StreamSubmit("ward", "policy", ()),
    "lone commit": StreamSubmit("ward", "policy", (Commit(),)),
    "binding outside its domain": certified("remove-then-add", x=9, y=5,
                                            l="visit"),
    "refused by its guard": certified("two-notes", p=999),
    "structural failure halfway": certified("remove-then-add", x=9, y=9,
                                            l="note"),
}
#: Refused requests that pinned leaf ids no record kept.
PINNED = {
    "nested begin after one add": StreamSubmit("ward", "policy", (
        AddLeaf(5, "note"), Begin(), Begin(), AddLeaf(5, "note"))),
    "refused by its guard": IDLE["refused by its guard"],
    "structural failure halfway": IDLE["structural failure halfway"],
}


class TestRefusedRequests:
    """A refused request leaves nothing a restart would not rebuild:
    the next fresh leaf id, ``stream-status`` and fleet admission agree
    between a live service and one recovered from a copy of its
    journal directory."""

    @staticmethod
    def live_and_restarted(tmp_path, refused):
        live, journal, _ = durable_service(tmp_path / "live")
        live.handle(RegisterConstraints("policy", tuple(POLICY)))
        doc = fresh_doc()
        doc.add_child(5, "note", nid=9)
        live.handle(RegisterDocument("ward", doc))
        for template in (TWO_NOTES, REMOVE_THEN_ADD):
            ack = live.handle(RegisterTemplate(template.name, template,
                                               "policy"))
            assert dict(ack.stats)["certify.certified"] == 1
        assert live.handle(request_from_dict(refused.to_dict())).kind in (
            "error", "decisions")
        shutil.copytree(tmp_path / "live", tmp_path / "copy")
        restarted, j2, _ = durable_service(tmp_path / "copy")
        return (live, journal), (restarted, j2)

    @pytest.mark.parametrize("case", sorted(PINNED))
    def test_refused_request_uses_up_no_leaf_id(self, tmp_path, case):
        pairs = self.live_and_restarted(tmp_path, PINNED[case])
        status = [svc.handle(StreamStatus("ward")) for svc, _ in pairs]
        assert status[0] == status[1]
        probe = StreamSubmit("ward", "policy", (AddLeaf(5, "note"),))
        ids = [svc.handle(probe).decisions[0].op.nid for svc, _ in pairs]
        assert ids[0] == ids[1]
        for _, journal in pairs:
            journal.close()

    @pytest.mark.parametrize("case", sorted(IDLE))
    def test_request_that_journals_nothing_opens_no_stream(self, tmp_path,
                                                           case):
        pairs = self.live_and_restarted(tmp_path, IDLE[case])
        status = [svc.handle(StreamStatus("ward")).to_dict()
                  for svc, _ in pairs]
        assert status[0] == status[1] == {
            "response": "ack", "registered": "stream", "name": "ward",
            "size": 0}
        fleet = FleetSubmit(("ward",), "policy", ((("ward", ()),),))
        replies = [svc.handle(fleet) for svc, _ in pairs]
        assert replies[0] == replies[1]
        assert replies[0].kind == "fleet-decisions"
        for _, journal in pairs:
            journal.close()


class TestRecoveryRefusals:
    def test_corrupt_history_refuses_loudly(self, tmp_path):
        from repro.server.faults import flip_byte
        live, journal, _ = durable_service(tmp_path, checkpoint_every=1000)
        register_all(live)
        drive(live, workload(seed=1, length=5))
        journal.close()
        flip_byte(journal.doc_journal_path("ward"), offset=20)
        with pytest.raises(JournalCorruptError):
            durable_service(tmp_path, checkpoint_every=1000)

    def test_submissions_without_registration_refuse(self, tmp_path):
        from repro.server.framing import encode_record
        doc_dir = tmp_path / "docs" / "doc-ghost"
        doc_dir.mkdir(parents=True)
        (doc_dir / "journal").write_bytes(encode_record(
            {"kind": "submit", "lsn": 1, "set": "policy", "ops": []}))
        with pytest.raises(JournalError):
            durable_service(tmp_path)

    def test_unknown_record_kind_refuses(self, tmp_path):
        from repro.server.framing import encode_record
        doc_dir = tmp_path / "docs" / "doc-ghost"
        doc_dir.mkdir(parents=True)
        (doc_dir / "journal").write_bytes(
            encode_record({"kind": "document", "lsn": 1, "name": "ghost",
                           "tree": serialize.to_dict(fresh_doc())}) +
            encode_record({"kind": "mystery", "lsn": 2}))
        with pytest.raises(JournalError):
            durable_service(tmp_path)

    def test_drop_of_an_unopened_fleet_refuses(self, tmp_path):
        from repro.server.framing import encode_record
        tmp_path.joinpath("docs").mkdir()
        (tmp_path / "sets.journal").write_bytes(encode_record(
            {"kind": "fleet-drop", "lsn": 1, "documents": ["f0"],
             "set": "policy"}))
        with pytest.raises(JournalError, match="never opened"):
            durable_service(tmp_path)

    @pytest.mark.parametrize("members, set_name, missing", [
        (["f0", "ghost"], "policy", "document 'ghost'"),
        (["f0"], "lost", "constraint set 'lost'"),
    ])
    def test_fleet_naming_an_unregistered_member_refuses(
            self, tmp_path, members, set_name, missing):
        # A ledger skips admission: without the post-replay check this
        # recovered a fleet every later fleet-submit failed on.
        from repro.server.framing import encode_record
        live, journal, _ = durable_service(tmp_path)
        register_all(live)
        journal.close()
        with open(journal.sets_journal_path, "ab") as ledgers:
            ledgers.write(encode_record(
                {"kind": "fleet", "lsn": 100, "documents": members,
                 "set": set_name, "epoch": 0, "checksum": 0}))
        with pytest.raises(JournalError, match=f"names {missing}"):
            durable_service(tmp_path)

    def test_checkpoint_naming_unregistered_set_refuses(self, tmp_path):
        live, journal, _ = durable_service(tmp_path, checkpoint_every=1)
        register_all(live)
        drive(live, workload(seed=2, length=3))
        journal.close()
        journal.sets_journal_path.write_bytes(b"")  # lose the registrations
        with pytest.raises(JournalError):
            durable_service(tmp_path, checkpoint_every=1)


def _without_lsn(record):
    return {key: value for key, value in record.items() if key != "lsn"}


#: CRC-valid ``sets.journal`` records no writer produces: ``(record
#: index, edit)``, where record 0 registers the set and record -1 is the
#: fleet's ledger after its first submission.
MALFORMED = {
    "a JSON list": (-1, lambda r: [r]),
    "no lsn": (-1, _without_lsn),
    "a string lsn": (-1, lambda r: {**r, "lsn": str(r["lsn"])}),
    "a string epoch": (-1, lambda r: {**r, "epoch": str(r["epoch"])}),
    "a float epoch": (-1, lambda r: {**r, "epoch": r["epoch"] + 0.9}),
    "a string of members": (-1, lambda r: {**r, "documents": "abc"}),
    "a string flag": (0, lambda r: {**r, "replace": "false"}),
}


class TestMalformedRecords:
    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_recovery_refuses_naming_file_and_lsn(self, tmp_path, case):
        from repro.server.framing import encode_record, scan_records
        live, journal, _ = durable_service(tmp_path)
        live.handle(RegisterConstraints("policy", tuple(POLICY)))
        live.handle(RegisterDocument("f0", fresh_doc()))
        live.handle(FleetSubmit(("f0",), "policy", (
            (("f0", (AddLeaf(5, "note"),)),),)))
        journal.close()
        path = journal.sets_journal_path
        records, _ = scan_records(path.read_bytes())
        at, edit = MALFORMED[case]
        lsn = records[at]["lsn"]
        edited = records[at] = edit(records[at])
        path.write_bytes(b"".join(encode_record(r) for r in records))
        keeps_lsn = isinstance(edited, dict) and edited.get("lsn") == lsn
        where = f"(lsn {lsn}) in {path}" if keeps_lsn else str(path)
        with pytest.raises(JournalError, match=re.escape(where)):
            durable_service(tmp_path)


class TestDocumentNames:
    @pytest.mark.parametrize("name", ["plain", "with space", "slash/y",
                                      "dots..", "unicode-ä", "%41%2F"])
    def test_names_round_trip_through_the_filesystem(self, tmp_path, name):
        live, journal, _ = durable_service(tmp_path)
        live.handle(RegisterConstraints("policy", tuple(POLICY)))
        live.handle(RegisterDocument(name, fresh_doc()))
        live.handle(StreamSubmit(name, "policy", (AddLeaf(5, "note"),)))
        journal.close()
        recovered, j2, report = durable_service(tmp_path)
        assert report.documents == [name]
        status = recovered.handle(StreamStatus(name)).to_dict()
        assert status["size"] == 1
        j2.close()
