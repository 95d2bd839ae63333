"""The journal layer: record framing, durability hooks, checkpoints.

Covers the on-disk format contract (CRC-framed records, torn-tail vs
corrupt-history semantics), the write-through hooks a journaled store
runs on every mutation, leaf-id pinning at the durable boundary, and
checkpoint/compaction mechanics.  End-to-end crash recovery lives in
``test_recovery.py``; injected faults in ``test_faults.py``.
"""

from __future__ import annotations

import json
import re
import zlib

import pytest

from repro.errors import JournalCorruptError, JournalError, ServerError
from repro.server.framing import HEADER, MAX_PAYLOAD, encode_record, scan_records
from repro.server.journal import ServerJournal
from repro.service.protocol import (
    RegisterConstraints,
    RegisterDocument,
    StreamStatus,
    StreamSubmit,
)
from repro.service.service import ConstraintService
from repro.service.store import DocumentStore
from repro.stream.ops import AddLeaf, Begin, Commit, op_from_dict
from repro.constraints import constraint_set
from repro.trees import build, branch
from repro.trees.tree import DataTree

POLICY = constraint_set(("/patient[/clinicalTrial]", "up"),
                        ("/patient[/visit]", "down"))


def durable_service(root, **journal_opts):
    """A service whose store journals to ``root`` (recover-then-attach)."""
    store = DocumentStore()
    journal = ServerJournal(root, **journal_opts)
    report = journal.recover(store)
    store.attach_journal(journal)
    return ConstraintService(store=store), journal, report


def ward_doc() -> DataTree:
    return build(branch("patient", branch("clinicalTrial", nid=11), nid=10))


# ----------------------------------------------------------------------
# Record framing
# ----------------------------------------------------------------------
class TestRecordFraming:
    def test_round_trip(self):
        records = [{"kind": "a", "n": 1}, {"kind": "b", "deep": {"x": [1, 2]}}]
        blob = b"".join(encode_record(r) for r in records)
        decoded, good = scan_records(blob)
        assert decoded == records
        assert good == len(blob)

    def test_empty(self):
        assert scan_records(b"") == ([], 0)

    def test_torn_header_is_clean_cut(self):
        blob = encode_record({"kind": "a"})
        torn = blob + b"\x00\x01\x02"  # 3 bytes of a next header
        records, good = scan_records(torn)
        assert records == [{"kind": "a"}]
        assert good == len(blob)

    def test_torn_payload_is_clean_cut(self):
        first = encode_record({"kind": "a"})
        second = encode_record({"kind": "b", "pad": "x" * 100})
        torn = first + second[:-7]
        records, good = scan_records(torn)
        assert records == [{"kind": "a"}]
        assert good == len(first)

    def test_corrupt_crc_raises(self):
        blob = bytearray(encode_record({"kind": "a", "pad": "xxxx"}))
        blob[HEADER.size + 2] ^= 0xFF  # flip a payload byte
        with pytest.raises(JournalCorruptError) as err:
            scan_records(bytes(blob), path="j")
        assert err.value.path == "j"
        assert err.value.offset == 0

    def test_corrupt_second_record_names_offset(self):
        first = encode_record({"kind": "a"})
        second = bytearray(encode_record({"kind": "b"}))
        second[-1] ^= 0x01
        with pytest.raises(JournalCorruptError) as err:
            scan_records(first + bytes(second))
        assert err.value.offset == len(first)

    def test_absurd_length_field_is_corrupt(self):
        payload = b"{}"
        blob = HEADER.pack(MAX_PAYLOAD + 1, zlib.crc32(payload)) + payload
        with pytest.raises(JournalCorruptError):
            scan_records(blob)

    def test_crc_valid_but_not_json_is_corrupt(self):
        payload = b"not json"
        blob = HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        with pytest.raises(JournalCorruptError):
            scan_records(blob)

    def test_oversize_record_refused_at_write(self):
        with pytest.raises(ServerError):
            encode_record({"pad": "x" * (MAX_PAYLOAD + 1)})


# ----------------------------------------------------------------------
# Write-through hooks
# ----------------------------------------------------------------------
class TestWriteThrough:
    def test_registrations_and_submissions_are_journaled(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path)
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        svc.handle(RegisterDocument("ward", ward_doc()))
        svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        journal.close()

        sets, _ = scan_records(journal.sets_journal_path.read_bytes())
        assert [r["kind"] for r in sets] == ["constraints"]
        doc, _ = scan_records(journal.doc_journal_path("ward").read_bytes())
        assert [r["kind"] for r in doc] == ["document", "submit"]
        # lsns are globally monotone across files
        all_lsns = [r["lsn"] for r in sets + doc]
        assert sorted(all_lsns) == sorted(set(all_lsns))

    def test_empty_submission_writes_no_record(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path)
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        svc.handle(RegisterDocument("ward", ward_doc()))
        svc.handle(StreamSubmit("ward", "policy", ()))
        journal.close()
        doc, _ = scan_records(journal.doc_journal_path("ward").read_bytes())
        assert [r["kind"] for r in doc] == ["document"]

    def test_unpinned_leaf_ids_are_pinned_in_the_journal(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path)
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        tree = ward_doc()
        start = max(tree.node_ids()) + 1  # the root id is auto-allocated
        svc.handle(RegisterDocument("ward", tree))
        svc.handle(StreamSubmit("ward", "policy",
                                (AddLeaf(10, "note"), AddLeaf(10, "visit"))))
        journal.close()
        doc, _ = scan_records(journal.doc_journal_path("ward").read_bytes())
        ops = [op_from_dict(d) for d in doc[-1]["ops"]]
        assert [op.nid for op in ops] == [start, start + 1]

    def test_rejected_submission_is_still_journaled(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path)
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        svc.handle(RegisterDocument("ward", ward_doc()))
        reply = svc.handle(StreamSubmit("ward", "policy",
                                        (AddLeaf(10, "visit"),)))
        assert reply.decisions[0].accepted is False  # no-insert on visit
        journal.close()
        doc, _ = scan_records(journal.doc_journal_path("ward").read_bytes())
        assert [r["kind"] for r in doc] == ["document", "submit"]

    def test_protocol_error_journals_the_applied_prefix(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path)
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        svc.handle(RegisterDocument("ward", ward_doc()))
        # Commit outside a transaction raises after the first op applied.
        reply = svc.handle(StreamSubmit("ward", "policy",
                                        (AddLeaf(10, "note"), Commit())))
        assert reply.to_dict()["response"] == "error"
        journal.close()
        doc, _ = scan_records(journal.doc_journal_path("ward").read_bytes())
        assert doc[-1]["kind"] == "submit"
        assert len(doc[-1]["ops"]) == 1  # only the applied prefix

    @pytest.mark.parametrize("op", [
        {"op": "add-leaf", "parent": 10, "label": None},
        {"op": "add-leaf", "parent": 10, "label": 7},
        {"op": "add-leaf", "parent": True, "label": "note"},
        {"op": "add-leaf", "parent": 10, "label": "note", "nid": "12"},
        {"op": "move", "nid": 11, "new_parent": 10.0},
        {"op": "remove-subtree", "nid": False},
        {"op": "begin", "name": 3},
    ])
    def test_poison_op_is_refused_before_it_is_journaled(self, tmp_path, op):
        """An op recovery could not replay never reaches the journal: the
        request is refused at decode and a restart recovers cleanly."""
        svc, journal, _ = durable_service(tmp_path)
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        svc.handle(RegisterDocument("ward", ward_doc()))
        svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        path = journal.doc_journal_path("ward")
        before = path.read_bytes()
        reply = json.loads(svc.handle_json(json.dumps(
            {"request": "stream-submit", "document": "ward",
             "constraints": "policy", "ops": [op]})))
        assert reply["response"] == "error"
        assert reply["error"] == "ServiceError"
        assert "bad fields for stream op" in reply["message"]
        assert path.read_bytes() == before
        live = svc.handle(StreamStatus("ward")).to_dict()
        journal.close()

        revived, journal, report = durable_service(tmp_path)
        assert "ward" in report.documents
        assert revived.handle(StreamStatus("ward")).to_dict() == live
        journal.close()

    def test_replace_registration_resets_the_journal(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path)
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        svc.handle(RegisterDocument("ward", ward_doc()))
        svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        svc.handle(RegisterDocument("ward", ward_doc(), replace=True))
        journal.close()
        doc, _ = scan_records(journal.doc_journal_path("ward").read_bytes())
        assert [r["kind"] for r in doc] == ["document"]
        assert doc[0]["replace"] is True

    def test_closed_journal_refuses_appends(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path)
        journal.close()
        with pytest.raises(JournalError):
            journal.constraints_registered("p", (), False)


# ----------------------------------------------------------------------
# Checkpoints and compaction
# ----------------------------------------------------------------------
class TestCheckpoints:
    def register(self, svc):
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        svc.handle(RegisterDocument("ward", ward_doc()))

    def test_checkpoint_compacts_the_journal(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path, checkpoint_every=3)
        self.register(svc)
        for _ in range(3):
            svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        journal.close()
        assert journal.doc_checkpoint_path("ward").exists()
        doc, _ = scan_records(journal.doc_journal_path("ward").read_bytes())
        assert doc == []  # everything covered by the checkpoint

    def test_records_after_checkpoint_survive(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path, checkpoint_every=3)
        self.register(svc)
        for _ in range(5):
            svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        journal.close()
        doc, _ = scan_records(journal.doc_journal_path("ward").read_bytes())
        assert [r["kind"] for r in doc] == ["submit", "submit"]

    def test_no_checkpoint_inside_open_transaction(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path, checkpoint_every=2)
        self.register(svc)
        svc.handle(StreamSubmit("ward", "policy",
                                (Begin(), AddLeaf(10, "note"))))
        # the due checkpoint was skipped: the bracket is still open
        assert not journal.doc_checkpoint_path("ward").exists()
        svc.handle(StreamSubmit("ward", "policy", (Commit(),)))
        assert journal.doc_checkpoint_path("ward").exists()
        journal.close()

    def test_checkpoint_bounds_the_audit_trail(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path, checkpoint_every=4,
                                          audit_keep=2)
        self.register(svc)
        for _ in range(4):
            svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        _, enforcer = svc.store.live_stream("ward")
        assert len(enforcer.audit) == 4          # total length is kept
        assert len(enforcer.audit.entries) == 2  # retained suffix bounded
        assert enforcer.audit.dropped == 2
        journal.close()

    def test_checkpoint_is_a_single_valid_record(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path, checkpoint_every=1)
        self.register(svc)
        svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        journal.close()
        blob = journal.doc_checkpoint_path("ward").read_bytes()
        records, good = scan_records(blob)
        assert good == len(blob)
        (record,) = records
        assert record["kind"] == "checkpoint"
        assert record["doc"] == "ward"
        assert record["set"] == "policy"
        assert record["state"]["version"] == 1
        assert record["state"]["engine"] == "bitset"
        json.dumps(record)  # JSON-safe throughout

    @pytest.mark.parametrize("field, value", [("engine", "indexed"),
                                              ("version", 2)])
    def test_refused_checkpoint_names_document_and_lsn(self, tmp_path,
                                                        field, value):
        svc, journal, _ = durable_service(tmp_path, checkpoint_every=1)
        self.register(svc)
        svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        journal.close()
        path = journal.doc_checkpoint_path("ward")
        (record,), _ = scan_records(path.read_bytes())
        record["state"][field] = value
        path.write_bytes(encode_record(record))  # CRC-valid, refused state
        where = re.escape(f"(lsn {record['lsn']}) for document 'ward'")
        with pytest.raises(JournalError,
                           match=f"{where}.*{re.escape(repr(value))}"):
            ServerJournal(tmp_path).recover(DocumentStore())


# ----------------------------------------------------------------------
# fsync bookkeeping
# ----------------------------------------------------------------------
class TestPowerLossModel:
    def test_no_fsync_means_unsynced_bytes_vanish(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path, fsync=False)
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        svc.handle(RegisterDocument("ward", ward_doc()))
        svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        journal.simulate_power_loss()
        assert journal.doc_journal_path("ward").read_bytes() == b""
        assert journal.sets_journal_path.read_bytes() == b""

    def test_explicit_sync_pins_the_bytes(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path, fsync=False)
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        svc.handle(RegisterDocument("ward", ward_doc()))
        journal.sync()
        svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        journal.simulate_power_loss()
        doc, _ = scan_records(journal.doc_journal_path("ward").read_bytes())
        assert [r["kind"] for r in doc] == ["document"]  # submit vanished

    def test_fsync_on_means_nothing_vanishes(self, tmp_path):
        svc, journal, _ = durable_service(tmp_path, fsync=True)
        svc.handle(RegisterConstraints("policy", tuple(POLICY)))
        svc.handle(RegisterDocument("ward", ward_doc()))
        svc.handle(StreamSubmit("ward", "policy", (AddLeaf(10, "note"),)))
        journal.simulate_power_loss()
        doc, _ = scan_records(journal.doc_journal_path("ward").read_bytes())
        assert [r["kind"] for r in doc] == ["document", "submit"]
