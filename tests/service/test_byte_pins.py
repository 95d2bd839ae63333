"""The wire and the journal keep their exact bytes.

Two pins, computed once and committed as constants:

* **wire** — the seeded end-to-end traffic of ``perfbench`` (seed 7,
  200 requests per connection) replayed through
  :meth:`ConstraintService.handle`: a CRC fold over every request's
  ``to_json()`` bytes and a fold over every response's
  :func:`response_checksum`;
* **journal** — a fixed durable workload (constraint set, certified
  template, three documents, pinned and unpinned leaves, a bracket, a
  certified submit, a move, a fleet epoch, a member re-registration,
  ``checkpoint_every=3``): the size and CRC32 of every file the journal
  leaves behind.

A change to how any wire class encodes — a key, a default left on the
wire, a list order — moves one of these numbers.
"""

from __future__ import annotations

import json
import sys
import zlib
from dataclasses import replace
from pathlib import Path

import pytest

from repro.certify.templates import LabelHole, NodeHole, TemplateAdd, UpdateTemplate
from repro.constraints import constraint_set
from repro.server.journal import ServerJournal
from repro.service.protocol import (
    CertifiedSubmit,
    FleetSubmit,
    RegisterConstraints,
    RegisterDocument,
    RegisterTemplate,
    StreamStatus,
    StreamSubmit,
    response_checksum,
)
from repro.service.service import ConstraintService
from repro.service.store import DocumentStore
from repro.stream.ops import AddLeaf, Begin, Commit, Move, RemoveSubtree
from repro.trees import serialize
from repro.trees.tree import DataTree
from repro.xpath.parser import parse

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
from perfbench import traffic  # noqa: E402  (the repository root's package)

_P = (1 << 61) - 1


def fold(total: int, value: int) -> int:
    return (total * 1_000_003 + value) % _P


#: (request-bytes fold, response-checksum fold) per workload.
WIRE_PINS = {
    "small_pipelined": (1142878018909592617, 1666728789250765191),
    "durable_small": (1847122524896874706, 2144226769364738824),
}


@pytest.mark.parametrize("name", sorted(WIRE_PINS))
def test_seeded_traffic_keeps_its_wire_bytes(name):
    wl = traffic.build(name, 7, 200)
    svc = ConstraintService()
    setup = [RegisterConstraints(traffic.POLICY, tuple(wl.policy))]
    setup += [RegisterDocument(doc, tree) for doc, tree in wl.fresh_documents()]
    requests = setup + list(wl.history) + [
        request for connection in wl.connections for request in connection]
    sent = answered = 0
    for request in requests:
        sent = fold(sent, zlib.crc32(request.to_json().encode()))
        if isinstance(request, RegisterDocument):
            request = replace(request, tree=request.tree.copy())
        answered = fold(answered, response_checksum(svc.handle(request)))
    assert (sent, answered) == WIRE_PINS[name]


def ward(root: int) -> DataTree:
    tree = DataTree(root_id=root)
    tree.add_child(root, "patient", nid=root + 1)
    tree.add_child(root + 1, "visit", nid=root + 2)
    tree.add_child(root + 1, "clinicalTrial", nid=root + 3)
    return tree


ANNOTATE = UpdateTemplate("annotate", (
    TemplateAdd(NodeHole("p", parse("/patient")),
                LabelHole("l", frozenset({"note", "memo"}))),))


def durable_workload(root: Path) -> ConstraintService:
    store = DocumentStore()
    journal = ServerJournal(root, fsync=False, checkpoint_every=3)
    journal.recover(store)
    store.attach_journal(journal)
    svc = ConstraintService(store=store)
    policy = constraint_set(("/patient[/clinicalTrial]", "up"),
                            ("/patient[/visit]", "down"))
    requests = [
        RegisterConstraints("p", tuple(policy)),
        RegisterTemplate("annotate", ANNOTATE, "p"),
        RegisterDocument("d", ward(1)),
        RegisterDocument("f1", ward(100)),
        RegisterDocument("f2", ward(200)),
        StreamSubmit("d", "p", (AddLeaf(2, "note", nid=40), AddLeaf(2, "memo"))),
        StreamSubmit("d", "p", (Begin("bulk"), AddLeaf(2, "visit"),
                                AddLeaf(40, "memo"), Commit())),
        CertifiedSubmit("d", "p", "annotate", (("l", "note"), ("p", 2))),
        StreamSubmit("d", "p", (Move(40, 1), RemoveSubtree(4))),
        StreamSubmit("d", "p", (AddLeaf(1, "patient"),)),
        FleetSubmit(("f1", "f2"), "p", (
            (("f1", (AddLeaf(101, "note"),)), ("f2", (AddLeaf(201, "memo"),))),
            (("f2", (RemoveSubtree(203),)),))),
        RegisterDocument("f1", ward(100), replace=True),
        CertifiedSubmit("f1", "p", "annotate", (("l", "memo"), ("p", 101))),
    ]
    for request in requests:
        assert svc.handle(request).ok, request
    journal.close()
    return svc


def fingerprint(svc: ConstraintService) -> dict[str, tuple[int, str]]:
    """Each document's stream status and tree, as wire bytes."""
    return {doc: (response_checksum(svc.handle(StreamStatus(doc))),
                  json.dumps(serialize.to_dict(svc.store.document(doc))))
            for doc in svc.store.documents()}


#: ``relative path -> (size, crc32)`` of every file the workload writes.
JOURNAL_PIN = {
    "docs/doc-d/checkpoint": (764, 3649678056),
    "docs/doc-d/journal": (259, 2447508051),
    "docs/doc-f1/journal": (457, 854800865),
    "docs/doc-f2/journal": (559, 403828472),
    "sets.journal": (752, 971630012),
}


def test_durable_workload_keeps_its_journal_bytes(tmp_path):
    live = durable_workload(tmp_path)
    files = {str(path.relative_to(tmp_path)): (path.stat().st_size,
                                                zlib.crc32(path.read_bytes()))
             for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert files == JOURNAL_PIN
    # The pinned bytes recover to the live state.
    store = DocumentStore()
    journal = ServerJournal(tmp_path, fsync=False)
    journal.recover(store)
    journal.close()
    assert fingerprint(ConstraintService(store=store)) == fingerprint(live)
