"""Fleet submissions through the service front door.

``FleetSubmit`` rides the same JSON-serialisable protocol as every
other request: wire round-trips, ledger continuation across
submissions, members' epochs as brackets on their own streams, the
whole request validated before any document is touched (in memory and
on a durable store), and the store's membership rules — a document
belongs to at most one live fleet, a fleet member takes no other
writes, and dropping a fleet closes every member's stream (and
binding).  On a durable store, the ledger, the membership, the pinned
leaf ids and a fleet's drop survive a restart.
"""

from __future__ import annotations

import json
import shutil

import pytest

from repro import ConstraintService
from repro.certify import LabelHole, NodeHole, TemplateAdd, UpdateTemplate
from repro.constraints import no_remove
from repro.errors import ServiceError
from repro.server.journal import ServerJournal
from repro.service import (
    CertifiedSubmit,
    DocumentStore,
    ErrorResponse,
    FleetDecisions,
    FleetSubmit,
    InstanceQuery,
    RegisterTemplate,
    StreamStatus,
    StreamSubmit,
    request_from_dict,
    response_checksum,
    response_from_dict,
)
from repro.stream import AddLeaf, Begin, Commit, RemoveSubtree, Rollback
from repro.trees import DataTree, serialize
from repro.xpath.parser import parse

POLICY = [("/patient[/clinicalTrial]", "up")]


def make_doc() -> DataTree:
    doc = DataTree()
    patient = doc.add_child(doc.root, "patient")
    doc.add_child(patient, "clinicalTrial")
    return doc


def one_leaf(label: str) -> DataTree:
    doc = DataTree()
    doc.add_child(doc.root, label)
    return doc


def make_service(docs) -> ConstraintService:
    svc = ConstraintService()
    svc.register_constraints("policy", POLICY)
    for name, doc in docs:
        svc.register_document(name, doc)
    return svc


def submit(svc: ConstraintService, request: FleetSubmit):
    """Drive the request through the full wire path (dict in, dict out)."""
    payload = json.loads(json.dumps(request.to_dict()))
    return response_from_dict(svc.handle_dict(payload))


def traffic(doc: DataTree) -> tuple:
    patient = next(n for n in doc.node_ids() if doc.label(n) == "patient")
    trial = next(n for n in doc.node_ids()
                 if doc.label(n) == "clinicalTrial")
    return (
        (("ward0", (AddLeaf(patient, "visit"),)),),   # epoch 1: fine
        (("ward0", (RemoveSubtree(trial),)),),        # epoch 2: violates
    )


def test_fleet_submit_round_trips():
    doc = make_doc()
    request = FleetSubmit(documents=("ward0", "ward1"), constraints="policy",
                          epochs=traffic(doc))
    wire = json.loads(json.dumps(request.to_dict()))
    assert request_from_dict(wire) == request
    assert request_from_dict(wire).to_dict() == request.to_dict()
    # An older client's "backend" field is ignored like any unknown key.
    assert request_from_dict({**wire, "backend": "numpy"}) == request


def test_fleet_decisions_over_the_wire():
    base = make_doc()
    svc = make_service([("ward0", base.copy()), ("ward1", make_doc())])
    epochs = traffic(base)
    response = submit(svc, FleetSubmit(
        documents=("ward0", "ward1"), constraints="policy", epochs=epochs))
    assert isinstance(response, FleetDecisions)
    assert response.docs == 2
    assert [e.epoch for e in response.epochs] == [1, 2]
    good, bad = response.epochs
    assert good.edited == ("ward0",) and good.rejected == ()
    assert bad.rejected == ("ward0",)
    assert bad.violations and bad.violations[0][0] == "ward0"
    assert response.accepted_count == 1 and response.rejected_count == 1
    # The rejected epoch rolled ward0 back to its post-epoch-1 state.
    ward0 = svc.store.document("ward0")
    assert any(ward0.label(n) == "visit" for n in ward0.node_ids())
    assert any(ward0.label(n) == "clinicalTrial" for n in ward0.node_ids())
    assert response_from_dict(response.to_dict()) == response


def test_session_continues_across_submissions():
    base = make_doc()
    svc = make_service([("ward0", base.copy()), ("ward1", make_doc())])
    first, second = traffic(base)
    r1 = submit(svc, FleetSubmit(documents=("ward0", "ward1"),
                                 constraints="policy", epochs=(first,)))
    r2 = submit(svc, FleetSubmit(documents=("ward0", "ward1"),
                                 constraints="policy", epochs=(second,)))
    assert r2.epochs[0].epoch == 2  # the epoch counter carried across
    assert r1.checksum != r2.checksum
    [(docs, set_name, ledger)] = svc.store.live_fleets()
    assert docs == ("ward0", "ward1") and set_name == "policy"
    assert ledger.epoch == 2 and ledger.checksum == r2.checksum


def test_members_run_brackets_on_their_own_streams():
    base = make_doc()
    svc = make_service([("ward0", base.copy()), ("ward1", make_doc())])
    submit(svc, FleetSubmit(documents=("ward0", "ward1"),
                            constraints="policy", epochs=traffic(base)))
    # ward0 ran two brackets (one committed, one rolled back); ward1 was
    # never edited, so no stream opened for it.
    status = svc.handle(StreamStatus("ward0"))
    stats = dict(status.stats)
    assert status.size == 6  # Begin, op, Commit twice
    assert stats["transactions"] == 2 and stats["committed"] == 1
    assert stats["rolled_back"] == 1 and stats["ops"] == 2
    assert svc.store.live_stream("ward1") is None
    assert svc.handle(StreamStatus("ward1")).size == 0
    # Instance queries on a member bind through its stream's index.
    _, enforcer = svc.store.live_stream("ward0")
    reply = svc.handle(InstanceQuery(
        "policy", "ward0", (no_remove("/patient[/clinicalTrial]"),)))
    assert reply.ok
    assert svc.store.binding("policy", "ward0").context.index \
        is enforcer.context.index


def test_structural_error_rolls_back_the_members_epoch():
    base = make_doc()
    svc = make_service([("ward0", base.copy()), ("ward1", make_doc())])
    before = svc.store.document("ward0").copy()
    response = submit(svc, FleetSubmit(
        documents=("ward0", "ward1"), constraints="policy",
        epochs=((("ward0", (AddLeaf(base.root, "note"),
                            RemoveSubtree(10 ** 9),
                            AddLeaf(base.root, "never"))),),)))
    [epoch] = response.epochs
    assert epoch.rejected == ("ward0",) and epoch.violations == ()
    [(doc, note)] = epoch.structural
    assert doc == "ward0" and note.startswith("structural error: ")
    assert svc.store.document("ward0").same_instance(before)
    # The op after the structural error never ran: Begin, two ops, Rollback.
    stats = dict(svc.handle(StreamStatus("ward0")).stats)
    assert stats["ops"] == 2 and stats["rolled_back"] == 1


def test_rollback_restores_the_pre_epoch_state_not_the_baseline():
    """An accepted epoch advances the rollback point."""
    base = make_doc()
    svc = make_service([("ward0", base.copy())])
    fleet = dict(documents=("ward0",), constraints="policy")
    ok = submit(svc, FleetSubmit(**fleet, epochs=(
        (("ward0", (AddLeaf(base.root, "note"),)),),)))
    assert ok.epochs[0].rejected == ()
    grown = svc.store.document("ward0").copy()
    trial = next(n for n in base.node_ids()
                 if base.label(n) == "clinicalTrial")
    bad = submit(svc, FleetSubmit(**fleet, epochs=(
        (("ward0", (RemoveSubtree(trial),)),),)))
    assert bad.epochs[0].rejected == ("ward0",)
    assert bad.epochs[0].violations  # a no-remove witness names the node
    assert svc.store.document("ward0").same_instance(grown)
    assert svc.store.live_stream("ward0")[1].is_valid()


def expect_error(response, fragment: str) -> None:
    assert isinstance(response, ErrorResponse), response
    assert response.error == "ServiceError"
    assert fragment in response.message, response.message


def test_streamed_document_cannot_join_a_fleet():
    doc = make_doc()
    svc = make_service([("ward0", doc)])
    svc.handle(StreamSubmit(document="ward0", constraints="policy",
                            ops=(AddLeaf(doc.root, "note"),)))
    expect_error(
        submit(svc, FleetSubmit(documents=("ward0",), constraints="policy",
                                epochs=())),
        "live enforcement stream")
    # ...and the reverse: a fleet member cannot open a stream.
    svc2 = make_service([("ward0", make_doc())])
    submit(svc2, FleetSubmit(documents=("ward0",), constraints="policy",
                             epochs=()))
    with pytest.raises(ServiceError, match="live fleet"):
        svc2.enforcer("ward0", "policy")


def test_document_belongs_to_one_fleet():
    svc = make_service([("ward0", make_doc()), ("ward1", make_doc())])
    submit(svc, FleetSubmit(documents=("ward0",), constraints="policy",
                            epochs=()))
    expect_error(
        submit(svc, FleetSubmit(documents=("ward0", "ward1"),
                                constraints="policy", epochs=())),
        "already in a live fleet")


def test_epoch_validation_errors():
    svc = make_service([("ward0", make_doc())])
    expect_error(
        submit(svc, FleetSubmit(
            documents=("ward0",), constraints="policy",
            epochs=((("ghost", (AddLeaf(0, "x"),)),),))),
        "not in this fleet")
    expect_error(
        submit(svc, FleetSubmit(
            documents=("ward0",), constraints="policy",
            epochs=((("ward0", ()), ("ward0", ())),))),
        "appears twice")
    expect_error(
        submit(svc, FleetSubmit(documents=(), constraints="policy",
                                epochs=())),
        "at least one document")
    expect_error(
        submit(svc, FleetSubmit(documents=("ward0", "ward0"),
                                constraints="policy", epochs=())),
        "duplicate document names")
    marker = submit(svc, FleetSubmit(
        documents=("ward0",), constraints="policy",
        epochs=((("ward0", (Begin(),)),),)))
    assert marker.error == "StreamError"
    assert "transaction brackets" in marker.message
    # None of the refused requests opened the fleet.
    assert svc.store.live_fleets() == []


@pytest.mark.parametrize("marker", [Begin(), Commit(), Rollback()],
                         ids=lambda m: type(m).__name__)
def test_markers_are_stream_errors(marker):
    """The epoch is the bracket: a marker anywhere in a member's ops,
    even in a later epoch, refuses the request before epoch 1 runs."""
    base = make_doc()
    svc = make_service([("ward0", base.copy()), ("ward1", make_doc())])
    before = svc.store.document("ward0").copy()
    ward1 = svc.store.document("ward1")
    reply = submit(svc, FleetSubmit(
        documents=("ward0", "ward1"), constraints="policy",
        epochs=((("ward0", (AddLeaf(base.root, "note"),)),),
                (("ward1", (AddLeaf(ward1.root, "note"), marker)),))))
    assert isinstance(reply, ErrorResponse), reply
    assert reply.error == "StreamError"
    assert "transaction brackets" in reply.message
    assert svc.store.document("ward0").same_instance(before)
    assert svc.store.live_fleets() == []
    assert svc.store.live_stream("ward0") is None


def test_reregistration_drops_the_fleet():
    svc = make_service([("ward0", make_doc())])
    submit(svc, FleetSubmit(documents=("ward0",), constraints="policy",
                            epochs=()))
    assert svc.store.fleet_of("ward0") is not None
    svc.register_document("ward0", make_doc(), replace=True)
    assert svc.store.fleet_of("ward0") is None
    svc2 = make_service([("ward0", make_doc())])
    submit(svc2, FleetSubmit(documents=("ward0",), constraints="policy",
                             epochs=()))
    svc2.register_constraints("policy", POLICY, replace=True)
    assert svc2.store.live_fleets() == []


def test_fleet_member_refuses_other_writes():
    svc = make_service([("ward0", make_doc())])
    submit(svc, FleetSubmit(documents=("ward0",), constraints="policy",
                            epochs=((("ward0", ()),),)))
    assert svc.store.live_stream("ward0") is not None
    expect_error(svc.handle(StreamSubmit("ward0", "policy", ())),
                 "in a live fleet")


def test_certified_submit_refuses_a_fleet_member():
    annotate = UpdateTemplate("annotate", (
        TemplateAdd(NodeHole("p", parse("//patient")),
                    LabelHole("l", frozenset({"note"}))),))
    doc = make_doc()
    patient = next(n for n in doc.node_ids() if doc.label(n) == "patient")
    svc = make_service([("ward0", doc)])
    svc.handle(RegisterTemplate("annotate", annotate, "policy"))
    submit(svc, FleetSubmit(documents=("ward0",), constraints="policy",
                            epochs=()))
    before = svc.store.document("ward0").copy()
    expect_error(svc.handle(CertifiedSubmit(
        "ward0", "policy", "annotate", (("l", "note"), ("p", patient)))),
        "in a live fleet")
    assert svc.store.document("ward0").same_instance(before)


def test_replaced_set_closes_member_streams():
    """Replacing the fleet's set drops it like re-registering a member:
    every member's stream closes, so each may then open its own."""
    base = make_doc()
    svc = make_service([("ward0", base.copy()), ("ward1", make_doc())])
    submit(svc, FleetSubmit(documents=("ward0", "ward1"),
                            constraints="policy", epochs=traffic(base)))
    assert svc.store.live_stream("ward0") is not None
    svc.register_constraints("policy", POLICY, replace=True)
    assert svc.store.live_fleets() == []
    assert svc.store.fleet_of("ward0") is None
    assert svc.store.live_stream("ward0") is None
    reply = svc.handle(StreamSubmit("ward0", "policy",
                                    (AddLeaf(base.root, "memo"),)))
    [decision] = reply.decisions
    assert decision.accepted
    assert dict(svc.handle(StreamStatus("ward0")).stats)["ops"] == 1


def test_dropped_fleet_rebinds_member_instance_queries():
    """A member's binding goes with its stream when the fleet drops."""
    base = make_doc()
    svc = make_service([("ward0", base.copy()), ("ward1", make_doc())])
    submit(svc, FleetSubmit(documents=("ward0", "ward1"),
                            constraints="policy",
                            epochs=((("ward0", ()),),)))
    query = InstanceQuery("policy", "ward0",
                          (no_remove("/patient[/clinicalTrial]"),))
    assert svc.handle(query).ok
    _, enforcer = svc.store.live_stream("ward0")
    held = svc.store.binding("policy", "ward0")
    assert held.context.index is enforcer.context.index
    svc.register_document("ward1", make_doc(), replace=True)
    assert svc.store.live_stream("ward0") is None
    assert svc.handle(query).ok
    rebound = svc.store.binding("policy", "ward0")
    assert rebound is not held
    assert rebound.context.index is not enforcer.context.index


def test_dropped_fleet_frees_members_with_a_fresh_baseline():
    """Re-registering one member drops the fleet and closes every
    member's stream: another member can then join a new fleet, and its
    own stream checks against the document as it is now."""
    svc = ConstraintService()
    svc.register_constraints("policy", [("//b", "up")])
    for name in ("d0", "d1", "d2"):
        svc.register_document(name, one_leaf("a"))
    fleet = dict(documents=("d0", "d1"), constraints="policy")
    d1 = svc.store.document("d1")
    grown = submit(svc, FleetSubmit(**fleet, epochs=(
        (("d1", (AddLeaf(d1.root, "b", nid=77),)),),)))
    assert grown.epochs[0].rejected == ()
    svc.register_document("d0", one_leaf("a"), replace=True)
    assert svc.store.live_fleets() == []
    assert svc.store.live_stream("d1") is None
    joined = submit(svc, FleetSubmit(documents=("d1", "d2"),
                                     constraints="policy", epochs=()))
    assert isinstance(joined, FleetDecisions)
    svc.register_document("d2", one_leaf("a"), replace=True)
    # The fresh baseline holds leaf 77, so removing it is a violation;
    # the first fleet's baseline never saw it.
    reply = svc.handle(StreamSubmit("d1", "policy", (RemoveSubtree(77),)))
    [decision] = reply.decisions
    assert not decision.accepted and decision.violations


# ----------------------------------------------------------------------
# Validate first: a refused request changes nothing
# ----------------------------------------------------------------------
def journal_bytes(root) -> dict:
    return {str(path.relative_to(root)): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def refused_requests(d0: DataTree) -> list[FleetSubmit]:
    a = next(n for n in d0.node_ids() if d0.label(n) == "a")
    fleet = dict(documents=("d0", "d1"), constraints="policy")
    violating = (("d0", (RemoveSubtree(a),)),)
    return [
        # A marker in a later entry of the same epoch.
        FleetSubmit(**fleet, epochs=((("d0", (RemoveSubtree(a),)),
                                      ("d1", (Begin(),))),)),
        # A non-member, or a member named twice, in epoch 2.
        FleetSubmit(**fleet, epochs=(violating,
                                     (("ghost", ()),))),
        FleetSubmit(**fleet, epochs=(violating,
                                     (("d1", ()), ("d1", ())))),
    ]


def test_refused_request_changes_nothing_in_memory():
    svc = ConstraintService()
    svc.register_constraints("policy", [("/a", "up")])
    svc.register_document("d0", one_leaf("a"))
    svc.register_document("d1", one_leaf("a"))
    # Open the fleet with one accepted epoch, so the ledger has a state.
    opened = svc.handle(FleetSubmit(
        ("d0", "d1"), "policy", ((("d1", ()),),)))
    before = [svc.store.document(d).copy() for d in ("d0", "d1")]
    for request in refused_requests(svc.store.document("d0")):
        reply = svc.handle(request)
        assert isinstance(reply, ErrorResponse), reply
        for doc, tree in zip(("d0", "d1"), before):
            assert svc.store.document(doc).same_instance(tree)
        [(_, _, ledger)] = svc.store.live_fleets()
        assert (ledger.epoch, ledger.checksum) == (1, opened.checksum)
    assert svc.store.live_stream("d0") is None


def durable(root, **journal_opts):
    """A service over a store recovered from (and journaling to) root."""
    store = DocumentStore()
    journal = ServerJournal(root, **journal_opts)
    journal.recover(store)
    store.attach_journal(journal)
    return ConstraintService(store=store), journal


def test_refused_request_changes_nothing_durable(tmp_path):
    svc, journal = durable(tmp_path, checkpoint_every=1)
    store = svc.store
    svc.register_constraints("policy", [("/a", "up")])
    svc.register_document("d0", one_leaf("a"))
    svc.register_document("d1", one_leaf("a"))
    svc.handle(FleetSubmit(("d0", "d1"), "policy", ((("d1", ()),),)))
    trees = [serialize.to_dict(store.document(d)) for d in ("d0", "d1")]
    on_disk = journal_bytes(tmp_path)
    for request in refused_requests(store.document("d0")):
        assert isinstance(svc.handle(request), ErrorResponse)
        assert journal_bytes(tmp_path) == on_disk
    journal.close()
    recovered = DocumentStore()
    again = ServerJournal(tmp_path)
    again.recover(recovered)
    again.close()
    assert [serialize.to_dict(recovered.document(d))
            for d in ("d0", "d1")] == trees
    [(_, _, ledger)] = recovered.live_fleets()
    assert ledger.epoch == 1


# ----------------------------------------------------------------------
# Durable fleets
# ----------------------------------------------------------------------
def test_fleet_opened_without_epochs_survives_recovery(tmp_path):
    """The ledger record alone restores the membership: after a restart
    the member still refuses other writes and has no stream."""
    svc, journal = durable(tmp_path)
    svc.register_constraints("policy", POLICY)
    svc.register_document("ward0", make_doc())
    opened = submit(svc, FleetSubmit(documents=("ward0",),
                                     constraints="policy", epochs=()))
    assert opened.epochs == () and opened.checksum == 0
    journal.close()
    recovered, again = durable(tmp_path)
    try:
        [(docs, set_name, ledger)] = recovered.store.live_fleets()
        assert (docs, set_name) == (("ward0",), "policy")
        assert (ledger.epoch, ledger.checksum) == (0, 0)
        assert recovered.store.live_stream("ward0") is None
        expect_error(recovered.handle(StreamSubmit("ward0", "policy", ())),
                     "in a live fleet")
    finally:
        again.close()


def test_cut_off_ops_consume_no_pinned_ids(tmp_path):
    """Durable brackets pin unpinned leaves one op at a time from the
    document's counter: a rolled-back leaf keeps its id, the ops after
    a structural error take none, and recovery pins the same way."""
    svc, journal = durable(tmp_path)
    svc.register_constraints("policy", POLICY)
    svc.register_document("ward0", make_doc())
    tree = svc.store.document("ward0")
    root, last = tree.root, max(tree.node_ids())
    fleet = dict(documents=("ward0",), constraints="policy")
    submit(svc, FleetSubmit(**fleet, epochs=(
        (("ward0", (AddLeaf(root, "x"), RemoveSubtree(10 ** 9),
                    AddLeaf(root, "y"))),),
        (("ward0", (AddLeaf(root, "z"),)),))))
    ids = {tree.label(n): n for n in tree.node_ids()}
    assert "x" not in ids and "y" not in ids
    assert ids["z"] == last + 2  # x took last + 1, y took nothing
    journal.close()
    recovered, again = durable(tmp_path)
    try:
        grown = recovered.store.document("ward0")
        assert grown.same_instance(tree)
        reply = submit(recovered, FleetSubmit(**fleet, epochs=(
            (("ward0", (AddLeaf(root, "w"),)),),)))
        assert reply.epochs[0].rejected == ()
        assert {grown.label(n): n for n in grown.node_ids()}["w"] \
            == last + 3
    finally:
        again.close()


@pytest.mark.parametrize("checkpoint_every", [1, 1000])
def test_ledger_continues_across_a_restart(tmp_path, checkpoint_every):
    """A restarted fleet carries on exactly as an uninterrupted one:
    the same epoch numbers, replies, running checksum and member state,
    whether every bracket checkpoints or none does."""
    base = make_doc()
    first, second = traffic(base)
    request = dict(documents=("ward0", "ward1"), constraints="policy")

    def opened(root):
        svc, journal = durable(root, checkpoint_every=checkpoint_every)
        svc.register_constraints("policy", POLICY)
        for name in ("ward0", "ward1"):
            svc.register_document(name, base.copy())
        return svc, journal

    steady, steady_journal = opened(tmp_path / "steady")
    submit(steady, FleetSubmit(**request, epochs=(first,)))
    expected = submit(steady, FleetSubmit(**request, epochs=(second,)))
    steady_journal.close()

    svc, journal = opened(tmp_path / "restarted")
    submit(svc, FleetSubmit(**request, epochs=(first,)))
    journal.close()
    restarted, again = durable(tmp_path / "restarted",
                               checkpoint_every=checkpoint_every)
    try:
        reply = submit(restarted, FleetSubmit(**request, epochs=(second,)))
        assert reply.epochs[0].epoch == 2
        assert response_checksum(reply) == response_checksum(expected)
        for doc in ("ward0", "ward1"):
            assert (serialize.to_dict(restarted.store.document(doc))
                    == serialize.to_dict(steady.store.document(doc)))
            assert (restarted.handle(StreamStatus(doc)).to_dict()
                    == steady.handle(StreamStatus(doc)).to_dict())
        [(_, _, ledger)] = restarted.store.live_fleets()
        assert (ledger.epoch, ledger.checksum) == (2, expected.checksum)
    finally:
        again.close()


@pytest.mark.parametrize("checkpoint_every", [1, 1000])
def test_dropped_fleet_stays_dropped_after_a_restart(tmp_path,
                                                     checkpoint_every):
    """Re-registering a member drops the fleet durably, also once the
    member's checkpoint has compacted its registration record away: a
    restarted service has no fleet, the other member's stream stays
    closed, and both members answer later writes as the live one does."""
    live, journal = durable(tmp_path / "live",
                            checkpoint_every=checkpoint_every)
    live.register_constraints("policy", [("//b", "up")])
    for name in ("d0", "d1"):
        live.register_document(name, one_leaf("a"))
    d1 = live.store.document("d1")
    submit(live, FleetSubmit(("d0", "d1"), "policy", (
        (("d1", (AddLeaf(d1.root, "b", nid=77),)),),)))
    live.register_document("d0", one_leaf("a"), replace=True)
    grow = StreamSubmit("d0", "policy",
                        (AddLeaf(live.store.document("d0").root, "c"),))
    assert live.handle(grow).decisions[0].accepted
    shutil.copytree(tmp_path / "live", tmp_path / "restarted")
    restarted, again = durable(tmp_path / "restarted",
                               checkpoint_every=checkpoint_every)
    try:
        assert restarted.store.live_fleets() == live.store.live_fleets() == []
        for doc in ("d0", "d1"):
            assert (restarted.handle(StreamStatus(doc)).to_dict()
                    == live.handle(StreamStatus(doc)).to_dict())
            assert (serialize.to_dict(restarted.store.document(doc))
                    == serialize.to_dict(live.store.document(doc)))
        assert (response_checksum(restarted.handle(grow))
                == response_checksum(live.handle(grow)))
        # d1's next stream checks against a fresh baseline holding leaf
        # 77, so removing it is a violation on both services.
        shrink = StreamSubmit("d1", "policy", (RemoveSubtree(77),))
        reply = live.handle(shrink)
        assert (response_checksum(restarted.handle(shrink))
                == response_checksum(reply))
        [decision] = reply.decisions
        assert not decision.accepted and decision.violations
    finally:
        journal.close()
        again.close()
