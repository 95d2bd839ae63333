"""Certified templates through the service layer: wire, store, executor.

Covers the two new protocol requests (``register-template`` /
``certified-submit``) end to end: JSON round-trips, the store's
certify-then-store gate (rejected and unknown templates are *never*
stored, so the hot path cannot be reached without a certificate), the
inline executor's decision surface (bit-identical to an uncertified
:class:`StreamSubmit` of the same bracket), the process executor's
automatic inline routing, and the metrics snapshot counters the issue
pins (``certify.certified_total`` / ``certify.rejected_total`` /
``stream.certified_ops_total``).
"""

from __future__ import annotations

import json

import pytest

from repro.certify import (
    LabelHole,
    NodeHole,
    TemplateAdd,
    UpdateTemplate,
)
from repro.constraints import constraint_set
from repro.errors import ServiceError
from repro.service.protocol import (
    Ack,
    CertifiedSubmit,
    ErrorResponse,
    MetricsRequest,
    RegisterConstraints,
    RegisterDocument,
    RegisterTemplate,
    StreamDecisions,
    StreamStatus,
    StreamSubmit,
    request_from_dict,
    response_checksum,
)
from repro.service.service import ConstraintService
from repro.stream.ops import AddLeaf, Begin, Commit
from repro.trees import branch, build
from repro.xpath.parser import parse

POLICY = constraint_set(
    ("/patient/visit", "down"),
    ("/patient[/clinicalTrial]", "up"),
)

ANNOTATE = UpdateTemplate("annotate", (
    TemplateAdd(NodeHole("p", parse("//patient")),
                LabelHole("l", frozenset({"note", "memo"}))),
))

INTRUDE = UpdateTemplate("intrude", (
    TemplateAdd(NodeHole("p"), "visit"),))


def ward():
    return build(
        branch("patient",
               branch("visit", nid=7),
               branch("clinicalTrial", nid=8),
               nid=5),
        branch("patient", branch("visit", nid=9), nid=6),
    )


def service_with_ward():
    svc = ConstraintService()
    svc.handle(RegisterConstraints("policy", tuple(POLICY)))
    svc.handle(RegisterDocument("ward", ward()))
    return svc


# ----------------------------------------------------------------------
# Wire round-trips
# ----------------------------------------------------------------------
class TestWire:
    def test_register_template_round_trips(self):
        request = RegisterTemplate("annotate", ANNOTATE, "policy",
                                   replace=True)
        wire = json.loads(json.dumps(request.to_dict()))
        rebuilt = request_from_dict(wire)
        assert rebuilt.to_dict() == request.to_dict()
        assert rebuilt.template == ANNOTATE
        assert rebuilt.replace is True

    def test_certified_submit_round_trips(self):
        request = CertifiedSubmit("ward", "policy", "annotate",
                                  (("l", "note"), ("p", 5)))
        wire = json.loads(json.dumps(request.to_dict()))
        rebuilt = request_from_dict(wire)
        assert rebuilt.to_dict() == request.to_dict()
        assert dict(rebuilt.bindings) == {"l": "note", "p": 5}

    def test_malformed_template_wire_is_a_value_error(self):
        wire = RegisterTemplate("annotate", ANNOTATE, "policy").to_dict()
        wire["template"] = {"name": "x", "ops": [{"op": "teleport"}]}
        with pytest.raises(ServiceError, match="malformed"):
            request_from_dict(wire)


# ----------------------------------------------------------------------
# Registration through the executor
# ----------------------------------------------------------------------
class TestRegistration:
    def test_certified_template_acks_with_the_verdict(self):
        svc = service_with_ward()
        ack = svc.handle(RegisterTemplate("annotate", ANNOTATE, "policy"))
        assert isinstance(ack, Ack)
        stats = dict(ack.stats)
        assert stats["certify.certified"] == 1
        assert stats["certify.rejected"] == 0
        assert stats["certify.pairs"] == stats["certify.discharged"] == 2

    def test_rejected_template_ships_the_search_accounting(self):
        svc = service_with_ward()
        ack = svc.handle(RegisterTemplate("intrude", INTRUDE, "policy"))
        stats = dict(ack.stats)
        assert stats["certify.certified"] == 0
        assert stats["certify.rejected"] == 1
        assert stats["certify.attempts"] >= 1
        assert stats["certify.witness_violations"] >= 1
        # ...and the rejected template is NOT registered for submission.
        assert svc.store.templates() == []

    def test_duplicate_name_needs_replace(self):
        svc = service_with_ward()
        svc.handle(RegisterTemplate("annotate", ANNOTATE, "policy"))
        err = svc.handle(RegisterTemplate("annotate", ANNOTATE, "policy"))
        assert isinstance(err, ErrorResponse)
        ack = svc.handle(RegisterTemplate("annotate", ANNOTATE, "policy",
                                          replace=True))
        assert isinstance(ack, Ack)

    def test_replacing_the_set_drops_its_templates(self):
        svc = service_with_ward()
        svc.handle(RegisterTemplate("annotate", ANNOTATE, "policy"))
        svc.handle(RegisterConstraints(
            "policy", tuple(constraint_set(("/patient", "up"))),
            replace=True))
        assert svc.store.templates() == []
        response = svc.handle(CertifiedSubmit("ward", "policy", "annotate",
                                              (("l", "note"), ("p", 5))))
        assert isinstance(response, ErrorResponse)
        assert "unknown certified template" in response.message


# ----------------------------------------------------------------------
# Certified submission
# ----------------------------------------------------------------------
class TestCertifiedSubmit:
    def register(self, svc):
        svc.handle(RegisterTemplate("annotate", ANNOTATE, "policy"))

    def test_decisions_match_an_uncertified_bracket(self, tmp_path):
        """A durable service pins the fresh leaf's id at the journal
        boundary, so the certified response is wire-for-wire identical
        to an uncertified submission of the same concrete bracket."""
        from repro.server.journal import ServerJournal
        from repro.service.store import DocumentStore

        def durable(root):
            store = DocumentStore()
            journal = ServerJournal(root)
            journal.recover(store)
            store.attach_journal(journal)
            return ConstraintService(store=store)

        def pinned_ward():
            # Root id pinned too: the two services must hold *identical*
            # documents for their pinned fresh-leaf ids to line up.
            from repro.trees.tree import DataTree
            doc = DataTree(root_id=1)
            doc.add_child(1, "patient", nid=5)
            doc.add_child(5, "visit", nid=7)
            doc.add_child(5, "clinicalTrial", nid=8)
            return doc

        fast, slow = durable(tmp_path / "fast"), durable(tmp_path / "slow")
        for svc in (fast, slow):
            svc.handle(RegisterConstraints("policy", tuple(POLICY)))
            svc.handle(RegisterDocument("ward", pinned_ward()))
        self.register(fast)
        response = fast.handle(CertifiedSubmit(
            "ward", "policy", "annotate", (("l", "note"), ("p", 5))))
        assert isinstance(response, StreamDecisions)
        assert [d.accepted for d in response.decisions] == [True] * 3
        nid = response.decisions[1].op.nid
        assert nid is not None
        twin = slow.handle(StreamSubmit("ward", "policy", (
            Begin("annotate"), AddLeaf(5, "note", nid=nid), Commit())))
        # Compare modulo the ``independent`` analyzer flag: the store's
        # uncertified enforcer runs the PR 6 analysis (which may stamp
        # ops independent), the certified path never does — the same
        # field :func:`repro.stream.decision_checksum` excludes.
        def normalized(decisions):
            return [{**d.to_dict(), "independent": False}
                    for d in decisions.decisions]
        assert normalized(twin) == normalized(response)
        assert (fast.store.document("ward")
                == slow.store.document("ward"))

    def test_guard_failure_is_an_error_response_with_no_effect(self):
        svc = service_with_ward()
        self.register(svc)
        # Open the stream first so the before/after comparison is not
        # confounded by the lazy stream-open a submission triggers.
        svc.handle(StreamSubmit("ward", "policy", (AddLeaf(5, "note"),)))
        before = response_checksum(svc.handle(StreamStatus("ward")))
        response = svc.handle(CertifiedSubmit(
            "ward", "policy", "annotate", (("l", "note"), ("p", 404))))
        assert isinstance(response, ErrorResponse)
        assert response_checksum(svc.handle(StreamStatus("ward"))) == before

    def test_out_of_domain_label_is_refused(self):
        svc = service_with_ward()
        self.register(svc)
        response = svc.handle(CertifiedSubmit(
            "ward", "policy", "annotate", (("l", "visit"), ("p", 5))))
        assert isinstance(response, ErrorResponse)
        assert "domain" in response.message

    def test_wrong_set_is_refused(self):
        svc = service_with_ward()
        svc.handle(RegisterConstraints(
            "other", tuple(constraint_set(("/patient", "up")))))
        self.register(svc)
        response = svc.handle(CertifiedSubmit(
            "ward", "other", "annotate", (("l", "note"), ("p", 5))))
        assert isinstance(response, ErrorResponse)
        assert "certified against" in response.message

    def test_status_counts_certified_ops(self):
        svc = service_with_ward()
        self.register(svc)
        svc.handle(CertifiedSubmit("ward", "policy", "annotate",
                                   (("l", "note"), ("p", 5))))
        svc.handle(CertifiedSubmit("ward", "policy", "annotate",
                                   (("l", "memo"), ("p", 6))))
        status = svc.handle(StreamStatus("ward")).to_dict()
        assert dict(status["stats"])["certified"] == 2
        assert dict(status["stats"])["ops"] == 2


# ----------------------------------------------------------------------
# Metrics exposure
# ----------------------------------------------------------------------
class TestMetrics:
    def test_snapshot_exposes_the_certify_counters(self):
        svc = service_with_ward()
        svc.handle(RegisterTemplate("annotate", ANNOTATE, "policy"))
        svc.handle(RegisterTemplate("intrude", INTRUDE, "policy"))
        svc.handle(CertifiedSubmit("ward", "policy", "annotate",
                                   (("l", "note"), ("p", 5))))
        snapshot = svc.handle(MetricsRequest()).to_dict()
        counters = snapshot["metrics"]["counters"]
        assert counters["certify.certified_total"] >= 1
        assert counters["certify.rejected_total"] >= 1
        assert counters["stream.certified_ops_total"] >= 1
        streams = dict(snapshot["streams"])
        assert dict(streams["ward"])["certified"] == 1
