"""Unit tests for the online enforcement engine's semantics.

The contract: after every submitted entry the live document satisfies the
constraint set relative to the opening baseline, rejected edits leave no
trace in the document (only in the audit trail), and transaction brackets
are all-or-nothing.
"""

from __future__ import annotations

import pytest

from repro import Reasoner, constraint_set
from repro.errors import StreamError
from repro.stream import AddLeaf, Move, RemoveSubtree, StreamEnforcer
from repro.trees import branch, build
from repro.trees.node import Node


def hospital():
    """patient(clinicalTrial, visit(prescription)), patient(visit)."""
    return build(
        branch("patient",
               branch("clinicalTrial", nid=9001),
               branch("visit", branch("prescription", nid=9003), nid=9002),
               nid=9000),
        branch("patient", branch("visit", nid=9102), nid=9100),
    )


POLICY = constraint_set(
    ("/patient", "down"),
    ("/patient[/clinicalTrial]", "up"),
    ("//prescription", "up"),
)


class TestAutocommit:
    def test_valid_op_is_applied_and_accepted(self):
        doc = hospital()
        stream = StreamEnforcer(POLICY, doc)
        decision = stream.apply(AddLeaf(9002, "prescription", nid=9500))
        assert decision.accepted and not decision.pending
        assert 9500 in doc
        assert stream.is_valid()

    def test_violating_op_is_rejected_and_rolled_back(self):
        doc = hospital()
        before = doc.copy()
        stream = StreamEnforcer(POLICY, doc)
        decision = stream.apply(RemoveSubtree(9001))
        assert decision.rejected
        assert len(decision.violations) == 1
        violation = decision.violations[0]
        assert Node(9000, "patient") in violation.removed
        assert doc.same_instance(before)
        assert stream.is_valid()

    def test_structural_error_is_rejected_without_witnesses(self):
        doc = hospital()
        before = doc.copy()
        stream = StreamEnforcer(POLICY, doc)
        decision = stream.apply(Move(9000, 9002))  # into its own subtree
        assert decision.rejected and not decision.violations
        assert "structural error" in decision.note
        missing = stream.apply(RemoveSubtree(424242))
        assert missing.rejected and "structural error" in missing.note
        assert doc.same_instance(before)

    def test_witness_identity_not_isomorphism(self):
        # Removing the prescription and inserting a fresh one elsewhere is
        # still a violation: constraints speak about (id, label) nodes.
        doc = hospital()
        stream = StreamEnforcer(POLICY, doc)
        stream.begin()
        stream.apply(RemoveSubtree(9003))
        stream.apply(AddLeaf(9102, "prescription", nid=9600))
        decision = stream.commit()
        assert decision.rejected
        (violation,) = decision.violations
        assert violation.removed == frozenset({Node(9003, "prescription")})


class TestTransactions:
    def test_commit_keeps_a_valid_bracket(self):
        doc = hospital()
        stream = StreamEnforcer(POLICY, doc)
        stream.begin("transfer")
        stream.apply(Move(9002, 9100))
        stream.apply(AddLeaf(9100, "visit", nid=9700))
        decision = stream.commit()
        assert decision.accepted
        assert doc.parent(9002) == 9100 and 9700 in doc
        assert stream.stats.committed == 1

    def test_failing_commit_rolls_back_everything(self):
        doc = hospital()
        before = doc.copy()
        stream = StreamEnforcer(POLICY, doc)
        stream.begin()
        ok = stream.apply(Move(9002, 9100))        # fine on its own
        assert ok.accepted and ok.pending
        bad = stream.apply(RemoveSubtree(9002))    # drops the prescription
        assert bad.rejected and bad.pending
        decision = stream.commit()
        assert decision.rejected and decision.violations
        assert doc.same_instance(before)
        assert stream.stats.rolled_back == 1

    def test_explicit_rollback_restores_the_document(self):
        doc = hospital()
        before = doc.copy()
        stream = StreamEnforcer(POLICY, doc)
        stream.begin()
        stream.apply(RemoveSubtree(9102))
        stream.apply(AddLeaf(9000, "visit", nid=9800))
        decision = stream.rollback()
        assert decision.accepted
        assert doc.same_instance(before)

    def test_remove_then_rollback_revives_identical_subtree(self):
        doc = hospital()
        before = doc.copy()
        stream = StreamEnforcer(POLICY, doc)
        stream.begin()
        stream.apply(RemoveSubtree(9002))  # visit with nested prescription
        assert 9002 not in doc and 9003 not in doc
        stream.rollback()
        assert doc.same_instance(before)
        # The revived nodes answer queries exactly as before.
        assert stream.is_valid() and not stream.violations()

    def test_protocol_errors_raise(self):
        stream = StreamEnforcer(POLICY, hospital())
        with pytest.raises(StreamError):
            stream.commit()
        with pytest.raises(StreamError):
            stream.rollback()
        stream.begin()
        with pytest.raises(StreamError):
            stream.begin()


class TestStreamSurface:
    def test_foreign_mutation_is_detected(self):
        doc = hospital()
        stream = StreamEnforcer(POLICY, doc)
        doc.add_child(doc.root, "intruder")
        with pytest.raises(StreamError):
            stream.apply(AddLeaf(9000, "visit"))

    def test_engines_agree(self):
        import random

        from repro.workloads import random_update_stream

        rng = random.Random(20070611)
        doc = hospital()
        ops = random_update_stream(rng, doc, ["patient", "visit"],
                                   constraints=POLICY, ops=20,
                                   violation_rate=0.4)
        fast = StreamEnforcer(POLICY, doc.copy(), analysis=True)
        full = StreamEnforcer(POLICY, doc.copy(), analysis=False)
        for op in ops:
            a = fast.apply(op)
            b = full.apply(op)
            assert (a.accepted, a.pending, list(a.violations)) == \
                   (b.accepted, b.pending, list(b.violations))
        assert fast.tree.same_instance(full.tree)

    def test_open_stream_from_sessions(self):
        doc = hospital()
        reasoner = Reasoner(POLICY)
        stream = reasoner.open_stream(doc.copy())
        assert stream.constraints is reasoner.premises
        bound = reasoner.bind(doc)
        private = bound.open_stream()
        private.apply(AddLeaf(9002, "prescription"))
        # The binding keeps answering: the stream took a private copy.
        assert bound.implies_on(list(POLICY)[0]).answer is not None
        consuming = bound.open_stream(copy=False)
        consuming.apply(AddLeaf(9002, "prescription", nid=9900))
        assert 9900 in doc
        with pytest.raises(ValueError):
            bound.implies_on(list(POLICY)[0])

    def test_audit_and_stats_accounting(self):
        doc = hospital()
        stream = StreamEnforcer(POLICY, doc)
        stream.apply(AddLeaf(9002, "prescription", nid=9910))
        stream.apply(RemoveSubtree(9001))
        stream.begin()
        stream.apply(AddLeaf(9100, "visit", nid=9911))
        stream.commit()
        stats = stream.stats
        assert stats.ops == 3
        assert stats.accepted == 2 and stats.rejected == 1
        assert stats.transactions == stats.committed == 1
        assert len(stream.audit) == 5  # 3 ops + begin + commit
        assert len(stream.audit.rejections()) == 1
        assert "REJECTED" in stream.audit.render()
