"""Transaction and delta-log edge cases of the enforcement stream.

The corners the main engine suite leaves open: structurally-rejected and
violation-rejected ops *inside* a bracket after earlier accepted ops,
``Begin`` colliding with an open bracket (and the bracket surviving the
error), ``rollback()`` on an empty journal, and consumers syncing past
the :data:`repro.trees.index.DELTA_LOG_CAP` horizon, where
``deltas_since`` gives up and masks must rebuild from scratch.
"""

from __future__ import annotations

import pytest

from repro import constraint_set, explain_violations
from repro.errors import StreamError
from repro.stream import (
    AddLeaf,
    Begin,
    Commit,
    Move,
    RemoveSubtree,
    StreamEnforcer,
)
from repro.stream.baseline import MaskedBaseline
from repro.trees import branch, build
from repro.trees.index import DELTA_LOG_CAP, EditDelta, TreeIndex
from repro.xpath.bitset import BitsetEvaluator
from repro.xpath.parser import parse


def hospital():
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


class TestMidTransactionRejections:
    def test_structural_rejection_after_accepted_op_keeps_the_bracket(self):
        doc = hospital()
        stream = StreamEnforcer(POLICY, doc)
        stream.begin()
        ok = stream.apply(AddLeaf(9002, "prescription", nid=9500))
        assert ok.accepted and ok.pending
        bad = stream.apply(Move(9000, 9002))  # into its own subtree
        assert bad.rejected and not bad.pending
        assert "structural error" in bad.note and bad.txn is not None
        # The bracket survives: the earlier edit is still pending and a
        # valid commit keeps exactly it.
        decision = stream.commit()
        assert decision.accepted
        assert 9500 in doc and doc.parent(9000) != 9002
        stats = stream.stats
        assert stats.ops == 2 and stats.accepted == 1 and stats.rejected == 1
        assert stats.committed == 1

    def test_violation_rejected_pending_op_can_be_compensated(self):
        # A mid-bracket op that breaks the policy stays applied (pending);
        # if a later op restores validity, the commit keeps all of them.
        doc = hospital()
        stream = StreamEnforcer(POLICY, doc)
        stream.begin()
        bad = stream.apply(RemoveSubtree(9003))  # drops the prescription
        assert bad.rejected and bad.pending and bad.violations
        fix = stream.apply(AddLeaf(9002, "prescription", nid=9003))
        assert fix.accepted and fix.pending
        decision = stream.commit()
        assert decision.accepted
        assert 9003 in doc and stream.is_valid()
        assert stream.stats.accepted == 2 and stream.stats.rejected == 0

    def test_violation_after_accepted_op_rolls_back_everything_on_commit(self):
        doc = hospital()
        before = doc.copy()
        stream = StreamEnforcer(POLICY, doc)
        stream.begin()
        assert stream.apply(Move(9002, 9100)).accepted
        assert stream.apply(RemoveSubtree(9001)).rejected  # trial gone
        decision = stream.commit()
        assert decision.rejected and decision.violations
        assert doc.same_instance(before)
        assert stream.stats.rejected == 2 and stream.stats.accepted == 0


class TestBracketProtocol:
    def test_begin_while_open_raises_and_leaves_the_bracket_intact(self):
        doc = hospital()
        stream = StreamEnforcer(POLICY, doc)
        stream.begin("outer")
        stream.apply(AddLeaf(9002, "prescription", nid=9600))
        with pytest.raises(StreamError):
            stream.apply(Begin("inner"))
        assert stream.in_transaction
        decision = stream.commit()
        assert decision.accepted and 9600 in doc
        assert stream.stats.transactions == 1 and stream.stats.committed == 1

    def test_rollback_with_empty_journal_is_a_clean_no_op(self):
        doc = hospital()
        before = doc.copy()
        stream = StreamEnforcer(POLICY, doc)
        stream.begin()
        decision = stream.rollback()
        assert decision.accepted and "0 op(s) rolled back" in decision.note
        assert doc.same_instance(before)
        stats = stream.stats
        assert stats.rolled_back == 1 and stats.ops == 0
        assert not stream.in_transaction
        # The stream is fully usable afterwards.
        assert stream.apply(AddLeaf(9000, "visit")).accepted

    def test_commit_with_empty_journal_commits_nothing(self):
        stream = StreamEnforcer(POLICY, hospital())
        stream.begin()
        decision = stream.commit()
        assert decision.accepted and "0 op(s) committed" in decision.note
        assert stream.stats.committed == 1 and stream.stats.accepted == 0


class TestPartialRechecks:
    """Inside a bracket an op re-checks only what it can reach plus what
    is standing violated, and decides exactly as a full check would."""

    POLICY = constraint_set(
        ("//clinicalTrial", "up"),     # A
        ("//prescription", "down"),    # B
        ("/patient[/visit]", "down"),  # C
        ("//clinicalTrial", "up"),     # A again: re-checked together
    )
    BRACKET = (
        Begin("partial"),
        RemoveSubtree(9001),           # violates A (and its duplicate)
        Move(9003, 9102),              # can reach B only; B still holds
        AddLeaf(9002, "note", nid=9700),  # can reach nothing
        Commit(),
    )

    def test_decisions_equal_the_unanalyzed_run(self, monkeypatch):
        checked: list = []
        check = MaskedBaseline.violations

        def spy(self, only=None):
            checked.append(None if only is None else sorted(only))
            return check(self, only)

        monkeypatch.setattr(MaskedBaseline, "violations", spy)
        base = hospital()
        analyzed_doc, full_doc = base.copy(), base.copy()
        analyzed = StreamEnforcer(self.POLICY, analyzed_doc).submit(
            self.BRACKET)
        assert checked == [[0, 3], [0, 1, 3], [0, 3], None]
        full = StreamEnforcer(self.POLICY, full_doc,
                              analysis=False).submit(self.BRACKET)
        assert analyzed == full
        _, remove, move, add, commit = analyzed
        a, _, _, a_again = self.POLICY.constraints
        for decision in (remove, move, add):
            assert decision.pending and not decision.independent
            assert [v.constraint for v in decision.violations] == \
                [a, a_again]
        assert commit.rejected and "3 op(s) rolled back" in commit.note
        assert analyzed_doc.same_instance(base)
        assert full_doc.same_instance(base)

    def test_a_check_patches_only_the_masks_it_reads(self, monkeypatch):
        # The new prescription can reach the second constraint only, so
        # its check catches up that constraint's predicate and baseline
        # masks and leaves the others stale until a later read.
        policy = constraint_set(("/patient[/visit]", "down"),
                                ("//visit[/prescription]", "down"),
                                ("//patient[/clinicalTrial]", "up"))
        stream = StreamEnforcer(policy, hospital())
        patched: list[int] = []
        redecided: list[str | None] = []
        patch, redecide = EditDelta.patch_mask, BitsetEvaluator._redecide

        def spy_patch(self, mask):
            patched.append(mask)
            return patch(self, mask)

        def spy_redecide(self, pred, mask, batch):
            redecided.append(pred.label)
            return redecide(self, pred, mask, batch)

        monkeypatch.setattr(EditDelta, "patch_mask", spy_patch)
        monkeypatch.setattr(BitsetEvaluator, "_redecide", spy_redecide)
        decision = stream.apply(AddLeaf(9002, "prescription", nid=9710))
        assert decision.accepted and not decision.independent
        assert redecided == ["prescription"]
        assert len(patched) == 2  # one predicate mask, one baseline mask
        assert stream.violations() == []  # the full check catches up the rest
        assert sorted(redecided) == ["clinicalTrial", "prescription", "visit"]
        assert len(patched) == 6


class TestDeltaLogHorizon:
    def test_deltas_since_past_the_horizon_returns_none(self):
        index = TreeIndex(hospital())
        start = index.revision
        for _ in range(DELTA_LOG_CAP + 5):
            index.apply_add_leaf(9000, "visit")
        assert index.deltas_since(start) is None
        assert index.deltas_since(index.revision) == []
        assert len(index.deltas_since(index.revision - 3)) == 3

    def test_stale_masks_past_the_horizon_rebuild_correctly(self):
        # Warm a predicate mask, let the index run past the delta log's
        # reach between queries, and check the answers still match a cold
        # evaluator: the memo must detect the horizon and rebuild.
        tree = hospital()
        ctx = BitsetEvaluator.for_tree(tree)
        pattern = parse("/patient[/visit]")
        assert ctx.evaluate_ids(pattern) == {9000, 9100}
        for i in range(DELTA_LOG_CAP + 8):
            ctx.index.apply_add_leaf(9102, "prescription", nid=20000 + i)
        fresh = BitsetEvaluator.for_tree(tree)
        assert ctx.evaluate_ids(pattern) == fresh.evaluate_ids(pattern)
        removed = parse("//prescription")
        assert ctx.evaluate_ids(removed) == fresh.evaluate_ids(removed)

    def test_enforcer_baseline_masks_survive_the_horizon(self):
        # Force the enforcer's delta-maintained baseline masks past the
        # horizon by editing through its context without a violations()
        # sync in between, then compare to the naive check of the pair
        # (opening instance, edited document).
        doc = hospital()
        opening = doc.copy()
        stream = StreamEnforcer(POLICY, doc)
        assert stream.is_valid()
        for i in range(DELTA_LOG_CAP + 8):
            stream.context.index.apply_add_leaf(9002, "note", nid=30000 + i)
        violations = stream.violations()
        reference = explain_violations(opening, doc, POLICY)
        # Both sides see the same (zero) violations: "note" leaves touch
        # no range, and the rebuilt masks must agree with the naive check.
        assert violations == reference == []
        # And a real violation is still caught after the rebuild.
        decision = stream.apply(RemoveSubtree(9001))
        assert decision.rejected and decision.violations
