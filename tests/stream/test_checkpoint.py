"""Checkpoint round trips of the enforcement stream.

:meth:`StreamEnforcer.state_dict` freezes the opening baseline
``q_c(I₀)`` beside the live document; :meth:`StreamEnforcer.restore`
must continue the stream exactly where it stood — same decisions, same
witnesses, same next checkpoint — even when baseline nodes have left the
document since the stream opened, when a constraint is listed twice and
when two constraints share one range.  A checkpoint is outside input
(recovery reads it from disk), so an ill-typed one is refused, never
coerced.
"""

from __future__ import annotations

import json

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
from repro.trees.tree import DataTree
from repro.xpath.evaluator import evaluate


def hospital() -> DataTree:
    """patient(clinicalTrial, visit(prescription)), patient(visit),
    patient."""
    doc = DataTree(root_id=1)
    doc.add_child(1, "patient", nid=9000)
    doc.add_child(9000, "clinicalTrial", nid=9001)
    doc.add_child(9000, "visit", nid=9002)
    doc.add_child(9002, "prescription", nid=9003)
    doc.add_child(1, "patient", nid=9100)
    doc.add_child(9100, "visit", nid=9102)
    doc.add_child(1, "patient", nid=9200)
    return doc


POLICY = constraint_set(
    ("/patient", "down"),                   # no-insert over three patients
    ("/patient[/clinicalTrial]", "up"),     # the immutability pair:
    ("/patient[/clinicalTrial]", "down"),   # two constraints, one range
    ("//prescription", "up"),
    ("//prescription", "up"),               # the same constraint twice
)

BEFORE = (
    RemoveSubtree(9100),                    # no-insert baseline nodes go
    RemoveSubtree(9200),
    RemoveSubtree(9001),                    # rejected: the trial stays
    Begin("file"),
    Move(9003, 9000),
    AddLeaf(9000, "note", nid=9500),
    Commit(),
)

AFTER = (
    AddLeaf(1, "patient", nid=9200),        # its baseline self is back
    AddLeaf(1, "ward", nid=9100),           # an id under another label
    AddLeaf(1, "patient", nid=9600),        # rejected: a new patient
    RemoveSubtree(9100),
    AddLeaf(1, "patient", nid=9100),
    RemoveSubtree(9003),                    # rejected, twice over
    Begin(),
    RemoveSubtree(9001),
    AddLeaf(9000, "clinicalTrial", nid=9001),
    Commit(),
)


def checkpointed(analysis: bool = True):
    """A stream after ``BEFORE``, a copy of its opening document, and its
    checkpoint as recovery reads it back (through JSON)."""
    doc = hospital()
    opening = doc.copy()
    stream = StreamEnforcer(POLICY, doc, analysis=analysis)
    stream.submit(BEFORE)
    return stream, opening, json.loads(json.dumps(stream.state_dict()))


@pytest.mark.parametrize("analysis", [True, False])
class TestRoundTrip:
    def test_restored_stream_continues_like_the_uninterrupted_one(
            self, analysis):
        stream, opening, state = checkpointed(analysis)
        assert [[9000, "patient"], [9100, "patient"],
                [9200, "patient"]] in state["baseline"]
        assert 9100 not in stream.tree and 9200 not in stream.tree
        restored = StreamEnforcer.restore(POLICY, state)
        assert restored.state_dict() == state
        assert (restored.analyzer is None) is not analysis
        decisions = restored.submit(AFTER)
        assert decisions == stream.submit(AFTER)
        assert [d.accepted for d in decisions] == [
            True, True, False, True, True, False, True, False, True, True]
        (inserted,) = decisions[2].violations
        assert {n.nid for n in inserted.inserted} == {9600}
        assert len(decisions[5].violations) == 2
        assert restored.tree.same_instance(stream.tree)
        assert restored.state_dict() == stream.state_dict()
        assert restored.violations() == explain_violations(
            opening, restored.tree, POLICY) == []

    def test_baseline_answers_are_the_opening_answers(self, analysis):
        stream, opening, state = checkpointed(analysis)
        naive = {c: frozenset(evaluate(c.range, opening)) for c in POLICY}
        assert stream.baseline_answers() == naive
        assert StreamEnforcer.restore(POLICY, state).baseline_answers() \
            == naive


def test_a_checkpoint_without_certified_restores_it_as_zero():
    # Checkpoints written before certified templates lack that counter;
    # the restored stream writes it back, in place, byte for byte.
    stream, _, state = checkpointed()
    del state["counters"]["certified"]
    restored = StreamEnforcer.restore(POLICY, state)
    assert restored.stats.certified == 0
    assert restored.stats.wire_pairs() == stream.stats.wire_pairs()
    assert json.dumps(restored.state_dict()) == json.dumps(
        stream.state_dict())


class TestRefusals:
    @pytest.mark.parametrize("path, value", [
        (("baseline", 0, 0, 0), True),
        (("baseline", 0, 0, 0), 7.9),
        (("baseline", 0, 0, 0), "7"),
        (("counters", "ops"), "3"),
        (("counters", "ops"), -1),
        (("analysis",), "false"),
    ], ids=["id-true", "id-float", "id-string", "counter-string",
            "counter-negative", "analysis-string"])
    def test_ill_typed_value_is_refused(self, path, value):
        *where, last = path
        _, _, state = checkpointed()
        target = state
        for key in where:
            target = target[key]
        target[last] = value
        with pytest.raises(StreamError, match="malformed stream checkpoint"):
            StreamEnforcer.restore(POLICY, state)

    def test_baseline_of_another_length_is_refused(self):
        _, _, state = checkpointed()
        state["baseline"].pop()
        with pytest.raises(StreamError, match="4 baseline answer set"):
            StreamEnforcer.restore(POLICY, state)

    def test_missing_counter_is_refused(self):
        _, _, state = checkpointed()
        del state["counters"]["ops"]
        with pytest.raises(StreamError, match="'ops' counter"):
            StreamEnforcer.restore(POLICY, state)
