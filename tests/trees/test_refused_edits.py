"""Edits the tree refuses, through a live snapshot and through the stream.

A refused ``apply_*`` edit raises the tree's own :class:`TreeError` text and
leaves everything as it was: the tree's mutation version, the index's
revision, freshness and delta log.  Through :meth:`StreamEnforcer.apply`
the same edits come back as rejected decisions whose note carries that
text; the note goes on the wire, so each one is pinned in full.
"""

from __future__ import annotations

import pytest

from repro import constraint_set
from repro.errors import TreeError
from repro.stream import AddLeaf, Move, RemoveSubtree, StreamEnforcer
from repro.trees import DataTree, TreeIndex

ROOT, A, B, C, ABSENT = 8000, 8001, 8002, 8003, 8999


def document() -> DataTree:
    """root(a(b), c) with pinned ids."""
    tree = DataTree(root_id=ROOT)
    tree.add_child(ROOT, "a", nid=A)
    tree.add_child(A, "b", nid=B)
    tree.add_child(ROOT, "c", nid=C)
    return tree


# (snapshot edit, its TreeError text, the same edit as a stream op, its note)
CASES = {
    "remove-root": (
        lambda index: index.apply_remove_subtree(ROOT),
        "cannot remove the root",
        RemoveSubtree(ROOT),
        "structural error: cannot remove the root"),
    "remove-absent": (
        lambda index: index.apply_remove_subtree(ABSENT),
        f"node {ABSENT} not in snapshot",
        RemoveSubtree(ABSENT),
        f"structural error: node {ABSENT} not in tree"),
    "add-under-absent": (
        lambda index: index.apply_add_leaf(ABSENT, "x", nid=8500),
        f"parent {ABSENT} not in snapshot",
        AddLeaf(ABSENT, "x", nid=8500),
        f"structural error: parent {ABSENT} not in snapshot"),
    "add-present-id": (
        lambda index: index.apply_add_leaf(A, "x", nid=C),
        f"node id {C} already present",
        AddLeaf(A, "x", nid=C),
        f"structural error: node id {C} already present"),
    "move-root": (
        lambda index: index.apply_move(ROOT, C),
        "cannot move the root",
        Move(ROOT, C),
        "structural error: cannot move the root"),
    "move-under-own-subtree": (
        lambda index: index.apply_move(A, B),
        "cannot move a node under its own subtree",
        Move(A, B),
        "structural error: cannot move a node under its own subtree"),
    "move-absent": (
        lambda index: index.apply_move(ABSENT, A),
        "node not in snapshot",
        Move(ABSENT, A),
        f"structural error: node {ABSENT} not in tree"),
}

REFUSED = pytest.mark.parametrize("case", sorted(CASES))


@REFUSED
def test_refused_snapshot_edit_changes_nothing(case):
    edit, text, _, _ = CASES[case]
    tree = document()
    index = TreeIndex(tree)
    index.apply_add_leaf(C, "d", nid=8004)  # a logged edit to stay behind
    before = tree.copy()
    version, revision = tree.version, index.revision
    with pytest.raises(TreeError) as refused:
        edit(index)
    assert str(refused.value) == text
    assert tree.version == version
    assert index.revision == revision
    assert index.fresh
    assert index.deltas_since(revision) == []
    assert tree.same_instance(before)
    assert list(index.node_ids()) == list(TreeIndex(tree).node_ids())


@REFUSED
def test_refused_stream_edit_pins_its_note(case):
    _, _, op, note = CASES[case]
    tree = document()
    before = tree.copy()
    stream = StreamEnforcer(constraint_set(("/a", "down")), tree)
    decision = stream.apply(op)
    assert decision.rejected and not decision.violations
    assert decision.note == note
    assert tree.same_instance(before)
