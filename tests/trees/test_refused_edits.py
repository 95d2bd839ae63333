"""Edits the tree refuses, through a live snapshot and through the stream.

A refused ``apply_*`` edit raises a :class:`TreeError` and leaves
everything as it was: the tree's mutation version, the index's revision,
freshness and delta log.  The index is the stream's one edit path, so
through :meth:`StreamEnforcer.apply` the same edits come back as rejected
decisions whose note carries the same text; the note goes on the wire, so
each one is pinned in full.  Removing the root is refused before any node
is visited.
"""

from __future__ import annotations

import random

import pytest

from repro import constraint_set
from repro.errors import TreeError
from repro.stream import AddLeaf, Move, RemoveSubtree, StreamEnforcer
from repro.trees import DataTree, TreeIndex
from repro.workloads import random_tree

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
        f"node {ABSENT} not in tree",
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
        f"node {ABSENT} not in tree",
        Move(ABSENT, A),
        f"structural error: node {ABSENT} not in tree"),
    "move-root-under-absent": (
        lambda index: index.apply_move(ROOT, ABSENT),
        "cannot move the root",
        Move(ROOT, ABSENT),
        "structural error: cannot move the root"),
    "move-absent-under-absent": (
        lambda index: index.apply_move(ABSENT, ABSENT),
        f"node {ABSENT} not in tree",
        Move(ABSENT, ABSENT),
        f"structural error: node {ABSENT} not in tree"),
    "move-under-absent": (
        lambda index: index.apply_move(A, ABSENT),
        "node not in snapshot",
        Move(A, ABSENT),
        "structural error: node not in snapshot"),
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


def test_removing_the_root_visits_no_node(monkeypatch):
    # The refusal is decided at the root itself: neither the tree walk
    # nor the index's detach step runs, however large the document.
    tree = random_tree(random.Random(2007), ["a", "b", "c"], size=2_000)
    assert tree.size == 2_001
    stream = StreamEnforcer(constraint_set(("/a", "down")), tree)
    visited: list[int] = []
    walk, detach = DataTree._preorder, TreeIndex._detach_subtree

    def spy_walk(self, start):
        for nid in walk(self, start):
            visited.append(nid)
            yield nid

    def spy_detach(self, nid):
        visited.append(nid)
        return detach(self, nid)

    monkeypatch.setattr(DataTree, "_preorder", spy_walk)
    monkeypatch.setattr(TreeIndex, "_detach_subtree", spy_detach)
    decision = stream.apply(RemoveSubtree(tree.root))
    assert decision.note == "structural error: cannot remove the root"
    with pytest.raises(TreeError, match="cannot remove the root"):
        stream.context.index.apply_remove_subtree(tree.root)
    assert visited == []
    assert tree.size == 2_001
