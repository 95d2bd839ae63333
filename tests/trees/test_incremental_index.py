"""Unit tests for in-place :class:`TreeIndex` maintenance.

The incremental contract: after any sequence of ``apply_*`` edits, the
index answers every structural query exactly like a freshly built index of
the mutated tree — same document order, intervals, label buckets, depths,
path labels and bitset views — while staying ``fresh`` (the edits re-sync
the recorded tree version) and bumping ``revision`` so evaluators know to
drop their masks.  Labels, parents and children are the tree's own maps,
which both indexes read, so they are not compared here.
"""

from __future__ import annotations

import random

import pytest

from repro.errors import TreeError
from repro.trees import DataTree, TreeIndex
from repro.trees.index import SLOT_GAP
from repro.workloads import random_tree

LABELS = ["a", "b", "c"]


def assert_matches_fresh(index: TreeIndex, tree: DataTree) -> None:
    """The incrementally-maintained index agrees with a fresh rebuild."""
    fresh = TreeIndex(tree)
    assert list(index.node_ids()) == list(fresh.node_ids())
    for nid in tree.node_ids():
        assert index.depth(nid) == fresh.depth(nid)
        assert index.path_labels(nid) == fresh.path_labels(nid)
        assert index.descendants(nid) == fresh.descendants(nid)
        for label in LABELS:
            assert (index.descendants_with_label(label, nid)
                    == fresh.descendants_with_label(label, nid))
            assert (index.count_descendants_with_label(label, nid)
                    == fresh.count_descendants_with_label(label, nid))
    for anc in tree.node_ids():
        for nid in tree.node_ids():
            assert index.is_ancestor(anc, nid) == fresh.is_ancestor(anc, nid)
    # Bitset views describe the same node sets (slots may differ).
    for label in LABELS:
        assert (sorted(index.node_at(s) for s in _slots(index.label_mask(label)))
                == sorted(fresh.nodes_with_label(label)))
    assert (sorted(index.node_at(s) for s in _slots(index.all_mask()))
            == sorted(tree.node_ids()))


def _slots(mask: int) -> list[int]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TestApplyMove:
    def build(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        b = tree.add_child(tree.root, "b")
        c = tree.add_child(a, "c")
        d = tree.add_child(c, "a")
        return tree, a, b, c, d

    def test_move_updates_tree_and_index_together(self):
        tree, a, b, c, d = self.build()
        index = TreeIndex(tree)
        index.apply_move(c, b)
        assert tree.parent(c) == b
        assert index.fresh
        assert index.revision == 1
        assert_matches_fresh(index, tree)

    def test_move_up_and_back_restores_structure(self):
        tree, a, b, c, d = self.build()
        index = TreeIndex(tree)
        before = tree.copy()
        index.apply_move(d, tree.root)
        index.apply_move(d, c)
        assert tree.same_instance(before)
        assert_matches_fresh(index, tree)

    def test_illegal_moves_leave_both_untouched(self):
        tree, a, b, c, d = self.build()
        index = TreeIndex(tree)
        with pytest.raises(TreeError):
            index.apply_move(tree.root, a)       # the root is pinned
        with pytest.raises(TreeError):
            index.apply_move(a, d)               # descendant target
        assert index.revision == 0
        assert index.fresh
        assert_matches_fresh(index, tree)

    def test_foreign_mutation_still_stales(self):
        tree, a, *_ = self.build()
        index = TreeIndex(tree)
        tree.add_child(a, "c")                   # behind the index's back
        assert not index.fresh
        assert not index.covers(tree)


class TestApplyLeafEdits:
    def test_add_leaf_fast_path_after_subtree_end(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        tree.add_child(tree.root, "b")
        index = TreeIndex(tree)
        nid = index.apply_add_leaf(a, "c")
        assert tree.parent(nid) == a
        assert index.label(nid) == "c"
        assert index.fresh
        assert_matches_fresh(index, tree)

    def test_dense_adds_trigger_host_renumber(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        tree.add_child(tree.root, "b")
        index = TreeIndex(tree)
        # a's interval has SLOT_GAP slots before b's; overflowing it forces
        # a renumber (possibly of the root, counted as a rebuild).
        for _ in range(3 * SLOT_GAP):
            index.apply_add_leaf(a, "c")
        assert index.rebuild_count >= 1
        assert index.fresh
        assert_matches_fresh(index, tree)

    def test_remove_then_revive_reuses_the_gap(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        b = tree.add_child(a, "b")
        tree.add_child(tree.root, "c")
        index = TreeIndex(tree)
        index.apply_remove_subtree(b)
        assert b not in index
        assert_matches_fresh(index, tree)
        revived = index.apply_add_leaf(a, "b", nid=b)
        assert revived == b
        assert_matches_fresh(index, tree)

    def test_remove_subtree_drops_whole_interval(self):
        rng = random.Random(7)
        tree = random_tree(rng, LABELS, size=15)
        index = TreeIndex(tree)
        victim = next(n for n in tree.node_ids()
                      if n != tree.root and tree.children(n))
        doomed = set(tree.descendants(victim, include_self=True))
        index.apply_remove_subtree(victim)
        assert all(n not in index for n in doomed)
        assert index.size == tree.size
        assert_matches_fresh(index, tree)

    def test_removal_walks_the_subtree_once(self, monkeypatch):
        # The detach step lists the subtree's nodes; the tree deletes that
        # list instead of walking the subtree a second time.
        tree = random_tree(random.Random(2007), LABELS, size=400)
        index = TreeIndex(tree)
        victim = max((n for n in tree.node_ids() if n != tree.root),
                     key=lambda n: len(tree.children(n)))
        doomed = set(tree.descendants(victim, include_self=True))
        walked: list[int] = []
        walk = DataTree._preorder

        def spy_walk(self, start):
            walked.append(start)
            yield from walk(self, start)

        monkeypatch.setattr(DataTree, "_preorder", spy_walk)
        spec = index.apply_remove_subtree(victim)
        monkeypatch.undo()
        assert walked == []
        assert {n for n, _, _ in spec} == doomed and len(doomed) > 1
        assert all(n not in tree for n in doomed)
        tree.validate()
        assert_matches_fresh(index, tree)


class TestRandomJournals:
    def test_random_edit_sequences_match_fresh_rebuilds(self):
        for seed in range(25):
            rng = random.Random(seed)
            tree = random_tree(rng, LABELS, size=rng.randint(2, 15))
            index = TreeIndex(tree)
            revision = 0
            for _ in range(12):
                op = rng.random()
                nodes = [n for n in tree.node_ids() if n != tree.root]
                try:
                    if op < 0.55 and nodes:
                        index.apply_move(rng.choice(nodes),
                                         rng.choice(list(tree.node_ids())))
                    elif op < 0.8:
                        index.apply_add_leaf(rng.choice(list(tree.node_ids())),
                                             rng.choice(LABELS))
                    elif nodes:
                        index.apply_remove_subtree(rng.choice(nodes))
                    else:
                        continue
                except TreeError:
                    continue
                revision += 1
                assert index.revision == revision
                assert index.fresh
                tree.validate()
            assert_matches_fresh(index, tree)

    def test_move_undo_journal_is_lossless(self):
        """The cascade pattern: apply a batch of moves, undo in reverse."""
        for seed in range(10):
            rng = random.Random(100 + seed)
            tree = random_tree(rng, LABELS, size=10)
            original = tree.copy()
            index = TreeIndex(tree)
            journal = []
            for _ in range(4):
                nodes = [n for n in tree.node_ids() if n != tree.root]
                nid = rng.choice(nodes)
                target = rng.choice(list(tree.node_ids()))
                old_parent = tree.parent(nid)
                try:
                    index.apply_move(nid, target)
                except TreeError:
                    continue
                journal.append((nid, old_parent))
            for nid, old_parent in reversed(journal):
                index.apply_move(nid, old_parent)
            assert tree.same_instance(original)
            assert_matches_fresh(index, tree)


class TestBitsetViews:
    def test_masks_track_revisions(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        tree.add_child(a, "b")
        index = TreeIndex(tree)
        before = index.label_mask("b")
        nid = index.apply_add_leaf(tree.root, "b")
        after = index.label_mask("b")
        assert before != after
        assert sorted(index.node_at(s) for s in _slots(after)) == sorted(
            index.nodes_with_label("b"))
        assert nid in index.nodes_with_label("b")

    def test_subtree_mask_covers_exactly_the_subtree(self):
        rng = random.Random(3)
        tree = random_tree(rng, LABELS, size=12)
        index = TreeIndex(tree)
        for nid in tree.node_ids():
            mask = index.subtree_mask(nid) & index.all_mask()
            assert (sorted(index.node_at(s) for s in _slots(mask))
                    == sorted(tree.descendants(nid)))

    def test_labels_alphabet(self):
        rng = random.Random(5)
        tree = random_tree(rng, LABELS, size=10)
        index = TreeIndex(tree)
        assert index.labels() == {node.label for node in tree.nodes()}


class TestRemoveReAddCycles:
    """Remove → re-add into the freed slot run (the revive pattern).

    ``apply_remove_subtree`` frees a contiguous slot run; subsequent
    ``apply_add_leaf``/``apply_move`` edits under the same parent should
    land in (or around) that run, and every cache — label buckets, masks,
    children tuples, parent-slot table — must stay consistent with a
    fresh rebuild across the whole cycle.
    """

    def warm(self, index: TreeIndex) -> None:
        """Materialise every patched-not-rebuilt cache before editing."""
        index.all_mask()
        index.parent_slots()
        for label in LABELS:
            index.label_mask(label)
        for nid in list(index.node_ids()):
            index.children_mask(nid)

    def assert_parent_slots_consistent(self, index: TreeIndex,
                                       tree: DataTree) -> None:
        fresh = TreeIndex(tree)
        translate = lambda idx: {(idx.node_at(s), idx.node_at(p))
                                 for s, p in idx.parent_slots().items()}
        assert translate(index) == translate(fresh)

    def test_remove_then_readd_leaves_into_freed_run(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        b = tree.add_child(a, "b")
        for _ in range(3):
            tree.add_child(b, "c")
        tail = tree.add_child(tree.root, "c")
        index = TreeIndex(tree)
        self.warm(index)
        index.apply_remove_subtree(b)  # frees a 4-slot run inside a
        assert_matches_fresh(index, tree)
        revived = [index.apply_add_leaf(a, "b")]
        for _ in range(3):
            revived.append(index.apply_add_leaf(revived[0], "c"))
        assert_matches_fresh(index, tree)
        self.assert_parent_slots_consistent(index, tree)
        assert tail in index

    def test_remove_then_move_into_freed_slot_run(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        doomed = tree.add_child(a, "b")
        for _ in range(4):
            tree.add_child(doomed, "c")
        other = tree.add_child(tree.root, "b")
        payload = tree.add_child(other, "a")
        tree.add_child(payload, "c")
        index = TreeIndex(tree)
        self.warm(index)
        index.apply_remove_subtree(doomed)
        index.apply_move(payload, a)  # re-attach into the freed region
        assert_matches_fresh(index, tree)
        self.assert_parent_slots_consistent(index, tree)

    def test_identity_reuse_after_remove(self):
        """A freed identifier may be re-pinned by a later add (the stream
        rollback's revive path) — caches must not resurrect stale facts."""
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        b = tree.add_child(a, "b", nid=777001)
        tree.add_child(b, "c", nid=777002)
        index = TreeIndex(tree)
        self.warm(index)
        index.apply_remove_subtree(777001)
        assert 777001 not in index
        # Revive the same ids, preorder, exactly like the undo journal.
        index.apply_add_leaf(a, "b", nid=777001)
        index.apply_add_leaf(777001, "c", nid=777002)
        assert_matches_fresh(index, tree)
        self.assert_parent_slots_consistent(index, tree)
        assert index.label(777001) == "b"

    def test_randomised_remove_readd_cycles(self):
        for seed in range(8):
            rng = random.Random(7_000 + seed)
            tree = random_tree(rng, LABELS, size=14)
            index = TreeIndex(tree)
            self.warm(index)
            for _ in range(6):
                nodes = [n for n in tree.node_ids() if n != tree.root]
                if not nodes:
                    break
                victim = rng.choice(nodes)
                parent = tree.parent(victim)
                spec = [(n, tree.parent(n), tree.label(n))
                        for n in tree.descendants(victim, include_self=True)]
                index.apply_remove_subtree(victim)
                if rng.random() < 0.5:
                    # Revive the identical subtree into the freed run.
                    for nid, par, label in spec:
                        index.apply_add_leaf(par, label, nid=nid)
                else:
                    # Or re-point fresh growth and a move at the region.
                    fresh_leaf = index.apply_add_leaf(parent, rng.choice(LABELS))
                    movers = [n for n in tree.node_ids()
                              if n not in (tree.root, fresh_leaf)]
                    if movers:
                        try:
                            index.apply_move(rng.choice(movers), fresh_leaf)
                        except TreeError:
                            pass
                tree.validate()
                assert index.fresh
            assert_matches_fresh(index, tree)
            self.assert_parent_slots_consistent(index, tree)


class TestApplyAddSubtree:
    """The rollback journal's revive: a whole subtree in one edit.

    One revision bump and one :class:`~repro.trees.index.EditDelta`
    whose ``added`` is the subtree in preorder, through the free-run
    attach and through a forced host renumber alike; a malformed spec
    leaves tree, index and revision untouched.
    """

    helpers = TestRemoveReAddCycles()

    def removed(self, tree: DataTree, index: TreeIndex, victim: int):
        spec = [(n, tree.parent(n), tree.label(n))
                for n in tree.descendants(victim, include_self=True)]
        index.apply_remove_subtree(victim)
        return spec

    def assert_one_edit(self, index: TreeIndex, rev: int, spec) -> None:
        assert index.revision == rev + 1
        deltas = index.deltas_since(rev)
        assert deltas is not None and len(deltas) == 1
        assert deltas[0].added == tuple(nid for nid, _, _ in spec)

    def test_revive_into_the_freed_run(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        b = tree.add_child(a, "b")
        tree.add_child(b, "c")
        tree.add_child(b, "a")
        tree.add_child(a, "c")
        tree.add_child(tree.root, "b")
        index = TreeIndex(tree)
        self.helpers.warm(index)
        spec = self.removed(tree, index, b)
        rev, rebuilds = index.revision, index.rebuild_count
        index.apply_add_subtree(spec)
        self.assert_one_edit(index, rev, spec)
        # The compact attach found the run the removal freed: nothing
        # else moved.
        assert index.deltas_since(rev)[0].relocated == ()
        assert index.rebuild_count == rebuilds
        assert index.fresh and tree.children(a)[-1] == b
        tree.validate()
        assert_matches_fresh(index, tree)
        self.helpers.assert_parent_slots_consistent(index, tree)

    def test_revive_through_a_host_renumber(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        b = tree.add_child(tree.root, "b")
        index = TreeIndex(tree)
        self.helpers.warm(index)
        # Ten fresh nodes after a's one-slot interval: no free run that
        # long before b, so the attach renumbers a host subtree.
        spec = [(880001, a, "c")] + [(880001 + i, 880000 + i, LABELS[i % 3])
                                     for i in range(1, 10)]
        rev, rebuilds = index.revision, index.rebuild_count
        index.apply_add_subtree(spec)
        self.assert_one_edit(index, rev, spec)
        assert index.rebuild_count == rebuilds + 1  # the root hosted it
        moved = {nid: new for nid, _, new in
                 index.deltas_since(rev)[0].relocated}
        assert moved[b] == index.pre(b)
        tree.validate()
        assert_matches_fresh(index, tree)
        self.helpers.assert_parent_slots_consistent(index, tree)

    def test_randomised_revives_match_fresh_rebuilds(self):
        attached = renumbered = 0
        for seed in range(8):
            rng = random.Random(9_000 + seed)
            tree = random_tree(rng, LABELS, size=16)
            index = TreeIndex(tree)
            self.helpers.warm(index)
            for _ in range(6):
                nodes = [n for n in tree.node_ids() if n != tree.root]
                victim = rng.choice(nodes)
                spec = self.removed(tree, index, victim)
                if rng.random() < 0.5:
                    # Crowd the freed run so some revives renumber.
                    for _ in range(rng.randint(1, 4)):
                        index.apply_add_leaf(spec[0][1], rng.choice(LABELS))
                rev = index.revision
                index.apply_add_subtree(spec)
                self.assert_one_edit(index, rev, spec)
                if index.deltas_since(rev)[0].relocated:
                    renumbered += 1
                else:
                    attached += 1
                tree.validate()
            assert_matches_fresh(index, tree)
            self.helpers.assert_parent_slots_consistent(index, tree)
        assert attached and renumbered  # both branches exercised

    def test_removal_returns_the_spec_that_revives_it(self):
        # apply_remove_subtree hands back its preorder spec; reviving it
        # restores the same instance (ids, labels and edges).
        for seed in range(8):
            rng = random.Random(9_100 + seed)
            tree = random_tree(rng, LABELS, size=40)
            index = TreeIndex(tree)
            self.helpers.warm(index)
            for _ in range(6):
                before = tree.copy()
                victim = rng.choice([n for n in tree.node_ids()
                                     if n != tree.root])
                walked = [(n, tree.parent(n), tree.label(n)) for n in
                          tree.descendants(victim, include_self=True)]
                spec = index.apply_remove_subtree(victim)
                assert list(spec) == walked
                index.apply_add_subtree(spec)
                assert tree.same_instance(before)
                tree.validate()
            assert_matches_fresh(index, tree)
            self.helpers.assert_parent_slots_consistent(index, tree)

    @pytest.mark.parametrize("case", [
        "empty", "id-present", "duplicate-id", "parent-missing",
        "parent-not-earlier"])
    def test_bad_spec_leaves_everything_untouched(self, case):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        b = tree.add_child(a, "b")
        index = TreeIndex(tree)
        spec = {
            "empty": [],
            "id-present": [(990001, a, "c"), (b, 990001, "c")],
            "duplicate-id": [(990001, a, "c"), (990001, 990001, "c")],
            "parent-missing": [(990001, 10**9, "c")],
            "parent-not-earlier": [(990001, a, "c"), (990002, b, "c")],
        }[case]
        before = (tree.version, index.revision, list(index.node_ids()))
        with pytest.raises(TreeError):
            index.apply_add_subtree(spec)
        assert (tree.version, index.revision,
                list(index.node_ids())) == before
        assert index.fresh and index.deltas_since(before[1]) == []
        assert 990001 not in tree and 990001 not in index
        assert_matches_fresh(index, tree)
