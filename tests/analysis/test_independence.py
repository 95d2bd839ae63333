"""Unit tests for :mod:`repro.analysis` — signatures, index, analyzer.

The soundness argument the tests pin down: patterns in XP{/,[],//,*} are
monotone under single edits, so a ``NO_REMOVE`` constraint can only be
broken by edits that destroy matches (move, remove-subtree) and a
``NO_INSERT`` constraint only by edits that create them (add-leaf, move);
an op whose label and region intersect no signature cannot change any
verdict.  The engine-level tests check the fast path raises the
``independent`` witness without ever changing a decision.
"""

from __future__ import annotations

from repro.analysis import (
    KIND_ADD,
    KIND_MOVE,
    KIND_REMOVE,
    IndependenceAnalyzer,
    IndependenceIndex,
    impact_signature,
)
from repro.constraints import no_insert, no_remove
from repro.stream import (
    AddLeaf,
    Begin,
    Commit,
    Move,
    RemoveSubtree,
    StreamEnforcer,
)
from repro.trees import DataTree, TreeIndex
from repro.trees.node import fresh_id
from repro.xpath.ast import Axis


def analyzer(constraints, tree):
    return IndependenceAnalyzer(IndependenceIndex(constraints),
                                TreeIndex(tree))


def sample():
    """root -> a1(b1), c1(a2, d1): two ``a`` anchors, one nested deeper."""
    tree = DataTree()
    a1 = tree.add_child(tree.root, "a")
    b1 = tree.add_child(a1, "b")
    c1 = tree.add_child(tree.root, "c")
    a2 = tree.add_child(c1, "a")
    d1 = tree.add_child(c1, "d")
    return tree, a1, b1, c1, a2, d1


class TestImpactSignature:
    def test_kinds_follow_monotonicity(self):
        assert impact_signature(no_remove("/a/b")).kinds == \
            frozenset((KIND_MOVE, KIND_REMOVE))
        assert impact_signature(no_insert("/a/b")).kinds == \
            frozenset((KIND_ADD, KIND_MOVE))

    def test_concrete_label_alphabet(self):
        sig = impact_signature(no_remove("//a/b"))
        assert sig.labels == frozenset(("a", "b"))
        assert not sig.is_top
        assert (sig.first_axis, sig.first_label) == (Axis.DESC, "a")

    def test_wildcard_anywhere_lifts_labels_to_top(self):
        sig = impact_signature(no_remove("/a/*"))
        assert sig.labels is None and sig.is_top
        assert (sig.first_axis, sig.first_label) == (Axis.CHILD, "a")
        assert "⊤" in str(sig)

    def test_child_axis_region_is_the_matching_root_children(self):
        tree, a1, b1, c1, a2, d1 = sample()
        # Position 0 is anchored at the /a root child a1 only; a wildcard
        # first step (position 1) anchors at every root child.
        az = analyzer([no_remove("/a/b"), no_remove("/*/b")], tree)
        assert az.dependent(RemoveSubtree(nid=b1)) == (0, 1)
        assert az.dependent(RemoveSubtree(nid=a2)) == (1,)
        sig = impact_signature(no_remove("/a/b"))
        assert sig.in_region(("a",), "root")
        assert sig.in_region(("a", "b"), "root")
        assert not sig.in_region(("c", "a"), "root")
        # The root itself is outside every '/'-anchored region.
        assert not impact_signature(no_remove("/*/b")).in_region((), "root")

    def test_desc_axis_region_is_every_node_below_an_anchor_label(self):
        tree, a1, b1, c1, a2, d1 = sample()
        a3 = tree.add_child(b1, "a")  # nested under a1 — covered by it
        b2 = tree.add_child(a3, "b")
        b3 = tree.add_child(d1, "b")  # under c1/d1: no anchor above
        az = analyzer([no_remove("//a/b")], tree)
        assert az.dependent(RemoveSubtree(nid=b2)) == (0,)
        assert az.dependent(RemoveSubtree(nid=b3)) == ()
        sig = impact_signature(no_remove("//a/b"))
        assert sig.in_region(("a", "b", "a"), "root")
        assert not sig.in_region(("c", "d"), "root")
        # A root carrying the anchor label puts every node inside.
        assert sig.in_region((), "a") and sig.in_region(("c",), "a")

    def test_desc_wildcard_region_is_the_whole_tree(self):
        tree, a1, b1, c1, a2, d1 = sample()
        az = analyzer([no_remove("//*")], tree)
        for nid in (a1, b1, c1, a2, d1):
            assert az.dependent(RemoveSubtree(nid=nid)) == (0,)
        assert impact_signature(no_remove("//*")).in_region((), "root")


class TestIndependenceIndex:
    def test_lookup_gates_on_kind_and_label(self):
        index = IndependenceIndex([no_remove("/a/b")])
        assert len(index) == 1
        # NO_REMOVE is insensitive to pure insertion …
        assert index.lookup(KIND_ADD, "b") == ()
        # … but sensitive to removal and relocation of its labels.
        assert len(index.lookup(KIND_REMOVE, "b")) == 1
        assert len(index.lookup(KIND_MOVE, "a")) == 1
        assert index.lookup(KIND_REMOVE, "zzz") == ()

    def test_top_signatures_survive_every_label(self):
        index = IndependenceIndex([no_insert("/a/*")])
        for label in ("a", "b", "never-seen"):
            assert len(index.lookup(KIND_ADD, label)) == 1
        # The anchor label of a ⊤ signature still feeds the subtree probes.
        assert "a" in index.probe_labels

    def test_candidates_deduplicate_across_labels(self):
        index = IndependenceIndex([no_remove("/a/b")])
        assert len(index.candidates(KIND_REMOVE, ["a", "b", "a"])) == 1
        assert index.candidates(KIND_REMOVE, ["zzz"]) == ()

    def test_stats_expose_the_compiled_shape(self):
        index = IndependenceIndex([no_remove("/a/b"), no_insert("/a/*")])
        stats = index.stats()
        assert stats["signatures"] == 2
        assert stats["wildcard"] == 1
        assert stats["keys"] > 0
        assert "2 signatures" in repr(index)


class TestAnalyzerVerdicts:
    def analyzer_for(self, constraints, tree):
        return IndependenceAnalyzer(IndependenceIndex(constraints),
                                    TreeIndex(tree))

    def test_noise_edits_are_independent(self):
        tree, a1, b1, c1, a2, d1 = sample()
        az = self.analyzer_for([no_remove("/a/b")], tree)
        assert az.independent(AddLeaf(parent=b1, label="zzz"))
        assert az.independent(RemoveSubtree(nid=d1))

    def test_region_hits_are_dependent(self):
        tree, a1, b1, c1, a2, d1 = sample()
        az = self.analyzer_for([no_remove("/a/b")], tree)
        # Removing or relocating inside the anchored /a subtree.
        assert not az.independent(RemoveSubtree(nid=b1))
        assert not az.independent(Move(nid=b1, new_parent=c1))
        # Moving a matching label *into* the region is just as dependent.
        assert not az.independent(Move(nid=a2, new_parent=b1))
        # The same subtree shuffled entirely outside the region is not.
        assert az.independent(Move(nid=a2, new_parent=d1))
        # a2 carries an alphabet label but sits outside the /a region.
        assert az.independent(RemoveSubtree(nid=a2))

    def test_anchor_minting_adds_are_dependent_for_no_insert(self):
        tree, a1, b1, c1, a2, d1 = sample()
        az = self.analyzer_for([no_insert("/a/b")], tree)
        # A fresh /a root child mints a new anchor: dependent.
        assert not az.independent(AddLeaf(parent=tree.root, label="a"))
        # A "b" inside the existing anchored region: dependent.
        assert not az.independent(AddLeaf(parent=a1, label="b"))
        # The same label outside every anchor subtree: independent.
        assert az.independent(AddLeaf(parent=c1, label="b"))

    def test_desc_anchors_probe_the_moved_subtree(self):
        tree, a1, b1, c1, a2, d1 = sample()
        az = self.analyzer_for([no_remove("//a/b")], tree)
        # c1's subtree contains an "a" anchor — removing it is dependent.
        assert not az.independent(RemoveSubtree(nid=c1))
        # d1's subtree contains no anchor and no alphabet label.
        assert az.independent(RemoveSubtree(nid=d1))

    def test_markers_and_unknown_nodes_are_never_independent(self):
        tree = sample()[0]
        az = self.analyzer_for([no_remove("/a/b")], tree)
        assert not az.independent(Begin())
        assert not az.independent(Commit())
        assert not az.independent(AddLeaf(parent=10**9, label="zzz"))
        assert not az.independent(RemoveSubtree(nid=10**9))
        assert not az.independent(Move(nid=10**9, new_parent=10**9 + 1))


class TestEngineFastPath:
    def test_fast_path_counts_and_witnesses(self):
        tree, a1, b1, c1, a2, d1 = sample()
        stream = StreamEnforcer([no_remove("/a/b")], tree.copy())
        assert stream.analyzer is not None
        ok = stream.apply(AddLeaf(parent=c1, label="zzz", nid=fresh_id()))
        assert ok.accepted and ok.independent and not ok.violations
        bad = stream.apply(RemoveSubtree(nid=b1))
        assert bad.rejected and not bad.independent and bad.violations
        assert stream.stats.independent == 1

    def test_disabled_analysis_never_raises_the_witness(self):
        tree, a1, b1, c1, a2, d1 = sample()
        stream = StreamEnforcer([no_remove("/a/b")], tree.copy(),
                                analysis=False)
        assert stream.analyzer is None
        ok = stream.apply(AddLeaf(parent=c1, label="zzz", nid=fresh_id()))
        assert ok.accepted and not ok.independent
        assert stream.stats.independent == 0
