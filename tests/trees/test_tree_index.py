"""Hypothesis check: a :class:`TreeIndex` snapshot mirrors its tree.

Every structural query the snapshot answers — preorder, depths, parents,
children, label paths, label-bucketed descendants, ancestry and the
canonical shape — must agree with the :class:`DataTree` it indexes.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.trees import TreeIndex
from repro.workloads import random_tree

LABELS = ["a", "b", "c"]

seeds = st.integers(min_value=0, max_value=10_000)

RELAXED = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@given(seed=seeds)
@RELAXED
def test_tree_index_structure_agrees_with_tree(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(1, 15))
    index = TreeIndex(tree)
    nodes = list(tree.node_ids())
    assert list(index.node_ids()) == nodes  # same preorder
    for nid in nodes:
        assert index.depth(nid) == tree.depth(nid)
        assert index.parent(nid) == tree.parent(nid)
        assert index.children(nid) == tree.children(nid)
        assert index.path_labels(nid) == tree.path_labels(nid)
        assert sorted(index.descendants(nid)) == sorted(tree.descendants(nid))
        for label in LABELS:
            expected = [d for d in tree.descendants(nid)
                        if tree.label(d) == label]
            assert sorted(index.descendants_with_label(label, nid)) == sorted(expected)
            assert index.count_descendants_with_label(label, nid) == len(expected)
    for anc in nodes:
        for nid in nodes:
            assert index.is_ancestor(anc, nid) == tree.is_ancestor(anc, nid)
    assert [index.label(n) for n in nodes] == [tree.label(n) for n in nodes]
