"""The bitset evaluator's step and re-decision kernels, cross-checked.

* A ``/`` step over a sparse frontier unions cached children masks
  (:meth:`TreeIndex.children_union`); over a dense one it hops the
  label's slot list (:meth:`TreeIndex.child_step_mask`).  The branch is
  a cost choice only, so both must give the same answer on every
  frontier, sparse or not.
* :meth:`BitsetEvaluator._redecide` applies a whole dirty batch as two
  packed masks; the sequential per-node version (one big-int set or
  clear per node) lives here only, as its reference.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TreeError
from repro.trees import TreeIndex
from repro.workloads import FragmentSpec, random_pattern, random_tree
from repro.xpath import BitsetEvaluator
from repro.xpath.ast import Axis
from repro.xpath.bitset import DirtyBatch

LABELS = ["a", "b", "c"]
FULL = FragmentSpec(predicates=True, descendant=True, wildcard=True)

RELAXED = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def reference_redecide(evaluator, pred, mask, alive):
    """Re-decide ``pred`` node by node (the per-bit kernel)."""
    idx = evaluator.index
    target = idx.label_mask(pred.label)
    for sub in pred.children:
        if not target:
            break
        target &= evaluator._pred_mask(sub)
    for n in alive:
        bit = 1 << idx.pre(n)
        if not target:
            holds = False
        elif pred.axis is Axis.CHILD:
            holds = bool(idx.children_mask(n) & target)
        else:
            holds = bool(idx.subtree_mask(n) & target)
        if holds:
            mask |= bit
        else:
            mask &= ~bit
    return mask


def _random_subset(rng: random.Random, slots: list[int], p: float) -> int:
    mask = 0
    for s in slots:
        if rng.random() < p:
            mask |= 1 << s
    return mask


def _edit(rng: random.Random, index: TreeIndex) -> None:
    tree = index.tree
    nodes = list(tree.node_ids())
    nonroot = [n for n in nodes if n != tree.root]
    try:
        if rng.random() < 0.5 and nonroot:
            index.apply_move(rng.choice(nonroot), rng.choice(nodes))
        else:
            index.apply_add_leaf(rng.choice(nodes), rng.choice(LABELS))
    except TreeError:
        pass


@given(seed=st.integers(min_value=0, max_value=10_000))
@RELAXED
def test_sparse_and_dense_child_steps_agree(seed):
    rng = random.Random(seed)
    index = TreeIndex(random_tree(rng, LABELS, size=rng.randint(1, 60)))
    for _ in range(rng.randint(0, 6)):
        _edit(rng, index)  # gapped, renumbered slot layouts too
    slots = index.label_slots(None)
    for _ in range(6):
        frontier = _random_subset(rng, slots, rng.choice((0.02, 0.2, 0.9)))
        label = rng.choice([None, *LABELS])
        test = index.label_mask(label) & _random_subset(
            rng, slots, rng.choice((0.5, 1.0)))
        sparse = index.children_union(frontier) & test
        dense = index.child_step_mask(frontier, test, label)
        assert sparse == dense


@given(seed=st.integers(min_value=0, max_value=10_000))
@RELAXED
def test_batched_redecide_equals_sequential(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(1, 40))
    index = TreeIndex(tree)
    evaluator = BitsetEvaluator(index)
    preds = [random_pattern(rng, LABELS, FULL, spine=rng.randint(1, 3),
                            pred_prob=0.8, max_pred_depth=3).as_boolean()
             for _ in range(3)]
    for pred in preds:
        evaluator.matches_at(pred, tree.root)  # warm (and canonicalise)
    for _ in range(4):
        _edit(rng, index)
        evaluator.matches_at(preds[0], tree.root)  # sync: masks patched
        nodes = list(tree.node_ids())
        alive = rng.sample(nodes, rng.randint(1, len(nodes)))
        batch = DirtyBatch(index, alive)
        slots = index.label_slots(None)
        for pred in preds:
            pred = evaluator._canonical(pred)
            mask = _random_subset(rng, slots, 0.5)
            assert (evaluator._redecide(pred, mask, batch)
                    == reference_redecide(evaluator, pred, mask, alive))
        assert evaluator._redecide(preds[0], 5, None) == 5
