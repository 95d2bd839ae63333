"""Delta-maintained predicate masks and the batch slot decoder.

The bitset evaluator does not drop its predicate masks when the index
revision moves — each mask is patched from the :class:`~repro.trees.index.
EditDelta` log when it is next read.  These tests pin the patch path
directly: masks warmed *before* an edit must answer exactly like the naive
evaluator *after* it, for every node, across chains of edits, whether a
mask was last read one edit ago or past the delta log's horizon (where the
full recompute takes over).
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import TreeError
from repro.trees import DataTree, TreeIndex
from repro.trees.index import DELTA_LOG_CAP
from repro.workloads import FragmentSpec, random_pattern, random_tree
from repro.xpath import BitsetEvaluator
from repro.xpath.bitset import slots_of
from repro.xpath.evaluator import evaluate_ids, matches_at

LABELS = ["a", "b", "c"]
FULL = FragmentSpec(predicates=True, descendant=True, wildcard=True)

RELAXED = settings(max_examples=30, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def random_edit(rng: random.Random, snapshot: TreeIndex):
    """One random edit; returns a removal's revive spec, else ``None``."""
    tree = snapshot.tree
    nodes = list(tree.node_ids())
    nonroot = [n for n in nodes if n != tree.root]
    try:
        roll = rng.random()
        if roll < 0.45 and nonroot:
            snapshot.apply_move(rng.choice(nonroot), rng.choice(nodes))
        elif roll < 0.8:
            snapshot.apply_add_leaf(rng.choice(nodes), rng.choice(LABELS))
        elif nonroot:
            return snapshot.apply_remove_subtree(rng.choice(nonroot))
    except TreeError:
        pass  # illegal move rolls — the index must stay untouched
    return None


@given(seed=st.integers(min_value=0, max_value=10_000))
@RELAXED
def test_warm_masks_stay_exact_across_edit_chains(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(2, 20))
    snapshot = TreeIndex(tree)
    evaluator = BitsetEvaluator(snapshot)
    patterns = [random_pattern(rng, LABELS, FULL, spine=rng.randint(1, 3),
                               pred_prob=0.8, max_pred_depth=3)
                for _ in range(3)]
    preds = [p.as_boolean() for p in patterns]
    # Warm every predicate mask on the initial revision...
    for pred in preds:
        evaluator.matches_at(pred, tree.root)
    # ...then edit and require patched answers to match naive, per node.
    for _ in range(5):
        random_edit(rng, snapshot)
        for pattern, pred in zip(patterns, preds, strict=True):
            assert evaluator.evaluate_ids(pattern) == evaluate_ids(pattern, tree)
            for nid in tree.node_ids():
                assert (evaluator.matches_at(pred, nid)
                        == matches_at(pred, tree, nid))


@given(seed=st.integers(min_value=0, max_value=5_000))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_masks_survive_the_delta_log_horizon(seed):
    """More unqueried edits than the log retains: recompute path, same
    answers."""
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(3, 12))
    snapshot = TreeIndex(tree)
    evaluator = BitsetEvaluator(snapshot)
    pattern = random_pattern(rng, LABELS, FULL, spine=2, pred_prob=0.8)
    evaluator.evaluate_ids(pattern)  # warm
    start = snapshot.revision
    while snapshot.revision - start <= DELTA_LOG_CAP:
        random_edit(rng, snapshot)
    assert snapshot.deltas_since(start) is None
    assert evaluator.evaluate_ids(pattern) == evaluate_ids(pattern, tree)


def predicate_pool(rng: random.Random, evaluator: BitsetEvaluator):
    """Canonical predicates and every nested predicate under them."""
    pool: dict = {}

    def walk(pred):
        for sub in pred.children:
            walk(sub)
        pool[pred] = None

    for _ in range(3):
        pattern = random_pattern(rng, LABELS, FULL, spine=rng.randint(1, 3),
                                 pred_prob=0.8, max_pred_depth=3)
        walk(evaluator._canonical(pattern.as_boolean()))
    return list(pool)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_masks_catch_up_when_read(seed):
    """Masks read at random cadences, some left unread for longer than the
    delta log holds, each equal a fresh evaluator's mask when read —
    a nested predicate read through its parent included."""
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(2, 25))
    snapshot = TreeIndex(tree)
    evaluator = BitsetEvaluator(snapshot)
    pool = predicate_pool(rng, evaluator)
    # At least one predicate is read only at the end, past the horizon.
    rates = [(0.0, 1.0, 0.3, 0.02)[i % 4] for i in range(len(pool))]
    rng.shuffle(rates)
    last_read = dict.fromkeys(pool, snapshot.revision)
    longest = 0
    removed: list = []
    target = DELTA_LOG_CAP + rng.randint(10, 60)  # edits, refusals aside
    while snapshot.revision < target:
        if removed and rng.random() < 0.15:
            try:
                snapshot.apply_add_subtree(removed.pop())  # a revival
            except TreeError:
                pass  # its parent went since
        else:
            spec = random_edit(rng, snapshot)
            if spec is not None:
                removed.append(spec)
        read = [p for p, rate in zip(pool, rates) if rng.random() < rate]
        if not read:
            continue
        evaluator._sync()
        fresh = BitsetEvaluator(snapshot)
        for pred in read:
            assert evaluator._pred_mask(pred) == fresh._pred_mask(pred)
            longest = max(longest, snapshot.revision - last_read[pred])
            last_read[pred] = snapshot.revision
    evaluator._sync()
    fresh = BitsetEvaluator(snapshot)
    for pred in pool:
        assert evaluator._pred_mask(pred) == fresh._pred_mask(pred)
        longest = max(longest, snapshot.revision - last_read[pred])
    assert longest > DELTA_LOG_CAP


class TestDeltaLog:
    def test_revision_bookkeeping(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        index = TreeIndex(tree)
        assert index.deltas_since(0) == []
        b = index.apply_add_leaf(a, "b")
        index.apply_move(b, tree.root)
        index.apply_remove_subtree(b)
        deltas = index.deltas_since(0)
        assert [d.revision for d in deltas] == [1, 2, 3]
        assert deltas[0].added == (b,)
        assert deltas[2].vanished  # the removed node's old slot
        assert index.deltas_since(2) == deltas[2:]
        assert index.deltas_since(3) == []

    def test_dirty_chains_are_upward_closed(self):
        tree = DataTree()
        a = tree.add_child(tree.root, "a")
        b = tree.add_child(a, "b")
        c = tree.add_child(b, "c")
        index = TreeIndex(tree)
        index.apply_add_leaf(c, "a")
        (delta,) = index.deltas_since(0)
        # Every ancestor of the attachment point is dirty.
        assert set(delta.dirty) >= {c, b, a, tree.root}

    def test_log_is_capped(self):
        tree = DataTree()
        parent = tree.add_child(tree.root, "a")
        index = TreeIndex(tree)
        for _ in range(DELTA_LOG_CAP + 10):
            index.apply_add_leaf(parent, "b")
        assert index.deltas_since(0) is None
        assert len(index.deltas_since(index.revision - DELTA_LOG_CAP)) == \
            DELTA_LOG_CAP


class TestSlotDecoder:
    def reference(self, mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    def test_empty_mask(self):
        assert slots_of(0) == []

    def test_against_bit_kernel_reference(self):
        rng = random.Random(20070611)
        masks = [rng.getrandbits(width) for width in
                 (1, 7, 8, 9, 64, 65, 1000, 100_000) for _ in range(5)]
        masks += [1, (1 << 100_000), (1 << 100_000) | 1]
        masks += [rng.getrandbits(rng.randint(0, 200)) for _ in range(50)]
        for mask in masks:
            assert slots_of(mask) == self.reference(mask)
