"""Hypothesis equivalence: the bitset snapshot evaluator vs naive.

The contract of the set-at-a-time layer is *bit-identical answers*: for
every tree and every pattern, mask evaluation over a ``TreeIndex`` must
agree with the naive two-phase evaluator (the oracle) — including after
in-place index edits driven by the refutation-search journals (move/undo
cascades, merge/revive quotients) — and every engine verdict must be
unchanged by the snapshot fast path.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import Reasoner
from repro.constraints import ConstraintType, UpdateConstraint
from repro.errors import TreeError
from repro.instance import implies_on
from repro.instance.no_remove_engine import _merge_walk
from repro.instance.search import _cascade_walk
from repro.trees import TreeIndex
from repro.workloads import (
    FragmentSpec,
    random_constraints,
    random_pattern,
    random_tree,
)
from repro.xpath import BitsetEvaluator
from repro.xpath import bitset as bitset_mod
from repro.xpath.evaluator import evaluate, evaluate_ids, matches_at, selects

LABELS = ["a", "b", "c"]
SPECS = [
    FragmentSpec(False, False, False),
    FragmentSpec(True, False, False),
    FragmentSpec(False, True, False),
    FragmentSpec(False, True, True),
    FragmentSpec(True, True, True),
]

seeds = st.integers(min_value=0, max_value=10_000)
spec_idx = st.integers(min_value=0, max_value=len(SPECS) - 1)

RELAXED = settings(max_examples=40, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


@given(seed=seeds, idx=spec_idx)
@RELAXED
def test_bitset_evaluate_matches_naive(seed, idx):
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(1, 20))
    snapshot = TreeIndex(tree)
    bit = BitsetEvaluator(snapshot)
    for _ in range(4):
        pattern = random_pattern(rng, LABELS, SPECS[idx],
                                 spine=rng.randint(1, 4))
        expected = evaluate_ids(pattern, tree)
        assert bit.evaluate_ids(pattern) == expected
        assert bitset_mod.evaluate_ids(pattern, snapshot) == expected
        assert bit.evaluate(pattern) == evaluate(pattern, tree)
        assert bitset_mod.evaluate(pattern, bit) == evaluate(pattern, tree)
        # evaluation anchored below the root must agree too
        start = rng.choice(list(tree.node_ids()))
        assert bit.evaluate_ids(pattern, start) == evaluate_ids(pattern, tree, start)


@given(seed=seeds, idx=spec_idx)
@RELAXED
def test_bitset_selects_and_matches_at(seed, idx):
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(1, 15))
    bit = BitsetEvaluator.for_tree(tree)
    pattern = random_pattern(rng, LABELS, SPECS[idx], spine=rng.randint(1, 3))
    pred = pattern.as_boolean()
    for nid in tree.node_ids():
        naive_sel = selects(pattern, tree, nid)
        assert bit.selects(pattern, nid) == naive_sel
        assert bitset_mod.selects(pattern, bit, nid) == naive_sel
        naive_pred = matches_at(pred, tree, nid)
        assert bit.matches_at(pred, nid) == naive_pred
        assert bitset_mod.matches_at(pred, bit, nid) == naive_pred


@given(seed=seeds)
@RELAXED
def test_bitset_context_fast_path_is_transparent(seed):
    """evaluate(context=...) answers identically and survives staleness."""
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(1, 12))
    ctx = bitset_mod.context_for(tree)
    pattern = random_pattern(rng, LABELS, SPECS[4], spine=rng.randint(1, 3))
    assert (evaluate(pattern, tree, context=ctx)
            == evaluate(pattern, tree, context=None))
    # A foreign mutation makes the context stale: the fast path steps aside.
    tree.add_child(tree.root, "b")
    assert not ctx.covers(tree)
    assert (evaluate(pattern, tree, context=ctx)
            == evaluate(pattern, tree, context=None))


@given(seed=seeds)
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_bitset_agrees_after_incremental_edits(seed):
    """The snapshot evaluator stays exact across in-place index edits."""
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(2, 18))
    snapshot = TreeIndex(tree)
    bit = BitsetEvaluator(snapshot)
    for _ in range(8):
        op = rng.random()
        nodes = [n for n in tree.node_ids() if n != tree.root]
        try:
            if op < 0.55 and nodes:
                snapshot.apply_move(rng.choice(nodes),
                                    rng.choice(list(tree.node_ids())))
            elif op < 0.8:
                snapshot.apply_add_leaf(rng.choice(list(tree.node_ids())),
                                        rng.choice(LABELS))
            elif nodes:
                snapshot.apply_remove_subtree(rng.choice(nodes))
        except TreeError:
            continue
        assert snapshot.covers(tree)
        pattern = random_pattern(rng, LABELS, SPECS[4], spine=rng.randint(1, 3))
        expected = evaluate_ids(pattern, tree)
        assert bit.evaluate_ids(pattern) == expected
        pred = pattern.as_boolean()
        probe = rng.choice(list(tree.node_ids()))
        assert bit.matches_at(pred, probe) == matches_at(pred, tree, probe)


@given(seed=seeds)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_cascade_journal_keeps_snapshot_exact(seed):
    """The move/undo journal leaves the live snapshot exact at every yield
    and restores the original tree when exhausted."""
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(2, 8))
    original = tree.copy()
    scratch = tree.copy()
    ctx = BitsetEvaluator.for_tree(scratch)
    pattern = random_pattern(rng, LABELS, SPECS[4], spine=2)
    for candidate, _ in _cascade_walk(scratch, max_moves=2, budget=30,
                                      context=ctx):
        assert candidate is scratch
        assert ctx.covers(scratch)
        assert ctx.evaluate_ids(pattern) == evaluate_ids(pattern, scratch)
    assert scratch.same_instance(original)
    assert ctx.evaluate_ids(pattern) == evaluate_ids(pattern, original)


@given(seed=seeds)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_merge_journal_keeps_snapshot_exact(seed):
    """The merge/revive journal (moves + leaf removal + revival) leaves the
    live snapshot exact at every quotient."""
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS[:2], size=rng.randint(2, 8))
    output = rng.choice([n for n in tree.node_ids()])
    scratch = tree.copy()
    ctx = BitsetEvaluator.for_tree(scratch)
    pattern = random_pattern(rng, LABELS[:2], SPECS[1], spine=2)
    count = 0
    for candidate, out in _merge_walk(scratch, output, budget=40, context=ctx):
        count += 1
        assert candidate is scratch
        assert ctx.covers(scratch)
        assert out in scratch
        assert ctx.evaluate_ids(pattern) == evaluate_ids(pattern, scratch)
    assert count >= 1  # the unmerged original is always yielded


@given(seed=seeds)
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_engine_verdicts_identical_across_engines(seed):
    """Table 2 dispatch: bitset and naive bindings, plus the legacy free
    function, give the same answer through the same engine."""
    rng = random.Random(seed)
    spec = SPECS[rng.randint(0, len(SPECS) - 1)]
    types = rng.choice(["up", "down", "mixed"])
    premises = random_constraints(rng, LABELS[:2], spec,
                                  count=rng.randint(1, 3), types=types, spine=2)
    current = random_tree(rng, LABELS[:2], size=rng.randint(1, 6))
    reasoner = Reasoner(premises)
    bindings = [reasoner.bind(current, engine=engine)
                for engine in ("bitset", "naive")]
    for _ in range(2):
        kind = rng.choice(list(ConstraintType))
        conclusion = UpdateConstraint(
            random_pattern(rng, LABELS[:2], spec, spine=2), kind)
        results = [b.implies_on(conclusion) for b in bindings]
        legacy = implies_on(premises, current, conclusion)
        assert all(r.answer is legacy.answer for r in results), (
            str(premises), str(conclusion))
        assert all(r.engine == legacy.engine for r in results)
        if results[0].counterexample is not None:
            assert results[0].verify() == []


@given(seed=seeds)
@RELAXED
def test_bitset_memo_capped_and_warm(seed):
    """Re-asking queries neither grows nor poisons the capped memos."""
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=rng.randint(2, 12))
    ctx = BitsetEvaluator.for_tree(tree)
    patterns = [random_pattern(rng, LABELS, SPECS[4], spine=rng.randint(1, 3))
                for _ in range(4)]
    first = [ctx.evaluate_ids(p) for p in patterns]
    entries_after_first = ctx.memo_entries
    second = [ctx.evaluate_ids(p) for p in patterns]
    assert first == second
    assert ctx.memo_entries == entries_after_first  # warm memo, no growth
