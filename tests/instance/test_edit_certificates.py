"""No-insert certificates recorded as edits of the current instance.

The no-insert engine's past ``I`` is ``J`` with one node replaced by a
fresh copy plus a grafted witness branch (a ``PastEdit``).  The hybrid
dispatch decides that certificate from ``J``'s answers and the branch
alone; these tests hold the edit-based decision to the naive check on
the materialised past, and the no-remove engine's index-read label
buckets to the preorder walk they replace.
"""

from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.session import Reasoner
from repro.constraints import (
    ConstraintSet,
    ConstraintType,
    UpdateConstraint,
    constraint_set,
    no_insert,
)
from repro.implication.result import Counterexample, PastEdit
from repro.instance import implies_no_insert, search
from repro.instance.no_remove_engine import _label_buckets
from repro.trees import fresh_id, parse_tree, remap_ids
from repro.workloads import (
    FragmentSpec,
    random_constraints,
    random_pattern,
    random_tree,
    random_update_stream,
)
from repro.xpath.bitset import BitsetEvaluator

LABELS = ["a", "b", "c"]
#: XP{/,//,[],*}
FULL = FragmentSpec(predicates=True, descendant=True, wildcard=True)


def mixed_problem(rng: random.Random):
    """A random mixed-type ``(C, J, c)``: both premise types present."""
    current = random_tree(rng, LABELS, size=rng.randint(6, 300))
    premises = ConstraintSet(
        tuple(random_constraints(rng, LABELS, FULL, count=rng.randint(1, 3),
                                 types="down", spine=3))
        + tuple(random_constraints(rng, LABELS, FULL,
                                   count=rng.randint(1, 3), types="up",
                                   spine=3)))
    kind = (ConstraintType.NO_INSERT if rng.random() < 0.75
            else ConstraintType.NO_REMOVE)
    conclusion = UpdateConstraint(
        random_pattern(rng, LABELS, FULL, spine=rng.randint(1, 3)), kind)
    return premises, current, conclusion


def spied_edit_decisions():
    """Patch the edit-based check to log ``(edit, J, C, c, decision)``."""
    decisions = []
    original = search._edit_is_refutation

    def spy(edit, current, premises, conclusion, context):
        decided = original(edit, current, premises, conclusion, context)
        decisions.append((edit, current, premises, conclusion, decided))
        return decided

    return decisions, mock.patch.object(search, "_edit_is_refutation", spy)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_edit_validation_agrees_with_the_materialised_past(seed):
    rng = random.Random(seed)
    premises, current, conclusion = mixed_problem(rng)
    decisions, spy = spied_edit_decisions()
    with spy:
        result = Reasoner(premises).bind(current).implies_on(
            conclusion, max_moves=1, search_budget=40)
    for edit, on, constraints, target, decided in decisions:
        past = edit.apply(on)
        assert decided == search._candidate_is_refutation(
            past, on, constraints, target), (str(constraints), str(target))
    assert result.verify() == []
    naive = Reasoner(premises).bind(current, engine="naive").implies_on(
        conclusion, max_moves=1, search_budget=40)
    assert result.answer is naive.answer, (str(premises), str(conclusion))
    assert (result.counterexample is None) == (naive.counterexample is None)
    if result.counterexample is not None:
        assert (result.counterexample.before.canonical_shape()
                == naive.counterexample.before.canonical_shape())


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_any_relocation_edit_is_decided_exactly(seed):
    """Not only the engine's certificates: any node swapped for a fresh
    copy, plus any small branch (carrying the node's id or not)."""
    rng = random.Random(seed)
    premises, current, conclusion = mixed_problem(rng)
    context = BitsetEvaluator.for_tree(current)
    for _ in range(4):
        n = rng.choice([nid for nid in current.node_ids()
                        if nid != current.root])
        branch = None
        if rng.random() < 0.8:
            branch = random_tree(rng, LABELS, size=rng.randint(1, 6))
            if rng.random() < 0.5:
                carrier = rng.choice([nid for nid in branch.node_ids()
                                      if nid != branch.root])
                branch = remap_ids(branch, {carrier: n})
        edit = PastEdit(n, fresh_id(), branch, current.version)
        past = edit.apply(current)
        # Each range alone (no premises: refuted iff violated), then the
        # problem itself.
        problems = [(ConstraintSet(()), c) for c in (conclusion, *premises)]
        for constraints, target in problems + [(premises, conclusion)]:
            decided = search._edit_is_refutation(edit, current, constraints,
                                                 target, context)
            assert decided == search._candidate_is_refutation(
                past, current, constraints, target), str(target)


def test_the_bound_path_never_builds_the_past():
    current = parse_tree("a(b), c")
    premises = constraint_set(("//b", "down"), ("/c", "up"))
    decisions, spy = spied_edit_decisions()
    with spy, mock.patch.object(PastEdit, "apply",
                                side_effect=AssertionError("built")):
        result = Reasoner(premises).bind(current).implies_on(
            no_insert("/a/b"))
    assert result.is_refuted
    assert [decided for *_, decided in decisions] == [True]
    assert result.counterexample.edit is not None
    assert result.verify() == []  # built here, on first read


def test_before_refuses_once_the_current_tree_changed():
    current = parse_tree("a(b), a(b)")
    conclusion = no_insert("/a/b")
    premises = constraint_set(("/a", "down"))
    kept = implies_no_insert(premises, current, conclusion).counterexample
    stale = implies_no_insert(premises, current, conclusion).counterexample
    past = kept.before
    current.add_child(current.root, "c")
    assert kept.before is past  # built before the change: kept
    with pytest.raises(ValueError, match="mutated"):
        _ = stale.before


def test_a_counterexample_takes_a_tree_or_an_edit():
    tree = parse_tree("a")
    edit = PastEdit(tree.root, 0, None, tree.version)
    for before, given_edit in ((None, None), (tree, edit)):
        with pytest.raises(TypeError):
            Counterexample(before, tree, edit=given_edit)


@pytest.mark.parametrize("seed", range(4))
def test_index_label_buckets_follow_the_preorder_walk(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=120)
    policy = random_constraints(rng, LABELS, FULL, count=3, types="mixed",
                                spine=2)
    log = random_update_stream(rng, tree.copy(), LABELS, constraints=policy,
                               ops=150, violation_rate=0.3)
    stream = Reasoner(policy).open_stream(tree)
    for op in log:  # adds, moves, removals, rejections rolled back
        stream.apply(op)
        assert stream.context.covers(tree)
        assert _label_buckets(tree, stream.context) == _label_buckets(tree)
    assert stream.context.index.revision > len(log) // 2
