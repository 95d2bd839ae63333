"""Hypothesis soundness of per-constraint dependence.

``IndependenceAnalyzer.dependent(op)`` names the constraints an edit may
affect; the stream engine re-checks only those (plus whatever is
currently violated).  That is sound exactly when every *excluded*
constraint's answer set can only move in its safe direction under the
edit — a ``NO_REMOVE`` range grows or stays, a ``NO_INSERT`` range
shrinks or stays — so a constraint that held before the edit still holds
after it.  The naive evaluator is the oracle: random trees (the root
label sometimes an anchor label), mixed constraints with wildcards and a
duplicated constraint, random edits applied to a copy.
"""

from __future__ import annotations

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis import IndependenceAnalyzer, IndependenceIndex
from repro.constraints import no_insert, no_remove
from repro.constraints.model import ConstraintType
from repro.stream import AddLeaf, Begin, Move, RemoveSubtree
from repro.trees import DataTree, TreeIndex
from repro.workloads import FragmentSpec, random_constraints
from repro.xpath.evaluator import evaluate

LABELS = ["a", "b", "c"]
SPEC = FragmentSpec(predicates=True, descendant=True, wildcard=True)
#: Wildcard-anchored ranges ``random_constraints`` rarely draws.
WILDCARDS = [no_remove("//*/a"), no_insert("/*//b"), no_insert("//*"),
             no_remove("/*"), no_remove("/*[/c]//*[/a]/b")]

RELAXED = settings(max_examples=200, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def random_document(rng: random.Random) -> DataTree:
    tree = DataTree(root_label=rng.choice(LABELS + ["root"]))
    nodes = [tree.root]
    for _ in range(rng.randint(0, 14)):
        nodes.append(tree.add_child(rng.choice(nodes), rng.choice(LABELS)))
    return tree


def random_policy(rng: random.Random) -> list:
    constraints = list(random_constraints(rng, LABELS, SPEC,
                                          count=rng.randint(1, 4),
                                          types="mixed", spine=3))
    constraints += rng.sample(WILDCARDS, rng.randint(0, 2))
    constraints.append(rng.choice(constraints))  # a duplicate
    rng.shuffle(constraints)
    return constraints


def random_edit(rng: random.Random, tree: DataTree):
    nodes = list(tree.node_ids())
    movable = [n for n in nodes if n != tree.root]
    kind = rng.randrange(3)
    if kind == 0 or not movable:
        return AddLeaf(rng.choice(nodes), rng.choice(LABELS))
    nid = rng.choice(movable)
    if kind == 1:
        targets = [n for n in nodes
                   if n != nid and not tree.is_ancestor(nid, n)]
        return Move(nid, rng.choice(targets))
    return RemoveSubtree(nid)


def applied(tree: DataTree, op) -> DataTree:
    after = tree.copy()
    if isinstance(op, AddLeaf):
        after.add_child(op.parent, op.label)
    elif isinstance(op, Move):
        after.move(op.nid, op.new_parent)
    else:
        after.remove_subtree(op.nid)
    return after


@given(seed=st.integers(min_value=0, max_value=100_000))
@RELAXED
def test_excluded_constraints_only_move_in_their_safe_direction(seed):
    rng = random.Random(seed)
    tree = random_document(rng)
    constraints = random_policy(rng)
    analyzer = IndependenceAnalyzer(IndependenceIndex(constraints),
                                    TreeIndex(tree))
    before = [evaluate(c.range, tree) for c in constraints]
    for _ in range(10):
        op = random_edit(rng, tree)
        reach = analyzer.dependent(op)
        assert reach is not None
        assert list(reach) == sorted(set(reach))
        assert all(0 <= pos < len(constraints) for pos in reach)
        # Equal constraints share one verdict, whatever their positions.
        for p, c in enumerate(constraints):
            for q, d in enumerate(constraints):
                if c == d:
                    assert (p in reach) == (q in reach)
        after = applied(tree, op)
        for pos, constraint in enumerate(constraints):
            if pos in reach:
                continue
            now = evaluate(constraint.range, after)
            if constraint.type is ConstraintType.NO_REMOVE:
                assert before[pos] <= now, (str(constraint), str(op))
            else:
                assert now <= before[pos], (str(constraint), str(op))


def test_unplaceable_ops_are_none():
    tree = random_document(random.Random(3))
    analyzer = IndependenceAnalyzer(IndependenceIndex([no_remove("//a")]),
                                    TreeIndex(tree))
    assert analyzer.dependent(Begin()) is None
    assert analyzer.dependent(RemoveSubtree(tree.root)) is None
    assert analyzer.dependent(Move(tree.root, tree.root)) is None
    assert analyzer.dependent(AddLeaf(10**9, "a")) is None
