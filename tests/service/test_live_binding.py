"""Instance queries on live documents agree with a fresh binding.

A document under enforcement is bound through its stream's live
:class:`~repro.trees.index.TreeIndex` (``DocumentStore.binding``), with an
evaluator of its own.  The oracle below interleaves stream submissions
and instance queries through :class:`ConstraintService` on documents big
enough for the refutation search's snapshot path, under mixed-type
policies (the hybrid Table 2 cell), and checks every verdict against
``Reasoner(C).bind(copy of the document)``.  A binding held across a
stream edit must go stale — even when the edit keeps the tree's size.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api.session import Reasoner
from repro.constraints import constraint_set, no_insert
from repro.constraints.model import ConstraintSet, ConstraintType, UpdateConstraint
from repro.instance.search import SNAPSHOT_MIN_SIZE
from repro.service.protocol import (
    InstanceQuery,
    RegisterConstraints,
    RegisterDocument,
    StreamDecisions,
    StreamSubmit,
    Verdict,
)
from repro.service.service import ConstraintService
from repro.stream.ops import Move
from repro.workloads import (
    FragmentSpec,
    random_constraints,
    random_pattern,
    random_tree,
    random_update_stream,
)

LABELS = ["a", "b", "c"]
SPEC = FragmentSpec(predicates=True, descendant=True, wildcard=False)
BATCH = 6
BUDGET = 20


def mixed_policy(rng: random.Random) -> ConstraintSet:
    down = random_constraints(rng, LABELS, SPEC, count=2, types="down",
                              spine=2)
    up = random_constraints(rng, LABELS, SPEC, count=2, types="up", spine=2)
    return ConstraintSet(tuple(down) + tuple(up))


def ask(svc: ConstraintService, policy: ConstraintSet,
        rng: random.Random) -> None:
    """One instance query per search depth, checked against a fresh bind."""
    for max_moves in (0, 1):
        conclusion = UpdateConstraint(
            random_pattern(rng, LABELS, SPEC, spine=rng.randint(1, 2)),
            rng.choice(list(ConstraintType)))
        reply = svc.handle(InstanceQuery("p", "d", (conclusion,),
                                         max_moves=max_moves,
                                         search_budget=BUDGET))
        fresh = Reasoner(policy).bind(svc.store.document("d").copy())
        expected = fresh.implies_on(conclusion, max_moves=max_moves,
                                    search_budget=BUDGET)
        assert reply.verdicts == (Verdict.of(expected),), (
            str(policy), str(conclusion), max_moves)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=10, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_live_verdicts_match_a_fresh_binding(seed):
    rng = random.Random(seed)
    tree = random_tree(rng, LABELS, size=SNAPSHOT_MIN_SIZE + rng.randint(0, 40))
    policy = mixed_policy(rng)
    log = random_update_stream(rng, tree, LABELS, constraints=policy,
                               ops=3 * BATCH, violation_rate=0.3)
    svc = ConstraintService()
    svc.handle(RegisterConstraints("p", tuple(policy)))
    svc.handle(RegisterDocument("d", tree.copy()))
    ask(svc, policy, rng)  # before any stream: the binding indexes J itself
    for at in range(0, len(log), BATCH):
        reply = svc.handle(StreamSubmit("d", "p", tuple(log[at:at + BATCH])))
        assert isinstance(reply, StreamDecisions)
        ask(svc, policy, rng)


def test_held_binding_goes_stale_after_a_size_preserving_move():
    tree = random_tree(random.Random(7), LABELS, size=SNAPSHOT_MIN_SIZE)
    # Mixed types over a label the document never uses: every move passes.
    policy = constraint_set(("/z", "down"), ("/z", "up"))
    svc = ConstraintService()
    svc.register_constraints("p", policy)
    svc.register_document("d", tree)
    enforcer = svc.enforcer("d", "p")
    bound = svc.binding("p", "d")
    assert bound.context.index is enforcer.context.index
    assert bound.context is not enforcer.context
    conclusion = no_insert("/a")
    before = bound.implies_on(conclusion)

    leaf = next(n for n in tree.node_ids()
                if not tree.children(n) and tree.parent(n) != tree.root)
    reply = svc.handle(StreamSubmit("d", "p", (Move(leaf, tree.root),)))
    assert reply.decisions[0].accepted
    assert tree.size == SNAPSHOT_MIN_SIZE + 1
    assert enforcer.context.index.fresh  # the live index followed the move
    with pytest.raises(ValueError):
        bound.implies_on(conclusion)

    rebound = svc.binding("p", "d")
    assert rebound is not bound
    assert rebound.context.index is enforcer.context.index
    assert rebound.implies_on(conclusion).answer == before.answer
