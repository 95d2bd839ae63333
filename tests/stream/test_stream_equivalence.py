"""Hypothesis equivalence: incremental enforcement vs recompute-from-scratch.

The acceptance contract of :mod:`repro.stream`: for random seeded update
logs, the engine's per-entry verdicts and witnesses — produced against one
live delta-maintained snapshot — must match a reference replay that works
on full copies and re-runs :func:`repro.constraints.validity.
explain_violations` from scratch on every prefix, including across
rejected operations, failing commits and explicit rollbacks.  The final
state must also agree with :func:`check_sequence` on the (baseline, final)
pair.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check_sequence, explain_violations
from repro.constraints import ConstraintSet, constraint_set
from repro.errors import TreeError
from repro.stream import (
    AddLeaf,
    Begin,
    Commit,
    Move,
    RemoveSubtree,
    Rollback,
    StreamEnforcer,
)
from repro.trees.index import DELTA_LOG_CAP
from repro.workloads import (
    FragmentSpec,
    random_constraints,
    random_tree,
    random_update_stream,
)

LABELS = ["a", "b", "c"]
SPECS = [
    FragmentSpec(False, False, False),
    FragmentSpec(True, False, False),
    FragmentSpec(True, True, False),
    FragmentSpec(True, True, True),
]

RELAXED = settings(max_examples=25, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def naive_step(state, base, constraints, op, txn_backup):
    """Reference semantics for one log entry, on full copies.

    Returns ``(kind, violations, new_state, new_txn_backup)`` where
    ``kind`` mirrors the engine's decision surface.
    """
    if isinstance(op, Begin):
        return "begin", (), state, state.copy()
    if isinstance(op, Commit):
        violations = explain_violations(base, state, constraints)
        if violations:
            assert txn_backup is not None
            return "commit-reject", tuple(violations), txn_backup, None
        return "commit-ok", (), state, None
    if isinstance(op, Rollback):
        assert txn_backup is not None
        return "rollback", (), txn_backup, None
    candidate = state.copy()
    try:
        if isinstance(op, AddLeaf):
            candidate.add_child(op.parent, op.label, nid=op.nid)
        elif isinstance(op, Move):
            candidate.move(op.nid, op.new_parent)
        else:
            candidate.remove_subtree(op.nid)
    except TreeError:
        return "structural", (), state, txn_backup
    violations = explain_violations(base, candidate, constraints)
    if txn_backup is not None:
        return "pending", tuple(violations), candidate, txn_backup
    if violations:
        return "rejected", tuple(violations), state, txn_backup
    return "accepted", (), candidate, txn_backup


def assert_same_decision(decision, kind, violations) -> None:
    """The engine's decision agrees with the reference step's verdict."""
    if kind == "begin":
        assert decision.accepted and not decision.pending
    elif kind == "commit-ok":
        assert decision.accepted and not decision.violations
    elif kind == "commit-reject":
        assert decision.rejected
        assert list(decision.violations) == list(violations)
    elif kind == "rollback":
        assert decision.accepted
    elif kind == "structural":
        assert decision.rejected and not decision.violations
        assert "structural error" in decision.note
    elif kind == "pending":
        assert decision.pending
        assert decision.accepted == (not violations)
        assert list(decision.violations) == list(violations)
    elif kind == "rejected":
        assert decision.rejected and not decision.pending
        assert list(decision.violations) == list(violations)
    else:
        assert kind == "accepted"
        assert decision.accepted and not decision.pending
        assert not decision.violations


@given(seed=st.integers(min_value=0, max_value=10_000),
       idx=st.integers(min_value=0, max_value=len(SPECS) - 1))
@RELAXED
def test_verdicts_and_witnesses_match_recompute_on_every_prefix(seed, idx):
    rng = random.Random(seed)
    start = random_tree(rng, LABELS, size=rng.randint(2, 18))
    constraints = random_constraints(rng, LABELS, SPECS[idx],
                                     count=rng.randint(1, 4),
                                     types="mixed", spine=2)
    ops = random_update_stream(rng, start, LABELS, constraints=constraints,
                               ops=rng.randint(5, 20),
                               violation_rate=rng.choice([0.0, 0.3, 0.6]),
                               txn_prob=0.25)
    base = start.copy()
    engine = StreamEnforcer(constraints, start.copy())
    state = base.copy()
    txn_backup = None
    for op in ops:
        decision = engine.apply(op)
        kind, violations, state, txn_backup = naive_step(
            state, base, constraints, op, txn_backup)
        assert_same_decision(decision, kind, violations)
        # State agreement on every prefix (incl. mid-transaction).
        assert engine.tree.same_instance(state)
        # Incremental cumulative check == from-scratch on the live state.
        assert (engine.violations()
                == explain_violations(base, state, constraints))
    # The generator always closes its brackets.
    assert not engine.in_transaction and txn_backup is None
    # Final state agrees with the sequence checker's data-oriented notion.
    expected = [(0, 1, v)
                for v in explain_violations(base, engine.tree, constraints)]
    got = check_sequence([base, engine.tree], constraints, pairwise=False)
    assert {(i, j, v) for i, j, v in got} == set(expected)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_replaying_one_log_is_deterministic(seed):
    """Same log, analysis on and off: identical behaviour."""
    rng = random.Random(seed)
    start = random_tree(rng, LABELS, size=rng.randint(2, 15))
    constraints = random_constraints(rng, LABELS, SPECS[2],
                                     count=3, types="mixed", spine=2)
    ops = random_update_stream(rng, start, LABELS, constraints=constraints,
                               ops=12, violation_rate=0.4)
    first = StreamEnforcer(constraints, start.copy())
    second = StreamEnforcer(constraints, start.copy(), analysis=False)
    for op in ops:
        a, b = first.apply(op), second.apply(op)
        assert (a.accepted, a.pending, list(a.violations)) == \
               (b.accepted, b.pending, list(b.violations))
    assert first.tree.same_instance(second.tree)
    # Only the fast-path witness count may differ between the two.
    assert replace(first.stats, independent=0) == second.stats


# Constraint labels, and the one label no constraint mentions: ops that
# touch only IDLE nodes are independent of every constraint.
FAR = ["l3", "l4", "l5"]
IDLE = "x"


def idle_op(rng, state, fresh):
    """An op inside the IDLE hub's subtree (the hub itself stays put)."""
    hub, *movable = [n for n in state.node_ids() if state.label(n) == IDLE]
    roll = rng.random()
    if roll < 0.4 or not movable:
        return AddLeaf(rng.choice([hub, *movable]), IDLE, nid=next(fresh))
    node = rng.choice(movable)
    if roll < 0.75:
        inside = set(state.descendants(node, include_self=True))
        return Move(node, rng.choice([n for n in [hub, *movable]
                                      if n not in inside]))
    return RemoveSubtree(node)


def reaching_op(rng, state, fresh):
    """An op on the constraint-labelled nodes: removals of baseline
    answers, moves among them, new leaves carrying their labels."""
    hub = next(n for n in state.node_ids() if state.label(n) == IDLE)
    idle = set(state.descendants(hub, include_self=True))
    nodes = [n for n in state.node_ids() if n not in idle]
    movable = [n for n in nodes if n != state.root]
    roll = rng.random()
    if roll < 0.45 and movable:
        return RemoveSubtree(rng.choice(movable))
    if roll < 0.7 and movable:
        return Move(rng.choice(movable), rng.choice(nodes))
    return AddLeaf(rng.choice(nodes), rng.choice(FAR), nid=next(fresh))


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_constraints_left_unread_past_the_delta_log_catch_up(seed):
    """Runs of independent ops longer than the delta log holds leave the
    constraints' masks unread; the op that next reaches them — after a
    rejected removal of a baseline node, or a bracket that rolled one
    back — still decides exactly like the from-scratch reference."""
    rng = random.Random(seed)
    start = random_tree(rng, FAR, size=rng.randint(4, 16))
    hub = start.add_child(start.root, IDLE)
    for _ in range(3):
        start.add_child(rng.choice([hub, *start.children(hub)]), IDLE)
    constraints = ConstraintSet(
        constraint_set(("/l3", "up"), ("//l4", "down")).constraints
        + random_constraints(rng, FAR, SPECS[2], count=2, types="mixed",
                             spine=2).constraints)
    base = start.copy()
    engine = StreamEnforcer(constraints, start.copy())
    state, txn_backup = base.copy(), None
    fresh = itertools.count(max(start.node_ids()) + 1)
    run = longest = 0

    def step(op):
        nonlocal state, txn_backup, run, longest
        decision = engine.apply(op)
        kind, violations, state, txn_backup = naive_step(
            state, base, constraints, op, txn_backup)
        assert_same_decision(decision, kind, violations)
        run = run + 1 if decision.independent else 0
        longest = max(longest, run)

    for phase in range(rng.randint(3, 5)):
        if rng.random() < 0.5:
            step(reaching_op(rng, state, fresh))
        else:
            step(Begin())
            for _ in range(rng.randint(1, 3)):
                step(reaching_op(rng, state, fresh))
            step(rng.choice([Commit(), Rollback()]))
        idle = (DELTA_LOG_CAP + rng.randint(1, 12)
                if phase == 0 or rng.random() < 0.5 else rng.randint(1, 4))
        for _ in range(idle):
            step(idle_op(rng, state, fresh))
    step(reaching_op(rng, state, fresh))
    assert longest > DELTA_LOG_CAP
    assert engine.tree.same_instance(state)
