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

import random
from dataclasses import replace

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import check_sequence, explain_violations
from repro.errors import TreeError
from repro.stream import AddLeaf, Begin, Commit, Move, Rollback, StreamEnforcer
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
        # Verdict agreement, entry by entry.
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
