"""Bounded counterexample search for mixed-type instance problems.

The mixed-type cells of Table 2 are coNP-complete already for ``XP{/,[]}``
(Theorem 5.2), and unlike the general-implication case no fragment
restriction rescues tractability.  The hybrid engine therefore combines

* the *sound* subset test — ``C' ⊆ C`` and ``C' ⊨_J c`` imply ``C ⊨_J c`` —
  instantiated with the same-type premises and their exact engines, and
* a *sound* refutation search over structured candidate pasts, each
  validated by the independent checker before being returned.

Candidate families (for a no-insert conclusion; the no-remove side mirrors
via the embedding engine):

1. single relocations — the certificates of the pure no-insert engine,
   re-checked against the full premise set;
2. bounded cascades — up to ``max_moves`` nodes of ``J`` relocated /
   replaced simultaneously, the discrete analogue of Theorem 5.2's
   "shuffle the truth assignments" counterexamples.

:func:`bounded_refutation` runs both.  The hybrid dispatch
(:class:`repro.api.BoundReasoner`) already holds the same-type engine's
outcome from its subset test, so it validates that outcome's certificate
(:func:`relocation_refutation`) and runs only :func:`cascade_refutation`.

A single relocation is one candidate, checked as an *edit* of ``J``: the
no-insert certificate records ``(n, n', branch)``
(:class:`~repro.implication.result.PastEdit`), and with a snapshot of ``J``
each range's answer on the past follows from its answer ids on ``J`` and a
naive run over the few-node branch — no copy of ``J`` is built or walked.
Only the cascade family walks candidates.

The cascade walk is **copy-free and snapshot-carrying**: all candidates are
realised on one scratch tree through a move/undo journal, and on trees
worth indexing the journal is applied *through* an incrementally-maintained
:class:`~repro.xpath.bitset.BitsetEvaluator` snapshot — each candidate's
validity re-check then tests whole node-sets as masks on both sides of the
pair, instead of re-walking the scratch tree once per constraint per
candidate.  A real :meth:`~repro.trees.tree.DataTree.copy` is materialised
only for the candidate actually returned as a counterexample.  The fixed
``current`` side of every re-check shares the caller's snapshot.

The search never lies: an exhausted budget yields ``UNKNOWN``.
"""

from __future__ import annotations

from itertools import combinations

from repro.constraints.model import ConstraintSet, ConstraintType, UpdateConstraint
from repro.constraints.validity import is_valid, violation_of
from repro.errors import TreeError
from repro.implication.result import Counterexample, ImplicationResult, PastEdit
from repro.instance.no_insert_engine import implies_no_insert
from repro.instance.no_remove_engine import implies_no_remove
from repro.trees.node import Node
from repro.trees.tree import DataTree
from repro.xpath.bitset import BitsetEvaluator
from repro.xpath.evaluator import evaluate

# Below this many nodes, naive per-candidate evaluation wins: it is
# output-sensitive (child steps touch only the frontier's children), while
# a mask evaluator recomputes its per-revision predicate masks in O(|J|)
# for every journal state.  Measured breakeven sits around 240 nodes with
# descendant-axis constraints; the gate is set above it so small searches
# keep the cheap path and large ones amortise set-at-a-time checks.
SNAPSHOT_MIN_SIZE = 256


def _candidate_is_refutation(past: DataTree, current: DataTree,
                             premises: ConstraintSet,
                             conclusion: UpdateConstraint,
                             context=None, past_ctx=None) -> bool:
    return (
        violation_of(past, current, conclusion,
                     before_ctx=past_ctx, after_ctx=context) is not None
        and is_valid(past, current, premises,
                     before_ctx=past_ctx, after_ctx=context)
    )


def same_type_implication(premises: ConstraintSet, current: DataTree,
                          conclusion: UpdateConstraint,
                          range_hits: dict[UpdateConstraint, set[int]] | None = None,
                          context=None) -> ImplicationResult:
    """The exact engine for an all-same-type problem of ``conclusion``'s type.

    The no-insert escape test or the Theorem 5.5 embedding engine; every
    premise must share the conclusion's type.
    """
    engine = (implies_no_insert if conclusion.type is ConstraintType.NO_INSERT
              else implies_no_remove)
    return engine(premises, current, conclusion, range_hits=range_hits,
                  context=context)


def _edit_is_refutation(edit: PastEdit, current: DataTree,
                        premises: ConstraintSet,
                        conclusion: UpdateConstraint,
                        context: BitsetEvaluator) -> bool:
    """:func:`_candidate_is_refutation` for the past ``edit`` makes of ``J``.

    ``I`` is ``J`` with ``n`` replaced by the fresh ``n'`` plus the
    branch's top-level subtrees.  With downward navigation and no root
    predicates a node's membership depends only on the top-level subtree
    holding it (:func:`repro.trees.ops.graft_at_root`), so
    ``q(I) = q(J) - {n} + {n' if n ∈ q(J)} + q(branch)``: each range needs
    ``q(J)`` as ids from ``context`` and a naive run over the few-node
    branch, never a copy of ``J``.
    """
    edit.check_fresh(current)
    n = edit.node
    node = Node(n, current.label(n))

    def violated(constraint: UpdateConstraint) -> bool:
        answers = context.evaluate_ids(constraint.range)
        grafted = (evaluate(constraint.range, edit.branch)
                   if edit.branch is not None else set())
        if constraint.type is ConstraintType.NO_REMOVE:
            # q(I) ⊆ q(J) fails on n' (fresh) or on any grafted answer:
            # each is fresh too, or carries n when n is not in q(J).
            return n in answers or bool(grafted)
        return n in answers and node not in grafted

    return violated(conclusion) and not any(map(violated, premises))


def relocation_refutation(premises: ConstraintSet, current: DataTree,
                          conclusion: UpdateConstraint,
                          same_type: ImplicationResult,
                          context=None) -> Counterexample | None:
    """The single-relocation family: ``same_type``'s own certificate,
    re-checked against the full premise set.

    ``same_type`` is :func:`same_type_implication` on the same-type
    premises — a caller that already ran it (the hybrid dispatch's
    subset test) validates that outcome instead of re-running the engine.
    A no-insert certificate is an edit of ``J``; with a snapshot
    ``context`` of ``current`` it is checked as one
    (:func:`_edit_is_refutation`) and its past is never built here.
    """
    certificate = same_type.counterexample
    if certificate is None:
        return None
    edit = certificate.edit
    if (edit is not None and certificate.after is current
            and context is not None and context.covers(current)):
        valid = _edit_is_refutation(edit, current, premises, conclusion,
                                    context)
    else:
        valid = _candidate_is_refutation(certificate.before, current,
                                         premises, conclusion,
                                         context=context)
    return certificate if valid else None


def _cascade_walk(scratch: DataTree, max_moves: int, budget: int,
                  context: BitsetEvaluator | None = None):
    """The move/undo journal over one scratch tree (optionally snapshotted).

    When ``context`` is given it must be a mutable snapshot of ``scratch``;
    every journal move (and undo) is applied through its index, so the
    snapshot tracks every candidate in place — no rebind per candidate.
    """
    movable = [nid for nid in scratch.node_ids() if nid != scratch.root]
    targets = list(scratch.node_ids())
    # Both moves return the parent the node left: the journal's undo entry.
    move = context.index.apply_move if context is not None else scratch.move
    produced = 0
    for count in range(1, max_moves + 1):
        for nodes in combinations(movable, count):
            for assignment in _assignments(nodes, targets):
                journal: list[tuple[int, int]] = []
                legal = True
                for nid, target in assignment:
                    try:
                        journal.append((nid, move(nid, target)))
                    except TreeError:
                        legal = False
                        break
                if legal:
                    produced += 1
                    yield scratch, None
                # Undo in reverse: each node returns to the parent it had
                # when its move was applied, restoring the original tree.
                for nid, old_parent in reversed(journal):
                    move(nid, old_parent)
                if legal and produced >= budget:
                    return


def _assignments(nodes, targets):
    if not nodes:
        yield ()
        return
    head, *rest = nodes
    for target in targets:
        if target == head:
            continue
        for tail in _assignments(rest, targets):
            yield ((head, target),) + tail


def cascade_refutation(premises: ConstraintSet, current: DataTree,
                       conclusion: UpdateConstraint,
                       max_moves: int = 2, budget: int = 5000,
                       context=None) -> Counterexample | None:
    """The cascade family alone; see :func:`bounded_refutation`.

    With ``max_moves < 1`` the family is empty, so nothing is set up —
    no scratch copy, no snapshot.
    """
    if max_moves < 1:
        return None
    scratch = current.copy()
    scratch_ctx = (BitsetEvaluator.for_tree(scratch)
                   if scratch.size >= SNAPSHOT_MIN_SIZE else None)
    for past, witness in _cascade_walk(scratch, max_moves, budget,
                                       context=scratch_ctx):
        if _candidate_is_refutation(past, current, premises, conclusion,
                                    context=context, past_ctx=scratch_ctx):
            # The scratch tree is reused by the walk: materialise the one
            # candidate that escapes the search.
            return Counterexample(past.copy(), current, witness=witness)
    return None


def bounded_refutation(premises: ConstraintSet, current: DataTree,
                       conclusion: UpdateConstraint,
                       max_moves: int = 2, budget: int = 5000,
                       context=None) -> Counterexample | None:
    """Search the candidate families; return a *validated* certificate.

    ``context`` optionally carries a bitset snapshot of ``current``; the
    fixed side of every candidate's validity re-check then comes from
    set-at-a-time evaluation with memos shared across the whole search.
    The mutable side gets its own incremental snapshot of the scratch tree
    (on trees above :data:`SNAPSHOT_MIN_SIZE`), updated in place by the
    move journal.  The single-relocation family is checked first; the
    first cascade refutation in enumeration order wins.
    """
    same_type = same_type_implication(premises.of_type(conclusion.type),
                                      current, conclusion, context=context)
    certificate = relocation_refutation(premises, current, conclusion,
                                        same_type, context=context)
    if certificate is not None:
        return certificate
    return cascade_refutation(premises, current, conclusion,
                              max_moves=max_moves, budget=budget,
                              context=context)
