"""Exact instance-based implication for all-no-insert constraints.

Setting of Section 5, ``C`` all ``↓``, conclusion ``c = (q, ↓)``: given the
*current* instance ``J``, could a past instance ``I`` exist under which some
node entered ``q``?

Characterisation (full fragment, hence the coNP-complete cell of Table 2)::

    C ⊭_J (q,↓)   iff   ∃ n ∈ q(J):   Hit(n) = ∅   or   ⋂Hit(n) ⊄ q
    where  Hit(n) = { p ∈ C : n ∈ p(J) }

*Soundness.*  With an escape witness ``(W, m)`` (``m`` in every range of
``Hit(n)``, outside ``q``) the past instance is::

    I  =  (J with n ↦ fresh n')  ⊕  W-branch carrying id n at m

Replacing ``n`` by a fresh equal-labelled node preserves every other node's
memberships; grafting the branch at the root adds none elsewhere (downward
queries, no root predicates).  Each ``p ∈ C`` holds: any node of ``p(J)``
other than ``n`` is still in ``p(I)``, and ``n ∈ p(J)`` forces ``p ∈ Hit``
whence ``n ∈ p(I)`` via ``W``.  The fresh nodes of ``I`` (``n'`` and the
branch) are invisible to no-insert premises, which only constrain ``J``.
When ``Hit(n) = ∅`` the branch is unnecessary: ``I = J with n ↦ n'``.

The certificate records ``I`` as that edit of ``J`` — ``(n, n', branch)``,
a :class:`~repro.implication.result.PastEdit`, with ``n'`` drawn when the
certificate is made — and builds the tree only when something reads
``Counterexample.before``.  The hybrid dispatch validates the edit against
``J``'s answers without ever building it
(:func:`repro.instance.search.relocation_refutation`).

*Completeness.*  A real witness ``I0`` gives ``n ∈ ⋂Hit(n)(I0) ∖ q(I0)``
directly, so the intersection escapes ``q``.

On ``XP{/,[],*}`` the escape test is the closed-form intersection (PTIME —
Theorem 5.3's cell, cross-validated against the ``F_J`` construction), on
``XP{/,//,*}`` it degenerates to the automata test (Theorem 5.4), and in
general it enumerates product patterns (coNP).
"""

from __future__ import annotations

from repro.constraints.model import ConstraintSet, ConstraintType, UpdateConstraint
from repro.errors import FragmentError
from repro.implication.result import (
    Counterexample,
    ImplicationResult,
    PastEdit,
    implied,
    not_implied,
)
from repro.trees.node import fresh_id
from repro.trees.ops import remap_ids
from repro.trees.tree import DataTree
from repro.xpath.evaluator import evaluate_ids
from repro.xpath.intersection import escape_witness

ENGINE = "instance-no-insert"


def _past_instance(current: DataTree, n: int, witness_tree: DataTree | None,
                   witness_output: int | None) -> Counterexample:
    """The certificate whose past is the edit of the module docstring."""
    branch = None
    if witness_tree is not None:
        assert witness_output is not None
        branch = remap_ids(witness_tree, {witness_output: n})
    edit = PastEdit(n, fresh_id(), branch, current.version)
    return Counterexample(None, current, witness=n, edit=edit)


def implies_no_insert(premises: ConstraintSet, current: DataTree,
                      conclusion: UpdateConstraint,
                      engine: str = ENGINE,
                      range_hits: dict[UpdateConstraint, set[int]] | None = None,
                      context=None,
                      ) -> ImplicationResult:
    """Exact ``C ⊨_J c`` for an all-``↓`` problem (any fragment).

    ``range_hits`` optionally supplies ``{c: c.range(current)}`` computed
    elsewhere — a :class:`repro.api.BoundReasoner` evaluates every premise
    range once per tree and shares the answer sets across conclusions.
    ``context`` optionally carries the bound reasoner's snapshot evaluator
    of ``current`` (a :class:`repro.xpath.bitset.BitsetEvaluator`), so
    both the default ``range_hits`` and ``q(J)`` come from snapshot
    evaluation with shared predicate masks.
    """
    if any(c.type is not ConstraintType.NO_INSERT for c in premises):
        raise FragmentError("no-insert engine requires an all-no-insert premise set")
    if conclusion.type is not ConstraintType.NO_INSERT:
        raise FragmentError("no-insert engine decides no-insert conclusions")
    conclusion.require_concrete()
    premises.require_concrete()
    q = conclusion.range
    if range_hits is None:
        range_hits = {c: evaluate_ids(c.range, current, context=context)
                      for c in premises}
    q_ids = evaluate_ids(q, current, context=context)
    for node in sorted(q_ids):
        hit = [c.range for c in premises if node in range_hits[c]]
        if not hit:
            return not_implied(engine, premises, conclusion,
                               _past_instance(current, node, None, None),
                               reason=f"node {node} sits in no premise range")
        witness = escape_witness(hit, [q])
        if witness is not None:
            return not_implied(engine, premises, conclusion,
                               _past_instance(current, node, witness.tree,
                                              witness.output),
                               reason=f"node {node} could have entered q from "
                                      f"⋂ of {len(hit)} ranges")
    return implied(engine, premises, conclusion,
                   reason="every node of q(J) is pinned by its premise ranges",
                   q_nodes=len(q_ids))
