"""Containment and equivalence of tree-pattern queries.

Two complete deciders are provided and dispatched by fragment, following the
landscape of [Miklau-Suciu] that the paper builds on (its footnote 2):

* :func:`hom_contained` — existence of a *containment mapping* (pattern
  homomorphism).  Sound for the full fragment; complete when the pattern
  pair avoids the wildcard (``XP{/,[],//}``) or avoids the descendant axis
  (``XP{/,[],*}``).  Polynomial time.
* :func:`canonical_contained` — the canonical-model test: ``p ⊆ q`` iff
  ``q`` selects the output of every canonical model of ``p`` with chain cap
  ``star_length(q) + 1``.  Complete for the full fragment
  ``XP{/,[],//,*}``; exponential in the number of descendant edges of
  ``p`` (the problem is coNP-complete, so this is expected).

:func:`contained` picks the cheapest complete decider; ``equivalent`` checks
both directions.  These primitives back Theorem 3.1 (implication between two
constraints is query equivalence) and every intersection-based engine.
"""

from __future__ import annotations

from functools import lru_cache

from repro.xpath.ast import Axis, Pattern, Pred, Step
from repro.xpath.canonical import canonical_models
from repro.xpath.evaluator import evaluate_ids
from repro.xpath.properties import fragment_of, star_length


# ----------------------------------------------------------------------
# Containment mappings (homomorphisms)
# ----------------------------------------------------------------------
class _HomSearch:
    """Existence of a containment mapping from pattern ``q`` into pattern ``p``.

    A containment mapping sends the (virtual) root to the root, the output
    to the output, preserves concrete labels (a concrete-label node of ``q``
    may not map to a wildcard node of ``p``), maps child edges to child
    edges and descendant edges to strictly-descending paths.  Its existence
    implies ``p ⊆ q``; on the wildcard-free and descendant-free fragments it
    is equivalent to it.

    ``p`` is addressed through *positions*: spine positions ``(i,)`` and
    predicate positions ``(i, path...)``.  The search is a memoised
    conjunctive matching, polynomial in ``|p| * |q|``.
    """

    def __init__(self, p: Pattern, q: Pattern):
        self.p = p
        self.q = q
        self._pred_memo: dict[tuple[int, tuple], bool] = {}

    # --- structure helpers on p ---------------------------------------
    def p_children(self, pos: tuple) -> list[tuple]:
        """Child positions of ``pos`` in p (spine child + predicate roots)."""
        kids: list[tuple] = []
        if len(pos) == 1:
            i = pos[0]
            if i + 1 < len(self.p.steps):
                kids.append((i + 1,))
            for j in range(len(self.p.steps[i].preds)):
                kids.append((i, j))
        else:
            node = self.p_node(pos)
            for j in range(len(node.children)):
                kids.append(pos + (j,))
        return kids

    def p_node(self, pos: tuple) -> Pred | Step:
        if len(pos) == 1:
            return self.p.steps[pos[0]]
        node: Pred = self.p.steps[pos[0]].preds[pos[1]]
        for idx in pos[2:]:
            node = node.children[idx]
        return node

    def p_axis(self, pos: tuple) -> Axis:
        return self.p_node(pos).axis

    def p_label(self, pos: tuple) -> str | None:
        return self.p_node(pos).label

    def p_descendant_positions(self, pos: tuple):
        """All strict descendants of ``pos`` in p (any depth)."""
        stack = self.p_children(pos)
        while stack:
            cur = stack.pop()
            yield cur
            stack.extend(self.p_children(cur))

    # --- matching ------------------------------------------------------
    def label_ok(self, q_label: str | None, pos: tuple) -> bool:
        if q_label is None:
            return True
        return self.p_label(pos) == q_label

    def pred_matches_at(self, pred: Pred, pos: tuple) -> bool:
        """Can predicate ``pred`` of q be mapped below position ``pos``?"""
        key = (id(pred), pos)
        cached = self._pred_memo.get(key)
        if cached is not None:
            return cached
        if pred.axis is Axis.CHILD:
            candidates = [c for c in self.p_children(pos) if self.p_axis(c) is Axis.CHILD]
        else:
            candidates = list(self.p_descendant_positions(pos))
        result = any(
            self.label_ok(pred.label, cand)
            and all(self.pred_matches_at(sub, cand) for sub in pred.children)
            for cand in candidates
        )
        self._pred_memo[key] = result
        return result

    def exists(self) -> bool:
        """Run the spine-level dynamic program."""
        # frontier: set of p spine indices the q-prefix may map its last step to;
        # start state: virtual root (index -1).
        frontier: set[int] = {-1}
        for step in self.q.steps:
            next_frontier: set[int] = set()
            for i in frontier:
                if step.axis is Axis.CHILD:
                    cands = []
                    if i + 1 < len(self.p.steps) and self.p.steps[i + 1].axis is Axis.CHILD:
                        cands.append(i + 1)
                else:
                    cands = list(range(i + 1, len(self.p.steps)))
                for j in cands:
                    if j in next_frontier:
                        continue
                    if self.label_ok(step.label, (j,)) and all(
                        self.pred_matches_at(pred, (j,)) for pred in step.preds
                    ):
                        next_frontier.add(j)
            frontier = next_frontier
            if not frontier:
                return False
        # The q output must land on the p output (last spine step).
        return len(self.p.steps) - 1 in frontier


def hom_contained(p: Pattern, q: Pattern) -> bool:
    """Sound containment test ``p ⊆ q`` via containment mapping q -> p."""
    return _HomSearch(p, q).exists()


# ----------------------------------------------------------------------
# Canonical-model containment
# ----------------------------------------------------------------------
def canonical_contained(p: Pattern, q: Pattern) -> bool:
    """Exact containment ``p ⊆ q`` on the full fragment.

    Checks every canonical model of ``p`` with cap ``star_length(q) + 1``:
    no model's output escapes ``q``.
    """
    return find_separating_model(p, q) is None


def _hom_complete(p: Pattern, q: Pattern) -> bool:
    """Is the homomorphism test complete for this pair?

    Complete on ``XP{/,[],//}`` (no wildcard) and on ``XP{/,[],*}`` (no
    descendant axis) — the PTIME islands of [Miklau-Suciu].
    """
    frag = fragment_of(p) | fragment_of(q)
    return not frag.wildcard or not frag.descendant


@lru_cache(maxsize=65536)
def contained(p: Pattern, q: Pattern) -> bool:
    """Exact containment ``p ⊆ q``, dispatching to the cheapest decider."""
    if _hom_complete(p, q):
        return hom_contained(p, q)
    # The homomorphism test remains sound: a hit is a proof of containment.
    if hom_contained(p, q):
        return True
    return canonical_contained(p, q)


def equivalent(p: Pattern, q: Pattern) -> bool:
    """Exact query equivalence ``p ≡ q``."""
    return contained(p, q) and contained(q, p)


def find_separating_model(p: Pattern, q: Pattern):
    """A canonical model of ``p`` whose output escapes ``q`` (or ``None``).

    This is the witness behind non-containment, used by the constructive
    counterexample builders (Theorem 3.1 / Figure 3).
    """
    from repro.trees.ops import fresh_label_for
    from repro.xpath.properties import labels_of

    cap = star_length(q) + 1
    fresh = fresh_label_for(labels_of(p, q))
    for model in canonical_models(p, cap, fresh=fresh):
        if model.output not in evaluate_ids(q, model.tree):
            return model
    return None
