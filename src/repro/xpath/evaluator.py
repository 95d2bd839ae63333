"""Polynomial-time evaluation of tree-pattern queries on data trees.

Implements the standard semantics (Section 2 of the paper, following
[Gottlob-Koch-Pichler-Segoufin]): ``q(n, I)`` is the set of ``(id, label)``
pairs selected by ``q`` evaluated on the subtree of ``I`` rooted at ``n``;
``q(I)`` abbreviates ``q(root, I)``.

The evaluator is a two-phase dynamic program:

1. predicate satisfaction is memoised per ``(predicate-node, data-node)``;
2. the spine is swept top-down, maintaining the frontier of data nodes the
   prefix of the spine can reach.

Both phases are polynomial in ``|q| * |I|`` — the fragment's classical
evaluation bound.
"""

from __future__ import annotations

from repro.trees.tree import DataTree
from repro.trees.node import Node
from repro.xpath.ast import Axis, Pattern, Pred


class _Evaluation:
    """One evaluation run: carries the tree and the predicate memo table."""

    def __init__(self, tree: DataTree):
        self.tree = tree
        self._memo: dict[tuple[int, int], bool] = {}

    def label_matches(self, pattern_label: str | None, nid: int) -> bool:
        return pattern_label is None or self.tree.label(nid) == pattern_label

    def axis_candidates(self, axis: Axis, anchor: int):
        if axis is Axis.CHILD:
            return self.tree.children(anchor)
        return self.tree.descendants(anchor)

    def pred_holds(self, pred: Pred, anchor: int) -> bool:
        """Does predicate ``pred`` (anchored at data node ``anchor``) hold?"""
        key = (id(pred), anchor)
        cached = self._memo.get(key)
        if cached is not None:
            return cached
        result = any(
            self.label_matches(pred.label, cand)
            and all(self.pred_holds(sub, cand) for sub in pred.children)
            for cand in self.axis_candidates(pred.axis, anchor)
        )
        self._memo[key] = result
        return result

    def evaluate(self, pattern: Pattern, start: int) -> set[Node]:
        frontier: set[int] = {start}
        for step in pattern.steps:
            next_frontier: set[int] = set()
            for anchor in frontier:
                for cand in self.axis_candidates(step.axis, anchor):
                    if cand in next_frontier:
                        continue
                    if self.label_matches(step.label, cand) and all(
                        self.pred_holds(p, cand) for p in step.preds
                    ):
                        next_frontier.add(cand)
            frontier = next_frontier
            if not frontier:
                break
        return {self.tree.node(nid) for nid in frontier}


def evaluate(pattern: Pattern, tree: DataTree, start: int | None = None,
             context=None) -> set[Node]:
    """Compute ``q(n, I)`` — by default ``q(I)`` with ``n`` the root.

    Returns the set of selected nodes as ``(id, label)`` pairs.

    ``context`` optionally supplies a
    :class:`repro.xpath.bitset.BitsetEvaluator` snapshot of ``tree``; when
    it is fresh for this very tree the set-at-a-time fast path answers
    (bit-identically), sharing its predicate masks with every other query
    on the snapshot.  A stale or foreign context falls back to the naive
    sweep.
    """
    if context is not None and context.covers(tree):
        return context.evaluate(pattern, start)
    run = _Evaluation(tree)
    return run.evaluate(pattern, tree.root if start is None else start)


def evaluate_ids(pattern: Pattern, tree: DataTree, start: int | None = None,
                 context=None) -> set[int]:
    """Like :func:`evaluate` but returning bare identifiers."""
    if context is not None and context.covers(tree):
        return context.evaluate_ids(pattern, start)
    return {node.nid for node in evaluate(pattern, tree, start)}


def selects(pattern: Pattern, tree: DataTree, nid: int, context=None) -> bool:
    """Is node ``nid`` in ``q(I)``?  (Membership test, same complexity.)"""
    return nid in evaluate_ids(pattern, tree, context=context)


def matches_at(pred: Pred, tree: DataTree, anchor: int, context=None) -> bool:
    """Boolean-pattern satisfaction: does ``pred`` hold at ``anchor``?"""
    if context is not None and context.covers(tree):
        return context.matches_at(pred, anchor)
    return _Evaluation(tree).pred_holds(pred, anchor)
