"""Session plumbing of the snapshot-backed evaluator.

:class:`repro.xpath.bitset.BitsetEvaluator` answers queries against a
:class:`~repro.trees.index.TreeIndex`; everything around that — snapshot
coercion and identity, the revision tracking that keeps memos honest
across in-place index edits, the ``apply_*`` passthroughs, and
process-wide canonicalisation — is this base class.
"""

from __future__ import annotations

from typing import Self

from repro.caching import LRUMemo
from repro.trees.index import TreeIndex
from repro.trees.node import Node
from repro.trees.tree import DataTree
from repro.xpath.ast import Pattern, Pred, normalize, normalize_preds

CANON_MEMO_SIZE = 8192   # syntactic -> canonical forms (tree-independent)

# Canonical forms are pure functions of the pattern — share them across
# every evaluator in the process instead of re-normalising per snapshot.
_GLOBAL_CANON_PREDS = LRUMemo(CANON_MEMO_SIZE)
_GLOBAL_CANON_PATTERNS = LRUMemo(CANON_MEMO_SIZE)


class SnapshotEvaluator:
    """A pattern-evaluation session pinned to one tree snapshot.

    Subclasses implement :meth:`evaluate_ids` / :meth:`matches_at` (calling
    :meth:`_sync` first) and :meth:`_drop_revision_memos`; every answer
    must be bit-identical to the naive evaluator on the same tree.
    """

    __slots__ = ("_index", "_revision", "_canon", "_canon_patterns")

    def __init__(self, snapshot: TreeIndex | DataTree):
        if isinstance(snapshot, DataTree):
            snapshot = TreeIndex(snapshot)
        self._index = snapshot
        self._revision = snapshot.revision
        self._canon = _GLOBAL_CANON_PREDS
        self._canon_patterns = _GLOBAL_CANON_PATTERNS

    @classmethod
    def for_tree(cls, tree: DataTree) -> Self:
        return cls(TreeIndex(tree))

    @property
    def index(self) -> TreeIndex:
        return self._index

    @property
    def tree(self) -> DataTree:
        return self._index.tree

    def covers(self, tree: DataTree) -> bool:
        """Usable as a fast path for ``tree``?  (Same object, unmutated.)"""
        return self._index.covers(tree)

    # ------------------------------------------------------------------
    # Incremental edits (tree + snapshot move together)
    # ------------------------------------------------------------------
    def apply_move(self, nid: int, new_parent: int) -> None:
        self._index.apply_move(nid, new_parent)

    def apply_add_leaf(self, parent: int, label: str,
                       nid: int | None = None) -> int:
        return self._index.apply_add_leaf(parent, label, nid=nid)

    def apply_remove_subtree(self, nid: int) -> None:
        self._index.apply_remove_subtree(nid)

    def _sync(self) -> None:
        """Drop revision-bound memos after an in-place index edit."""
        rev = self._index.revision
        if rev != self._revision:
            self._revision = rev
            self._drop_revision_memos()

    def _drop_revision_memos(self) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Canonicalisation (tree-independent, survives revision bumps)
    # ------------------------------------------------------------------
    def _canonical(self, pred: Pred) -> Pred:
        canon = self._canon.get(pred)
        if canon is None:
            canon = normalize_preds((pred,))[0]
            self._canon.put(pred, canon)
        return canon

    def _canonical_pattern(self, pattern: Pattern) -> Pattern:
        canon = self._canon_patterns.get(pattern)
        if canon is None:
            canon = normalize(pattern)
            self._canon_patterns.put(pattern, canon)
        return canon

    # ------------------------------------------------------------------
    # Query surface shared by every substrate
    # ------------------------------------------------------------------
    def evaluate_ids(self, pattern: Pattern,
                     start: int | None = None) -> set[int]:  # pragma: no cover
        raise NotImplementedError

    def evaluate(self, pattern: Pattern, start: int | None = None) -> set[Node]:
        """``q(n, I)`` as ``(id, label)`` pairs, exactly like the naive path."""
        idx = self._index
        return {idx.node(nid) for nid in self.evaluate_ids(pattern, start)}

    def selects(self, pattern: Pattern, nid: int) -> bool:
        """Is node ``nid`` in ``q(I)``?"""
        return nid in self.evaluate_ids(pattern)


__all__ = ["SnapshotEvaluator", "CANON_MEMO_SIZE"]
