"""Set-at-a-time tree-pattern evaluation: node-sets as bitsets.

The snapshot evaluation substrate, same semantics as
:mod:`repro.xpath.evaluator` (naive, the oracle) — the two are
cross-checked by a Hypothesis equivalence suite.  Where a node-at-a-time
evaluator loops "for each candidate, does the predicate hold?", this one
evaluates whole frontiers at once as Python ``int`` masks keyed by the
:class:`~repro.trees.index.TreeIndex` snapshot's slot numbering:

* a step's *test* is one mask — the label's bitset intersected with one
  **predicate mask per canonical predicate**, each computed once per
  snapshot revision and cached (predicate satisfaction for *every* node in
  a single bottom-up pass, instead of once per (predicate, node) pair);
* a ``//`` step expands the frontier as interval range-masks over its
  minimal cover — one shift-and-subtract per covering subtree, no
  per-descendant work at all;
* a ``/`` step is one whole-set hop over the label's slot list (byte-view
  membership tests) or, for sparse frontiers, a union of cached per-node
  children masks.

The evaluator tracks its snapshot's :attr:`~repro.trees.index.TreeIndex.
revision` (see :class:`repro.xpath.snapshot.SnapshotEvaluator`): after an
in-place index edit (the search journals' moves, the enforcement stream's
operations) cached predicate masks are **delta-patched** from the index's
:class:`~repro.trees.index.EditDelta` log rather than recomputed — under a
single edit only the ancestor chains of the edit points can change their
downward structure, so a stale mask is repaired by remapping relocated
slots (satisfaction travels with a moved subtree) and re-deciding the
predicate at the few dirty nodes.  Per-edit upkeep is proportional to the
edit's footprint, not to the document; when the delta log no longer
reaches back (a long-idle mask), the full bottom-up rebuild kicks in.
All memos are LRU-capped — a long-lived binding serving an adversarial
query stream cannot grow without bound.
"""

from __future__ import annotations

from typing import Callable, cast

from repro.caching import LRUMemo
# The big-int mask helpers live with the backends now (repro.masks); they
# are re-exported here because this module is their historical home and
# the hot paths below are their heaviest users.
from repro.masks.bigint import _BIT, _BYTE_SLOTS  # noqa: F401
from repro.masks.bigint import byte_view, iter_slots, slots_of
from repro.trees.index import TreeIndex
from repro.trees.node import Node
from repro.trees.tree import DataTree
from repro.xpath.ast import Axis, Pattern, Pred
from repro.xpath.snapshot import SnapshotEvaluator

__all__ = [
    "BitsetEvaluator",
    "PRED_MASK_MEMO_SIZE",
    "QUERY_MEMO_SIZE",
    "byte_view",
    "context_for",
    "evaluate",
    "evaluate_ids",
    "iter_slots",
    "matches_at",
    "selects",
    "slots_of",
]

PRED_MASK_MEMO_SIZE = 4096   # canonical predicate -> satisfaction mask
QUERY_MEMO_SIZE = 4096       # (canonical pattern, anchor) -> answer ids

_MISS = object()


class DirtyBatch:
    """The surviving dirty nodes of one mask-patch batch, decoded once.

    Every cached predicate re-decided in the batch shares the dirty slots,
    their packed mask and, per axis, each node's scope mask (its children
    for ``/``, its strict subtree for ``//``), so a predicate pays one
    big-int AND per dirty node and nothing else per node.
    """

    __slots__ = ("slots", "mask", "_index", "_nodes", "_scopes")

    def __init__(self, index: TreeIndex, nodes: list[int]):
        self._index = index
        self._nodes = nodes
        self.slots = [index.pre(n) for n in nodes]
        self.mask = index.pack_slots(self.slots)
        self._scopes: dict[Axis, list[int]] = {}

    def scopes(self, axis: Axis) -> list[int]:
        """Per-node scope masks for ``axis``, aligned with :attr:`slots`."""
        out = self._scopes.get(axis)
        if out is None:
            idx = self._index
            scope: Callable[[int], int] = (
                idx.children_mask if axis is Axis.CHILD else idx.subtree_mask)
            out = self._scopes[axis] = [scope(n) for n in self._nodes]
        return out


class BitsetEvaluator(SnapshotEvaluator):
    """A set-at-a-time evaluation session over one tree snapshot.

    The session plumbing — ``covers``, ``apply_*``, revision sync,
    canonicalisation — comes from
    :class:`~repro.xpath.snapshot.SnapshotEvaluator`; every ``context=``
    fast path accepts one.
    """

    __slots__ = ("_pred_masks", "_query_memo", "_masks_rev")

    def __init__(self, snapshot: TreeIndex | DataTree):
        super().__init__(snapshot)
        self._pred_masks = LRUMemo(PRED_MASK_MEMO_SIZE)
        self._query_memo = LRUMemo(QUERY_MEMO_SIZE)
        # The packed revision side-table: ONE revision stamp for the whole
        # mask memo instead of a (mask, revision) pair per entry.  Every
        # cached mask is current at ``_masks_rev``; a revision bump patches
        # them all in one batch (sharing the deltas and the dirty set), so
        # the hot read path is a bare dict hit — no tuple allocation per
        # store, no unpack-and-compare per lookup.
        self._masks_rev = self._revision

    @property
    def memo_entries(self) -> int:
        """Number of cached predicate masks (observability hook)."""
        return len(self._pred_masks)

    def _drop_revision_memos(self) -> None:
        # Query answers are revision-bound and cheap to rebuild; predicate
        # masks are *kept* — patched in one batch from the edit deltas
        # (or dropped wholesale when the delta log no longer reaches back).
        self._query_memo.clear()
        self._patch_all_masks()

    # ------------------------------------------------------------------
    # Whole-tree predicate masks (delta-maintained across index edits)
    # ------------------------------------------------------------------
    def _pred_mask(self, pred: Pred) -> int:
        """Mask of every node where the (canonical) predicate holds.

        A cold mask is one bottom-up pass: the nodes matching the
        predicate's own test (label mask ∩ child-predicate masks) are
        lifted to their parents (``/``) or their ancestor closure (``//``,
        with marked-ancestor early exit — O(n) amortised across the whole
        mask).  Cached masks are always current at the evaluator's synced
        revision (:meth:`_patch_all_masks` repairs them per revision
        bump), so the hit path is a single dict probe.
        """
        mask = self._pred_masks.get(pred, _MISS)
        if mask is not _MISS:
            return cast(int, mask)
        idx = self._index
        target = idx.label_mask(pred.label)
        for sub in pred.children:
            if not target:
                break
            target &= self._pred_mask(sub)
        if not target:
            result = 0
        elif pred.axis is Axis.CHILD:
            result = idx.parents_mask(target, pred.label)
        else:
            result = idx.ancestors_mask(target, pred.label)
        self._pred_masks.put(pred, result)
        return result

    def _patch_all_masks(self) -> None:
        """Repair every cached satisfaction mask from the index's deltas.

        Two facts make this sound: satisfaction of a downward-looking
        predicate travels verbatim with a relocated subtree (its contents
        are unchanged), and the nodes whose subtree contents *did* change
        are exactly the deltas' dirty chains — upward-closed sets, so a
        nested predicate's flips are always covered by the same chains.
        Relocations are replayed in order (chained moves re-use slots);
        dirty nodes are re-decided once per predicate, against the current
        structure and the already-patched sub-predicate masks (nested
        predicates are patched first, exactly because the re-decision
        consults them).  Past the delta log's horizon the memo is dropped
        wholesale and masks rebuild cold on next use.
        """
        idx = self._index
        rev = idx.revision
        deltas = idx.deltas_since(self._masks_rev)
        self._masks_rev = rev
        if deltas is None:
            self._pred_masks.clear()
            return
        if not deltas or not len(self._pred_masks):
            return
        dirty: dict[int, None] = {}
        for delta in deltas:
            dirty.update(dict.fromkeys(delta.dirty))
            dirty.update(dict.fromkeys(delta.added))
        alive = [n for n in dirty if n in idx]
        batch = DirtyBatch(idx, alive) if alive else None
        memo = self._pred_masks
        patched: set[Pred] = set()

        def patch(pred: Pred) -> None:
            if pred in patched:
                return
            patched.add(pred)
            # Recurse through uncached nodes too: a cold recompute deeper
            # in the tree consults cached sub-masks, which must already be
            # patched by then.
            for sub in pred.children:
                patch(sub)
            mask = memo.peek(pred, _MISS)
            if mask is _MISS:
                return  # uncached predicates rebuild cold on demand
            for delta in deltas:
                mask = delta.patch_mask(mask)
            memo.put(pred, self._redecide(pred, mask, batch))

        for key in memo.keys():
            patch(cast(Pred, key))

    def _redecide(self, pred: Pred, mask: int,
                  batch: DirtyBatch | None) -> int:
        """Re-decide ``pred`` at the surviving dirty nodes of an edit batch.

        Every dirty bit is cleared with one mask and the nodes where the
        predicate holds are set with one packed mask — no big-int set or
        clear per dirty node.
        """
        if batch is None:
            return mask
        dirty = batch.mask
        mask = (mask | dirty) ^ dirty  # clear without a negated operand
        target = self._index.label_mask(pred.label)
        for sub in pred.children:
            if not target:
                break
            target &= self._pred_mask(sub)
        if not target:
            return mask
        return mask | self._index.pack_slots(
            [s for s, scope in zip(batch.slots, batch.scopes(pred.axis))
             if scope & target])

    def matches_at(self, pred: Pred, anchor: int) -> bool:
        """Boolean-pattern satisfaction: does ``pred`` hold at ``anchor``?"""
        self._sync()
        return bool((self._pred_mask(self._canonical(pred))
                     >> self._index.pre(anchor)) & 1)

    # ------------------------------------------------------------------
    # Whole-frontier spine sweep
    # ------------------------------------------------------------------
    def _sweep_mask(self, pattern: Pattern, start: int) -> int:
        idx = self._index
        node_at = idx.node_at
        frontier = 1 << idx.pre(start)
        anchors = 1  # popcount of the frontier, tracked cheaply
        for step in pattern.steps:
            test = idx.label_mask(step.label)
            for p in step.preds:
                if not test:
                    break
                test &= self._pred_mask(self._canonical(p))
            if not test:
                return 0
            if step.axis is Axis.CHILD:
                if anchors * 8 < len(idx.label_slots(step.label)):
                    # Sparse frontier: union the per-anchor children masks.
                    frontier = idx.children_union(frontier) & test
                else:
                    # Dense frontier: one whole-set hop over the label's
                    # candidates, byte-view membership tests throughout.
                    frontier = idx.child_step_mask(frontier, test, step.label)
            else:
                # The lowest remaining bit is always a minimal-cover anchor;
                # shifting its whole interval out of ``rest`` (bit 0 of
                # ``rest`` is slot ``base``) skips the covered frontier
                # bits in one C-level op, with no negated operand.
                cand = 0
                rest = frontier
                base = 0
                while rest:
                    s = base + (rest ^ (rest - 1)).bit_length() - 1
                    lo, hi = idx.interval(node_at(s))
                    if hi > lo:
                        cand |= ((1 << (hi - lo)) - 1) << (lo + 1)
                    rest >>= hi + 1 - base
                    base = hi + 1
                frontier = cand & test
            if not frontier:
                return 0
            anchors = frontier.bit_count()
        return frontier

    def evaluate_mask(self, pattern: Pattern, start: int | None = None) -> int:
        """``q(n, I)`` as a raw slot mask — no id decoding at all.

        The whole-answer compare primitive of the enforcement stream: two
        answer sets over one snapshot revision are equal iff their masks
        are, so the per-op check never materialises node sets unless a
        diff (a violation witness) actually exists.
        """
        self._sync()
        idx = self._index
        anchor = idx.root if start is None else start
        return self._sweep_mask(self._canonical_pattern(pattern), anchor)

    def evaluate_ids(self, pattern: Pattern, start: int | None = None) -> set[int]:
        """``q(n, I)`` as bare identifiers (``n`` defaults to the root)."""
        self._sync()
        idx = self._index
        anchor = idx.root if start is None else start
        key = (self._canonical_pattern(pattern), anchor)
        hit = self._query_memo.get(key)
        if hit is None:
            node_at = idx.node_at
            hit = frozenset(node_at(s)
                            for s in iter_slots(self._sweep_mask(key[0], anchor)))
            self._query_memo.put(key, hit)
        return set(hit)

    def __repr__(self) -> str:
        return (f"BitsetEvaluator({self._index!r}, "
                f"masks={len(self._pred_masks)})")


# ----------------------------------------------------------------------
# Module-level mirrors of the naive evaluator's API
# ----------------------------------------------------------------------
def context_for(source: BitsetEvaluator | TreeIndex | DataTree) -> BitsetEvaluator:
    """Coerce any snapshot-ish object into a :class:`BitsetEvaluator`."""
    if isinstance(source, BitsetEvaluator):
        return source
    return BitsetEvaluator(source)


def evaluate(pattern: Pattern, context: BitsetEvaluator | TreeIndex | DataTree,
             start: int | None = None) -> set[Node]:
    return context_for(context).evaluate(pattern, start)


def evaluate_ids(pattern: Pattern, context: BitsetEvaluator | TreeIndex | DataTree,
                 start: int | None = None) -> set[int]:
    return context_for(context).evaluate_ids(pattern, start)


def selects(pattern: Pattern, context: BitsetEvaluator | TreeIndex | DataTree,
            nid: int) -> bool:
    return context_for(context).selects(pattern, nid)


def matches_at(pred: Pred, context: BitsetEvaluator | TreeIndex | DataTree,
               anchor: int) -> bool:
    return context_for(context).matches_at(pred, anchor)
