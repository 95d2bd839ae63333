"""Set-at-a-time tree-pattern evaluation: node-sets as bitsets.

The snapshot evaluation substrate, same semantics as
:mod:`repro.xpath.evaluator` (naive, the oracle) — the two are
cross-checked by a Hypothesis equivalence suite.  Where a node-at-a-time
evaluator loops "for each candidate, does the predicate hold?", this one
evaluates whole frontiers at once as Python ``int`` masks keyed by the
:class:`~repro.trees.index.TreeIndex` snapshot's slot numbering:

* a step's *test* is one mask — the label's bitset intersected with one
  **predicate mask per canonical predicate**, each computed once and
  cached (predicate satisfaction for *every* node in a single bottom-up
  pass, instead of once per (predicate, node) pair);
* a ``//`` step expands the frontier as interval range-masks over its
  minimal cover — one shift-and-subtract per covering subtree, no
  per-descendant work at all;
* a ``/`` step is one whole-set hop over the label's slot list (byte-view
  membership tests) or, for sparse frontiers, a union of cached per-node
  children masks.

The evaluator does not edit: edits go through the ``apply_*`` methods of
its :attr:`~BitsetEvaluator.index`.  Each cached predicate mask carries
the index :attr:`~repro.trees.index.TreeIndex.revision` at which it is
current, and catches up only when a sweep reads it: it is
**delta-patched** from the index's :class:`~repro.trees.index.EditDelta`
log since its stamp rather than recomputed — under a single edit only the
ancestor chains of the edit points can change their downward structure,
so a stale mask is repaired by remapping relocated slots (satisfaction
travels with a moved subtree) and re-deciding the predicate at the few
dirty nodes.  A mask no query reads costs nothing per edit; a read costs
the footprint of the edits it missed, not the document.  When the delta
log no longer reaches back to a mask's stamp (a long-idle mask), that
mask rebuilds with the full bottom-up pass.

All memos are LRU-capped — a long-lived binding serving an adversarial
query stream cannot grow without bound.
"""

from __future__ import annotations

from typing import Callable, Self

from repro.caching import LRUMemo
from repro.trees.index import EditDelta, TreeIndex
from repro.trees.node import Node
from repro.trees.tree import DataTree
from repro.xpath.ast import Axis, Pattern, Pred, normalize, normalize_preds

__all__ = [
    "BitsetEvaluator",
    "CANON_MEMO_SIZE",
    "PRED_MASK_MEMO_SIZE",
    "QUERY_MEMO_SIZE",
    "slots_of",
]

PRED_MASK_MEMO_SIZE = 4096   # canonical predicate -> satisfaction mask
QUERY_MEMO_SIZE = 4096       # (canonical pattern, anchor) -> answer ids
CANON_MEMO_SIZE = 8192       # syntactic -> canonical forms (tree-independent)

# Canonical forms are pure functions of the pattern — share them across
# every evaluator in the process instead of re-normalising per snapshot.
_GLOBAL_CANON_PREDS = LRUMemo(CANON_MEMO_SIZE)
_GLOBAL_CANON_PATTERNS = LRUMemo(CANON_MEMO_SIZE)

# Per-byte decode table: byte value -> bit positions set in it.  One
# ``int.to_bytes`` conversion turns slot extraction into a C-level byte
# scan with table lookups — O(words + answers) instead of the bit-kernel
# loop's O(answers * words) repeated big-int ``mask & -mask`` arithmetic.
_BYTE_SLOTS: tuple[tuple[int, ...], ...] = tuple(
    tuple(b for b in range(8) if byte >> b & 1) for byte in range(256))


def slots_of(mask: int) -> list[int]:
    """Slots (bit positions) of a mask, ascending — document order.

    Batch-decoded through :data:`_BYTE_SLOTS`; on >10k-node documents this
    is what keeps whole-mask extraction off the profile (see the
    ``decoder`` row of ``benchmarks/bench_stream.py``).
    """
    out: list[int] = []
    append = out.append  # not ``out += [...]``: a list per byte costs 2x
    offset = 0
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for b in _BYTE_SLOTS[byte]:
                append(offset + b)
        offset += 8
    return out


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


class BitsetEvaluator:
    """A set-at-a-time evaluation session pinned to one tree snapshot.

    Every answer is bit-identical to the naive evaluator on the same
    tree; every ``context=`` fast path accepts one.  Edits go through
    :attr:`index` (its ``apply_*`` methods move the tree and the snapshot
    together), and a query patches the cached masks it reads from the
    index's edit deltas.
    """

    __slots__ = ("_index", "_revision", "_pred_masks", "_query_memo",
                 "_batches")

    def __init__(self, snapshot: TreeIndex | DataTree):
        if isinstance(snapshot, DataTree):
            snapshot = TreeIndex(snapshot)
        self._index = snapshot
        self._revision = snapshot.revision
        # Canonical predicate -> (revision it is current at, mask).
        self._pred_masks = LRUMemo(PRED_MASK_MEMO_SIZE)
        self._query_memo = LRUMemo(QUERY_MEMO_SIZE)
        # Stamp -> the dirty batch taking it to the synced revision.
        self._batches: dict[int, DirtyBatch | None] = {}

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

    @property
    def memo_entries(self) -> int:
        """Number of cached predicate masks (observability hook)."""
        return len(self._pred_masks)

    def _sync(self) -> None:
        """Drop what is bound to one index revision.

        Query answers and the shared dirty batches are revision-bound and
        cheap to rebuild; predicate masks keep their own stamps and catch
        up when read (:meth:`_pred_mask`).
        """
        rev = self._index.revision
        if rev != self._revision:
            self._revision = rev
            self._query_memo.clear()
            self._batches.clear()

    # ------------------------------------------------------------------
    # Canonicalisation (tree-independent, survives revision bumps)
    # ------------------------------------------------------------------
    def _canonical(self, pred: Pred) -> Pred:
        canon: Pred | None = _GLOBAL_CANON_PREDS.get(pred)
        if canon is None:
            canon = normalize_preds((pred,))[0]
            _GLOBAL_CANON_PREDS.put(pred, canon)
        return canon

    def _canonical_pattern(self, pattern: Pattern) -> Pattern:
        canon: Pattern | None = _GLOBAL_CANON_PATTERNS.get(pattern)
        if canon is None:
            canon = normalize(pattern)
            _GLOBAL_CANON_PATTERNS.put(pattern, canon)
        return canon

    # ------------------------------------------------------------------
    # Whole-tree predicate masks (delta-patched when read)
    # ------------------------------------------------------------------
    def _pred_mask(self, pred: Pred) -> int:
        """Mask of every node where the (canonical) predicate holds.

        A cold mask is one bottom-up pass: the nodes matching the
        predicate's own test (label mask ∩ child-predicate masks) are
        lifted to their parents (``/``) or their ancestor closure (``//``,
        with marked-ancestor early exit — O(n) amortised across the whole
        mask).  A cached mask stamped at the current revision is a single
        dict probe; an older one catches up here.

        Two facts make the catch-up sound: satisfaction of a
        downward-looking predicate travels verbatim with a relocated
        subtree (its contents are unchanged), and the nodes whose subtree
        contents *did* change are exactly the deltas' dirty chains —
        upward-closed sets, so a nested predicate's flips are always
        covered by the same chains.  Relocations are replayed in order
        (chained moves re-use slots); the surviving dirty nodes are then
        re-decided against the current structure and the sub-predicate
        masks, which catch up through the same read.  Past the delta log's
        horizon the mask rebuilds cold.
        """
        idx = self._index
        rev = idx.revision
        cached: tuple[int, int] | None = self._pred_masks.get(pred)
        if cached is not None:
            stamp, mask = cached
            if stamp == rev:
                return mask
            deltas = idx.deltas_since(stamp)
            if deltas is not None:
                for delta in deltas:
                    mask = delta.patch_mask(mask)
                mask = self._redecide(pred, mask, self._batch(stamp, deltas))
                self._pred_masks.put(pred, (rev, mask))
                return mask
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
        self._pred_masks.put(pred, (rev, result))
        return result

    def _batch(self, stamp: int, deltas: list[EditDelta]) -> DirtyBatch | None:
        """The surviving dirty nodes of ``deltas`` (every edit since
        ``stamp``), decoded once per stamp and revision: the masks one
        check reads usually share a stamp."""
        if stamp in self._batches:
            return self._batches[stamp]
        idx = self._index
        dirty: dict[int, None] = {}
        for delta in deltas:
            dirty.update(dict.fromkeys(delta.dirty))  # ``added`` included
        alive = [n for n in dirty if n in idx]
        batch = self._batches[stamp] = DirtyBatch(idx, alive) if alive else None
        return batch

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
            hit = frozenset(map(idx.node_at,
                                slots_of(self._sweep_mask(key[0], anchor))))
            self._query_memo.put(key, hit)
        return set(hit)

    def evaluate(self, pattern: Pattern, start: int | None = None) -> set[Node]:
        """``q(n, I)`` as ``(id, label)`` pairs, exactly like the naive path."""
        idx = self._index
        return {idx.node(nid) for nid in self.evaluate_ids(pattern, start)}

    def selects(self, pattern: Pattern, nid: int) -> bool:
        """Is node ``nid`` in ``q(I)``?"""
        return nid in self.evaluate_ids(pattern)

    def __repr__(self) -> str:
        return (f"BitsetEvaluator({self._index!r}, "
                f"masks={len(self._pred_masks)})")
