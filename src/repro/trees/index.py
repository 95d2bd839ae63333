"""Interval-encoded snapshots of data trees: the :class:`TreeIndex` kernel.

The paper's instance-level algorithms (Theorems 5.4/5.5) are polynomial in
``|J|``, but the naive :class:`~repro.trees.tree.DataTree` substrate answers
``descendants()`` by re-walking the tree, ``is_ancestor`` in O(depth) and
label lookups by full scans — so repeated pattern evaluation over one
instance (the workload of every Table 2 engine and of a bound
:class:`repro.api.session.BoundReasoner`) pays a quadratic-ish tax.

A :class:`TreeIndex` adds flat lookup structures to one tree (labels,
parents and children it reads from the tree's own maps):

* an Euler-tour **pre/post interval numbering** over *gapped slots* —
  ``is_ancestor`` and descendant-interval membership become two integer
  comparisons, and the subtree of any node occupies a contiguous slot
  interval;
* a **label index**: label → slots of the nodes carrying it, sorted by
  construction, so "descendants of ``n`` labelled ``a``" is one ``bisect``
  pair instead of a subtree scan;
* a memoised **path-label** map (the node *words* consumed by the
  linear-fragment engines);
* **bitset views** (:meth:`label_mask`, :meth:`all_mask`,
  :meth:`subtree_mask`) — node-sets as Python ``int`` masks keyed by slot,
  the substrate of the set-at-a-time
  :class:`repro.xpath.bitset.BitsetEvaluator`.

Incremental maintenance
-----------------------
Slots are allocated with gaps (``SLOT_GAP`` per node at build time), so the
snapshot survives small edits *in place*: :meth:`apply_move`,
:meth:`apply_add_leaf`, :meth:`apply_add_subtree` and
:meth:`apply_remove_subtree` mutate the tree **and** the index together,
renumbering only the smallest enclosing subtree whose interval still has
room (a weight-balanced host search; the root is renumbered with fresh
gaps when nothing smaller fits).  They are the library's one edit path:
each checks its edit (raising :class:`TreeError` with nothing changed),
applies it, and returns what undoes it — the old parent of a move, the id
of an added leaf, the preorder spec of a removed subtree.  This is what
lets the move/undo journals of the refutation search
(:mod:`repro.instance.search`,
:func:`repro.instance.no_remove_engine.merge_variants`) keep one live
snapshot across thousands of candidate pasts instead of rebinding per
candidate, and what lets the stream's rollback journal
(:mod:`repro.stream.ops`) revive a removed subtree as one edit —
compacted into the slot run its removal freed — instead of one leaf at a
time.

Every applied edit bumps :attr:`revision` — evaluators key their memos on
it — appends an :class:`EditDelta` to a bounded log (:meth:`deltas_since`),
from which the set-at-a-time evaluator *patches* its cached predicate masks
instead of recomputing them (only the ancestor chains of the edit points
can change downward structure), and re-syncs the recorded tree
:attr:`~repro.trees.tree.DataTree.version`, so :attr:`fresh` stays true.
Mutating the tree *behind* the index (directly through :class:`DataTree`
methods) stales it, and a stale snapshot must not be read: its slots no
longer describe the tree whose maps its lookups read.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections.abc import Iterable, Sequence

from repro.errors import TreeError
from repro.trees.node import Node
from repro.trees.tree import DataTree

SLOT_GAP = 8       # slots allocated per node at (re)build time
HOST_DENSITY = 2   # a renumber host needs >= DENSITY * nodes slots of width
DELTA_LOG_CAP = 64  # edit deltas retained for delta-maintained consumers

_BIT = tuple(1 << b for b in range(8))  # byte-view membership test masks

# A compiled patch plan's moves: (relocated-olds mask, old base bit,
# old byte length, new base bit, new byte length, ((old byte, old bit,
# new byte, new bit), ...)) -- byte coordinates relative to the bases.
_PatchMoves = tuple[int, int, int, int, int,
                    tuple[tuple[int, int, int, int], ...]]


class EditDelta:
    """Compact record of one applied edit, for delta-maintained consumers.

    Under a single edit only the *ancestor chains* of the edit points can
    change their downward structure — every other surviving node keeps its
    whole subtree, so any downward-looking fact cached about it (predicate
    satisfaction, notably) transfers verbatim to its new slot.  A delta
    therefore carries exactly what a mask maintainer needs:

    * ``relocated`` — ``(nid, old_slot, new_slot)`` for every surviving
      node whose slot changed (the moved subtree, plus the renumbered host
      subtree when the fast attach found no room);
    * ``vanished`` — ``(nid, old_slot)`` for every deleted node (remove
      only; the id lets baseline-mask maintainers recognise a later
      revival of the same node);
    * ``added`` — identifiers of freshly attached nodes, in preorder: the
      new leaf of an add-leaf, or a revived subtree
      (:meth:`TreeIndex.apply_add_subtree`);
    * ``dirty`` — identifiers whose *subtree contents* changed: the
      ancestor chains of the old and new attachment points.  This set is
      upward closed, which is what makes patching sound for nested
      predicates.
    """

    __slots__ = ("revision", "relocated", "vanished", "added", "dirty",
                 "_clear", "_moves")

    def __init__(self, revision: int,
                 relocated: tuple[tuple[int, int, int], ...],
                 vanished: tuple[tuple[int, int], ...],
                 added: tuple[int, ...],
                 dirty: tuple[int, ...]):
        self.revision = revision
        self.relocated = relocated
        self.vanished = vanished
        self.added = added
        self.dirty = dirty
        # The mask-independent patch plan, compiled on first use and shared
        # by every mask patched across this edit (see _compile).
        self._clear: int | None = None
        self._moves: _PatchMoves = (0, 0, 0, 0, 0, ())

    def _compile(self) -> int:
        """Build the patch plan; returns the mask of every freed slot.

        The moves are stored in byte coordinates relative to the lowest
        old and the lowest new slot, so a patch reads and writes buffers
        as wide as the edit's span, never as wide as the document.
        """
        olds = [old for _, old, _ in self.relocated]
        news = [new for _, _, new in self.relocated]
        clear = TreeIndex.pack_slots(olds + [old for _, old in self.vanished])
        if olds:
            obase = min(olds) >> 3
            nbase = min(news) >> 3
            moves = tuple(((old >> 3) - obase, _BIT[old & 7],
                           (new >> 3) - nbase, _BIT[new & 7])
                          for old, new in zip(olds, news))
            self._moves = (TreeIndex.pack_slots(olds), obase << 3,
                           (max(olds) >> 3) - obase + 1, nbase << 3,
                           (max(news) >> 3) - nbase + 1, moves)
        self._clear = clear
        return clear

    def patch_mask(self, mask: int) -> int:
        """Re-key a slot mask across this edit: relocated bits move to
        their new slots, vanished bits drop.

        The one shared kernel of every delta-maintained mask (predicate
        masks, baseline answer masks): moved bit values are read from the
        *pre-clear* mask — a new slot may reuse a slot freed in this same
        edit — and callers replay chained deltas oldest-first so slot
        reuse across edits resolves in order.

        O(words + footprint) per mask: the plan is compiled once per
        delta, a mask disjoint from the freed slots returns untouched, and
        the moved bits are read from one byte view and set through one
        byte-buffer fold, both as wide as the edit's span.
        """
        clear = self._clear
        if clear is None:
            clear = self._compile()
        hit = mask & clear
        if not hit:
            return mask
        rel, obase, owidth, nbase, nwidth, moves = self._moves
        moved = hit & rel
        if not moved:
            return mask ^ hit
        view = (moved >> obase).to_bytes(owidth, "little")
        buf = bytearray(nwidth)
        for ob, obit, nb, nbit in moves:
            if view[ob] & obit:
                buf[nb] |= nbit
        return (mask ^ hit) | (int.from_bytes(buf, "little") << nbase)

    def __repr__(self) -> str:
        return (f"EditDelta(rev={self.revision}, moved={len(self.relocated)}, "
                f"gone={len(self.vanished)}, added={len(self.added)}, "
                f"dirty={len(self.dirty)})")


class TreeIndex:
    """An interval-encoded view of one :class:`DataTree`.

    Holds only what it adds to the tree (slots and intervals, label
    buckets, masks, the path-label memo and the delta log); labels, parents
    and children are the tree's own maps.  Updatable in place through the
    ``apply_*`` methods; a snapshot staled by any other mutation of the
    tree (:attr:`fresh` is false) must not be read.
    """

    __slots__ = ("_tree", "_built_version", "_root", "_slot", "_post",
                 "_slots", "_node_at", "_labels", "_children", "_parent",
                 "_by_label", "_paths", "_revision", "_rebuilds",
                 "_label_masks", "_all_mask", "_kids_masks", "_parent_slots",
                 "_delta_log", "_capture")

    def __init__(self, tree: DataTree):
        self._tree = tree
        self._built_version = tree.version
        self._root = tree.root
        # The tree's own maps: a DataTree never rebinds them.
        self._labels = labels = tree._labels
        self._children = children = tree._children
        self._parent = tree._parent
        # One iterative Euler tour assigns every slot.
        slot: dict[int, int] = {}
        post: dict[int, int] = {}
        slots: list[int] = []
        node_at: dict[int, int] = {}
        by_label: dict[str, list[int]] = {}
        stack: list[int] = [tree.root]
        while stack:
            nid = stack.pop()
            s = len(slots) * SLOT_GAP
            slot[nid] = s
            slots.append(s)
            node_at[s] = nid
            label = labels[nid]
            bucket = by_label.get(label)
            if bucket is None:
                by_label[label] = [s]
            else:
                bucket.append(s)
            kids = children[nid]
            if kids:
                stack.extend(reversed(kids))
        # Preorder places a node's last child's subtree at the end of its
        # interval, so one reversed pass closes every interval.
        for s in reversed(slots):
            nid = node_at[s]
            kids = children[nid]
            post[nid] = post[kids[-1]] if kids else slot[nid]
        self._slot = slot
        self._post = post
        self._slots = slots
        self._node_at = node_at
        self._by_label = by_label
        self._paths: dict[int, tuple[str, ...]] = {tree.root: ()}
        self._revision = 0
        self._rebuilds = 0
        self._label_masks: dict[str | None, int] = {}
        self._all_mask: int | None = None
        self._kids_masks: dict[int, int] = {}
        self._parent_slots: dict[int, int] | None = None
        self._delta_log: list[EditDelta] = []
        self._capture: dict[int, int] | None = None

    # ------------------------------------------------------------------
    # Snapshot identity
    # ------------------------------------------------------------------
    @property
    def tree(self) -> DataTree:
        return self._tree

    @property
    def root(self) -> int:
        return self._root

    @property
    def size(self) -> int:
        return len(self._slots)

    @property
    def fresh(self) -> bool:
        """Does the snapshot still describe its tree exactly?"""
        return self._tree.version == self._built_version

    @property
    def revision(self) -> int:
        """Bumped by every applied edit — evaluators key their memos on it."""
        return self._revision

    @property
    def rebuild_count(self) -> int:
        """How many edits fell back to a full renumber (observability)."""
        return self._rebuilds

    def covers(self, tree: DataTree) -> bool:
        """Is this a fresh snapshot of ``tree`` (identity, not equality)?"""
        return tree is self._tree and self.fresh

    def __contains__(self, nid: int) -> bool:
        return nid in self._slot

    # ------------------------------------------------------------------
    # O(1) structure lookups
    # ------------------------------------------------------------------
    def label(self, nid: int) -> str:
        try:
            return self._labels[nid]
        except KeyError:
            raise TreeError(f"node {nid} not in snapshot") from None

    def node(self, nid: int) -> Node:
        return Node(nid, self.label(nid))

    def children(self, nid: int) -> tuple[int, ...]:
        try:
            return tuple(self._children[nid])
        except KeyError:
            raise TreeError(f"node {nid} not in snapshot") from None

    def parent(self, nid: int) -> int | None:
        try:
            return self._parent[nid]
        except KeyError:
            raise TreeError(f"node {nid} not in snapshot") from None

    def depth(self, nid: int) -> int:
        return len(self.path_labels(nid))

    def pre(self, nid: int) -> int:
        """Document-order (Euler-tour) slot of ``nid``.

        Slots are gapped, so consecutive nodes differ by more than one —
        only the *order* and the interval containments are meaningful.
        """
        return self._slot[nid]

    def node_at(self, slot: int) -> int:
        """The node occupying ``slot`` (KeyError on free slots)."""
        return self._node_at[slot]

    def interval(self, nid: int) -> tuple[int, int]:
        """``[pre, post]`` — slot interval of the subtree at ``nid``."""
        return self._slot[nid], self._post[nid]

    def is_ancestor(self, anc: int, nid: int) -> bool:
        """Strict ancestry in O(1): interval containment."""
        return self._slot[anc] < self._slot[nid] <= self._post[anc]

    def path_labels(self, nid: int) -> tuple[str, ...]:
        """Labels on the root-to-``nid`` path (root excluded) — the *word*
        of the node; memoised via the parent chain, O(n) total."""
        cached = self._paths.get(nid)
        if cached is not None:
            return cached
        chain: list[int] = []
        cur: int | None = nid
        while cur is not None and cur not in self._paths:
            chain.append(cur)
            cur = self._parent.get(cur)
        if cur is None and chain:
            raise TreeError(f"node {nid} not in snapshot")
        for node in reversed(chain):
            par = self._parent[node]
            assert par is not None
            self._paths[node] = self._paths[par] + (self._labels[node],)
        return self._paths[nid]

    # ------------------------------------------------------------------
    # Indexed candidate enumeration
    # ------------------------------------------------------------------
    def node_ids(self) -> tuple[int, ...]:
        """All nodes in document (preorder) order."""
        node_at = self._node_at
        return tuple(node_at[s] for s in self._slots)

    def labels(self) -> set[str]:
        """The label alphabet of the snapshot (root label included)."""
        return {label for label, bucket in self._by_label.items() if bucket}

    def nodes_with_label(self, label: str) -> list[int]:
        """All nodes carrying ``label``, document order."""
        node_at = self._node_at
        return [node_at[s] for s in self._by_label.get(label, ())]

    def descendants(self, nid: int, include_self: bool = False) -> list[int]:
        """Strict descendants as a contiguous slice of the slot array."""
        slots = self._slots
        lo = bisect_left(slots, self._slot[nid]) + (0 if include_self else 1)
        hi = bisect_right(slots, self._post[nid], lo=max(lo, 0))
        node_at = self._node_at
        return [node_at[s] for s in slots[lo:hi]]

    def descendants_with_label(self, label: str, anchor: int) -> list[int]:
        """Strict descendants of ``anchor`` labelled ``label``.

        Two bisections on the label's sorted slots — O(log n + answer)
        instead of scanning the whole subtree.
        """
        pres = self._by_label.get(label)
        if not pres:
            return []
        lo = bisect_right(pres, self._slot[anchor])
        hi = bisect_right(pres, self._post[anchor], lo=lo)
        node_at = self._node_at
        return [node_at[s] for s in pres[lo:hi]]

    def count_descendants_with_label(self, label: str, anchor: int) -> int:
        """Cardinality of :meth:`descendants_with_label`, O(log n)."""
        pres = self._by_label.get(label)
        if not pres:
            return 0
        lo = bisect_right(pres, self._slot[anchor])
        return bisect_right(pres, self._post[anchor], lo=lo) - lo

    # ------------------------------------------------------------------
    # Bitset views (node-sets as int masks keyed by slot)
    # ------------------------------------------------------------------
    @staticmethod
    def pack_slots(slots: Iterable[int]) -> int:
        """Fold slots into one int mask through a byte buffer over their
        span — the churn-free way to build a mask, instead of one big-int
        ``|= 1 << slot`` allocation per member.

        O(span/8 + len(slots)), where the span runs from the lowest to the
        highest slot given: a mask of a few nearby slots costs a few
        bytes, not the document's width.
        """
        if not isinstance(slots, (list, tuple, set, frozenset)):
            slots = list(slots)
        if not slots:
            return 0
        base = min(slots) >> 3
        buf = bytearray((max(slots) >> 3) - base + 1)
        bits = _BIT
        for s in slots:
            buf[(s >> 3) - base] |= bits[s & 7]
        return int.from_bytes(buf, "little") << (base << 3)

    def all_mask(self) -> int:
        """Mask with one bit per occupied slot (cached per revision)."""
        mask = self._all_mask
        if mask is None:
            mask = self._all_mask = self.pack_slots(self._slots)
        return mask

    def label_mask(self, label: str | None) -> int:
        """Mask of the nodes carrying ``label`` (``None`` = every node)."""
        if label is None:
            return self.all_mask()
        mask = self._label_masks.get(label)
        if mask is None:
            mask = self.pack_slots(self._by_label.get(label, ()))
            self._label_masks[label] = mask
        return mask

    def children_mask(self, nid: int) -> int:
        """Mask of ``nid``'s children (cached per revision)."""
        mask = self._kids_masks.get(nid)
        if mask is None:
            slot = self._slot
            mask = self.pack_slots([slot[c] for c in self._children[nid]])
            self._kids_masks[nid] = mask
        return mask

    def parent_slots(self) -> dict[int, int]:
        """``slot -> parent's slot`` for every non-root node (cached per
        revision) — the one-hop substrate of the whole-set step primitives."""
        table = self._parent_slots
        if table is None:
            parent = self._parent
            slot = self._slot
            node_at = self._node_at
            root = self._root
            table = {}
            for s in self._slots:
                nid = node_at[s]
                if nid != root:
                    table[s] = slot[parent[nid]]  # type: ignore[index]
            self._parent_slots = table
        return table

    def parents_mask(self, target: int, label: str | None = None) -> int:
        """Mask of parents of the ``target`` nodes — one whole-set hop up.

        ``label`` must be the label whose bucket covers every bit of
        ``target`` (pass ``None`` when the target is not label-homogeneous);
        it restricts the scan to that bucket's slot list.
        """
        up = self.parent_slots()
        bucket = self.label_slots(label)
        if target == self.label_mask(label):
            # Common leaf-predicate case: every bucket member qualifies.
            return self.pack_slots({up[s] for s in bucket if s in up})
        view = target.to_bytes((target.bit_length() + 7) >> 3, "little")
        limit = len(view) << 3
        bits = _BIT
        out: set[int] = set()
        add = out.add
        for s in bucket:
            if s < limit and view[s >> 3] & bits[s & 7] and s in up:
                add(up[s])
        return self.pack_slots(out)

    def ancestors_mask(self, target: int, label: str | None = None) -> int:
        """Mask of strict ancestors of the ``target`` nodes.

        Marked-ancestor early exit: every tree edge is climbed at most
        once per call, so the whole-set closure costs O(n) amortised.
        ``label`` restricts the scan exactly as in :meth:`parents_mask`.
        """
        up = self.parent_slots()
        bucket = self.label_slots(label)
        seen: set[int] = set()
        add = seen.add
        if target == self.label_mask(label):
            sources = bucket
        else:
            view = target.to_bytes((target.bit_length() + 7) >> 3, "little")
            limit = len(view) << 3
            bits = _BIT
            sources = [s for s in bucket
                       if s < limit and view[s >> 3] & bits[s & 7]]
        get = up.get
        for s in sources:
            cur = get(s)
            while cur is not None and cur not in seen:
                add(cur)
                cur = get(cur)
        return self.pack_slots(seen)

    def child_step_mask(self, frontier: int, test: int,
                        label: str | None = None) -> int:
        """One ``/`` step over a whole frontier: nodes passing ``test``
        whose parent is in ``frontier`` — byte-view membership tests over
        the label's slot list, no per-bit big-int arithmetic."""
        up = self.parent_slots()
        tview = test.to_bytes((test.bit_length() + 7) >> 3, "little")
        tlimit = len(tview) << 3
        fview = frontier.to_bytes((frontier.bit_length() + 7) >> 3, "little")
        flimit = len(fview) << 3
        bits = _BIT
        keep: list[int] = []
        append = keep.append
        get = up.get
        for s in self.label_slots(label):
            if s >= tlimit or not tview[s >> 3] & bits[s & 7]:
                continue
            ps = get(s)
            if ps is not None and ps < flimit and fview[ps >> 3] & bits[ps & 7]:
                append(s)
        return self.pack_slots(keep)

    def children_union(self, frontier: int) -> int:
        """Mask of every child of the ``frontier`` nodes — the sparse twin
        of :meth:`child_step_mask` (intersect with the step's test).

        Walks only the frontier's set bits, highest first (``bit_length``
        finds each without a negated operand), so a handful of anchors in
        a wide mask cost a handful of cached children-mask unions.
        """
        node_at = self._node_at
        children_mask = self.children_mask
        cand = 0
        rest = frontier
        while rest:
            s = rest.bit_length() - 1
            rest ^= 1 << s
            cand |= children_mask(node_at[s])
        return cand

    def label_slots(self, label: str | None) -> list[int]:
        """Occupied slots carrying ``label`` (every slot for ``None``), as a
        sorted list — the iterable twin of :meth:`label_mask`."""
        if label is None:
            return self._slots
        return self._by_label.get(label, [])

    def subtree_mask(self, nid: int, include_self: bool = False) -> int:
        """Raw interval mask of the subtree at ``nid``.

        Covers the *slot range* — gap bits included — so intersect with
        :meth:`all_mask` or a label mask before treating bits as nodes.
        """
        lo = self._slot[nid] + (0 if include_self else 1)
        hi = self._post[nid]
        if lo > hi:
            return 0
        return ((1 << (hi - lo + 1)) - 1) << lo

    # ------------------------------------------------------------------
    # Incremental maintenance (tree + index mutate together)
    # ------------------------------------------------------------------
    def _bump(self) -> None:
        """Close out one applied edit: new revision, caches re-keyed.

        The bitset caches (label/all/children masks, parent-slot table) are
        *patched* by the edit paths rather than dropped, so the refutation
        search's journals pay per-edit cost proportional to the renumbered
        region, not to the tree.
        """
        self._revision += 1
        self._built_version = self._tree.version
        self._paths = {self._root: ()}

    def _chain(self, nid: int) -> list[int]:
        """``nid`` and its ancestors up to the root (post-edit pointers)."""
        out: list[int] = []
        cur: int | None = nid
        parent = self._parent
        while cur is not None:
            out.append(cur)
            cur = parent[cur]
        return out

    def _log_delta(self, capture: dict[int, int],
                   vanished: tuple[tuple[int, int], ...],
                   added: tuple[int, ...],
                   dirty_anchors: tuple[int, ...]) -> None:
        """Record the edit just closed by :meth:`_bump` in the delta log."""
        slot = self._slot
        relocated = tuple((n, old, now) for n, old in capture.items()
                          if (now := slot.get(n)) is not None and now != old)
        dirty: dict[int, None] = dict.fromkeys(added)
        for anchor in dirty_anchors:
            for n in self._chain(anchor):
                dirty[n] = None
        log = self._delta_log
        log.append(EditDelta(self._revision, relocated, vanished, added,
                             tuple(dirty)))
        if len(log) > DELTA_LOG_CAP:
            del log[:len(log) - DELTA_LOG_CAP]

    def deltas_since(self, revision: int) -> list[EditDelta] | None:
        """The deltas taking ``revision`` to the current one, oldest first.

        ``None`` when the log no longer reaches back that far — the caller
        must recompute from scratch.  Empty list when already current.
        """
        span = self._revision - revision
        if span == 0:
            return []
        if span < 0 or span > len(self._delta_log):
            return None
        return self._delta_log[-span:]

    def _detach_subtree(self, nid: int) -> list[int]:
        """Remove the subtree's slots from every slot structure.

        Returns the subtree's nodes in document order.  Reads the nodes'
        labels, so a removal detaches before the tree deletes them; the
        bitset caches are patched in place.
        """
        lo, hi = self._slot[nid], self._post[nid]
        slots = self._slots
        i = bisect_left(slots, lo)
        j = bisect_right(slots, hi, lo=i)
        removed = slots[i:j]
        del slots[i:j]
        node_at = self._node_at
        parent_slots = self._parent_slots
        kids_masks = self._kids_masks
        capture = self._capture
        nodes: list[int] = []
        gone_by_label: dict[str, list[int]] = {}
        for s in removed:
            n = node_at.pop(s)
            nodes.append(n)
            if capture is not None:
                # First detach wins: a host renumber re-detaches nodes the
                # edit already relocated, and their *original* slot is the
                # one a delta consumer must clear.
                capture.setdefault(n, s)
            gone_by_label.setdefault(self._labels[n], []).append(s)
            del self._slot[n]
            del self._post[n]
            if parent_slots is not None:
                parent_slots.pop(s, None)
            kids_masks.pop(n, None)
        label_masks = self._label_masks
        for label, gone in gone_by_label.items():
            bucket = self._by_label[label]
            a = bisect_left(bucket, lo)
            b = bisect_right(bucket, hi, lo=a)
            del bucket[a:b]
            mask = label_masks.get(label)
            if mask is not None:
                label_masks[label] = mask ^ self.pack_slots(gone)
        if self._all_mask is not None and removed:
            self._all_mask ^= self.pack_slots(removed)
        return nodes

    def _fix_posts_upward(self, start: int | None,
                          skip: int | None = None) -> None:
        """Re-close intervals from ``start`` up, stopping once unchanged;
        ``skip`` is a detached node the tree already lists as a child."""
        a = start
        while a is not None:
            new_post = self._slot[a]
            for c in self._children[a]:
                if c == skip:
                    continue
                pc = self._post[c]
                if pc > new_post:
                    new_post = pc
            if self._post[a] == new_post:
                break
            self._post[a] = new_post
            a = self._parent[a]

    def _subtree_slot_count(self, nid: int) -> int:
        """Occupied slots inside ``nid``'s interval (two bisections)."""
        lo = bisect_left(self._slots, self._slot[nid])
        return bisect_right(self._slots, self._post[nid], lo=lo) - lo

    def _find_host(self, anchor: int, extra: int) -> int:
        """Lowest ancestor-or-self of ``anchor`` whose interval can absorb
        ``extra`` more nodes at :data:`HOST_DENSITY`; the root always can
        (its interval is re-spaced on demand)."""
        a = anchor
        while a != self._root:
            width = self._post[a] - self._slot[a] + 1
            if width >= HOST_DENSITY * (self._subtree_slot_count(a) + extra):
                return a
            a = self._parent[a]
        return self._root

    def _renumber_subtree(self, host: int) -> None:
        """Re-spread ``host``'s whole subtree over its slot interval.

        Unslotted nodes the tree already lists (a freshly attached subtree)
        receive slots; ``pre``/``post`` of ``host`` itself are preserved
        (root excepted: the root re-spaces with fresh gaps, which is the
        full-rebuild fallback counted by :attr:`rebuild_count`)."""
        children = self._children
        # New document order of the host subtree.
        order: list[int] = []
        stack = [host]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(reversed(children[n]))
        m = len(order)
        if host == self._root:
            self._rebuilds += 1
            new_slots = [i * SLOT_GAP for i in range(m)]
        else:
            lo, hi = self._slot[host], self._post[host]
            if m == 1:
                new_slots = [lo]
            else:
                step = hi - lo
                new_slots = [lo + (i * step) // (m - 1) for i in range(m)]
        # Drop the old slots of the already-slotted part of the subtree
        # (detached nodes in `order` have none), then slot the new layout.
        if host in self._slot:
            self._detach_subtree(host)
        self._place(order, new_slots)

    def _place(self, order: list[int], new_slots: list[int]) -> None:
        """Slot a subtree no slot structure holds, and close its intervals.

        ``order`` is the subtree in preorder and ``new_slots`` its free,
        ascending slots, so one insertion per sorted list keeps it sorted;
        the bitset caches are patched in place.  The one placement routine
        of the compact attach and of the host renumber.
        """
        slots = self._slots
        at = bisect_left(slots, new_slots[0])
        slots[at:at] = new_slots
        labels = self._labels
        node_at = self._node_at
        slot_of = self._slot
        kids_masks = self._kids_masks
        fresh_by_label: dict[str, list[int]] = {}
        for n, s in zip(order, new_slots, strict=True):
            slot_of[n] = s
            node_at[s] = n
            kids_masks.pop(n, None)
            fresh_by_label.setdefault(labels[n], []).append(s)
        label_masks = self._label_masks
        for label, added in fresh_by_label.items():
            bucket = self._by_label.setdefault(label, [])
            a = bisect_left(bucket, added[0])
            bucket[a:a] = added  # ascending and disjoint from the rest
            mask = label_masks.get(label)
            if mask is not None:
                label_masks[label] = mask | self.pack_slots(added)
        if self._all_mask is not None:
            self._all_mask |= self.pack_slots(new_slots)
        parent_slots = self._parent_slots
        parent = self._parent
        if parent_slots is not None:
            for n in order:
                p = parent[n]
                if p is not None:
                    parent_slots[slot_of[n]] = slot_of[p]
        children = self._children
        post = self._post
        for n in reversed(order):
            kids = children[n]
            post[n] = post[kids[-1]] if kids else slot_of[n]

    def apply_move(self, nid: int, new_parent: int) -> int:
        """Move ``nid`` under ``new_parent`` in the tree *and* the index;
        returns the old parent, which moves it back.

        The index stays fresh: only the smallest enclosing interval with
        room is renumbered.  An illegal move raises :class:`TreeError`
        with tree and index both untouched, checked in this order: an
        absent ``nid``, the root, an absent ``new_parent``, a target inside
        the moved subtree (:meth:`DataTree.move`'s check).
        """
        if nid not in self._slot:
            raise TreeError(f"node {nid} not in tree")
        if nid == self._root:
            raise TreeError("cannot move the root")
        if new_parent not in self._slot:
            raise TreeError("node not in snapshot")
        old_parent = self._tree.move(nid, new_parent)  # refuses a cycle
        capture: dict[int, int] = {}
        self._capture = capture
        try:
            detached = self._detach_subtree(nid)
            self._kids_masks.pop(old_parent, None)
            self._kids_masks.pop(new_parent, None)
            # Close the old side's intervals while the moved subtree is still
            # fully detached (its nodes have no posts to consult).
            self._fix_posts_upward(old_parent, skip=nid)
            if not self._attach_after(new_parent, detached):
                self._renumber_subtree(
                    self._find_host(new_parent, len(detached)))
        finally:
            self._capture = None
        self._bump()
        self._log_delta(capture, vanished=(), added=(),
                        dirty_anchors=(old_parent, new_parent))
        return old_parent

    def _attach_after(self, new_parent: int, detached: list[int]) -> bool:
        """Fast attach: compact the detached subtree into the free run right
        after ``new_parent``'s interval end.

        ``detached`` is the subtree in its (unchanged) preorder, so
        consecutive slots are a valid renumbering.  O(k + depth) — this is
        what keeps the search journals' move/undo pairs cheap: an undo finds
        the gap the original move left behind.  Returns False when the free
        run is too short (the caller then renumbers a host subtree).
        """
        k = len(detached)
        old_post = self._post[new_parent]
        slots = self._slots
        i = bisect_right(slots, old_post)
        if i < len(slots) and slots[i] - old_post - 1 < k:
            return False
        self._place(detached, list(range(old_post + 1, old_post + 1 + k)))
        top = old_post + k
        a: int | None = new_parent
        while a is not None and self._post[a] == old_post:
            self._post[a] = top
            a = self._parent[a]
        return True

    def apply_add_leaf(self, parent: int, label: str,
                       nid: int | None = None) -> int:
        """Attach a fresh leaf in the tree *and* the index; returns its id.

        Appending after a subtree's end usually finds a free slot in O(log
        n) (the gap a removed sibling left behind — the merge journals'
        leaf-revive pattern; whole subtrees revive through
        :meth:`apply_add_subtree`); otherwise the host renumber kicks in.
        An absent ``parent`` or a taken ``nid`` raises :class:`TreeError`
        with nothing changed.
        """
        if parent not in self._slot:
            raise TreeError(f"parent {parent} not in snapshot")
        new_id = self._tree.add_child(parent, label, nid=nid)
        self._kids_masks.pop(parent, None)
        old_post = self._post[parent]
        slots = self._slots
        i = bisect_right(slots, old_post)
        free = old_post + 1
        capture: dict[int, int] = {}
        if i == len(slots) or free < slots[i]:
            # Fast path: the slot right after the parent's interval is free.
            slots.insert(i, free)
            self._node_at[free] = new_id
            self._slot[new_id] = free
            self._post[new_id] = free
            insort(self._by_label.setdefault(label, []), free)
            mask = self._label_masks.get(label)
            if mask is not None:
                self._label_masks[label] = mask | (1 << free)
            if self._all_mask is not None:
                self._all_mask |= 1 << free
            if self._parent_slots is not None:
                self._parent_slots[free] = self._slot[parent]
            a: int | None = parent
            while a is not None and self._post[a] == old_post:
                self._post[a] = free
                a = self._parent[a]
        else:
            self._capture = capture
            try:
                self._renumber_subtree(self._find_host(parent, 1))
            finally:
                self._capture = None
        self._bump()
        self._log_delta(capture, vanished=(), added=(new_id,),
                        dirty_anchors=(parent,))
        return new_id

    def apply_add_subtree(self, spec: Sequence[tuple[int, int, str]]
                          ) -> None:
        """Attach a subtree of fresh nodes in the tree *and* the index.

        ``spec`` lists the subtree as ``(nid, parent, label)`` triples in
        preorder — the shape :meth:`apply_remove_subtree` returns: the
        first entry's parent is in the snapshot and every later entry's
        parent is an earlier entry.  The top node becomes its parent's
        last child and siblings keep their spec order, which is the tree
        a leaf-by-leaf :meth:`apply_add_leaf` replay builds — but as one
        edit: one revision, one :class:`EditDelta` whose ``added`` is the
        subtree in preorder, and at most one host renumber (the compact
        attach usually finds the slot run the subtree's removal freed).
        A malformed spec raises :class:`TreeError` with tree, index and
        revision untouched.
        """
        if not spec:
            raise TreeError("empty subtree spec")
        top, top_parent, _ = spec[0]
        if top_parent not in self._slot:
            raise TreeError(f"parent {top_parent} not in snapshot")
        # Validate the whole spec before touching anything.
        kids: dict[int, list[int]] = {}
        for nid, parent, _ in spec:
            if nid in self._slot or nid in kids:
                raise TreeError(f"node id {nid} already present")
            if kids:
                if parent not in kids:
                    raise TreeError(
                        f"parent {parent} of node {nid} is not an earlier "
                        f"node of the subtree spec")
                kids[parent].append(nid)
            kids[nid] = []
        tree = self._tree
        for nid, parent, label in spec:
            tree.add_child(parent, label, nid=nid)
        self._kids_masks.pop(top_parent, None)
        order: list[int] = []
        stack = [top]
        while stack:
            n = stack.pop()
            order.append(n)
            stack.extend(reversed(kids[n]))
        capture: dict[int, int] = {}
        self._capture = capture
        try:
            if not self._attach_after(top_parent, order):
                self._renumber_subtree(
                    self._find_host(top_parent, len(order)))
        finally:
            self._capture = None
        self._bump()
        self._log_delta(capture, vanished=(), added=tuple(order),
                        dirty_anchors=(top_parent,))

    def apply_remove_subtree(self, nid: int
                             ) -> tuple[tuple[int, int, str], ...]:
        """Delete ``nid``'s subtree from the tree *and* the index; returns
        its preorder ``(nid, parent, label)`` spec, which
        :meth:`apply_add_subtree` revives.

        An absent ``nid`` or the root raises :class:`TreeError` before any
        node is visited.
        """
        if nid not in self._slot:
            raise TreeError(f"node {nid} not in tree")
        parent = self._parent[nid]
        if parent is None:
            raise TreeError("cannot remove the root")
        capture: dict[int, int] = {}
        self._capture = capture
        try:
            # Detach first: it reads the labels the tree is about to delete.
            nodes = self._detach_subtree(nid)
        finally:
            self._capture = None
        parents, labels = self._parent, self._labels
        spec = tuple((n, parents[n], labels[n]) for n in nodes)
        self._tree._delete(nodes)
        self._kids_masks.pop(parent, None)
        self._fix_posts_upward(parent)
        self._bump()
        self._log_delta({}, vanished=tuple(capture.items()), added=(),
                        dirty_anchors=(parent,))
        return spec  # type: ignore[return-value]  # no root: no None parent

    def __repr__(self) -> str:
        state = "fresh" if self.fresh else "STALE"
        return (f"TreeIndex(size={self.size}, root={self._root}, "
                f"labels={len(self._by_label)}, rev={self._revision}, "
                f"{state})")


__all__ = ["TreeIndex", "EditDelta", "SLOT_GAP", "HOST_DENSITY",
           "DELTA_LOG_CAP"]
