"""Unordered data trees (Definition 2.1).

A :class:`DataTree` is a finite unordered tree whose nodes carry unique
identifiers and labels.  It is the single data substrate of the library:
XPath evaluation, pair validity, all counterexample constructions and all
reductions operate on it.

Design notes
------------
* Children are stored in insertion order purely for reproducible printing;
  the tree is semantically unordered and all algorithms treat it as such.
* The root is an ordinary node but the paper treats it specially: queries
  are anchored at it, predicates never apply to it, and its label never
  influences a query answer.  We still give it a label (default ``"root"``)
  so a tree is always a well-formed ``(T, lambda)`` pair.
* Structural mutation keeps parent/children maps consistent and validates
  against cycles; :meth:`validate` re-checks every invariant and is invoked
  liberally by the test suite.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from repro.errors import TreeError
from repro.trees.node import GLOBAL_IDS, Node, fresh_id

ROOT_LABEL = "root"


def iter_canonical_shape(root: int, labels: dict[int, str],
                         children: dict[int, list[int]] | dict[int, tuple[int, ...]]
                         ) -> tuple:
    """Canonical shape of the subtree at ``root``, computed without recursion.

    One preorder pass collects the subtree, then a reversed sweep (children
    always precede their parent in reversed preorder) folds shapes bottom-up.
    The engine of :meth:`DataTree.canonical_shape`.
    """
    order: list[int] = []
    stack = [root]
    while stack:
        nid = stack.pop()
        order.append(nid)
        stack.extend(children[nid])
    shapes: dict[int, tuple] = {}
    for nid in reversed(order):
        kids = sorted(shapes.pop(c) for c in children[nid])
        shapes[nid] = (labels[nid], tuple(kids))
    return shapes[root]


class DataTree:
    """A finite unordered tree over ``(id, label)`` nodes."""

    __slots__ = ("_labels", "_parent", "_children", "_root", "_version",
                 "_child_tuples", "_shape", "_shape_hash", "_shape_version")

    def __init__(self, root_label: str = ROOT_LABEL, root_id: int | None = None):
        rid = fresh_id() if root_id is None else root_id
        GLOBAL_IDS.reserve_above(rid)
        self._labels: dict[int, str] = {rid: root_label}
        self._parent: dict[int, int | None] = {rid: None}
        self._children: dict[int, list[int]] = {rid: []}
        self._root = rid
        self._version = 0
        self._child_tuples: dict[int, tuple[int, ...]] = {}
        self._shape: tuple | None = None
        self._shape_hash: int | None = None
        self._shape_version = -1

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def root(self) -> int:
        """Identifier of the root node."""
        return self._root

    @property
    def size(self) -> int:
        """Number of nodes, including the root."""
        return len(self._labels)

    @property
    def version(self) -> int:
        """Mutation counter: bumped by every structural change.

        Snapshots (:class:`repro.trees.index.TreeIndex`) record the version
        at build time and use it as a cheap staleness test — strictly finer
        than comparing sizes, since moves and relabels preserve the count.
        """
        return self._version

    def label(self, nid: int) -> str:
        """Label of node ``nid``."""
        try:
            return self._labels[nid]
        except KeyError:
            raise TreeError(f"node {nid} not in tree") from None

    def node(self, nid: int) -> Node:
        """The ``(id, label)`` pair for ``nid``."""
        return Node(nid, self.label(nid))

    def parent(self, nid: int) -> int | None:
        """Identifier of the parent of ``nid`` (``None`` for the root)."""
        try:
            return self._parent[nid]
        except KeyError:
            raise TreeError(f"node {nid} not in tree") from None

    def children(self, nid: int) -> tuple[int, ...]:
        """Identifiers of the children of ``nid``.

        The tuple is cached per node (hot loops call this constantly) and
        invalidated by the mutations that touch the node's child list.
        """
        cached = self._child_tuples.get(nid)
        if cached is not None:
            return cached
        try:
            result = tuple(self._children[nid])
        except KeyError:
            raise TreeError(f"node {nid} not in tree") from None
        self._child_tuples[nid] = result
        return result

    def _touch(self, *nids: int) -> None:
        """Invalidate caches after a mutation of the given child lists."""
        self._version += 1
        for nid in nids:
            self._child_tuples.pop(nid, None)

    def __contains__(self, nid: int) -> bool:
        return nid in self._labels

    def node_ids(self) -> Iterator[int]:
        """All node identifiers (document order: preorder)."""
        return self._preorder(self._root)

    def nodes(self) -> Iterator[Node]:
        """All nodes as ``(id, label)`` pairs, preorder."""
        for nid in self.node_ids():
            yield Node(nid, self._labels[nid])

    def _preorder(self, start: int) -> Iterator[int]:
        stack = [start]
        while stack:
            nid = stack.pop()
            yield nid
            stack.extend(reversed(self._children[nid]))

    def descendants(self, nid: int, include_self: bool = False) -> Iterator[int]:
        """Strict descendants of ``nid`` (preorder); optionally include it."""
        it = self._preorder(nid)
        first = next(it)
        if include_self:
            yield first
        yield from it

    def ancestors(self, nid: int, include_self: bool = False) -> Iterator[int]:
        """Ancestors of ``nid``, closest first, ending at the root."""
        if include_self:
            yield nid
        cur = self.parent(nid)
        while cur is not None:
            yield cur
            cur = self._parent[cur]

    def depth(self, nid: int) -> int:
        """Number of edges from the root to ``nid``."""
        return sum(1 for _ in self.ancestors(nid))

    def path_labels(self, nid: int) -> tuple[str, ...]:
        """Labels on the root-to-``nid`` path, root excluded.

        This is the *word* of the node used throughout the linear-fragment
        algorithms: for linear queries membership of a node depends only on
        this word.
        """
        labels = [self._labels[a] for a in self.ancestors(nid)]
        labels.reverse()
        labels = labels[1:] if labels else []  # drop the root label
        labels.append(self._labels[nid])
        if nid == self._root:
            return ()
        return tuple(labels)

    def is_ancestor(self, anc: int, nid: int) -> bool:
        """True when ``anc`` is a strict ancestor of ``nid``."""
        return any(a == anc for a in self.ancestors(nid))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add_child(self, parent: int, label: str, nid: int | None = None) -> int:
        """Attach a new leaf labelled ``label`` under ``parent``.

        Returns the identifier of the new node.  When ``nid`` is supplied it
        must be unused in this tree; the global allocator is bumped past it.
        """
        if parent not in self._labels:
            raise TreeError(f"parent {parent} not in tree")
        if nid is None:
            nid = fresh_id()
        else:
            if nid in self._labels:
                raise TreeError(f"node id {nid} already present")
            GLOBAL_IDS.reserve_above(nid)
        self._labels[nid] = label
        self._parent[nid] = parent
        self._children[nid] = []
        self._children[parent].append(nid)
        self._touch(parent)
        return nid

    def add_path(self, parent: int, labels: Iterable[str]) -> int:
        """Attach a fresh downward chain of nodes; return the deepest id."""
        cur = parent
        for label in labels:
            cur = self.add_child(cur, label)
        return cur

    def remove_subtree(self, nid: int) -> None:
        """Delete ``nid`` and its whole subtree."""
        if nid == self._root:
            raise TreeError("cannot remove the root")
        if nid not in self._labels:
            raise TreeError(f"node {nid} not in tree")
        self._delete(list(self._preorder(nid)))

    def _delete(self, doomed: list[int]) -> None:
        """Delete a non-root subtree given as its node list, top node
        first; walks nothing itself (a live index passes the list its
        detach step made)."""
        top = doomed[0]
        parent = self._parent[top]
        assert parent is not None
        self._children[parent].remove(top)
        for d in doomed:
            del self._labels[d]
            del self._parent[d]
            del self._children[d]
        self._touch(parent, *doomed)

    def move(self, nid: int, new_parent: int) -> int:
        """Re-attach the subtree rooted at ``nid`` under ``new_parent``.

        Node identifiers are preserved — this models the *move* updates of
        the paper's update language ([27]), under which a node may appear in
        a totally different part of the document after the update.  Returns
        the parent ``nid`` left, which is what moves it back.
        """
        if nid == self._root:
            raise TreeError("cannot move the root")
        if nid not in self._labels:
            raise TreeError(f"node {nid} not in tree")
        if new_parent not in self._labels:
            raise TreeError(f"target parent {new_parent} not in tree")
        if nid == new_parent or self.is_ancestor(nid, new_parent):
            raise TreeError("cannot move a node under its own subtree")
        old_parent = self._parent[nid]
        assert old_parent is not None
        self._children[old_parent].remove(nid)
        self._parent[nid] = new_parent
        self._children[new_parent].append(nid)
        self._touch(old_parent, new_parent)
        return old_parent

    def relabel_fresh(self, nid: int, label: str | None = None,
                      new_id: int | None = None) -> int:
        """Replace node ``nid`` by a *fresh* node (new id, possibly new label).

        The paper's model has no label modification: changing a label means
        the old ``(id, label)`` node disappears and a new node takes its
        structural place.  Children are preserved.  Returns the new id.
        ``new_id`` optionally supplies an id drawn earlier; like
        :meth:`add_child`'s ``nid`` it must be unused in this tree.
        """
        if nid == self._root:
            raise TreeError("cannot relabel the root in place")
        if new_id is None:
            new_id = fresh_id()
        else:
            if new_id in self._labels:
                raise TreeError(f"node id {new_id} already present")
            GLOBAL_IDS.reserve_above(new_id)
        new_label = self._labels[nid] if label is None else label
        parent = self._parent[nid]
        assert parent is not None
        idx = self._children[parent].index(nid)
        self._children[parent][idx] = new_id
        self._labels[new_id] = new_label
        self._parent[new_id] = parent
        self._children[new_id] = self._children.pop(nid)
        for child in self._children[new_id]:
            self._parent[child] = new_id
        del self._labels[nid]
        del self._parent[nid]
        self._touch(parent, nid)
        return new_id

    # ------------------------------------------------------------------
    # Copies and structural identity
    # ------------------------------------------------------------------
    def copy(self) -> "DataTree":
        """Deep copy preserving all identifiers."""
        clone = DataTree.__new__(DataTree)
        clone._labels = dict(self._labels)
        clone._parent = dict(self._parent)
        clone._children = {k: list(v) for k, v in self._children.items()}
        clone._root = self._root
        clone._version = 0
        clone._child_tuples = {}
        # The copy is structurally identical, so a fresh shape cache carries over.
        fresh_shape = self._shape_version == self._version
        clone._shape = self._shape if fresh_shape else None
        clone._shape_hash = self._shape_hash if fresh_shape else None
        clone._shape_version = 0 if fresh_shape else -1
        return clone

    def same_instance(self, other: "DataTree") -> bool:
        """True when both trees have identical nodes *and* shape.

        This is equality of instances in the paper's sense (same identifiers,
        labels and edges), not mere isomorphism.
        """
        if self._labels != other._labels or self._root != other._root:
            return False
        return all(
            sorted(self._children[n]) == sorted(other._children[n]) for n in self._labels
        )

    def canonical_shape(self, nid: int | None = None) -> tuple:
        """Canonical form of the subtree at ``nid`` ignoring identifiers.

        Two subtrees have equal canonical shapes iff they are isomorphic as
        labelled unordered trees.  Used for deduplication in enumeration
        engines and for hashing canonical models.  Computed iteratively (no
        recursion limit on deep chains); the whole-tree shape is cached and
        invalidated by mutation.
        """
        nid = self._root if nid is None else nid
        if nid == self._root and self._shape_version == self._version:
            assert self._shape is not None
            return self._shape
        shape = iter_canonical_shape(nid, self._labels, self._children)
        if nid == self._root:
            self._shape = shape
            self._shape_hash = hash(shape)
            self._shape_version = self._version
        return shape

    # ------------------------------------------------------------------
    # Validation & printing
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check all structural invariants; raise :class:`TreeError` if broken."""
        if self._root not in self._labels:
            raise TreeError("root missing")
        if self._parent[self._root] is not None:
            raise TreeError("root has a parent")
        seen = set()
        for nid in self._preorder(self._root):
            if nid in seen:
                raise TreeError(f"node {nid} reachable twice (cycle or shared child)")
            seen.add(nid)
            for child in self._children[nid]:
                if self._parent.get(child) != nid:
                    raise TreeError(f"parent pointer of {child} disagrees with child list")
        if seen != set(self._labels):
            raise TreeError("unreachable nodes present")
        if set(self._labels) != set(self._parent) or set(self._labels) != set(self._children):
            raise TreeError("internal maps out of sync")

    def pretty(self, show_ids: bool = True) -> str:
        """Human-readable indented rendering."""
        lines: list[str] = []

        def walk(nid: int, depth: int) -> None:
            tag = f"{self._labels[nid]}#{nid}" if show_ids else self._labels[nid]
            lines.append("  " * depth + tag)
            for child in self._children[nid]:
                walk(child, depth + 1)

        walk(self._root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:
        return f"DataTree(size={self.size}, root={self._root})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DataTree):
            return NotImplemented
        return self.same_instance(other)

    def __hash__(self) -> int:
        """Hash through the cached canonical shape.

        Consistent with :meth:`__eq__` (equal instances share root id and
        shape) and O(1) on repeated calls on an unmutated tree, instead of
        rebuilding a frozenset of all labels every call.
        """
        if self._shape_version != self._version:
            self.canonical_shape()
        assert self._shape_hash is not None
        return hash((self._root, self._shape_hash))
