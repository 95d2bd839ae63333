"""Static constraint–update independence analysis.

The stream engine re-checks the cumulative edit after every operation,
but most traffic in realistic workloads lands in constraint-irrelevant
regions of the document — the case the type-based query–update
independence line (Bidoit/Colazzo/Ulliana) and FLUX's static update
typechecking decide at compile time.  This module is the repo's version
of that analysis, specialised to the fragment ``XP{/,[],//,*}`` and the
three-op update algebra of :mod:`repro.stream.ops`.

For each :class:`~repro.constraints.model.UpdateConstraint` ``(q, σ)`` we
compile a conservative :class:`ImpactSignature` along three dimensions:

**Op kinds.**  Tree patterns are monotone: adding a node can only create
matches, deleting a subtree can only destroy them, and a move can do
both.  Starting from a *currently valid* cumulative pair ``(I₀, J)``:

* an :class:`~repro.stream.ops.AddLeaf` can never invalidate a
  ``NO_REMOVE`` constraint (its baseline answers stay matched), and
* a :class:`~repro.stream.ops.RemoveSubtree` can never invalidate a
  ``NO_INSERT`` constraint (``q(J)`` only shrinks below ``q(I₀)``);

so each constraint type is sensitive to exactly two op kinds.

**Labels.**  Every node of a match embeds a pattern node, so it carries a
label from the pattern's *label alphabet* (:func:`repro.xpath.ast.
label_alphabet`); a wildcard anywhere widens the alphabet to ⊤.  An edit
whose touched labels — the new leaf's label, or the labels occurring in
the moved/removed subtree — miss the alphabet can neither create nor
destroy matches.

**Regions.**  Every match is contained in the subtree of the node its
first spine step maps to (:func:`repro.xpath.canonical.spine_anchor`) —
an *anchor*: any node carrying the anchor label for a ``//``-anchored
range, a matching root child for a ``/``-anchored one.  An edit point
lies inside the constraint's region iff one of its ancestors-or-self is
an anchor, which one walk up its ancestor chain decides
(:meth:`ImpactSignature.in_region` on the point's path-label word).  An
edit entirely outside the region — and unable to create a new anchor (a
fresh root child for ``/``-anchored patterns, a fresh node carrying the
anchor label for ``//``-anchored ones) — cannot touch the constraint's
answers even when its labels intersect the alphabet.

The whole-set :class:`IndependenceIndex` inverts the signatures into an
``(op kind × label)`` table of constraint *positions* for O(1) per-op
candidate lookup, and the :class:`IndependenceAnalyzer` binds the index
to a live tree snapshot: ``analyzer.dependent(op)`` returns the positions
of the constraints ``op`` may affect.  Every other constraint's answer
set can only move in its safe direction (a ``NO_REMOVE`` range grows or
stays, a ``NO_INSERT`` range shrinks or stays), so a constraint that
holds before the op still holds after it.  The stream engine re-checks
only the dependent constraints plus whatever is currently violated, and
takes its zero-work fast path when that leaves nothing; the Hypothesis
equivalence suite pins decision streams bit-identical to full checking.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.constraints.model import (
    ConstraintSet,
    ConstraintType,
    UpdateConstraint,
)
from repro.stream.ops import AddLeaf, Move, RemoveSubtree, StreamOp
from repro.trees.index import TreeIndex
from repro.xpath.ast import Axis, label_alphabet
from repro.xpath.canonical import spine_anchor

# Op-kind keys (the wire tags of repro.stream.ops).
KIND_ADD = "add-leaf"
KIND_MOVE = "move"
KIND_REMOVE = "remove-subtree"

# Which op kinds can invalidate a currently-valid pair, per constraint
# type (the monotonicity argument in the module docstring).
_KINDS_OF_TYPE: dict[ConstraintType, frozenset[str]] = {
    ConstraintType.NO_REMOVE: frozenset((KIND_MOVE, KIND_REMOVE)),
    ConstraintType.NO_INSERT: frozenset((KIND_ADD, KIND_MOVE)),
}


@dataclass(frozen=True)
class ImpactSignature:
    """What one constraint is sensitive to, conservatively.

    ``labels is None`` encodes ⊤ (the range contains a wildcard, so any
    label may participate in a match).  ``first_axis``/``first_label``
    describe the range's first spine step — the anchors the region
    dimension is derived from at lookup time, against the live snapshot.
    """

    constraint: UpdateConstraint
    kinds: frozenset[str]
    labels: frozenset[str] | None
    first_axis: Axis
    first_label: str | None

    @property
    def is_top(self) -> bool:
        """True when the label dimension is ⊤ (wildcard in the range)."""
        return self.labels is None

    def in_region(self, path: tuple[str, ...], root_label: str) -> bool:
        """Is a node inside some anchor's subtree (itself included)?

        ``path`` is the node's word — the labels on its root path, root
        excluded (:meth:`~repro.trees.index.TreeIndex.path_labels`) — and
        ``root_label`` the root's label.  A ``//``-anchored region holds
        every node with an ancestor-or-self carrying the anchor label (the
        root included; ``//*`` covers every node); a ``/``-anchored one
        every node whose root-child ancestor-or-self carries it (``/*``
        covers every node but the root).
        """
        label = self.first_label
        if self.first_axis is Axis.DESC:
            return label is None or label in path or label == root_label
        return bool(path) and (label is None or path[0] == label)

    def __str__(self) -> str:
        labels = "⊤" if self.labels is None else \
            "{" + ",".join(sorted(self.labels)) + "}"
        kinds = ",".join(sorted(self.kinds))
        return f"{self.constraint}: kinds[{kinds}] labels{labels}"


def impact_signature(constraint: UpdateConstraint) -> ImpactSignature:
    """Compile one constraint's conservative impact signature."""
    axis, label = spine_anchor(constraint.range)
    return ImpactSignature(
        constraint=constraint,
        kinds=_KINDS_OF_TYPE[constraint.type],
        labels=label_alphabet(constraint.range),
        first_axis=axis,
        first_label=label,
    )


class IndependenceIndex:
    """Whole-set inversion of the signatures: ``(op kind × label)`` →
    positions of the possibly-impacted constraints, for O(1) per-op
    candidate lookup.

    Positions index the policy's constraint tuple, duplicates included —
    the order every checker iterates.  Signatures whose label dimension
    is ⊤ cannot be excluded by any label, so every key's entry includes
    them (and they are the whole answer for an unkeyed label); their
    region dimension still prunes at analysis time.
    """

    __slots__ = ("_signatures", "_by_key", "_top", "_probe_labels")

    def __init__(self, constraints: ConstraintSet | Iterable[UpdateConstraint]):
        if not isinstance(constraints, ConstraintSet):
            constraints = ConstraintSet(constraints)
        self._signatures = tuple(impact_signature(c) for c in constraints)
        by_key: dict[tuple[str, str], list[int]] = {}
        top: dict[str, list[int]] = {KIND_ADD: [], KIND_MOVE: [],
                                     KIND_REMOVE: []}
        probe: set[str] = set()
        for pos, sig in enumerate(self._signatures):
            if sig.labels is None:
                for kind in sig.kinds:
                    top[kind].append(pos)
            else:
                probe.update(sig.labels)
                for kind in sig.kinds:
                    for label in sig.labels:
                        by_key.setdefault((kind, label), []).append(pos)
            # Anchor labels of ⊤ signatures still matter to the subtree
            # probes of move/remove (a moved anchor relocates matches).
            if sig.first_label is not None:
                probe.add(sig.first_label)
        self._top: dict[str, tuple[int, ...]] = {
            kind: tuple(positions) for kind, positions in top.items()}
        self._by_key: dict[tuple[str, str], tuple[int, ...]] = {
            key: tuple(sorted(positions + top[key[0]]))
            for key, positions in by_key.items()}
        self._probe_labels = frozenset(probe)

    @property
    def signatures(self) -> tuple[ImpactSignature, ...]:
        return self._signatures

    @property
    def probe_labels(self) -> frozenset[str]:
        """Labels worth probing for inside a moved/removed subtree."""
        return self._probe_labels

    def lookup(self, kind: str, label: str) -> tuple[int, ...]:
        """Sorted positions of the constraints possibly impacted by a
        ``kind`` op touching ``label`` — one dict probe."""
        return self._by_key.get((kind, label), self._top.get(kind, ()))

    def candidates(self, kind: str, labels: Iterable[str]) -> tuple[int, ...]:
        """Sorted, deduplicated union of :meth:`lookup` over ``labels``."""
        found = set(self._top.get(kind, ()))
        by_key = self._by_key
        for label in labels:
            found.update(by_key.get((kind, label), ()))
        return tuple(sorted(found))

    def stats(self) -> dict[str, int]:
        """Shape of the compiled index (exposed through the service)."""
        return {
            "signatures": len(self._signatures),
            "keys": len(self._by_key),
            "wildcard": sum(1 for s in self._signatures if s.is_top),
        }

    def __len__(self) -> int:
        return len(self._signatures)

    def __repr__(self) -> str:
        stats = self.stats()
        return (f"IndependenceIndex({stats['signatures']} signatures, "
                f"{stats['keys']} keys, {stats['wildcard']} ⊤)")


class IndependenceAnalyzer:
    """The compiled index bound to one live tree snapshot.

    :meth:`dependent` must be consulted *before* the edit is applied (the
    region tests read the pre-edit ancestor chains).  A constraint it
    leaves out keeps its verdict if it currently holds; a constraint that
    is currently violated must be re-checked regardless — the stream
    engine's re-check set is exactly that union.  Any op the analyzer
    cannot place (unknown nodes, the root, a marker) gets ``None``; the
    engine then checks every constraint, and its structural validation
    produces the exact same rejection it always did.
    """

    __slots__ = ("_index", "_tree")

    def __init__(self, index: IndependenceIndex, tree_index: TreeIndex):
        self._index = index
        self._tree = tree_index

    @property
    def index(self) -> IndependenceIndex:
        return self._index

    @property
    def tree_index(self) -> TreeIndex:
        return self._tree

    # ------------------------------------------------------------------
    # Per-op verdicts
    # ------------------------------------------------------------------
    def dependent(self, op: StreamOp) -> tuple[int, ...] | None:
        """Sorted positions of the constraints ``op`` may affect.

        ``()`` means none: given a currently valid cumulative pair, the op
        provably cannot change any verdict or witness.  ``None`` means the
        op cannot be placed on the snapshot.
        """
        if isinstance(op, AddLeaf):
            return self._add_dependent(op)
        if isinstance(op, Move):
            return self._move_dependent(op)
        if isinstance(op, RemoveSubtree):
            return self._remove_dependent(op)
        return None  # markers always take the engine's marker paths

    def independent(self, op: StreamOp) -> bool:
        """Provably unable to change any constraint's verdict, given the
        cumulative edit is currently valid?  (``dependent(op) == ()``.)"""
        return self.dependent(op) == ()

    def _add_dependent(self, op: AddLeaf) -> tuple[int, ...] | None:
        idx = self._tree
        if op.parent not in idx:
            return None
        positions = self._index.lookup(KIND_ADD, op.label)
        if not positions:
            return ()
        sigs = self._index.signatures
        path = idx.path_labels(op.parent)
        root = idx.root
        root_label = idx.label(root)
        at_root = op.parent == root
        out: list[int] = []
        for pos in positions:
            sig = sigs[pos]
            anchor = sig.first_label
            # Inside an anchor subtree the new leaf may witness a match;
            # outside every anchor, it could still become one itself.
            if (sig.in_region(path, root_label)
                    or ((sig.first_axis is Axis.DESC or at_root)
                        and (anchor is None or op.label == anchor))):
                out.append(pos)
        return tuple(out)

    def _move_dependent(self, op: Move) -> tuple[int, ...] | None:
        idx = self._tree
        root = idx.root
        if op.nid not in idx or op.new_parent not in idx or op.nid == root:
            return None
        present = self._present_labels(op.nid)
        positions = self._index.candidates(KIND_MOVE, present)
        if not positions:
            return ()
        sigs = self._index.signatures
        source = idx.path_labels(op.nid)
        dest = idx.path_labels(op.new_parent)
        root_label = idx.label(root)
        to_root = op.new_parent == root
        moved = idx.label(op.nid)
        out: list[int] = []
        for pos in positions:
            sig = sigs[pos]
            anchor = sig.first_label
            # Leaving or entering an anchor subtree changes its contents;
            # so does carrying an anchor along, and a move to the root can
            # mint a '/'-anchored one.
            if (sig.in_region(source, root_label)
                    or sig.in_region(dest, root_label)
                    or self._carries_anchor(sig, present)
                    or (sig.first_axis is Axis.CHILD and to_root
                        and (anchor is None or moved == anchor))):
                out.append(pos)
        return tuple(out)

    def _remove_dependent(self, op: RemoveSubtree) -> tuple[int, ...] | None:
        idx = self._tree
        root = idx.root
        if op.nid not in idx or op.nid == root:
            return None
        present = self._present_labels(op.nid)
        positions = self._index.candidates(KIND_REMOVE, present)
        if not positions:
            return ()
        sigs = self._index.signatures
        path = idx.path_labels(op.nid)
        root_label = idx.label(root)
        return tuple(pos for pos in positions
                     if sigs[pos].in_region(path, root_label)
                     or self._carries_anchor(sigs[pos], present))

    def _present_labels(self, nid: int) -> list[str]:
        """Probe labels occurring in the subtree at ``nid`` (self incl.)."""
        idx = self._tree
        own = idx.label(nid)
        return [label for label in self._index.probe_labels
                if label == own
                or idx.count_descendants_with_label(label, nid) > 0]

    @staticmethod
    def _carries_anchor(sig: ImpactSignature, present: list[str]) -> bool:
        """Might the subtree whose probe labels are ``present`` hold an
        anchor of ``sig``?

        ``//``-anchored signatures anchor at any node carrying the anchor
        label, so relocating or deleting such a node relocates or deletes
        a whole match region.  (``/``-anchored anchors are root children;
        a root child is inside its own region, so the caller's region test
        already covers them.)
        """
        if sig.first_axis is not Axis.DESC:
            return False
        return sig.first_label is None or sig.first_label in present

    def __repr__(self) -> str:
        return (f"IndependenceAnalyzer({self._index!r}, "
                f"|J|={self._tree.size}, rev {self._tree.revision})")


__all__ = [
    "ImpactSignature", "IndependenceIndex", "IndependenceAnalyzer",
    "impact_signature", "KIND_ADD", "KIND_MOVE", "KIND_REMOVE",
]
