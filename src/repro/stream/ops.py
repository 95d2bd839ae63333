"""The update-log operation model of the enforcement stream.

The paper's update language ([27], Section 2) manipulates documents by
inserting fresh leaves, moving subtrees (identity-preserving) and deleting
subtrees — exactly the three structural edits the incremental
:class:`~repro.trees.index.TreeIndex` applies in place.  A *log* is a flat
sequence of these operations interleaved with transaction markers:

* :class:`AddLeaf` / :class:`Move` / :class:`RemoveSubtree` — the edits;
* :class:`Begin` / :class:`Commit` / :class:`Rollback` — flat (unnested)
  transaction brackets.  Operations outside a bracket are *autocommit*:
  each one is its own transaction.

All operations are frozen dataclasses — hashable, picklable and printable
in the audit trail's one-line form.  Their JSON form comes from
:mod:`repro.codec`: node ids are ints (never booleans), labels and names
strings, an unset ``nid``/``name`` stays off the wire, and a key naming no
field is refused.

:func:`perform` and :func:`undo` are the enforcement stream's one edit
journal (per-op, bracketed and certified writes alike).  They check and
walk nothing themselves: each op maps to one
:class:`~repro.trees.index.TreeIndex` ``apply_*`` edit, which validates
it, applies it and returns its inverse, and a journal of inverses replays
newest-first to restore the pre-edit document.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Union

from repro import codec
from repro.errors import StreamError

if TYPE_CHECKING:  # annotations only: the op model stays import-light
    from repro.trees.index import TreeIndex


class _Op(codec.Wire):
    """The stream ops' wire union: ``{"op": kind, ...fields}``."""

    tag, noun, closed = "op", "stream operation", True


@dataclass(frozen=True)
class AddLeaf(_Op):
    """Insert a fresh leaf labelled ``label`` under ``parent``.

    ``nid`` pins the new node's identifier; logs meant to be replayed
    (benchmarks, the equivalence suite, the durable journal) always pin
    it, so the same log produces the same instance on every replay.
    """

    kind = "add-leaf"

    parent: int
    label: str
    nid: int | None = field(default=None, metadata=codec.OMIT_DEFAULT)

    def __str__(self) -> str:
        pin = f" as #{self.nid}" if self.nid is not None else ""
        return f"add-leaf {self.label!r} under #{self.parent}{pin}"


@dataclass(frozen=True)
class Move(_Op):
    """Re-attach the subtree at ``nid`` under ``new_parent`` (ids kept)."""

    kind = "move"

    nid: int
    new_parent: int

    def __str__(self) -> str:
        return f"move #{self.nid} under #{self.new_parent}"


@dataclass(frozen=True)
class RemoveSubtree(_Op):
    """Delete the whole subtree rooted at ``nid``."""

    kind = "remove-subtree"

    nid: int

    def __str__(self) -> str:
        return f"remove-subtree #{self.nid}"


@dataclass(frozen=True)
class Begin(_Op):
    """Open a transaction (flat — nesting is a :class:`~repro.errors.
    StreamError`).  ``name`` labels the bracket in the audit trail."""

    kind = "begin"

    name: str | None = field(default=None, metadata=codec.OMIT_DEFAULT)

    def __str__(self) -> str:
        return f"begin {self.name}" if self.name else "begin"


@dataclass(frozen=True)
class Commit(_Op):
    """Close the open transaction, keeping its edits iff the cumulative
    document still satisfies the constraint set."""

    kind = "commit"

    def __str__(self) -> str:
        return "commit"


@dataclass(frozen=True)
class Rollback(_Op):
    """Close the open transaction, undoing all of its edits."""

    kind = "rollback"

    def __str__(self) -> str:
        return "rollback"


UpdateOp = Union[AddLeaf, Move, RemoveSubtree]
Marker = Union[Begin, Commit, Rollback]
StreamOp = Union[UpdateOp, Marker]

UPDATE_OPS = (AddLeaf, Move, RemoveSubtree)
MARKERS = (Begin, Commit, Rollback)


# ----------------------------------------------------------------------
# The edit journal (inverse edits, replayed newest-first)
# ----------------------------------------------------------------------
_UNDO_MOVE = "move"      # (tag, nid, old_parent)
_UNDO_UNADD = "unadd"    # (tag, nid)
_UNDO_REVIVE = "revive"  # (tag, ((nid, parent, label), ...) preorder)

#: One journal entry: the inverse of one applied edit.
UndoEntry = tuple[Any, ...]


def perform(index: TreeIndex, op: StreamOp) -> UndoEntry:
    """Apply one edit through the live snapshot ``index``; return its inverse.

    The index checks the edit: an invalid one raises
    :class:`~repro.errors.TreeError` with nothing applied.  A marker is a
    :class:`~repro.errors.StreamError`.
    """
    if isinstance(op, AddLeaf):
        return (_UNDO_UNADD, index.apply_add_leaf(op.parent, op.label,
                                                  nid=op.nid))
    if isinstance(op, Move):
        return (_UNDO_MOVE, op.nid, index.apply_move(op.nid, op.new_parent))
    if isinstance(op, RemoveSubtree):
        return (_UNDO_REVIVE, index.apply_remove_subtree(op.nid))
    raise StreamError(f"unknown stream operation {op!r}")


def undo(index: TreeIndex, journal: Sequence[UndoEntry]) -> None:
    """Replay inverse edits newest-first (the search-journal pattern: an
    undone move finds the gap the original left, a revived subtree
    compacts into the freed slot run).

    Each inverse is one edit: a removed subtree revives whole through
    ``apply_add_subtree`` — one revision and one delta however many
    nodes it carries — as its top node's parent's last child.
    """
    for entry in reversed(journal):
        tag = entry[0]
        if tag == _UNDO_MOVE:
            index.apply_move(entry[1], entry[2])
        elif tag == _UNDO_UNADD:
            index.apply_remove_subtree(entry[1])
        else:
            index.apply_add_subtree(entry[1])


# ----------------------------------------------------------------------
# Wire form: ``op_to_dict(op)`` is ``{"op": kind, ...fields}``; its inverse
# ``op_from_dict`` refuses (WireError, a ValueError) any op an enforcer or
# a journal replay could not apply.
# ----------------------------------------------------------------------
op_to_dict, op_from_dict = codec.derive(StreamOp, "op")


__all__ = [
    "AddLeaf", "Move", "RemoveSubtree",
    "Begin", "Commit", "Rollback",
    "UpdateOp", "Marker", "StreamOp",
    "UPDATE_OPS", "MARKERS",
    "UndoEntry", "perform", "undo",
    "op_to_dict", "op_from_dict",
]
