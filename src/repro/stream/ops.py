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
in the audit trail's one-line form.

:func:`perform` and :func:`undo` are the one edit journal every writer
shares (the enforcement stream and the fleet evaluator): an edit applied
through a live snapshot returns its inverse, and a journal of inverses
replays newest-first to restore the pre-edit document.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Union

from repro.errors import StreamError, TreeError

if TYPE_CHECKING:  # annotations only: the op model stays import-light
    from repro.xpath.snapshot import SnapshotEvaluator


@dataclass(frozen=True)
class AddLeaf:
    """Insert a fresh leaf labelled ``label`` under ``parent``.

    ``nid`` pins the new node's identifier; logs meant to be replayed
    (benchmarks, the equivalence suite, the durable journal) always pin
    it, so the same log produces the same instance on every replay.
    """

    parent: int
    label: str
    nid: int | None = None

    def __str__(self) -> str:
        pin = f" as #{self.nid}" if self.nid is not None else ""
        return f"add-leaf {self.label!r} under #{self.parent}{pin}"


@dataclass(frozen=True)
class Move:
    """Re-attach the subtree at ``nid`` under ``new_parent`` (ids kept)."""

    nid: int
    new_parent: int

    def __str__(self) -> str:
        return f"move #{self.nid} under #{self.new_parent}"


@dataclass(frozen=True)
class RemoveSubtree:
    """Delete the whole subtree rooted at ``nid``."""

    nid: int

    def __str__(self) -> str:
        return f"remove-subtree #{self.nid}"


@dataclass(frozen=True)
class Begin:
    """Open a transaction (flat — nesting is a :class:`~repro.errors.
    StreamError`).  ``name`` labels the bracket in the audit trail."""

    name: str | None = None

    def __str__(self) -> str:
        return f"begin {self.name}" if self.name else "begin"


@dataclass(frozen=True)
class Commit:
    """Close the open transaction, keeping its edits iff the cumulative
    document still satisfies the constraint set."""

    def __str__(self) -> str:
        return "commit"


@dataclass(frozen=True)
class Rollback:
    """Close the open transaction, undoing all of its edits."""

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


def perform(ctx: SnapshotEvaluator, op: StreamOp) -> UndoEntry:
    """Apply one edit through the live snapshot ``ctx``; return its inverse.

    A structurally invalid edit raises :class:`~repro.errors.TreeError`
    with nothing applied (the ``apply_*`` paths validate before mutating);
    a marker is a :class:`~repro.errors.StreamError`.
    """
    if isinstance(op, AddLeaf):
        nid = ctx.apply_add_leaf(op.parent, op.label, nid=op.nid)
        return (_UNDO_UNADD, nid)
    tree = ctx.tree
    if isinstance(op, Move):
        old_parent = tree.parent(op.nid)
        if old_parent is None:
            raise TreeError("cannot move the root")
        ctx.apply_move(op.nid, op.new_parent)
        return (_UNDO_MOVE, op.nid, old_parent)
    if isinstance(op, RemoveSubtree):
        if op.nid not in tree:
            raise TreeError(f"node {op.nid} not in tree")
        spec = tuple((n, tree.parent(n), tree.label(n))
                     for n in tree.descendants(op.nid, include_self=True))
        ctx.apply_remove_subtree(op.nid)
        return (_UNDO_REVIVE, spec)
    raise StreamError(f"unknown stream operation {op!r}")


def undo(ctx: SnapshotEvaluator, journal: Sequence[UndoEntry]) -> None:
    """Replay inverse edits newest-first (the search-journal pattern: an
    undone move finds the gap the original left, a revived subtree
    compacts into the freed slot run)."""
    for entry in reversed(journal):
        tag = entry[0]
        if tag == _UNDO_MOVE:
            ctx.apply_move(entry[1], entry[2])
        elif tag == _UNDO_UNADD:
            ctx.apply_remove_subtree(entry[1])
        else:
            for nid, parent, label in entry[1]:
                ctx.apply_add_leaf(parent, label, nid=nid)


# ----------------------------------------------------------------------
# Wire form (the service protocol ships logs as JSON)
# ----------------------------------------------------------------------
_OP_TAGS: dict[str, type[StreamOp]] = {
    "add-leaf": AddLeaf,
    "move": Move,
    "remove-subtree": RemoveSubtree,
    "begin": Begin,
    "commit": Commit,
    "rollback": Rollback,
}
_TAG_OF: dict[type[StreamOp], str] = {
    cls: tag for tag, cls in _OP_TAGS.items()}


def op_to_dict(op: StreamOp) -> dict[str, Any]:
    """One operation as a JSON-safe dict (``{"op": tag, ...fields}``)."""
    try:
        tag = _TAG_OF[type(op)]
    except KeyError:
        raise ValueError(f"unknown stream operation {op!r}") from None
    data: dict[str, Any] = {"op": tag}
    for name in type(op).__dataclass_fields__:
        value = getattr(op, name)
        if value is not None:
            data[name] = value
    return data


#: Wire type of every op field: node ids are ints (never bools), labels
#: and bracket names are strings.  ``None`` is allowed exactly where the
#: field is optional (``AddLeaf.nid``, ``Begin.name``).
_FIELD_TYPES: dict[str, type] = {
    "parent": int, "nid": int, "new_parent": int, "label": str, "name": str}
_OPTIONAL = {(AddLeaf, "nid"), (Begin, "name")}


def op_from_dict(data: dict[str, Any]) -> StreamOp:
    """Rebuild an operation from its wire dict (inverse of :func:`op_to_dict`).

    Every field is type-checked, so an op that decodes here is one the
    enforcer — and a journal replay — can apply: a malformed op is refused
    at the wire, before it can be journaled.
    """
    fields = dict(data)
    tag = fields.pop("op", None)
    if not isinstance(tag, str) or tag not in _OP_TAGS:
        raise ValueError(f"unknown stream operation tag {tag!r}")
    cls = _OP_TAGS[tag]
    for name, value in fields.items():
        want = _FIELD_TYPES.get(name)
        if want is None or name not in cls.__dataclass_fields__:
            continue  # an unknown field: the constructor names it below
        if value is None and (cls, name) in _OPTIONAL:
            continue
        if not isinstance(value, want) or isinstance(value, bool):
            raise ValueError(
                f"bad fields for stream op {tag!r}: {name!r} must be "
                f"{'an int' if want is int else 'a string'}, got {value!r}")
    try:
        return cls(**fields)
    except TypeError as exc:
        raise ValueError(f"bad fields for stream op {tag!r}: {exc}") from None


__all__ = [
    "AddLeaf", "Move", "RemoveSubtree",
    "Begin", "Commit", "Rollback",
    "UpdateOp", "Marker", "StreamOp",
    "UPDATE_OPS", "MARKERS",
    "UndoEntry", "perform", "undo",
    "op_to_dict", "op_from_dict",
]
