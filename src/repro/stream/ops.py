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

All operations are frozen dataclasses — hashable, picklable (the shard
runner ships whole logs to worker processes) and printable in the audit
trail's one-line form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Union


@dataclass(frozen=True)
class AddLeaf:
    """Insert a fresh leaf labelled ``label`` under ``parent``.

    ``nid`` pins the new node's identifier; logs meant to be replayed
    (benchmarks, the equivalence suite, shard jobs) always pin it, so the
    same log produces the same instance on every replay.
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
    "op_to_dict", "op_from_dict",
]
