"""The template algebra: parameterized transactions over the stream ops.

An :class:`UpdateTemplate` is a reusable update *program*: a sequence of
template operations over the three-op algebra of :mod:`repro.stream.ops`
whose positions may be **typed holes** instead of concrete values —

* :class:`LabelHole` — a fresh leaf's label, drawn from a finite domain;
* :class:`NodeHole` — a node position (a parent to insert under, a move
  destination, a subtree root), optionally constrained by an *anchor
  pattern* the bound node's root path must match;
* :class:`SubtreeHole` — a subtree position (the argument of a move or a
  remove) whose entire label content is promised to stay inside a
  declared finite set.

A template names a whole flat transaction: instantiating it with a
binding (one value per hole) yields a concrete op sequence executed
bracketed between ``Begin(name)`` and ``Commit``.  The certifier
(:mod:`repro.certify.certifier`) quantifies over **every** guard-passing
binding on **every** currently-valid document, so the hole *domains* are
load-bearing: the :meth:`UpdateTemplate.guard_errors` check that a bound
label lies in its :class:`LabelHole` domain, and that a bound subtree
carries only its :class:`SubtreeHole` labels, is exactly what makes a
certificate transferable to the instantiation.  (A :class:`NodeHole`'s
anchor, by contrast, is a usability precondition — certification never
relies on it.)

Templates are frozen, hashable, and wire-codable through :mod:`repro.codec`
(ops tagged by ``"op"``, holes by ``"hole"``, patterns as XPath text,
bindings as a ``{name: value}`` object; a wrong JSON type is refused,
never coerced), with a canonical form mirroring
:func:`repro.xpath.canonical.canonical_pattern` so equal programs compare
and key equal, plus a seeded instantiation sampler for tests and
benchmarks.
"""

from __future__ import annotations

import dataclasses
import json
import random
from dataclasses import dataclass, field
from typing import Any, Union
from collections.abc import Mapping

from repro import codec
from repro.errors import CertifyError, TreeError, WireError
from repro.stream.ops import AddLeaf, Move, RemoveSubtree, UpdateOp
from repro.trees.tree import DataTree
from repro.xpath.ast import Axis, Pattern
from repro.xpath.canonical import canonical_pattern


# ----------------------------------------------------------------------
# Holes
# ----------------------------------------------------------------------
class _Hole(codec.Wire):
    """The holes' wire union: ``{"hole": kind, ...fields}``."""

    tag = "hole"


@dataclass(frozen=True)
class LabelHole(_Hole):
    """A label position filled from a finite ``domain`` of labels."""

    kind = "label"

    name: str
    domain: frozenset[str]

    def __post_init__(self) -> None:
        if not self.name:
            raise CertifyError("a hole needs a non-empty name")
        if not self.domain:
            raise CertifyError(f"label hole {self.name!r} has an empty "
                               "domain; certification quantifies over it")

    def __str__(self) -> str:
        return f"?{self.name}:{{{','.join(sorted(self.domain))}}}"


@dataclass(frozen=True)
class NodeHole(_Hole):
    """A node position; ``anchor`` optionally constrains the bound node.

    The guard accepts a binding only when the node's root path matches
    the anchor's spine (child steps consume one edge, descendant steps
    any positive run; predicates are **not** evaluated — the anchor is a
    cheap structural precondition, never a certification premise).
    """

    kind = "node"

    name: str
    anchor: Pattern | None = field(default=None, metadata=codec.OMIT_DEFAULT)

    def __post_init__(self) -> None:
        if not self.name:
            raise CertifyError("a hole needs a non-empty name")

    def __str__(self) -> str:
        if self.anchor is None:
            return f"?{self.name}"
        return f"?{self.name}@{self.anchor}"


@dataclass(frozen=True)
class SubtreeHole(_Hole):
    """A subtree position whose labels are promised to lie in ``labels``.

    The guard walks the bound subtree and rejects any node labelled
    outside the declared set — this bound is what lets the certifier
    discharge moves and removes by label-disjointness, so it is a
    **soundness-bearing** check, not advice.
    """

    kind = "subtree"

    name: str
    labels: frozenset[str]

    def __post_init__(self) -> None:
        if not self.name:
            raise CertifyError("a hole needs a non-empty name")
        if not self.labels:
            raise CertifyError(f"subtree hole {self.name!r} declares no "
                               "labels; an empty subtree bound is "
                               "unsatisfiable")

    def __str__(self) -> str:
        return f"?{self.name}<{{{','.join(sorted(self.labels))}}}>"


Hole = Union[LabelHole, NodeHole, SubtreeHole]
#: A node-valued position: concrete id or a node hole.
NodeRef = Union[int, NodeHole]
#: A subtree-valued position: concrete id, node hole (content unknown)
#: or subtree hole (content bounded).
SubtreeRef = Union[int, NodeHole, SubtreeHole]
#: A label-valued position: concrete label or a label hole.
LabelRef = Union[str, LabelHole]
#: One binding value; a whole binding maps hole names to values.
Binding = Union[int, str]
Bindings = Mapping[str, Binding]


# ----------------------------------------------------------------------
# Template operations
# ----------------------------------------------------------------------
class _TemplateOp(codec.Wire):
    """The template ops' wire union: ``{"op": kind, ...positions}``."""

    tag, noun = "op", "template op"


@dataclass(frozen=True)
class TemplateAdd(_TemplateOp):
    """``AddLeaf(parent, label)`` with holes allowed in both positions."""

    kind = "add-leaf"

    parent: NodeRef
    label: LabelRef

    def __str__(self) -> str:
        return f"add-leaf {self.label} under {_show_ref(self.parent)}"


@dataclass(frozen=True)
class TemplateMove(_TemplateOp):
    """``Move(node, new_parent)`` with holes allowed in both positions."""

    kind = "move"

    node: SubtreeRef
    new_parent: NodeRef

    def __str__(self) -> str:
        return f"move {_show_ref(self.node)} under {_show_ref(self.new_parent)}"


@dataclass(frozen=True)
class TemplateRemove(_TemplateOp):
    """``RemoveSubtree(node)`` with a hole allowed in the position."""

    kind = "remove-subtree"

    node: SubtreeRef

    def __str__(self) -> str:
        return f"remove-subtree {_show_ref(self.node)}"


TemplateOp = Union[TemplateAdd, TemplateMove, TemplateRemove]


def _show_ref(ref: NodeRef | SubtreeRef | LabelRef) -> str:
    return f"#{ref}" if isinstance(ref, int) else str(ref)


def _iter_op_holes(op: TemplateOp) -> list[Hole]:
    """The op's holes, in field order."""
    return [value for value in op.__dict__.values()
            if isinstance(value, (LabelHole, NodeHole, SubtreeHole))]


# ----------------------------------------------------------------------
# The template
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class UpdateTemplate:
    """One named, reusable, parameterized flat transaction.

    Hole names are template-scoped: the same name may recur across ops
    (both positions then receive the same bound value) but must denote
    the *same* hole everywhere.  Templates cannot reference leaves they
    themselves create — a fresh leaf's id is allocated at apply time, so
    there is no output binding to thread forward.
    """

    name: str
    ops: tuple[TemplateOp, ...]

    def __post_init__(self) -> None:
        if not self.name:
            raise CertifyError("a template needs a non-empty name")
        if not self.ops:
            raise CertifyError(f"template {self.name!r} has no operations")
        seen: dict[str, Hole] = {}
        for op in self.ops:
            for hole in _iter_op_holes(op):
                prior = seen.get(hole.name)
                if prior is None:
                    seen[hole.name] = hole
                elif prior != hole:
                    raise CertifyError(
                        f"template {self.name!r} binds hole "
                        f"{hole.name!r} to two different declarations "
                        f"({prior} vs {hole})")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def holes(self) -> tuple[Hole, ...]:
        """Every distinct hole, in first-occurrence order."""
        seen: dict[str, Hole] = {}
        for op in self.ops:
            for hole in _iter_op_holes(op):
                seen.setdefault(hole.name, hole)
        return tuple(seen.values())

    # ------------------------------------------------------------------
    # Canonical form
    # ------------------------------------------------------------------
    def canonical(self) -> "UpdateTemplate":
        """The template with every anchor pattern in canonical form."""
        ops = tuple(_canonical_op(op) for op in self.ops)
        if ops == self.ops:
            return self
        return UpdateTemplate(self.name, ops)

    def canonical_key(self) -> tuple[Any, ...]:
        """A hashable structural identity: the name and the canonical
        template's wire form."""
        return (self.name, json.dumps(self.canonical().to_dict()["ops"],
                                      sort_keys=True))

    # ------------------------------------------------------------------
    # Instantiation and the guard
    # ------------------------------------------------------------------
    def instantiate(self, bindings: Bindings) -> tuple[UpdateOp, ...]:
        """The concrete op sequence under ``bindings``.

        Checks binding *domains* (every hole bound, values of the right
        type, labels inside their declared domain) but not the document —
        that is :meth:`guard_errors`.  Fresh-leaf ids stay unpinned; the
        service pins them at the durable boundary.
        """
        self._check_domains(bindings)
        out: list[UpdateOp] = []
        for op in self.ops:
            if isinstance(op, TemplateAdd):
                out.append(AddLeaf(_node_value(op.parent, bindings),
                                   _label_value(op.label, bindings)))
            elif isinstance(op, TemplateMove):
                out.append(Move(_node_value(op.node, bindings),
                                _node_value(op.new_parent, bindings)))
            else:
                out.append(RemoveSubtree(_node_value(op.node, bindings)))
        return tuple(out)

    def _check_domains(self, bindings: Bindings) -> None:
        holes = {hole.name: hole for hole in self.holes()}
        missing = sorted(set(holes) - set(bindings))
        if missing:
            raise CertifyError(f"template {self.name!r}: unbound hole(s) "
                               f"{missing}")
        extra = sorted(set(bindings) - set(holes))
        if extra:
            raise CertifyError(f"template {self.name!r}: binding names no "
                               f"hole: {extra}")
        for name, hole in holes.items():
            value = bindings[name]
            if isinstance(hole, LabelHole):
                if not isinstance(value, str):
                    raise CertifyError(f"hole {name!r} takes a label, got "
                                       f"{value!r}")
                if value not in hole.domain:
                    raise CertifyError(
                        f"label {value!r} is outside hole {name!r}'s domain "
                        f"{sorted(hole.domain)}")
            else:
                if isinstance(value, bool) or not isinstance(value, int):
                    raise CertifyError(f"hole {name!r} takes a node id, got "
                                       f"{value!r}")

    def guard_errors(self, bindings: Bindings,
                     tree: DataTree) -> str | None:
        """Why ``bindings`` must be refused on ``tree`` (``None`` = pass).

        The guard is the entire per-submission validation of the
        certified hot path: binding domains, node existence, per-op
        structural preconditions against the pre-template document,
        anchor-spine matches and — soundness-bearing — the subtree-label
        bounds of every :class:`SubtreeHole`.  No mask work, no pattern
        evaluation: every check is O(binding footprint).
        """
        try:
            self._check_domains(bindings)
        except CertifyError as err:
            return str(err)
        for at, op in enumerate(self.ops):
            where = f"op {at} ({op})"
            if isinstance(op, TemplateAdd):
                error = self._guard_node(op.parent, bindings, tree)
            elif isinstance(op, TemplateMove):
                error = (self._guard_subtree(op.node, bindings, tree)
                         or self._guard_node(op.new_parent, bindings, tree)
                         or _guard_move(op, bindings, tree))
            else:
                error = self._guard_subtree(op.node, bindings, tree)
            if error is not None:
                return f"{where}: {error}"
        return None

    def _guard_node(self, ref: NodeRef, bindings: Bindings,
                    tree: DataTree) -> str | None:
        nid = _node_value(ref, bindings)
        if nid not in tree:
            return f"node {nid} is not in the document"
        if isinstance(ref, NodeHole) and ref.anchor is not None:
            if not _spine_matches(ref.anchor, tree.path_labels(nid)):
                return (f"node {nid} ({tree.label(nid)!r}) does not match "
                        f"anchor {ref.anchor}")
        return None

    def _guard_subtree(self, ref: SubtreeRef, bindings: Bindings,
                       tree: DataTree) -> str | None:
        nid = _node_value(ref, bindings)
        if nid not in tree:
            return f"node {nid} is not in the document"
        if nid == tree.root:
            return "the root cannot be moved or removed"
        if isinstance(ref, NodeHole):
            return self._guard_node(ref, bindings, tree)
        if isinstance(ref, SubtreeHole):
            for member in tree.descendants(nid, include_self=True):
                label = tree.label(member)
                if label not in ref.labels:
                    return (f"subtree at {nid} contains label {label!r} "
                            f"outside hole {ref.name!r}'s declared set "
                            f"{sorted(ref.labels)}")
        return None

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """JSON-safe wire form (patterns as XPath text, holes tagged)."""
        data: dict[str, Any] = codec.derive(UpdateTemplate)[0](self)
        return data

    @classmethod
    def from_dict(cls, data: Any) -> "UpdateTemplate":
        """Decode :meth:`to_dict`; a malformed form is a CertifyError."""
        try:
            template: UpdateTemplate = codec.derive(UpdateTemplate)[1](data)
        except WireError as exc:
            raise CertifyError(f"bad template wire form: {exc}") from None
        return template

    def __str__(self) -> str:
        body = "; ".join(str(op) for op in self.ops)
        return f"template {self.name}[{body}]"


def _canonical_op(op: TemplateOp) -> TemplateOp:
    """The op with every node-hole anchor in canonical form."""
    return dataclasses.replace(op, **{
        name: NodeHole(ref.name, canonical_pattern(ref.anchor))
        for name, ref in vars(op).items()
        if isinstance(ref, NodeHole) and ref.anchor is not None})


def _node_value(ref: SubtreeRef, bindings: Bindings) -> int:
    if isinstance(ref, int):
        return ref
    value = bindings[ref.name]
    assert isinstance(value, int)  # _check_domains ran first
    return value


def _label_value(ref: LabelRef, bindings: Bindings) -> str:
    if isinstance(ref, str):
        return ref
    value = bindings[ref.name]
    assert isinstance(value, str)  # _check_domains ran first
    return value


def _guard_move(op: TemplateMove, bindings: Bindings,
                tree: DataTree) -> str | None:
    nid = _node_value(op.node, bindings)
    dest = _node_value(op.new_parent, bindings)
    if nid == tree.root:
        return "the root cannot be moved"
    if dest == nid or tree.is_ancestor(nid, dest):
        return (f"destination {dest} lies inside the moved subtree at "
                f"{nid}")
    return None


def _spine_matches(pattern: Pattern, path: tuple[str, ...]) -> bool:
    """Does the anchor's spine match a root path ending at the node?

    ``path`` is :meth:`~repro.trees.tree.DataTree.path_labels` — labels
    below the root down to the candidate node.  Child steps consume one
    edge, descendant steps any positive run, wildcards any label;
    predicates are ignored (documented guard semantics).  The match must
    place the pattern's *output* exactly at the path's end.
    """
    steps = canonical_pattern(pattern).steps
    positions = {-1}
    for step in steps:
        reached: set[int] = set()
        for at in positions:
            if step.axis is Axis.CHILD:
                nxt = at + 1
                if nxt < len(path) and (step.label is None
                                        or path[nxt] == step.label):
                    reached.add(nxt)
            else:
                for nxt in range(at + 1, len(path)):
                    if step.label is None or path[nxt] == step.label:
                        reached.add(nxt)
        if not reached:
            return False
        positions = reached
    return len(path) - 1 in positions


# ----------------------------------------------------------------------
# Bindings on the wire: a ``{name: value}`` JSON object
# ----------------------------------------------------------------------
bindings_to_wire, _decode_bindings = codec.derive(dict[str, Binding],
                                                  "bindings")


def bindings_from_wire(data: Any) -> dict[str, Binding]:
    """Decode :func:`bindings_to_wire`; anything but a JSON object of node
    ids and labels is a :class:`~repro.errors.CertifyError`."""
    try:
        bindings: dict[str, Binding] = _decode_bindings(data)
    except WireError as exc:
        raise CertifyError(f"bindings must map hole names to node ids or "
                           f"labels: {exc}") from None
    return bindings


# ----------------------------------------------------------------------
# Seeded instantiation sampler
# ----------------------------------------------------------------------
def sample_bindings(template: UpdateTemplate, tree: DataTree,
                    rng: random.Random, *,
                    attempts: int = 64) -> dict[str, Binding] | None:
    """A guard-passing, structurally-applicable binding on ``tree``.

    Draws hole values uniformly (labels from their domains, nodes from
    candidates passing the per-hole guard), then validates the whole
    binding by applying the instantiated sequence to a scratch copy —
    so a returned binding never trips a mid-template structural error
    (one removed subtree referenced by a later op, a move into its own
    subtree after an earlier relocation).  Returns ``None`` when no
    sample passes within ``attempts`` draws; deterministic for a given
    ``rng`` state.
    """
    candidates = _hole_candidates(template, tree)
    if candidates is None:
        return None
    for _ in range(max(1, attempts)):
        drawn: dict[str, Binding] = {
            name: options[rng.randrange(len(options))]
            for name, options in candidates.items()}
        if template.guard_errors(drawn, tree) is not None:
            continue
        if _applies_cleanly(template.instantiate(drawn), tree):
            return drawn
    return None


def _hole_candidates(template: UpdateTemplate, tree: DataTree
                     ) -> dict[str, list[Binding]] | None:
    """Per-hole candidate values on ``tree`` (``None`` = a hole is dry)."""
    out: dict[str, list[Binding]] = {}
    for hole in template.holes():
        options: list[Binding]
        if isinstance(hole, LabelHole):
            options = sorted(hole.domain)
        elif isinstance(hole, SubtreeHole):
            options = [nid for nid in tree.node_ids()
                       if nid != tree.root
                       and all(tree.label(m) in hole.labels
                               for m in tree.descendants(nid,
                                                         include_self=True))]
        else:
            options = [nid for nid in tree.node_ids()
                       if hole.anchor is None
                       or _spine_matches(hole.anchor, tree.path_labels(nid))]
        if not options:
            return None
        out[hole.name] = options
    return out


def _applies_cleanly(ops: tuple[UpdateOp, ...], tree: DataTree) -> bool:
    scratch = tree.copy()
    try:
        for op in ops:
            if isinstance(op, AddLeaf):
                scratch.add_child(op.parent, op.label)
            elif isinstance(op, Move):
                scratch.move(op.nid, op.new_parent)
            else:
                scratch.remove_subtree(op.nid)
    except TreeError:
        return False
    return True


__all__ = [
    "LabelHole", "NodeHole", "SubtreeHole", "Hole",
    "TemplateAdd", "TemplateMove", "TemplateRemove", "TemplateOp",
    "UpdateTemplate", "Binding", "Bindings",
    "bindings_to_wire", "bindings_from_wire", "sample_bindings",
]
