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

Templates are frozen, hashable, and wire-codable (patterns travel as
XPath text, holes as tagged dicts), with a canonical form mirroring
:func:`repro.xpath.canonical.canonical_pattern` so equal programs compare
and key equal, plus a seeded instantiation sampler for tests and
benchmarks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Union
from collections.abc import Iterator, Mapping

from repro.errors import CertifyError, TreeError
from repro.stream.ops import AddLeaf, Move, RemoveSubtree, UpdateOp
from repro.trees.tree import DataTree
from repro.xpath.ast import Axis, Pattern
from repro.xpath.canonical import canonical_pattern
from repro.xpath.parser import parse


# ----------------------------------------------------------------------
# Holes
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LabelHole:
    """A label position filled from a finite ``domain`` of labels."""

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
class NodeHole:
    """A node position; ``anchor`` optionally constrains the bound node.

    The guard accepts a binding only when the node's root path matches
    the anchor's spine (child steps consume one edge, descendant steps
    any positive run; predicates are **not** evaluated — the anchor is a
    cheap structural precondition, never a certification premise).
    """

    name: str
    anchor: Pattern | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise CertifyError("a hole needs a non-empty name")

    def __str__(self) -> str:
        if self.anchor is None:
            return f"?{self.name}"
        return f"?{self.name}@{self.anchor}"


@dataclass(frozen=True)
class SubtreeHole:
    """A subtree position whose labels are promised to lie in ``labels``.

    The guard walks the bound subtree and rejects any node labelled
    outside the declared set — this bound is what lets the certifier
    discharge moves and removes by label-disjointness, so it is a
    **soundness-bearing** check, not advice.
    """

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
@dataclass(frozen=True)
class TemplateAdd:
    """``AddLeaf(parent, label)`` with holes allowed in both positions."""

    parent: NodeRef
    label: LabelRef

    def __str__(self) -> str:
        return f"add-leaf {self.label} under {_show_ref(self.parent)}"


@dataclass(frozen=True)
class TemplateMove:
    """``Move(node, new_parent)`` with holes allowed in both positions."""

    node: SubtreeRef
    new_parent: NodeRef

    def __str__(self) -> str:
        return f"move {_show_ref(self.node)} under {_show_ref(self.new_parent)}"


@dataclass(frozen=True)
class TemplateRemove:
    """``RemoveSubtree(node)`` with a hole allowed in the position."""

    node: SubtreeRef

    def __str__(self) -> str:
        return f"remove-subtree {_show_ref(self.node)}"


TemplateOp = Union[TemplateAdd, TemplateMove, TemplateRemove]


def _show_ref(ref: NodeRef | SubtreeRef | LabelRef) -> str:
    return f"#{ref}" if isinstance(ref, int) else str(ref)


def _iter_op_holes(op: TemplateOp) -> Iterator[Hole]:
    if isinstance(op, TemplateAdd):
        if isinstance(op.parent, NodeHole):
            yield op.parent
        if isinstance(op.label, LabelHole):
            yield op.label
    elif isinstance(op, TemplateMove):
        if isinstance(op.node, (NodeHole, SubtreeHole)):
            yield op.node
        if isinstance(op.new_parent, NodeHole):
            yield op.new_parent
    else:
        if isinstance(op.node, (NodeHole, SubtreeHole)):
            yield op.node


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
        """A hashable structural identity (name + canonical op shapes)."""
        return (self.name,
                tuple(_key_of_op(op) for op in self.canonical().ops))

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
        return {"name": self.name,
                "ops": [_op_to_dict(op) for op in self.ops]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "UpdateTemplate":
        try:
            name = data["name"]
            ops = tuple(_op_from_dict(d) for d in data["ops"])
        except (KeyError, TypeError) as exc:
            raise CertifyError(
                f"bad template wire form {data!r}: {exc}") from None
        return cls(str(name), ops)

    def __str__(self) -> str:
        body = "; ".join(str(op) for op in self.ops)
        return f"template {self.name}[{body}]"


def _canonical_op(op: TemplateOp) -> TemplateOp:
    if isinstance(op, TemplateAdd):
        return TemplateAdd(_canonical_ref(op.parent), op.label)
    if isinstance(op, TemplateMove):
        return TemplateMove(_canonical_ref(op.node),
                            _canonical_ref(op.new_parent))
    return TemplateRemove(_canonical_ref(op.node))


def _canonical_ref(ref: SubtreeRef) -> SubtreeRef:
    if isinstance(ref, NodeHole) and ref.anchor is not None:
        canon = canonical_pattern(ref.anchor)
        if canon != ref.anchor:
            return NodeHole(ref.name, canon)
    return ref


def _key_of_ref(ref: SubtreeRef | LabelRef) -> tuple[Any, ...]:
    if isinstance(ref, int):
        return ("node", ref)
    if isinstance(ref, str):
        return ("label", ref)
    if isinstance(ref, LabelHole):
        return ("label-hole", ref.name, tuple(sorted(ref.domain)))
    if isinstance(ref, SubtreeHole):
        return ("subtree-hole", ref.name, tuple(sorted(ref.labels)))
    anchor = None if ref.anchor is None else str(ref.anchor)
    return ("node-hole", ref.name, anchor)


def _key_of_op(op: TemplateOp) -> tuple[Any, ...]:
    if isinstance(op, TemplateAdd):
        return ("add-leaf", _key_of_ref(op.parent), _key_of_ref(op.label))
    if isinstance(op, TemplateMove):
        return ("move", _key_of_ref(op.node), _key_of_ref(op.new_parent))
    return ("remove-subtree", _key_of_ref(op.node))


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
# Wire helpers (ops and holes as tagged dicts)
# ----------------------------------------------------------------------
def _ref_to_wire(ref: SubtreeRef | LabelRef) -> Any:
    if isinstance(ref, (int, str)):
        return ref
    if isinstance(ref, LabelHole):
        return {"hole": "label", "name": ref.name,
                "domain": sorted(ref.domain)}
    if isinstance(ref, SubtreeHole):
        return {"hole": "subtree", "name": ref.name,
                "labels": sorted(ref.labels)}
    data: dict[str, Any] = {"hole": "node", "name": ref.name}
    if ref.anchor is not None:
        data["anchor"] = str(ref.anchor)
    return data


def _node_ref_from_wire(data: Any) -> NodeRef:
    ref = _ref_from_wire(data)
    if isinstance(ref, int) or isinstance(ref, NodeHole):
        return ref
    raise CertifyError(f"expected a node position, got {data!r}")


def _subtree_ref_from_wire(data: Any) -> SubtreeRef:
    ref = _ref_from_wire(data)
    if isinstance(ref, (int, NodeHole, SubtreeHole)):
        return ref
    raise CertifyError(f"expected a subtree position, got {data!r}")


def _label_ref_from_wire(data: Any) -> LabelRef:
    ref = _ref_from_wire(data)
    if isinstance(ref, (str, LabelHole)):
        return ref
    raise CertifyError(f"expected a label position, got {data!r}")


def _ref_from_wire(data: Any) -> SubtreeRef | LabelRef:
    if isinstance(data, bool):
        raise CertifyError(f"bad template position {data!r}")
    if isinstance(data, int):
        return data
    if isinstance(data, str):
        return data
    if not isinstance(data, Mapping):
        raise CertifyError(f"bad template position {data!r}")
    kind = data.get("hole")
    try:
        if kind == "label":
            return LabelHole(str(data["name"]),
                             frozenset(str(s) for s in data["domain"]))
        if kind == "subtree":
            return SubtreeHole(str(data["name"]),
                               frozenset(str(s) for s in data["labels"]))
        if kind == "node":
            anchor = data.get("anchor")
            return NodeHole(str(data["name"]),
                            None if anchor is None else parse(str(anchor)))
    except (KeyError, TypeError) as exc:
        raise CertifyError(f"bad hole wire form {data!r}: {exc}") from None
    raise CertifyError(f"unknown hole kind {kind!r} in {data!r}")


def _op_to_dict(op: TemplateOp) -> dict[str, Any]:
    if isinstance(op, TemplateAdd):
        return {"op": "add-leaf", "parent": _ref_to_wire(op.parent),
                "label": _ref_to_wire(op.label)}
    if isinstance(op, TemplateMove):
        return {"op": "move", "node": _ref_to_wire(op.node),
                "new_parent": _ref_to_wire(op.new_parent)}
    return {"op": "remove-subtree", "node": _ref_to_wire(op.node)}


def _op_from_dict(data: Mapping[str, Any]) -> TemplateOp:
    tag = data.get("op")
    try:
        if tag == "add-leaf":
            return TemplateAdd(_node_ref_from_wire(data["parent"]),
                               _label_ref_from_wire(data["label"]))
        if tag == "move":
            return TemplateMove(_subtree_ref_from_wire(data["node"]),
                                _node_ref_from_wire(data["new_parent"]))
        if tag == "remove-subtree":
            return TemplateRemove(_subtree_ref_from_wire(data["node"]))
    except KeyError as exc:
        raise CertifyError(
            f"bad template op wire form {data!r}: missing {exc}") from None
    raise CertifyError(f"unknown template op tag {tag!r}")


# ----------------------------------------------------------------------
# Bindings on the wire
# ----------------------------------------------------------------------
def bindings_to_wire(bindings: Bindings) -> dict[str, Binding]:
    """A binding as a plain ``{name: value}`` JSON object."""
    return {str(name): value for name, value in sorted(bindings.items())}


def bindings_from_wire(data: Mapping[str, Any]) -> dict[str, Binding]:
    """Decode :func:`bindings_to_wire`; anything but a JSON object of node
    ids and labels is a :class:`~repro.errors.CertifyError`."""
    if not isinstance(data, Mapping):
        raise CertifyError(f"bindings must be a JSON object of hole "
                           f"values, got {data!r}")
    out: dict[str, Binding] = {}
    for name, value in data.items():
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise CertifyError(f"binding {name!r} carries {value!r}; hole "
                               "values are node ids or labels")
        out[str(name)] = value
    return out


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
