"""Serialization of data trees.

Three interchange forms are supported:

* the compact literal of :mod:`repro.trees.builders` (``to_literal``),
* nested dictionaries (``to_dict`` / ``from_dict``), the one tree codec of
  the wire and the journal (:mod:`repro.codec`); a malformed node is
  refused, never coerced,
* a minimal XML rendering (``to_xml``) in which node identifiers are emitted
  as ``id`` attributes — mirroring how the paper encodes identifiers when
  translating to regular key constraints (Example 3.1) and XICs
  (Example 3.2).
"""

from __future__ import annotations

from typing import Any

from repro.errors import WireError
from repro.trees.tree import DataTree


def to_literal(tree: DataTree, with_ids: bool = False) -> str:
    """Render as the compact literal accepted by ``parse_tree``."""

    def render(nid: int) -> str:
        tag = tree.label(nid) + (f"#{nid}" if with_ids else "")
        kids = tree.children(nid)
        if not kids:
            return tag
        return tag + "(" + ", ".join(render(k) for k in kids) + ")"

    tops = tree.children(tree.root)
    return ", ".join(render(t) for t in tops)


def to_dict(tree: DataTree, nid: int | None = None) -> dict[str, Any]:
    """Nested-dictionary form: ``{"id", "label", "children"}``."""
    nid = tree.root if nid is None else nid
    return {
        "id": nid,
        "label": tree.label(nid),
        "children": [to_dict(tree, c) for c in tree.children(nid)],
    }


def from_dict(data: Any) -> DataTree:
    """Rebuild a tree from its nested-dictionary form: each node an object
    with an int ``id``, a string ``label`` and a list of ``children``
    (optional); otherwise a :class:`~repro.errors.WireError`."""
    label, nid, kids = _node(data)
    tree = DataTree(label, root_id=nid)

    def attach(parent: int, kids: list[Any]) -> None:
        for kid in kids:
            label, nid, grandkids = _node(kid)
            attach(tree.add_child(parent, label, nid=nid), grandkids)

    attach(tree.root, kids)
    return tree


def _node(spec: Any) -> tuple[str, int, list[Any]]:
    """One node's ``(label, id, children)``, type-checked."""
    if spec.__class__ is dict:
        nid, label, kids = spec.get("id"), spec.get("label"), spec.get("children", [])
        if nid.__class__ is int and label.__class__ is str and kids.__class__ is list:
            return label, nid, kids
    raise WireError(f"a tree node needs an int 'id', a string 'label' and a "
                    f"list of 'children', got {spec!r:.80}")


def to_xml(tree: DataTree, nid: int | None = None, indent: int = 0) -> str:
    """Minimal XML rendering with ``id`` attributes."""
    nid = tree.root if nid is None else nid
    pad = "  " * indent
    label = tree.label(nid)
    kids = tree.children(nid)
    if not kids:
        return f'{pad}<{label} id="{nid}"/>'
    inner = "\n".join(to_xml(tree, c, indent + 1) for c in kids)
    return f'{pad}<{label} id="{nid}">\n{inner}\n{pad}</{label}>'
