"""Fuzzing the byte boundary: mutated requests never get past decoding.

One valid request of each of the ten kinds is mutated — a key dropped, a
value anywhere replaced by a value of another JSON type, a value wrapped
in a list — and sent through :meth:`ConstraintService.handle_json` on a
freshly seeded service.  Whatever comes in:

* exactly one JSON response comes back, and nothing is raised;
* an error leaves the store's documents, constraint sets and templates
  unchanged;
* after an accepted request, the service still answers a fixed probe —
  ``stream-status``, a one-op ``stream-submit`` and an
  ``instance-implication`` on every document — without raising.

Every single mutation is swept once; Hypothesis then stacks several.
"""

from __future__ import annotations

import copy
import json

from hypothesis import given, settings, strategies as st

from repro.service.service import ConstraintService
from repro.trees import serialize

TREE = {"id": 1, "label": "root", "children": [
    {"id": 2, "label": "patient", "children": [
        {"id": 3, "label": "visit", "children": []}]}]}
TEMPLATE = {"name": "t", "ops": [{
    "op": "add-leaf", "label": {"hole": "label", "name": "l", "domain": ["note"]},
    "parent": {"hole": "node", "name": "p", "anchor": "/patient"}}]}
CONCLUSIONS = [["/patient", "no-remove"]]
VALID = [
    {"request": "register-constraints", "name": "q",
     "constraints": [["/patient[/visit]", "no-insert"]], "replace": False},
    {"request": "register-document", "name": "e", "tree": TREE,
     "replace": False},
    {"request": "register-template", "name": "u", "template": TEMPLATE,
     "constraints": "p", "replace": False},
    {"request": "implication", "constraints": "p",
     "conclusions": CONCLUSIONS, "fail_fast": False,
     "require_decision": False},
    {"request": "instance-implication", "constraints": "p", "document": "d",
     "conclusions": CONCLUSIONS, "fail_fast": False,
     "require_decision": False, "max_moves": 1, "search_budget": 20},
    {"request": "stream-submit", "document": "d", "constraints": "p", "ops": [
        {"op": "begin", "name": "b"},
        {"op": "add-leaf", "parent": 2, "label": "note", "nid": 50},
        {"op": "move", "nid": 3, "new_parent": 1},
        {"op": "remove-subtree", "nid": 50}, {"op": "commit"}]},
    {"request": "stream-status", "document": "d"},
    {"request": "certified-submit", "document": "d", "constraints": "p",
     "template": "t", "bindings": {"p": 2, "l": "note"}},
    {"request": "fleet-submit", "documents": ["f1", "f2"], "constraints": "p",
     "epochs": [[["f1", [{"op": "add-leaf", "parent": 2, "label": "note"}]]]]},
    {"request": "metrics"},
]
OTHER_JSON = ["x", 7, True, 2.5, None, ["x"], {"x": 1}]


def send(svc: ConstraintService, payload) -> dict:
    reply = json.loads(svc.handle_json(json.dumps(payload)))
    assert isinstance(reply, dict) and "response" in reply
    return reply


def seeded() -> ConstraintService:
    svc = ConstraintService()
    send(svc, {"request": "register-constraints", "name": "p",
               "constraints": [["/patient[/visit]", "no-insert"]]})
    for doc in ("d", "f1", "f2"):
        send(svc, {"request": "register-document", "name": doc, "tree": TREE})
    send(svc, {"request": "register-template", "name": "t",
               "template": TEMPLATE, "constraints": "p"})
    return svc


def state(svc: ConstraintService) -> tuple:
    store = svc.store
    return ({doc: serialize.to_dict(store.document(doc))
             for doc in store.documents()},
            {name: [str(c) for c in store.constraints(name)]
             for name in store.constraint_sets()},
            sorted(store.templates()))


def check(payload) -> None:
    svc = seeded()
    before = state(svc)
    reply = send(svc, payload)
    if reply["response"] == "error":
        assert state(svc) == before, reply
        return
    for doc in svc.store.documents():
        send(svc, {"request": "stream-status", "document": doc})
        send(svc, {"request": "stream-submit", "document": doc,
                   "constraints": "p",
                   "ops": [{"op": "add-leaf", "parent": 1, "label": "z"}]})
        send(svc, {"request": "instance-implication", "constraints": "p",
                   "document": doc, "conclusions": CONCLUSIONS,
                   "max_moves": 0})


def paths(value, at=()):
    yield at
    children = (value.items() if isinstance(value, dict)
                else enumerate(value) if isinstance(value, list) else ())
    for key, child in children:
        yield from paths(child, at + (key,))


def mutate(value, at: tuple, how):
    """``value`` with the node at path ``at`` replaced by ``how(node)``
    (or dropped, when ``how`` is ``None``)."""
    if not at:
        return how(value) if how is not None else {}
    value = copy.deepcopy(value)
    parent = value
    for key in at[:-1]:
        parent = parent[key]
    if how is None:
        del parent[at[-1]]
    else:
        parent[at[-1]] = how(parent[at[-1]])
    return value


def mutations(at: tuple):
    if at and not isinstance(at[-1], int):
        yield None
    for other in OTHER_JSON:
        yield lambda _, other=other: copy.deepcopy(other)
    yield lambda node: [node]


def test_every_single_mutation_is_refused_or_served():
    for request in VALID:
        for at in list(paths(request)):
            for how in mutations(at):
                check(mutate(request, at, how))


@st.composite
def mutated(draw):
    value = draw(st.sampled_from(VALID))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.sampled_from(list(paths(value))))
        how = draw(st.sampled_from(list(mutations(at))))
        value = mutate(value, at, how)
    return value


@settings(max_examples=150, deadline=None)
@given(mutated())
def test_stacked_mutations_are_refused_or_served(payload):
    check(payload)
