"""Hostile bytes at the wire boundary: every one becomes a typed error.

``handle_json`` / ``handle_dict`` are the service's byte boundary — the
same surface the socket server feeds — and the contract is absolute:
*no* input, however malformed, may raise.  Garbage becomes an
:class:`~repro.service.protocol.ErrorResponse` with a machine-readable
``error`` kind and a message naming what was wrong, and the service
remains fully usable afterwards.

The table below is the regression corpus: one row per distinct way a
client got the envelope wrong in anger.
"""

from __future__ import annotations

import json

import pytest

from repro.constraints import constraint_set
from repro.service.protocol import (
    ErrorResponse,
    RegisterConstraints,
    request_from_dict,
    response_from_dict,
)
from repro.service.service import ConstraintService

TREE = {"id": 1, "label": "root",
        "children": [{"id": 2, "label": "a", "children": []}]}
TEMPLATE = {"name": "t", "ops": [{"op": "add-leaf", "label": "visit",
                                  "parent": {"hole": "node", "name": "p"}}]}


#: A register-document whose tree nests 900 levels deep.
DEEP_TREE = ('{"request": "register-document", "name": "d", "tree": '
             + '{"id": 1, "label": "a", "children": [' * 900
             + '{"id": 0, "label": "a"}' + ']}' * 900 + '}')


def req(kind: str, **fields) -> str:
    return json.dumps({"request": kind, **fields})


def instance(**fields) -> str:
    return req("instance-implication", **{
        "constraints": "p", "document": "d", "conclusions": [], **fields})


BAD_PAYLOADS = [
    # (case id, raw JSON text, expected error kind, message fragment)
    ("not-json", "not json at all{{{", "ParseError", "bad JSON"),
    ("truncated-json", '{"request": "regi', "ParseError", "bad JSON"),
    ("json-array", "[1, 2, 3]", "ServiceError", "missing 'request' kind"),
    ("json-scalar", '"just a string"', "ServiceError", "missing 'request'"),
    ("json-number", "42", "ServiceError", "missing 'request'"),
    ("json-null", "null", "ServiceError", "missing 'request'"),
    ("empty-object", "{}", "ServiceError", "missing 'request' kind"),
    ("unknown-kind", '{"request": "no-such-kind"}',
     "ServiceError", "unknown request kind 'no-such-kind'"),
    ("kind-not-a-string", '{"request": 7}',
     "ServiceError", "unknown request kind"),
    ("missing-fields", '{"request": "register-constraints"}',
     "ServiceError", "malformed 'register-constraints'"),
    ("bad-constraint-type",
     '{"request": "register-constraints", "name": "p",'
     ' "constraints": [["/a", "bogus-type"]]}',
     "ServiceError", "bogus-type"),
    ("constraint-not-a-pair",
     '{"request": "register-constraints", "name": "p",'
     ' "constraints": [17]}',
     "ServiceError", "constraint"),
    ("unknown-op-kind",
     '{"request": "stream-submit", "document": "d", "constraints": "p",'
     ' "ops": [{"op": "warp-core"}]}',
     "ServiceError", "unknown stream operation"),
    ("op-missing-fields",
     '{"request": "stream-submit", "document": "d", "constraints": "p",'
     ' "ops": [{"op": "add-leaf"}]}',
     "ServiceError", "bad fields for stream op"),
    ("op-null-label",
     '{"request": "stream-submit", "document": "d", "constraints": "p",'
     ' "ops": [{"op": "add-leaf", "parent": 5, "label": null}]}',
     "ServiceError", "'label' must be a string"),
    ("op-bool-node-id",
     '{"request": "stream-submit", "document": "d", "constraints": "p",'
     ' "ops": [{"op": "remove-subtree", "nid": true}]}',
     "ServiceError", "'nid' must be an int"),
    ("op-not-an-object",
     '{"request": "stream-submit", "document": "d", "constraints": "p",'
     ' "ops": ["add-leaf"]}',
     "ServiceError", "stream"),
    ("status-missing-document", '{"request": "stream-status"}',
     "ServiceError", "malformed 'stream-status'"),
    ("document-tree-garbage",
     '{"request": "register-document", "name": "d", "tree": 9}',
     "ServiceError", "malformed 'register-document'"),
    # Name fields are strings: a list or dict is refused at decode, not
    # left to raise TypeError from a dict lookup inside a handler.
    ("implication-list-set-name",
     req("implication", constraints=["x"], conclusions=[]),
     "ServiceError", "'constraints' must be a string"),
    ("register-constraints-list-name",
     req("register-constraints", name=["x"], constraints=[]),
     "ServiceError", "'name' must be a string"),
    ("register-document-list-name",
     req("register-document", name=["x"], tree=TREE),
     "ServiceError", "'name' must be a string"),
    ("register-template-list-name",
     req("register-template", name=["x"], template=TEMPLATE,
         constraints="p"),
     "ServiceError", "'name' must be a string"),
    ("register-template-dict-set-name",
     req("register-template", name="t", template=TEMPLATE,
         constraints={"x": 1}),
     "ServiceError", "'constraints' must be a string"),
    ("stream-submit-list-document",
     req("stream-submit", document=["x"], constraints="p", ops=[]),
     "ServiceError", "'document' must be a string"),
    ("stream-submit-dict-set-name",
     req("stream-submit", document="d", constraints={"x": 1}, ops=[]),
     "ServiceError", "'constraints' must be a string"),
    ("stream-status-list-document", req("stream-status", document=["x"]),
     "ServiceError", "'document' must be a string"),
    ("instance-list-document", instance(document=["x"]),
     "ServiceError", "'document' must be a string"),
    ("certified-submit-list-template",
     req("certified-submit", document="d", constraints="p", template=["x"],
         bindings={}),
     "ServiceError", "'template' must be a string"),
    ("fleet-submit-list-member",
     req("fleet-submit", documents=["d", ["x"]], constraints="p",
         epochs=[]),
     "ServiceError", "'documents' must be a string"),
    # Containers are typed too: a string is not a list of one-character
    # names.
    ("fleet-submit-string-documents",
     req("fleet-submit", documents="abc", constraints="p", epochs=[]),
     "ServiceError", "'documents' must be a list of names"),
    # An older client's "backend" is ignored like any unknown key, even
    # when it is garbage: the request fails on its own fault.
    ("fleet-submit-list-backend",
     req("fleet-submit", documents=[], constraints="p", epochs=[],
         backend=["x"]),
     "ServiceError", "at least one document"),
    # Epochs are lists of [document, ops] pairs.
    ("fleet-submit-epoch-entry-not-a-pair",
     req("fleet-submit", documents=["d"], constraints="p",
         epochs=[[["d"]]]),
     "ServiceError", "malformed 'fleet-submit'"),
    ("fleet-submit-list-epoch-document",
     req("fleet-submit", documents=["d"], constraints="p",
         epochs=[[[["x"], []]]]),
     "ServiceError", "'epochs' must be a string"),
    ("fleet-submit-unknown-epoch-op",
     req("fleet-submit", documents=["d"], constraints="p",
         epochs=[[["d", [{"op": "warp-core"}]]]]),
     "ServiceError", "unknown stream operation"),
    ("fleet-submit-missing-epochs",
     req("fleet-submit", documents=["d"], constraints="p"),
     "ServiceError", "malformed 'fleet-submit'"),
    # Bindings are a JSON object: a list once raised AttributeError in
    # the decoder and killed the socket connection carrying it.
    ("certified-submit-list-bindings",
     req("certified-submit", document="d", constraints="p", template="t",
         bindings=[["p", 5]]),
     "ServiceError", "bindings must be a JSON object"),
    # Flags are JSON booleans: a string "false" must not read as true.
    ("register-document-string-replace",
     req("register-document", name="d", tree=TREE, replace="false"),
     "ServiceError", "'replace' must be a boolean"),
    ("register-constraints-int-replace",
     req("register-constraints", name="p", constraints=[], replace=0),
     "ServiceError", "'replace' must be a boolean"),
    ("implication-int-fail-fast",
     req("implication", constraints="p", conclusions=[], fail_fast=1),
     "ServiceError", "'fail_fast' must be a boolean"),
    ("instance-string-require-decision", instance(require_decision="yes"),
     "ServiceError", "'require_decision' must be a boolean"),
    # Search knobs are non-negative ints, never bool or a coerced value.
    ("max-moves-string", instance(max_moves="2"),
     "ServiceError", "'max_moves' must be a non-negative int"),
    ("max-moves-bool", instance(max_moves=True),
     "ServiceError", "'max_moves' must be a non-negative int"),
    ("max-moves-float", instance(max_moves=1.5),
     "ServiceError", "'max_moves' must be a non-negative int"),
    ("max-moves-negative", instance(max_moves=-3),
     "ServiceError", "'max_moves' must be a non-negative int"),
    ("search-budget-string", instance(search_budget="5000"),
     "ServiceError", "'search_budget' must be a non-negative int"),
    ("search-budget-bool", instance(search_budget=False),
     "ServiceError", "'search_budget' must be a non-negative int"),
    ("search-budget-negative", instance(search_budget=-1),
     "ServiceError", "'search_budget' must be a non-negative int"),
    # Nesting deeper than the JSON decoder's stack is bad JSON, not a
    # RecursionError out of handle_json.
    ("deeply-nested-tree", DEEP_TREE, "ParseError", "bad JSON"),
    # Template ops are objects: these once raised AttributeError out of
    # handle_json (an internal error on the socket).
    ("template-ops-string",
     req("register-template", name="t", constraints="p",
         template={"name": "t", "ops": "ab"}),
     "ServiceError", "'ops' must be a list"),
    ("template-op-int",
     req("register-template", name="t", constraints="p",
         template={"name": "t", "ops": [5]}),
     "ServiceError", "'ops' must be a template op object"),
    ("template-op-int-tag",
     req("register-template", name="t", constraints="p",
         template={"name": "t", "ops": [{"op": 1}]}),
     "ServiceError", "unknown template op 1"),
    # Tree nodes have int ids and string labels: a list label was once
    # acknowledged and journaled, and every later query on the document
    # raised TypeError.
    ("tree-list-label",
     req("register-document", name="d",
         tree={"id": 1, "label": ["x"], "children": []}),
     "ServiceError", "'tree': a tree node needs"),
    ("tree-bool-id",
     req("register-document", name="d",
         tree={"id": True, "label": "r", "children": []}),
     "ServiceError", "'tree': a tree node needs"),
    ("tree-float-id",
     req("register-document", name="d",
         tree={"id": 1, "label": "r",
               "children": [{"id": 2.5, "label": "a"}]}),
     "ServiceError", "'tree': a tree node needs"),
    ("tree-int-label",
     req("register-document", name="d",
         tree={"id": 1, "label": "r", "children": [{"id": 2, "label": 5}]}),
     "ServiceError", "'tree': a tree node needs"),
    # Template declarations are refused, never coerced into another one.
    ("template-int-name",
     req("register-template", name="t", constraints="p",
         template={**TEMPLATE, "name": 7}),
     "ServiceError", "'name' must be a string, got 7"),
    ("template-list-hole-name",
     req("register-template", name="t", constraints="p",
         template={"name": "t", "ops": [{
             "op": "add-leaf", "parent": 1,
             "label": {"hole": "label", "name": ["x"], "domain": ["a"]}}]}),
     "ServiceError", "'name' must be a string, got ['x']"),
    ("template-string-domain",
     req("register-template", name="t", constraints="p",
         template={"name": "t", "ops": [{
             "op": "add-leaf", "parent": 1,
             "label": {"hole": "label", "name": "l", "domain": "abc"}}]}),
     "ServiceError", "'domain' must be a list of names"),
    ("template-string-subtree-labels",
     req("register-template", name="t", constraints="p",
         template={"name": "t", "ops": [{
             "op": "remove-subtree",
             "node": {"hole": "subtree", "name": "s", "labels": "ab"}}]}),
     "ServiceError", "'labels' must be a list of names"),
    ("register-constraints-object-constraints",
     req("register-constraints", name="p", constraints={}),
     "ServiceError", "'constraints' must be a list"),
]


@pytest.fixture(scope="module")
def service():
    return ConstraintService()


class TestHandleJsonNeverRaises:
    @pytest.mark.parametrize(
        "payload,error,fragment",
        [case[1:] for case in BAD_PAYLOADS],
        ids=[case[0] for case in BAD_PAYLOADS])
    def test_garbage_in_typed_error_out(self, service, payload, error,
                                        fragment):
        reply = json.loads(service.handle_json(payload))
        assert reply["response"] == "error"
        assert reply["error"] == error
        assert fragment in reply["message"]

    def test_the_service_survives_the_whole_corpus(self, service):
        """After every row of garbage, normal service resumes untouched."""
        for _, payload, _, _ in BAD_PAYLOADS:
            service.handle_json(payload)
        policy = constraint_set(("/patient[/clinicalTrial]", "up"))
        reply = json.loads(service.handle_json(json.dumps(
            RegisterConstraints("p", tuple(policy)).to_dict())))
        assert reply["response"] == "ack"
        assert reply["registered"] == "constraints"
        assert (reply["name"], reply["size"]) == ("p", 1)


def test_refused_string_replace_leaves_the_document_registered():
    """``"replace": "false"`` once read as true and swapped the document."""
    svc = ConstraintService()
    svc.register_document("d", {"id": 1, "label": "root", "children": []})
    original = svc.store.document("d")
    reply = json.loads(svc.handle_json(
        req("register-document", name="d", tree=TREE, replace="false")))
    assert reply["response"] == "error"
    assert svc.store.document("d") is original
    assert original.size == 1


class TestDictBoundary:
    """The dict-level twin used in-process (and by the async service)."""

    def test_non_dict_payloads_error_cleanly(self, service):
        for payload in ([1], "x", 3.5, None, True):
            reply = service.handle_dict(payload)
            assert reply["response"] == "error"

    def test_request_from_dict_raises_only_repro_errors(self):
        from repro.errors import ReproError
        for payload in ({}, {"request": "nope"}, {"request": ["a"]},
                        {"request": "stream-submit", "ops": "zzz"}, []):
            with pytest.raises(ReproError):
                request_from_dict(payload)

    def test_response_from_dict_rejects_garbage_symmetrically(self):
        from repro.errors import ReproError
        for payload in ({}, {"response": "no-such"}, {"response": None},
                        {"response": "decisions"}, 7):
            with pytest.raises(ReproError):
                response_from_dict(payload)

    def test_response_flags_are_booleans(self):
        """``"accepted": "false"`` once decoded as an accepted decision."""
        from repro.errors import ServiceError
        decision = {"seq": 0, "op": {"op": "commit"}, "accepted": "false"}
        with pytest.raises(ServiceError, match="'accepted' must be a boolean"):
            response_from_dict({"response": "decisions",
                                "decisions": [decision]})

    def test_error_response_round_trips(self):
        err = ErrorResponse(error="ServiceError", message="boom",
                            details={"k": 1})
        assert response_from_dict(err.to_dict()) == err
