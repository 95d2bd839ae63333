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

    def test_error_response_round_trips(self):
        err = ErrorResponse(error="ServiceError", message="boom",
                            details={"k": 1})
        assert response_from_dict(err.to_dict()) == err
