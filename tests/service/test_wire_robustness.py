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
]


@pytest.fixture(scope="module")
def service():
    svc = ConstraintService()
    yield svc
    svc.close()


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
