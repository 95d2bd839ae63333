"""Multi-document constraint service.

The serving layer over everything below it: register named documents and
named constraint sets once, then drive implication queries, instance
queries and live update-stream enforcement through one JSON-serialisable
request/response protocol.

>>> from repro import ConstraintService, DataTree
>>> from repro.stream import AddLeaf, RemoveSubtree
>>> svc = ConstraintService()
>>> doc = DataTree()
>>> patient = doc.add_child(doc.root, "patient")
>>> trial = doc.add_child(patient, "clinicalTrial")
>>> _ = svc.register_constraints("policy",
...                              [("/patient[/clinicalTrial]", "up")])
>>> _ = svc.register_document("ward", doc)
>>> stream = svc.enforcer("ward", "policy")
>>> stream.apply(AddLeaf(patient, "visit")).accepted
True
>>> stream.apply(RemoveSubtree(trial)).accepted
False

Components: :mod:`~repro.service.protocol` (the wire-level request and
response dataclasses, ``to_dict``/``from_dict`` round-trippable),
:mod:`~repro.service.store` (:class:`DocumentStore`),
:mod:`~repro.service.service` (:class:`ConstraintService`, which serves
every request kind itself), :mod:`~repro.service.async_service`
(:class:`AsyncService`, the ``asyncio`` front end that serves requests
in submission order, and :class:`RequestMethods`, the request
conveniences it shares with the socket client) and
:mod:`~repro.service.dispatch` (the session settings the store shares
with the legacy free functions).
"""

from repro.service.async_service import AsyncService
from repro.service.protocol import (
    Ack,
    CertifiedSubmit,
    ErrorResponse,
    FleetDecisions,
    FleetSubmit,
    ImplicationQuery,
    InstanceQuery,
    MetricsRequest,
    MetricsSnapshot,
    QueryAnswers,
    RegisterConstraints,
    RegisterDocument,
    RegisterTemplate,
    Request,
    Response,
    PROTOCOL_VERSION,
    StreamDecisions,
    StreamStatus,
    StreamSubmit,
    Verdict,
    WireDecision,
    WireEpoch,
    WireViolation,
    request_from_dict,
    request_from_json,
    response_checksum,
    response_from_dict,
    response_from_json,
)
from repro.service.service import ConstraintService
from repro.service.store import DocumentStore

__all__ = [
    "ConstraintService", "DocumentStore", "AsyncService",
    "Request", "RegisterConstraints", "RegisterDocument",
    "RegisterTemplate", "CertifiedSubmit",
    "ImplicationQuery", "InstanceQuery", "StreamSubmit", "StreamStatus",
    "FleetSubmit", "MetricsRequest", "PROTOCOL_VERSION",
    "Response", "Ack", "Verdict", "QueryAnswers", "MetricsSnapshot",
    "WireViolation", "WireDecision", "StreamDecisions", "ErrorResponse",
    "WireEpoch", "FleetDecisions",
    "request_from_dict", "request_from_json",
    "response_from_dict", "response_from_json", "response_checksum",
]
