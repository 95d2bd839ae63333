"""The wire-level request/response protocol of the constraint service.

Every interaction with a :class:`~repro.service.service.ConstraintService`
— registering documents and compiled constraint sets, implication and
instance-based queries, update-stream enforcement — is one
:class:`Request` answered by one :class:`Response`.  Both sides are frozen
dataclasses holding *live* objects (patterns, trees, ops), with a
JSON-safe dict form via ``to_dict`` / ``from_dict``:

* constraint ranges travel as their XPath text (``str(pattern)`` parses
  back to an equal canonical form);
* documents travel in the nested-dict interchange form of
  :mod:`repro.trees.serialize` (node identifiers preserved);
* update logs travel through :func:`repro.stream.ops.op_to_dict`.

The dict forms are stable across processes — ``request_from_dict(
request.to_dict())`` rebuilds an equivalent request anywhere (the socket
server and the durable journal rely on this), and
:func:`response_checksum` folds a response's wire form into one integer so
two serving paths' answer streams can be compared wholesale.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any

from repro.certify.templates import (
    UpdateTemplate,
    bindings_from_wire,
    bindings_to_wire,
)
from repro.constraints.model import ConstraintType, UpdateConstraint
from repro.constraints.validity import Violation
from repro.errors import CertifyError, ServiceError
from repro.implication.result import ImplicationResult
from repro.stream.log import Decision
from repro.stream.ops import StreamOp, op_from_dict, op_to_dict
from repro.trees import serialize
from repro.trees.tree import DataTree
from repro.xpath.parser import parse

#: Version of the request/response wire protocol.  The socket front end
#: (:mod:`repro.server`) sends it in its hello frame and rejects clients
#: that expect a different one; bump on any incompatible change to the
#: dict forms below.
PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Constraint wire form
# ----------------------------------------------------------------------
def constraint_to_wire(constraint: UpdateConstraint) -> list:
    """``(q, σ)`` as ``[xpath_text, type_value]``."""
    return [str(constraint.range), constraint.type.value]


def constraint_from_wire(pair) -> UpdateConstraint:
    try:
        text, kind = pair
        return UpdateConstraint(parse(text), ConstraintType(kind))
    except (TypeError, ValueError) as exc:
        raise ServiceError(f"bad constraint wire form {pair!r}: {exc}") from None


# ----------------------------------------------------------------------
# Typed scalar fields (a bad value is refused, never coerced)
# ----------------------------------------------------------------------
def _name(value: Any, field_name: str) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{field_name!r} must be a string, got {value!r}")
    return value


def _flag(data: dict, field_name: str) -> bool:
    value = data.get(field_name, False)
    if not isinstance(value, bool):
        raise ValueError(f"{field_name!r} must be a boolean, got {value!r}")
    return value


def _count(data: dict, field_name: str, default: int) -> int:
    value = data.get(field_name, default)
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise ValueError(f"{field_name!r} must be a non-negative int, "
                         f"got {value!r}")
    return value


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class Request:
    """Base of the request union; concrete kinds register themselves."""

    kind = ""

    def to_dict(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: dict) -> "Request":  # pragma: no cover - abstract
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class RegisterConstraints(Request):
    """Name a constraint set; the service compiles it once, on first use."""

    kind = "register-constraints"

    name: str
    constraints: tuple[UpdateConstraint, ...]
    replace: bool = False

    def to_dict(self) -> dict:
        return {"request": self.kind, "name": self.name,
                "constraints": [constraint_to_wire(c) for c in self.constraints],
                "replace": self.replace}

    @classmethod
    def from_dict(cls, data: dict) -> "RegisterConstraints":
        return cls(name=_name(data["name"], "name"),
                   constraints=tuple(constraint_from_wire(pair)
                                     for pair in data["constraints"]),
                   replace=_flag(data, "replace"))


@dataclass(frozen=True)
class RegisterDocument(Request):
    """Adopt a document under a name (instance queries + enforcement)."""

    kind = "register-document"

    name: str
    tree: DataTree
    replace: bool = False

    def to_dict(self) -> dict:
        return {"request": self.kind, "name": self.name,
                "tree": serialize.to_dict(self.tree), "replace": self.replace}

    @classmethod
    def from_dict(cls, data: dict) -> "RegisterDocument":
        return cls(name=_name(data["name"], "name"),
                   tree=serialize.from_dict(data["tree"]),
                   replace=_flag(data, "replace"))


@dataclass(frozen=True)
class ImplicationQuery(Request):
    """``C ⊨ c?`` for a batch of conclusions against a named set (Table 1)."""

    kind = "implication"

    constraints: str
    conclusions: tuple[UpdateConstraint, ...]
    fail_fast: bool = False
    require_decision: bool = False

    def to_dict(self) -> dict:
        return {"request": self.kind, "constraints": self.constraints,
                "conclusions": [constraint_to_wire(c) for c in self.conclusions],
                "fail_fast": self.fail_fast,
                "require_decision": self.require_decision}

    @classmethod
    def from_dict(cls, data: dict) -> "ImplicationQuery":
        return cls(constraints=_name(data["constraints"], "constraints"),
                   conclusions=tuple(constraint_from_wire(pair)
                                     for pair in data["conclusions"]),
                   fail_fast=_flag(data, "fail_fast"),
                   require_decision=_flag(data, "require_decision"))


@dataclass(frozen=True)
class InstanceQuery(Request):
    """``C ⊨_J c?`` against a named document's current state (Table 2)."""

    kind = "instance-implication"

    constraints: str
    document: str
    conclusions: tuple[UpdateConstraint, ...]
    fail_fast: bool = False
    require_decision: bool = False
    max_moves: int = 2
    search_budget: int = 5000

    def to_dict(self) -> dict:
        return {"request": self.kind, "constraints": self.constraints,
                "document": self.document,
                "conclusions": [constraint_to_wire(c) for c in self.conclusions],
                "fail_fast": self.fail_fast,
                "require_decision": self.require_decision,
                "max_moves": self.max_moves,
                "search_budget": self.search_budget}

    @classmethod
    def from_dict(cls, data: dict) -> "InstanceQuery":
        return cls(constraints=_name(data["constraints"], "constraints"),
                   document=_name(data["document"], "document"),
                   conclusions=tuple(constraint_from_wire(pair)
                                     for pair in data["conclusions"]),
                   fail_fast=_flag(data, "fail_fast"),
                   require_decision=_flag(data, "require_decision"),
                   max_moves=_count(data, "max_moves", 2),
                   search_budget=_count(data, "search_budget", 5000))


@dataclass(frozen=True)
class StreamSubmit(Request):
    """Enforce a slice of an update log against a named document.

    The first submission for a document opens its enforcement stream
    under the named policy; later submissions must name the same policy
    (one live stream per document).
    """

    kind = "stream-submit"

    document: str
    constraints: str
    ops: tuple[StreamOp, ...]

    def to_dict(self) -> dict:
        return {"request": self.kind, "document": self.document,
                "constraints": self.constraints,
                "ops": [op_to_dict(op) for op in self.ops]}

    @classmethod
    def from_dict(cls, data: dict) -> "StreamSubmit":
        return cls(document=_name(data["document"], "document"),
                   constraints=_name(data["constraints"], "constraints"),
                   ops=tuple(op_from_dict(d) for d in data["ops"]))


@dataclass(frozen=True)
class RegisterTemplate(Request):
    """Register an update template against a named constraint set.

    The service runs :func:`repro.certify.certify` once at registration:
    a certified template is stored (and journaled — recovery re-certifies
    deterministically) and becomes eligible for :class:`CertifiedSubmit`;
    a rejected or unknown one is **not** stored, and the answering
    :class:`Ack` carries the verdict and search accounting in ``stats``
    (``certify.certified``, ``certify.rejected``, ``certify.attempts``,
    witness sizes — counterexample *objects* stay server-side, like
    refutation certificates).
    """

    kind = "register-template"

    name: str
    template: UpdateTemplate
    constraints: str
    replace: bool = False

    def to_dict(self) -> dict:
        return {"request": self.kind, "name": self.name,
                "template": self.template.to_dict(),
                "constraints": self.constraints, "replace": self.replace}

    @classmethod
    def from_dict(cls, data: dict) -> "RegisterTemplate":
        try:
            template = UpdateTemplate.from_dict(data["template"])
        except CertifyError as exc:
            raise ValueError(str(exc)) from None
        return cls(name=_name(data["name"], "name"), template=template,
                   constraints=_name(data["constraints"], "constraints"),
                   replace=_flag(data, "replace"))


@dataclass(frozen=True)
class CertifiedSubmit(Request):
    """Run one certified-template instantiation on the hot path.

    ``template`` names a template previously registered (and certified)
    against ``constraints``; ``bindings`` fills its holes.  The server
    validates only the template guard, applies the whole bracket with no
    per-op checking, journals it for recovery, and answers with the
    bracket's :class:`StreamDecisions` — bit-identical to submitting the
    instantiated ops through :class:`StreamSubmit`.
    """

    kind = "certified-submit"

    document: str
    constraints: str
    template: str
    bindings: tuple[tuple[str, int | str], ...]

    def to_dict(self) -> dict:
        return {"request": self.kind, "document": self.document,
                "constraints": self.constraints, "template": self.template,
                "bindings": bindings_to_wire(dict(self.bindings))}

    @classmethod
    def from_dict(cls, data: dict) -> "CertifiedSubmit":
        try:
            bindings = bindings_from_wire(data["bindings"])
        except CertifyError as exc:
            raise ValueError(str(exc)) from None
        return cls(document=_name(data["document"], "document"),
                   constraints=_name(data["constraints"], "constraints"),
                   template=_name(data["template"], "template"),
                   bindings=tuple(sorted(bindings.items())))


@dataclass(frozen=True)
class FleetSubmit(Request):
    """Submit one or more write *epochs* against a fleet of documents.

    The first submission for a ``(documents, constraints)`` pair opens
    the fleet session — the named documents are checked together through
    a :class:`~repro.masks.fleet.FleetEvaluator` under the named policy;
    later submissions with the same pair continue it (the epoch counter
    and decision checksum carry across).  ``backend`` picks the mask
    backend by name (``None`` = the server's environment default); the
    response is backend-independent.

    Each epoch maps document names to that document's operations and
    settles in one batched check: violating documents are rolled back to
    their pre-epoch state.
    """

    kind = "fleet-submit"

    documents: tuple[str, ...]
    constraints: str
    epochs: tuple[tuple[tuple[str, tuple[StreamOp, ...]], ...], ...]
    backend: str | None = None

    def to_dict(self) -> dict:
        data = {"request": self.kind, "documents": list(self.documents),
                "constraints": self.constraints,
                "epochs": [[[doc, [op_to_dict(op) for op in ops]]
                            for doc, ops in epoch]
                           for epoch in self.epochs]}
        if self.backend is not None:
            data["backend"] = self.backend
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FleetSubmit":
        return cls(
            documents=tuple(_name(doc, "documents")
                            for doc in data["documents"]),
            constraints=_name(data["constraints"], "constraints"),
            epochs=tuple(
                tuple((_name(doc, "epochs"),
                       tuple(op_from_dict(d) for d in ops))
                      for doc, ops in epoch)
                for epoch in data["epochs"]),
            backend=data.get("backend"))


@dataclass(frozen=True)
class StreamStatus(Request):
    """Where does a document's enforcement stream stand?

    Answered with an :class:`Ack` (``registered="stream"``) whose ``size``
    is the stream's decision count and whose ``stats`` carry the
    :class:`~repro.stream.engine.StreamStats` counters — ops seen,
    accepted/rejected, transaction outcomes, fast-path hits and the total
    audit length (minus the snapshot-internal ``revision``) — so a
    reconnecting client recovers its observability state, not just the
    sequence position.  The durable server's clients compare the decision
    count against what they saw acknowledged to learn whether a last
    in-flight submission survived the crash — journaling is at-most-once
    per submission, never silently partial.
    """

    kind = "stream-status"

    document: str

    def to_dict(self) -> dict:
        return {"request": self.kind, "document": self.document}

    @classmethod
    def from_dict(cls, data: dict) -> "StreamStatus":
        return cls(document=_name(data["document"], "document"))


@dataclass(frozen=True)
class MetricsRequest(Request):
    """A live introspection snapshot of the serving process.

    Answered with a :class:`MetricsSnapshot` of the process-global
    :class:`~repro.obs.MetricsRegistry` plus per-stream counters.  The
    socket server answers it out-of-band — before the backpressure gate
    and without queueing behind any document worker — so the endpoint
    stays serveable while the service is overloaded or draining.
    """

    kind = "metrics"

    def to_dict(self) -> dict:
        return {"request": self.kind}

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsRequest":
        return cls()


_REQUEST_KINDS: dict[str, type[Request]] = {
    cls.kind: cls
    for cls in (RegisterConstraints, RegisterDocument, RegisterTemplate,
                ImplicationQuery, InstanceQuery, StreamSubmit, StreamStatus,
                CertifiedSubmit, FleetSubmit, MetricsRequest)
}


def request_from_dict(data: dict) -> Request:
    """Rebuild any request from its wire dict (inverse of ``to_dict``)."""
    try:
        kind = data["request"]
    except (TypeError, KeyError):
        raise ServiceError(f"malformed request payload {data!r}: "
                           "missing 'request' kind") from None
    cls = _REQUEST_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ServiceError(f"unknown request kind {kind!r}; expected one of "
                           f"{sorted(_REQUEST_KINDS)}")
    try:
        return cls.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError covers payloads that are shaped right but carry bad
        # values (an op dict with an unknown kind, a non-integer id): a
        # malformed frame must surface as ServiceError -> ErrorResponse,
        # never as a raw exception out of ``handle``.
        raise ServiceError(f"malformed {kind!r} request: {exc}") from None


def request_from_json(payload: str) -> Request:
    return request_from_dict(json.loads(payload))


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
class Response:
    """Base of the response union."""

    kind = ""
    ok = True

    def to_dict(self) -> dict:  # pragma: no cover - abstract
        raise NotImplementedError

    @classmethod
    def from_dict(cls, data: dict) -> "Response":  # pragma: no cover - abstract
        raise NotImplementedError

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


@dataclass(frozen=True)
class Ack(Response):
    """A registration took effect (``size`` = constraints or nodes).

    Constraint-set acks carry ``stats``: sorted ``(name, value)`` pairs
    from the static analyzer's :meth:`~repro.analysis.IndependenceIndex.
    stats` — how many impact signatures the set compiled to, how many
    (kind, label) keys they index under, and how many are wildcard (⊤).
    Omitted from the wire form when empty, so document acks (and older
    recorded responses) keep their exact wire shape.
    """

    kind = "ack"

    registered: str
    name: str
    size: int
    stats: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict:
        data = {"response": self.kind, "registered": self.registered,
                "name": self.name, "size": self.size}
        if self.stats:
            data["stats"] = [list(pair) for pair in self.stats]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Ack":
        return cls(registered=data["registered"], name=data["name"],
                   size=int(data["size"]),
                   stats=tuple((str(k), int(v))
                               for k, v in data.get("stats", ())))


@dataclass(frozen=True)
class Verdict:
    """One conclusion's answer, flattened for the wire.

    ``refuted`` marks a NOT_IMPLIED answer that carries a counterexample
    certificate.  The certificate *trees* (and their witness nodes) stay
    server-side — constructed counterexamples allocate fresh node ids per
    call, so shipping their ids would make equal answer streams compare
    unequal; fetch certificates through the live-object API
    (:meth:`repro.service.service.ConstraintService.session`) when
    forensics are needed.
    """

    answer: str
    engine: str
    reason: str = ""
    refuted: bool = False

    @staticmethod
    def of(result: ImplicationResult) -> "Verdict":
        return Verdict(answer=result.answer.value, engine=result.engine,
                       reason=result.reason,
                       refuted=result.counterexample is not None)

    def to_dict(self) -> dict:
        return {"answer": self.answer, "engine": self.engine,
                "reason": self.reason, "refuted": self.refuted}

    @classmethod
    def from_dict(cls, data: dict) -> "Verdict":
        return cls(answer=data["answer"], engine=data["engine"],
                   reason=data.get("reason", ""),
                   refuted=bool(data.get("refuted", False)))


@dataclass(frozen=True)
class QueryAnswers(Response):
    """Aligned verdicts for a query batch (``None`` = fail-fast skipped)."""

    kind = "answers"

    verdicts: tuple[Verdict | None, ...]

    @property
    def answers(self) -> tuple[str | None, ...]:
        return tuple(v.answer if v is not None else None for v in self.verdicts)

    def to_dict(self) -> dict:
        return {"response": self.kind,
                "verdicts": [v.to_dict() if v is not None else None
                             for v in self.verdicts]}

    @classmethod
    def from_dict(cls, data: dict) -> "QueryAnswers":
        return cls(verdicts=tuple(
            Verdict.from_dict(v) if v is not None else None
            for v in data["verdicts"]))


@dataclass(frozen=True)
class WireViolation:
    """A :class:`~repro.constraints.validity.Violation` as sorted id/label
    pairs (deterministic across processes — sets have no wire order)."""

    constraint: UpdateConstraint
    removed: tuple[tuple[int, str], ...]
    inserted: tuple[tuple[int, str], ...]

    @staticmethod
    def of(violation: Violation) -> "WireViolation":
        return WireViolation(
            constraint=violation.constraint,
            removed=tuple(sorted((n.nid, n.label) for n in violation.removed)),
            inserted=tuple(sorted((n.nid, n.label) for n in violation.inserted)))

    def to_dict(self) -> dict:
        return {"constraint": constraint_to_wire(self.constraint),
                "removed": [list(pair) for pair in self.removed],
                "inserted": [list(pair) for pair in self.inserted]}

    @classmethod
    def from_dict(cls, data: dict) -> "WireViolation":
        return cls(constraint=constraint_from_wire(data["constraint"]),
                   removed=tuple((int(n), lab) for n, lab in data["removed"]),
                   inserted=tuple((int(n), lab) for n, lab in data["inserted"]))


@dataclass(frozen=True)
class WireDecision:
    """One enforcement decision, flattened for the wire.

    ``independent`` mirrors the engine's zero-work-fast-path witness
    (:attr:`~repro.stream.log.Decision.independent`); it travels only
    when set, so non-fast-path decision streams keep their exact wire
    shape (and checksums) from before the analyzer existed.
    """

    seq: int
    op: StreamOp
    accepted: bool
    pending: bool = False
    txn: int | None = None
    note: str = ""
    violations: tuple[WireViolation, ...] = ()
    independent: bool = False

    @staticmethod
    def of(decision: Decision) -> "WireDecision":
        return WireDecision(
            seq=decision.seq, op=decision.op, accepted=decision.accepted,
            pending=decision.pending, txn=decision.txn, note=decision.note,
            violations=tuple(WireViolation.of(v) for v in decision.violations),
            independent=decision.independent)

    def to_dict(self) -> dict:
        data = {"seq": self.seq, "op": op_to_dict(self.op),
                "accepted": self.accepted, "pending": self.pending,
                "txn": self.txn, "note": self.note,
                "violations": [v.to_dict() for v in self.violations]}
        if self.independent:
            data["independent"] = True
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WireDecision":
        return cls(seq=int(data["seq"]), op=op_from_dict(data["op"]),
                   accepted=bool(data["accepted"]),
                   pending=bool(data.get("pending", False)),
                   txn=data.get("txn"), note=data.get("note", ""),
                   violations=tuple(WireViolation.from_dict(v)
                                    for v in data.get("violations", ())),
                   independent=bool(data.get("independent", False)))


@dataclass(frozen=True)
class StreamDecisions(Response):
    """One decision per submitted log entry, in submission order."""

    kind = "decisions"

    decisions: tuple[WireDecision, ...]

    @property
    def accepted_count(self) -> int:
        return sum(1 for d in self.decisions if d.accepted and not d.pending)

    @property
    def rejected_count(self) -> int:
        return sum(1 for d in self.decisions if not d.accepted and not d.pending)

    @property
    def independent_count(self) -> int:
        """Decisions taken on the analyzer's zero-work fast path."""
        return sum(1 for d in self.decisions if d.independent)

    def to_dict(self) -> dict:
        return {"response": self.kind,
                "decisions": [d.to_dict() for d in self.decisions]}

    @classmethod
    def from_dict(cls, data: dict) -> "StreamDecisions":
        return cls(decisions=tuple(WireDecision.from_dict(d)
                                   for d in data["decisions"]))


@dataclass(frozen=True)
class WireEpoch:
    """One fleet epoch's outcome, flattened for the wire.

    Documents travel by name, name-sorted wherever sets would otherwise
    leak process-dependent order; ``structural`` pairs a document with
    the structural-error note that rejected its whole epoch.
    """

    epoch: int
    edited: tuple[str, ...]
    rejected: tuple[str, ...]
    structural: tuple[tuple[str, str], ...] = ()
    violations: tuple[tuple[str, tuple[WireViolation, ...]], ...] = ()

    @staticmethod
    def of(report, names: "tuple[str, ...]") -> "WireEpoch":
        """Flatten a :class:`~repro.masks.fleet.EpochReport` (document
        positions become the fleet's registered names)."""
        return WireEpoch(
            epoch=report.epoch,
            edited=tuple(names[d] for d in report.edited),
            rejected=tuple(names[d] for d in report.rejected),
            structural=tuple(sorted(
                (names[d], note) for d, note in report.structural.items())),
            violations=tuple(sorted(
                (names[d], tuple(WireViolation.of(v) for v in vs))
                for d, vs in report.violations.items())))

    @property
    def accepted(self) -> tuple[str, ...]:
        bad = set(self.rejected)
        return tuple(doc for doc in self.edited if doc not in bad)

    def to_dict(self) -> dict:
        data = {"epoch": self.epoch, "edited": list(self.edited),
                "rejected": list(self.rejected)}
        if self.structural:
            data["structural"] = [list(pair) for pair in self.structural]
        if self.violations:
            data["violations"] = [
                [doc, [v.to_dict() for v in vs]] for doc, vs in self.violations]
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "WireEpoch":
        return cls(
            epoch=int(data["epoch"]),
            edited=tuple(data["edited"]),
            rejected=tuple(data["rejected"]),
            structural=tuple((doc, note)
                             for doc, note in data.get("structural", ())),
            violations=tuple(
                (doc, tuple(WireViolation.from_dict(v) for v in vs))
                for doc, vs in data.get("violations", ())))


@dataclass(frozen=True)
class FleetDecisions(Response):
    """One :class:`WireEpoch` per submitted epoch, in submission order.

    ``checksum`` is the fleet session's running decision checksum after
    this submission — identical across mask backends and machines for
    the same fleet and traffic, which is what the CI backend matrix
    compares.
    """

    kind = "fleet-decisions"

    docs: int
    epochs: tuple[WireEpoch, ...]
    checksum: int

    @property
    def accepted_count(self) -> int:
        return sum(len(e.accepted) for e in self.epochs)

    @property
    def rejected_count(self) -> int:
        return sum(len(e.rejected) for e in self.epochs)

    def to_dict(self) -> dict:
        return {"response": self.kind, "docs": self.docs,
                "epochs": [e.to_dict() for e in self.epochs],
                "checksum": self.checksum}

    @classmethod
    def from_dict(cls, data: dict) -> "FleetDecisions":
        return cls(docs=int(data["docs"]),
                   epochs=tuple(WireEpoch.from_dict(e)
                                for e in data["epochs"]),
                   checksum=int(data["checksum"]))


@dataclass(frozen=True)
class MetricsSnapshot(Response):
    """One point-in-time view of the serving process's metrics.

    ``metrics`` is a :meth:`~repro.obs.MetricsRegistry.to_dict` snapshot
    (``counters`` / ``gauges`` / ``histograms`` sections under flat
    ``name{label="value"}`` keys); ``streams`` maps each document with a
    live enforcement stream to its :class:`~repro.stream.engine.
    StreamStats` wire pairs, and ``fleets`` maps each live fleet (by its
    sorted, comma-joined member list) to backend/epoch/size.  Values are
    a live read, not a transaction — two counters in one snapshot may
    straddle an in-flight request.
    """

    kind = "metrics-snapshot"

    metrics: dict[str, Any]
    streams: tuple[tuple[str, tuple[tuple[str, int], ...]], ...] = ()
    fleets: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...] = ()

    @property
    def counters(self) -> dict[str, float]:
        return dict(self.metrics.get("counters", {}))

    @property
    def gauges(self) -> dict[str, float]:
        return dict(self.metrics.get("gauges", {}))

    @property
    def histograms(self) -> dict[str, dict]:
        return dict(self.metrics.get("histograms", {}))

    def histogram_count(self, name: str) -> int:
        """Observation count of one histogram (0 when absent)."""
        return int(self.histograms.get(name, {}).get("count", 0))

    def stream_counters(self, document: str) -> dict[str, int]:
        """One live stream's durable counters (empty dict when absent)."""
        return {k: v for doc, pairs in self.streams if doc == document
                for k, v in pairs}

    def to_dict(self) -> dict:
        data: dict[str, Any] = {"response": self.kind,
                                "metrics": self.metrics}
        if self.streams:
            data["streams"] = {doc: {k: v for k, v in pairs}
                               for doc, pairs in self.streams}
        if self.fleets:
            data["fleets"] = {key: {k: v for k, v in pairs}
                              for key, pairs in self.fleets}
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "MetricsSnapshot":
        return cls(
            metrics=dict(data["metrics"]),
            streams=tuple(sorted(
                (doc, tuple(sorted((str(k), int(v))
                                   for k, v in pairs.items())))
                for doc, pairs in data.get("streams", {}).items())),
            fleets=tuple(sorted(
                (key, tuple(sorted(pairs.items())))
                for key, pairs in data.get("fleets", {}).items())))


@dataclass(frozen=True)
class ErrorResponse(Response):
    """A request that could not be served (``error`` = exception class)."""

    kind = "error"
    ok = False

    error: str
    message: str
    details: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict:
        data = {"response": self.kind, "error": self.error,
                "message": self.message}
        if self.details:
            data["details"] = dict(self.details)
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "ErrorResponse":
        return cls(error=data["error"], message=data["message"],
                   details=dict(data.get("details", {})))


_RESPONSE_KINDS: dict[str, type[Response]] = {
    cls.kind: cls
    for cls in (Ack, QueryAnswers, StreamDecisions, FleetDecisions,
                MetricsSnapshot, ErrorResponse)
}


def response_from_dict(data: dict) -> Response:
    """Rebuild any response from its wire dict (inverse of ``to_dict``)."""
    try:
        kind = data["response"]
    except (TypeError, KeyError):
        raise ServiceError(f"malformed response payload {data!r}: "
                           "missing 'response' kind") from None
    cls = _RESPONSE_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ServiceError(f"unknown response kind {kind!r}; expected one of "
                           f"{sorted(_RESPONSE_KINDS)}")
    try:
        return cls.from_dict(data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServiceError(f"malformed {kind!r} response: {exc}") from None


def response_from_json(payload: str) -> Response:
    return response_from_dict(json.loads(payload))


def response_checksum(response: Response) -> int:
    """CRC of the canonical JSON wire form — one integer per response.

    Folding a whole answer stream (``fold = fold * P + checksum``) lets
    two serving paths' behaviour be compared wholesale; the equivalence
    suite and the service benchmark both gate on it.
    """
    return zlib.crc32(response.to_json().encode())


__all__ = [
    "PROTOCOL_VERSION",
    "Request", "RegisterConstraints", "RegisterDocument",
    "RegisterTemplate", "CertifiedSubmit",
    "ImplicationQuery", "InstanceQuery", "StreamSubmit", "StreamStatus",
    "FleetSubmit", "MetricsRequest",
    "Response", "Ack", "Verdict", "QueryAnswers",
    "WireViolation", "WireDecision", "StreamDecisions", "ErrorResponse",
    "WireEpoch", "FleetDecisions", "MetricsSnapshot",
    "request_from_dict", "request_from_json",
    "response_from_dict", "response_from_json", "response_checksum",
    "constraint_to_wire", "constraint_from_wire",
]
