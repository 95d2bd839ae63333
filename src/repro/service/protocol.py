"""The wire-level request/response protocol of the constraint service.

Every interaction with a :class:`~repro.service.service.ConstraintService`
— registering documents and compiled constraint sets, implication and
instance-based queries, update-stream enforcement — is one
:class:`Request` answered by one :class:`Response`: frozen dataclasses
holding *live* objects (patterns, trees, ops) whose JSON form
(``to_dict`` / ``from_dict`` / ``to_json``) :mod:`repro.codec` derives
from the field annotations, tagged by ``"request"`` or ``"response"``.
A value of the wrong JSON type is refused, never coerced:
:func:`request_from_dict` raises :class:`~repro.errors.ServiceError`
``malformed {kind!r} request: …`` naming the field.  The dict forms are
stable across processes (the socket server and the durable journal rely
on this), and :func:`response_checksum` folds a response's wire form into
one integer so two serving paths' answer streams compare wholesale.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from typing import Any, TypeVar

from repro.certify.templates import UpdateTemplate
from repro.codec import AS_OBJECT, OMIT_DEFAULT, Count, Wire
from repro.constraints.model import UpdateConstraint
from repro.constraints.validity import Violation
from repro.errors import CertifyError, ServiceError, WireError
from repro.implication.result import ImplicationResult
from repro.stream.log import Decision
from repro.stream.ops import StreamOp
from repro.trees.tree import DataTree

#: Version of the request/response wire protocol.  The socket front end
#: (:mod:`repro.server`) sends it in its hello frame and rejects clients
#: that expect a different one; bump on any incompatible change to the
#: dict forms below.
PROTOCOL_VERSION = 1


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
class Request(Wire):
    """Base of the request union: every subclass is one ``kind``."""

    tag = "request"


@dataclass(frozen=True)
class RegisterConstraints(Request):
    """Name a constraint set; the service compiles it once, on first use."""

    kind = "register-constraints"

    name: str
    constraints: tuple[UpdateConstraint, ...]
    replace: bool = False


@dataclass(frozen=True)
class RegisterDocument(Request):
    """Adopt a document under a name (instance queries + enforcement)."""

    kind = "register-document"

    name: str
    tree: DataTree
    replace: bool = False


@dataclass(frozen=True)
class ImplicationQuery(Request):
    """``C ⊨ c?`` for a batch of conclusions against a named set (Table 1)."""

    kind = "implication"

    constraints: str
    conclusions: tuple[UpdateConstraint, ...]
    fail_fast: bool = False
    require_decision: bool = False


@dataclass(frozen=True)
class InstanceQuery(Request):
    """``C ⊨_J c?`` against a named document's current state (Table 2)."""

    kind = "instance-implication"

    constraints: str
    document: str
    conclusions: tuple[UpdateConstraint, ...]
    fail_fast: bool = False
    require_decision: bool = False
    max_moves: Count = 2
    search_budget: Count = 5000


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


@dataclass(frozen=True)
class CertifiedSubmit(Request):
    """Run one certified-template instantiation on the hot path.

    ``template`` names a template previously registered (and certified)
    against ``constraints``; ``bindings`` fills its holes (a JSON object
    on the wire).  The server validates only the template guard, applies
    the whole bracket with no per-op checking, journals it for recovery,
    and answers with the bracket's :class:`StreamDecisions` —
    bit-identical to submitting the instantiated ops through
    :class:`StreamSubmit`.
    """

    kind = "certified-submit"

    document: str
    constraints: str
    template: str
    bindings: tuple[tuple[str, int | str], ...] = field(metadata=AS_OBJECT)


@dataclass(frozen=True)
class FleetSubmit(Request):
    """Submit one or more write *epochs* against a fleet of documents.

    The first submission for a ``(documents, constraints)`` pair opens
    the fleet under the named policy; later submissions with the same
    pair continue it (the epoch counter and decision checksum carry
    across).  A document belongs to at most one live fleet, and a fleet
    member takes no other writes.

    Each epoch maps document names to that document's update operations
    (no transaction markers: the epoch is the bracket).  Each edited
    member runs, in fleet order, as one transaction bracket on its own
    enforcement stream: a member whose edit violates the policy, or hits
    a structural error, is rolled back to its pre-epoch state.  The
    whole request is validated before any document is touched.
    """

    kind = "fleet-submit"

    documents: tuple[str, ...]
    constraints: str
    epochs: tuple[tuple[tuple[str, tuple[StreamOp, ...]], ...], ...]


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


@dataclass(frozen=True)
class MetricsRequest(Request):
    """A live introspection snapshot of the serving process.

    Answered with a :class:`MetricsSnapshot` of the process-global
    :class:`~repro.obs.MetricsRegistry` plus per-stream counters.  The
    socket server answers it out-of-band — before the backpressure gate
    and ahead of the requests still waiting to run — so the endpoint
    stays serveable while the service is overloaded or draining.
    """

    kind = "metrics"


def request_from_dict(data: Any) -> Request:
    """Rebuild any request from its wire dict (inverse of ``to_dict``)."""
    return _decode(data, "request", _REQUEST_KINDS)


def request_from_json(payload: str) -> Request:
    return request_from_dict(json.loads(payload))


# ----------------------------------------------------------------------
# Responses
# ----------------------------------------------------------------------
class Response(Wire):
    """Base of the response union: every subclass is one ``kind``."""

    tag = "response"
    ok = True


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
    stats: tuple[tuple[str, int], ...] = field(default=(),
                                               metadata=OMIT_DEFAULT)


@dataclass(frozen=True)
class Verdict(Wire):
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


@dataclass(frozen=True)
class QueryAnswers(Response):
    """Aligned verdicts for a query batch (``None`` = fail-fast skipped)."""

    kind = "answers"

    verdicts: tuple[Verdict | None, ...]

    @property
    def answers(self) -> tuple[str | None, ...]:
        return tuple(v.answer if v is not None else None for v in self.verdicts)


@dataclass(frozen=True)
class WireViolation(Wire):
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


@dataclass(frozen=True)
class WireDecision(Wire):
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
    independent: bool = field(default=False, metadata=OMIT_DEFAULT)

    @staticmethod
    def of(decision: Decision) -> "WireDecision":
        return WireDecision(
            seq=decision.seq, op=decision.op, accepted=decision.accepted,
            pending=decision.pending, txn=decision.txn, note=decision.note,
            violations=tuple(WireViolation.of(v) for v in decision.violations),
            independent=decision.independent)


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


@dataclass(frozen=True)
class WireEpoch(Wire):
    """One fleet epoch's outcome, flattened for the wire.

    Documents travel by name, name-sorted wherever sets would otherwise
    leak process-dependent order; ``structural`` pairs a document with
    the structural-error note that rejected its whole epoch.
    """

    epoch: int
    edited: tuple[str, ...]
    rejected: tuple[str, ...]
    structural: tuple[tuple[str, str], ...] = field(default=(),
                                                    metadata=OMIT_DEFAULT)
    violations: tuple[tuple[str, tuple[WireViolation, ...]], ...] = field(
        default=(), metadata=OMIT_DEFAULT)

    @property
    def accepted(self) -> tuple[str, ...]:
        bad = set(self.rejected)
        return tuple(doc for doc in self.edited if doc not in bad)


@dataclass(frozen=True)
class FleetDecisions(Response):
    """One :class:`WireEpoch` per submitted epoch, in submission order.

    ``checksum`` is the fleet's running decision checksum after this
    submission (:func:`~repro.stream.log.epoch_checksum` folded by
    :func:`~repro.stream.log.chain_checksum`) — identical across
    processes and machines for the same fleet and traffic.
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


@dataclass(frozen=True)
class MetricsSnapshot(Response):
    """One point-in-time view of the serving process's metrics.

    ``metrics`` is a :meth:`~repro.obs.MetricsRegistry.to_dict` snapshot
    (``counters`` / ``gauges`` / ``histograms`` sections under flat
    ``name{label="value"}`` keys); ``streams`` maps each document with a
    live enforcement stream to its :class:`~repro.stream.engine.
    StreamStats` wire pairs, and ``fleets`` maps each live fleet (by its
    ``+``-joined member list) to its set, size, epoch and checksum.  Values are
    a live read, not a transaction — two counters in one snapshot may
    straddle an in-flight request.
    """

    kind = "metrics-snapshot"

    metrics: dict[str, Any]
    streams: tuple[tuple[str, tuple[tuple[str, int], ...]], ...] = field(
        default=(), metadata=OMIT_DEFAULT | AS_OBJECT)
    fleets: tuple[tuple[str, tuple[tuple[str, Any], ...]], ...] = field(
        default=(), metadata=OMIT_DEFAULT | AS_OBJECT)

    @property
    def counters(self) -> dict[str, float]:
        return dict(self.metrics.get("counters", {}))

    @property
    def gauges(self) -> dict[str, float]:
        return dict(self.metrics.get("gauges", {}))

    @property
    def histograms(self) -> dict[str, dict[str, Any]]:
        return dict(self.metrics.get("histograms", {}))

    def histogram_count(self, name: str) -> int:
        """Observation count of one histogram (0 when absent)."""
        return int(self.histograms.get(name, {}).get("count", 0))

    def stream_counters(self, document: str) -> dict[str, int]:
        """One live stream's durable counters (empty dict when absent)."""
        return {k: v for doc, pairs in self.streams if doc == document
                for k, v in pairs}


@dataclass(frozen=True)
class ErrorResponse(Response):
    """A request that could not be served (``error`` = exception class)."""

    kind = "error"
    ok = False

    error: str
    message: str
    details: dict[str, Any] = field(default_factory=dict,
                                    metadata=OMIT_DEFAULT)


def response_from_dict(data: Any) -> Response:
    """Rebuild any response from its wire dict (inverse of ``to_dict``)."""
    return _decode(data, "response", _RESPONSE_KINDS)


def response_checksum(response: Response) -> int:
    """CRC of the canonical JSON wire form — one integer per response.

    Folding a whole answer stream (``fold = fold * P + checksum``) lets
    two serving paths' behaviour be compared wholesale; the equivalence
    suite and the service benchmark both gate on it.
    """
    return zlib.crc32(response.to_json().encode())


_W = TypeVar("_W", bound=Wire)


def _decode(data: Any, key: str, kinds: dict[str, type[_W]]) -> _W:
    """The envelope named by ``data[key]``; every failure a ServiceError."""
    try:
        kind = data[key]
    except (TypeError, KeyError, IndexError):
        raise ServiceError(f"malformed {key} payload {data!r}: "
                           f"missing {key!r} kind") from None
    cls = kinds.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ServiceError(f"unknown {key} kind {kind!r}; expected one of "
                           f"{sorted(kinds)}")
    try:
        return cls.from_dict(data)
    except (WireError, CertifyError, RecursionError) as exc:
        # A template refusing its own declaration is malformed too; other
        # constructors' errors keep their kind (ParseError, TreeError).
        raise ServiceError(f"malformed {kind!r} {key}: {exc}") from None


_REQUEST_KINDS = {cls.kind: cls for cls in Request.__subclasses__()}
_RESPONSE_KINDS = {cls.kind: cls for cls in Response.__subclasses__()}


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
    "response_from_dict", "response_checksum",
]
