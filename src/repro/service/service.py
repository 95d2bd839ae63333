"""The multi-document constraint service: one front door for everything.

A :class:`ConstraintService` pairs a
:class:`~repro.service.store.DocumentStore` (named documents, named
compiled constraint sets, live enforcement streams) with the
:class:`~repro.service.executors.InlineExecutor`, and answers the whole
protocol of :mod:`repro.service.protocol` through one method —
:meth:`handle` — with wire-level twins (:meth:`handle_dict`,
:meth:`handle_json`) for callers on the other side of a serialisation
boundary.  Errors never escape as exceptions at the wire level: every
:class:`~repro.errors.ReproError` becomes an
:class:`~repro.service.protocol.ErrorResponse` carrying the exception
class and message, so a misbehaving client cannot take the service down.

>>> from repro import ConstraintService, DataTree
>>> from repro.service import ImplicationQuery
>>> from repro.constraints import no_insert
>>> svc = ConstraintService()
>>> _ = svc.register_constraints("policy", [("/patient[/visit]", "down"),
...                                         ("/patient[/clinicalTrial]", "up"),
...                                         ("/patient[/clinicalTrial]", "down")])
>>> reply = svc.handle(ImplicationQuery(
...     "policy", (no_insert("/patient[/visit][/clinicalTrial]"),)))
>>> reply.answers
('implied',)

The live-object conveniences (:meth:`register_document`,
:meth:`session`, :meth:`enforcer`, …) expose the same store to in-process
callers that want :class:`~repro.api.session.Reasoner` objects rather
than wire verdicts.
"""

from __future__ import annotations

import json
from collections.abc import Iterable

from repro.api.session import BoundReasoner, Reasoner
from repro.constraints.model import ConstraintSet
from repro.errors import ReproError
from repro.service.executors import InlineExecutor
from repro.service.protocol import (
    ErrorResponse,
    Request,
    Response,
    request_from_dict,
)
from repro.service.store import DocumentStore
from repro.stream.engine import StreamEnforcer
from repro.trees.tree import DataTree


class ConstraintService:
    """Documents + compiled constraint sets behind one request protocol."""

    def __init__(self, *, store: DocumentStore | None = None):
        self._store = store if store is not None else DocumentStore()
        self._executor = InlineExecutor()

    @property
    def store(self) -> DocumentStore:
        return self._store

    # ------------------------------------------------------------------
    # The protocol surface
    # ------------------------------------------------------------------
    def handle(self, request: Request) -> Response:
        """Serve one request; service-level failures become responses."""
        try:
            return self._executor.execute(request, self._store)
        except ReproError as err:
            return ErrorResponse(error=type(err).__name__, message=str(err))

    def handle_dict(self, payload: dict) -> dict:
        """The wire twin: dict in, dict out (parse errors included)."""
        try:
            request = request_from_dict(payload)
        except ReproError as err:
            return ErrorResponse(error=type(err).__name__,
                                 message=str(err)).to_dict()
        return self.handle(request).to_dict()

    def handle_json(self, payload: str) -> str:
        """The byte-boundary twin: JSON text in, JSON text out."""
        try:
            data = json.loads(payload)
        except ValueError as err:
            return ErrorResponse(error="ParseError",
                                 message=f"bad JSON: {err}").to_json()
        return json.dumps(self.handle_dict(data), sort_keys=True)

    # ------------------------------------------------------------------
    # Live-object conveniences (same store, no wire forms)
    # ------------------------------------------------------------------
    def register_document(self, name: str, tree: DataTree | dict, *,
                          replace: bool = False) -> DataTree:
        return self._store.add_document(name, tree, replace=replace)

    def register_constraints(self, name: str,
                             constraints: ConstraintSet | Iterable, *,
                             replace: bool = False) -> ConstraintSet:
        return self._store.add_constraints(name, constraints, replace=replace)

    def session(self, constraints: str) -> Reasoner:
        """The compiled session behind a registered constraint set."""
        return self._store.session(constraints)

    def binding(self, constraints: str, document: str) -> BoundReasoner:
        """A bound session on the named document's current state."""
        return self._store.binding(constraints, document)

    def enforcer(self, document: str, constraints: str) -> StreamEnforcer:
        """The named document's live enforcement stream."""
        return self._store.enforcer(document, constraints)

    def __repr__(self) -> str:
        return f"ConstraintService({self._store!r})"


__all__ = ["ConstraintService"]
