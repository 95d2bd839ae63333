"""Named documents and named compiled constraint sets.

A :class:`DocumentStore` is the server-side state of a
:class:`~repro.service.service.ConstraintService`: clients register a
document or a constraint set **once** under a name, and every later
request refers to the name.  The store owns the expensive artifacts that
registration makes shareable —

* one compiled :class:`~repro.api.session.Reasoner` per constraint set
  (canonical forms, per-type views, fragment dispatch, linear DFAs,
  session memo), built lazily on first query and reused by every request
  naming the set;
* one live :class:`~repro.stream.engine.StreamEnforcer` per document
  under enforcement (the stream *adopts* the stored document: update
  logs mutate it in place, and instance queries against the name see the
  current state);
* one :class:`FleetLedger` per live fleet — a ``(documents, set)`` pair
  written through ``fleet-submit`` epochs — carrying the fleet's epoch
  counter and running decision checksum; each member's epochs run on
  that member's ordinary stream;
* one :class:`~repro.api.session.BoundReasoner` per ``(set, document)``
  pair, keyed by the document's mutation version, so repeated instance
  queries between edits reuse the snapshot and the per-tree answer sets.
  A binding on a document under enforcement reads through the live
  stream's :class:`~repro.xpath.bitset.BitsetEvaluator` instead of
  indexing every tree version afresh, so one mask memo serves the
  document.

Names are flat strings; re-registering a taken name raises
:class:`~repro.errors.ServiceError` unless ``replace=True`` (replacement
drops the dependent session/stream/binding artifacts).
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from repro.api.session import BoundReasoner, Reasoner
from repro.certify import CertifyOutcome, UpdateTemplate, certify
from repro.constraints.model import ConstraintSet, constraint_set
from repro.errors import ServiceError
from repro.service.dispatch import bind_session, compiled_session
from repro.stream.engine import StreamEnforcer
from repro.trees.serialize import from_dict
from repro.trees.tree import DataTree


#: A live fleet's key: its member names, in fleet order, and its set.
FleetKey = tuple[tuple[str, ...], str]


@dataclass
class FleetLedger:
    """What a live fleet carries across submissions: the number of
    epochs it has run and the running fold of their checksums
    (:func:`~repro.stream.log.chain_checksum`)."""

    epoch: int = 0
    checksum: int = 0


class DocumentStore:
    """The named-object registry behind a constraint service."""

    __slots__ = ("_documents", "_sets", "_sessions", "_enforcers", "_bindings",
                 "_fleets", "_members", "_templates", "_journal")

    def __init__(self) -> None:
        self._documents: dict[str, DataTree] = {}
        self._sets: dict[str, ConstraintSet] = {}
        self._sessions: dict[str, Reasoner] = {}
        # doc name -> (set name, enforcer): one live stream per document.
        self._enforcers: dict[str, tuple[str, StreamEnforcer]] = {}
        # template name -> (set name, template, certify outcome).  Only
        # *certified* templates are stored; rejected/unknown ones never
        # enter the registry (the hot path trusts every entry here).
        self._templates: dict[
            str, tuple[str, UpdateTemplate, CertifyOutcome]] = {}
        # (set name, doc name) -> (tree version, binding)
        self._bindings: dict[tuple[str, str], tuple[int, BoundReasoner]] = {}
        # (doc names, set name) -> ledger, and member -> its fleet's key: a
        # document belongs to at most one live fleet, and its stream then
        # takes fleet epochs only.
        self._fleets: dict[FleetKey, FleetLedger] = {}
        self._members: dict[str, FleetKey] = {}
        self._journal = None  # optional ServerJournal (repro.server)

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def add_document(self, name: str, tree: DataTree | dict, *,
                     replace: bool = False) -> DataTree:
        """Adopt ``tree`` (live or in nested-dict wire form) under ``name``."""
        if isinstance(tree, dict):
            tree = from_dict(tree)
        if name in self._documents and not replace:
            raise ServiceError(f"document {name!r} is already registered "
                               "(pass replace=True to swap it)")
        self._documents[name] = tree
        self._enforcers.pop(name, None)
        self._drop_fleets(document=name)
        self._drop_bindings(document=name)
        if self._journal is not None:
            self._journal.document_registered(name, tree, replace)
        return tree

    def add_constraints(self, name: str,
                        constraints: ConstraintSet | Iterable, *,
                        replace: bool = False) -> ConstraintSet:
        """Register a constraint set (any :func:`constraint_set` spec form)."""
        if not isinstance(constraints, ConstraintSet):
            constraints = constraint_set(*constraints)
        constraints.require_concrete()
        if name in self._sets and not replace:
            raise ServiceError(f"constraint set {name!r} is already registered "
                               "(pass replace=True to swap it)")
        self._sets[name] = constraints
        self._sessions.pop(name, None)
        self._drop_bindings(constraints=name)
        # Live streams enforcing the replaced set froze its old baseline;
        # drop them so the next submission reopens under the new policy.
        for doc in [d for d, (bound_set, _) in self._enforcers.items()
                    if bound_set == name]:
            del self._enforcers[doc]
        self._drop_fleets(constraints=name)
        # Certificates are statements about the replaced set; drop them.
        for tpl in [t for t, (bound_set, _, _) in self._templates.items()
                    if bound_set == name]:
            del self._templates[tpl]
        if self._journal is not None:
            self._journal.constraints_registered(name, constraints, replace)
        return constraints

    def add_template(self, name: str, template: UpdateTemplate,
                     set_name: str, *,
                     replace: bool = False) -> CertifyOutcome:
        """Certify ``template`` against a registered set; store iff certified.

        Always returns the :class:`~repro.certify.CertifyOutcome` — the
        caller decides how to surface a rejection (the service ships the
        verdict and search accounting in ``Ack.stats``; the counterexample
        object stays server-side).  Certified templates are journaled in
        ``sets.journal``; recovery replays the record through this same
        path (:func:`~repro.certify.certify` is deterministic, so the
        stored verdict reproduces bit-for-bit).
        """
        constraints = self.constraints(set_name)
        if name in self._templates and not replace:
            raise ServiceError(f"template {name!r} is already registered "
                               "(pass replace=True to swap it)")
        outcome = certify(template, constraints)
        if outcome.certified:
            self._templates[name] = (set_name, template, outcome)
            # Recovery replays into a store with no journal attached, so
            # this write-through never re-journals its own replay.
            if self._journal is not None:
                self._journal.template_registered(name, template, set_name,
                                                  replace)
        return outcome

    def template(self, name: str, set_name: str
                 ) -> tuple[UpdateTemplate, CertifyOutcome]:
        """A certified template, checked against the submission's set."""
        try:
            bound_set, template, outcome = self._templates[name]
        except KeyError:
            raise ServiceError(
                f"unknown certified template {name!r}; registered: "
                f"{sorted(self._templates)}") from None
        if bound_set != set_name:
            raise ServiceError(
                f"template {name!r} is certified against constraint set "
                f"{bound_set!r}, not {set_name!r}")
        return template, outcome

    def templates(self) -> list[str]:
        return sorted(self._templates)

    def _drop_bindings(self, document: str | None = None,
                       constraints: str | None = None) -> None:
        for key in [k for k in self._bindings
                    if k[0] == constraints or k[1] == document]:
            del self._bindings[key]

    def _drop_fleets(self, document: str | None = None,
                     constraints: str | None = None) -> None:
        """Drop the fleets a re-registration voids."""
        for key in [k for k in self._fleets
                    if k[1] == constraints or document in k[0]]:
            self.drop_fleet(key)

    def drop_fleet(self, key: FleetKey) -> None:
        """Close a live fleet and every member's stream and bindings: a
        member that joins a later fleet (or opens a stream) starts from
        a fresh baseline.

        The drop is journaled before the registration that caused it:
        a member's checkpoint later compacts its registration record
        away, so the drop record is what keeps recovery from reopening
        the fleet (and the other members' old streams).
        """
        if self._journal is not None:
            self._journal.fleet_dropped(*key)
        del self._fleets[key]
        for member in key[0]:
            del self._members[member]
            self._enforcers.pop(member, None)
            self._drop_bindings(document=member)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def document(self, name: str) -> DataTree:
        try:
            return self._documents[name]
        except KeyError:
            raise ServiceError(f"unknown document {name!r}; registered: "
                               f"{sorted(self._documents)}") from None

    def constraints(self, name: str) -> ConstraintSet:
        try:
            return self._sets[name]
        except KeyError:
            raise ServiceError(f"unknown constraint set {name!r}; registered: "
                               f"{sorted(self._sets)}") from None

    def documents(self) -> list[str]:
        return sorted(self._documents)

    def constraint_sets(self) -> list[str]:
        return sorted(self._sets)

    # ------------------------------------------------------------------
    # Compiled artifacts (lazy, shared across requests)
    # ------------------------------------------------------------------
    def session(self, name: str) -> Reasoner:
        """The compiled session for a registered set (built on first use)."""
        session = self._sessions.get(name)
        if session is None:
            session = compiled_session(self.constraints(name))
            self._sessions[name] = session
        return session

    def binding(self, set_name: str, doc_name: str) -> BoundReasoner:
        """A bound session on the document's *current* state.

        Cached per ``(set, document)`` and invalidated by the document's
        mutation version, so instance queries interleaved with stream
        edits always see the live state yet amortise the snapshot between
        edits.  A document under enforcement is bound through its stream's
        evaluator (no rebuild per tree version): its masks catch up only
        when read, so the conclusion predicates a query caches there cost
        the stream nothing per op.
        """
        tree = self.document(doc_name)
        key = (set_name, doc_name)
        cached = self._bindings.get(key)
        if cached is not None and cached[0] == tree.version:
            return cached[1]
        live = self._enforcers.get(doc_name)
        context = live[1].context if live is not None else None
        if context is not None and not context.covers(tree):
            context = None  # edited behind the stream's back: rebuild
        bound = bind_session(self.session(set_name), tree, context=context)
        self._bindings[key] = (tree.version, bound)
        return bound

    def enforcer(self, doc_name: str, set_name: str) -> StreamEnforcer:
        """The document's live enforcement stream (opened on first use).

        A document has at most one stream; naming a different policy for
        an already-enforced document is a :class:`ServiceError` (close the
        stream by re-registering the document).  A fleet member's stream
        takes fleet epochs only, so asking for it here is refused too.
        """
        fleet = self.fleet_of(doc_name)
        if fleet is not None:
            raise ServiceError(
                f"document {doc_name!r} is in a live fleet under constraint "
                f"set {fleet[1]!r}; it cannot also open a stream "
                "(re-register the document to reset it)")
        return self.stream(doc_name, set_name)

    def stream(self, doc_name: str, set_name: str) -> StreamEnforcer:
        """The document's stream, opened on first use with no fleet
        admission check: the service runs fleet members' epochs on it,
        and journal recovery replays every stream record through it."""
        existing = self._enforcers.get(doc_name)
        if existing is not None:
            bound_set, enforcer = existing
            if bound_set != set_name:
                raise ServiceError(
                    f"document {doc_name!r} is already enforced under "
                    f"constraint set {bound_set!r}; a document has one live "
                    "stream (re-register the document to reset it)")
            return enforcer
        self.constraints(set_name)  # validate the name before adopting
        enforcer = self.session(set_name).open_stream(self.document(doc_name))
        self._enforcers[doc_name] = (set_name, enforcer)
        return enforcer

    def close_stream(self, doc_name: str) -> None:
        """Drop the document's live stream, if any; the document keeps
        its current state and a later submission opens a fresh stream."""
        self._enforcers.pop(doc_name, None)

    def fleet_of(self, doc_name: str) -> FleetKey | None:
        """The ``(documents, set)`` key of the live fleet holding a
        document, if any."""
        return self._members.get(doc_name)

    def check_fleet(self, doc_names: Iterable[str], set_name: str
                    ) -> FleetKey:
        """Validate a fleet submission's membership; changes nothing.

        The pair names a live fleet, or one that may open: a non-empty
        list of distinct registered documents, none in another live
        fleet and none with a client-opened stream, under a registered
        set.
        """
        docs = tuple(doc_names)
        if not docs:
            raise ServiceError("a fleet submission names at least one "
                               "document")
        if len(set(docs)) != len(docs):
            raise ServiceError(f"duplicate document names in fleet {docs!r}")
        key = (docs, set_name)
        if key in self._fleets:
            return key
        self.constraints(set_name)
        for doc in docs:
            other = self.fleet_of(doc)
            if other is not None:
                raise ServiceError(
                    f"document {doc!r} is already in a live fleet under "
                    f"constraint set {other[1]!r} (re-register the document "
                    "to reset it)")
            if doc in self._enforcers:
                raise ServiceError(
                    f"document {doc!r} has a live enforcement stream; it "
                    "cannot join a fleet (re-register the document to "
                    "reset it)")
            self.document(doc)
        return key

    def open_fleet(self, key: FleetKey) -> FleetLedger:
        """The ledger of the fleet under ``key``, a :meth:`check_fleet`
        result: opened on first use, continued by later submissions.

        Opening claims the members and touches no document: each
        member's stream opens on its first epoch, so its baseline is the
        document as it stood when the fleet opened.  A new ledger is
        journaled at once, before any member's bracket, so a crash
        inside the fleet's first submission still recovers the fleet.
        """
        ledger = self._fleets.get(key)
        if ledger is None:
            ledger = self._fleets[key] = FleetLedger()
            for doc in key[0]:
                self._members[doc] = key
            self.commit_fleet(key, ledger)
        return ledger

    def restore_fleet(self, doc_names: Iterable[str], set_name: str,
                      epoch: int, checksum: int) -> None:
        """Install a journaled ledger (recovery: no admission check)."""
        ledger = self.open_fleet((tuple(doc_names), set_name))
        ledger.epoch, ledger.checksum = epoch, checksum

    def live_fleets(self) -> list[tuple[tuple[str, ...], str, FleetLedger]]:
        """Every open fleet as ``(documents, set, ledger)``, key-sorted."""
        return [(docs, set_name, ledger)
                for (docs, set_name), ledger in sorted(self._fleets.items())]

    # ------------------------------------------------------------------
    # Durability (optional journal; see :mod:`repro.server.journal`)
    # ------------------------------------------------------------------
    @property
    def journal(self):
        """The attached :class:`~repro.server.journal.ServerJournal`, if any."""
        return self._journal

    def attach_journal(self, journal) -> None:
        """Record every later mutation of this store in ``journal``.

        Attach *after* :meth:`~repro.server.journal.ServerJournal.recover`
        has rebuilt the store — an attached journal writes through on
        every registration and submission, so recovering into an attached
        store would journal its own replay.
        """
        self._journal = journal

    def prepare_stream_ops(self, doc_name: str, ops):
        """Pin fresh-leaf ids at the durable boundary (no-op without a
        journal): the ops actually applied — and journaled — carry
        explicit ids, so a recovered process replays to identical trees."""
        if self._journal is None:
            return tuple(ops)
        return self._journal.prepare_ops(doc_name, tuple(ops))

    def commit_stream_ops(self, doc_name: str, set_name: str, ops,
                          enforcer: StreamEnforcer) -> None:
        """Journal (and fsync) the applied prefix of a submission."""
        if self._journal is not None and ops:
            self._journal.stream_submitted(doc_name, set_name,
                                           tuple(ops), enforcer)

    def commit_fleet(self, key: FleetKey, ledger: FleetLedger) -> None:
        """Journal (and fsync) a fleet's ledger: when it opens, and after
        each submission once every member's bracket is on disk."""
        if self._journal is not None:
            self._journal.fleet_submitted(*key, ledger.epoch,
                                          ledger.checksum)

    def commit_certified(self, doc_name: str, set_name: str,
                         template_name: str, bindings, ops,
                         enforcer: StreamEnforcer) -> None:
        """Journal (and fsync) one applied certified submission."""
        if self._journal is not None:
            self._journal.certified_submitted(doc_name, set_name,
                                              template_name, dict(bindings),
                                              tuple(ops), enforcer)

    def adopt_stream(self, doc_name: str, set_name: str,
                     enforcer: StreamEnforcer) -> None:
        """Install a recovered enforcement stream (checkpoint restore).

        The stream's tree *becomes* the stored document — exactly the
        adoption relationship :meth:`enforcer` establishes on first use —
        and any stale bindings on the old tree are dropped.
        """
        self.constraints(set_name)  # validate before adopting
        self._documents[doc_name] = enforcer.tree
        self._enforcers[doc_name] = (set_name, enforcer)
        self._drop_bindings(document=doc_name)

    def live_stream(self, doc_name: str) -> tuple[str, StreamEnforcer] | None:
        """``(set name, enforcer)`` if the document has an open stream."""
        return self._enforcers.get(doc_name)

    def live_streams(self) -> list[tuple[str, str, StreamEnforcer]]:
        """Every open stream as ``(document, set, enforcer)``, name-sorted."""
        return [(doc, bound_set, enforcer)
                for doc, (bound_set, enforcer) in sorted(self._enforcers.items())]

    def __repr__(self) -> str:
        return (f"DocumentStore({len(self._documents)} documents, "
                f"{len(self._sets)} constraint sets, "
                f"{len(self._enforcers)} live streams)")


__all__ = ["DocumentStore", "FleetLedger"]
