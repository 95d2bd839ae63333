"""Append-only durability: per-document journals, checkpoints, recovery.

A :class:`ServerJournal` makes a :class:`~repro.service.store.
DocumentStore` survive its process.  Everything state-bearing is recorded
as a CRC-framed record (:mod:`repro.server.framing`) in an append-only
file, fsync'd *before* the response that acknowledges it is sent:

* ``<root>/sets.journal`` — constraint-set registrations, in their wire
  form (XPath text + type), including replacements, certified templates,
  and the fleets: a *ledger* record (the fleet's epoch counter and
  running checksum) when a fleet opens and after each
  :class:`~repro.service.protocol.FleetSubmit`, and a *drop* record
  when a re-registration closes it;
* ``<root>/docs/<name>/journal`` — one file per document: its
  registration record (the full tree, nested-dict form) followed by one
  record per effective :class:`~repro.service.protocol.StreamSubmit` or
  fleet-epoch bracket (the ops as *applied*, leaf ids pinned — see
  :meth:`prepare_ops`);
* ``<root>/docs/<name>/checkpoint`` — the latest snapshot: the
  enforcement stream's :meth:`~repro.stream.engine.StreamEnforcer.
  state_dict` plus the journal position it covers, written to a temp
  file and atomically renamed.  After a checkpoint the journal is
  *compacted*: the checkpoint covers every record it held, so it is
  emptied.

Every record carries a globally monotone ``lsn`` (log sequence number),
so :meth:`recover` can merge the set journal and all document journals
back into the one execution order the live server actually ran, restore
checkpoints at their covered position, and replay only the suffix —
reconverging on the exact live state (the enforcement engine is
deterministic; see :meth:`~repro.stream.engine.StreamEnforcer.replay`).

Failure semantics, pinned by the fault-injection suite
(:mod:`repro.server.faults`): a **torn tail** — the crash interrupted
the final append — is truncated and survived; **checksum-corrupt
history** raises :class:`~repro.errors.JournalCorruptError` and recovery
refuses to continue.  :meth:`simulate_power_loss` models the
kill-between-fsync window by truncating every journal back to its last
fsync'd offset.
"""

from __future__ import annotations

import os
import urllib.parse
from collections.abc import Callable, Iterable
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, BinaryIO

from repro import codec
from repro.certify.templates import Binding, UpdateTemplate, bindings_to_wire
from repro.codec import Count
from repro.constraints.model import UpdateConstraint
from repro.errors import JournalError, ReproError, ServiceError, WireError
from repro.obs import MetricsRegistry, registry as _obs_registry, span
from repro.server.framing import encode_record, scan_records
from repro.stream.engine import StreamEnforcer
from repro.stream.ops import AddLeaf, StreamOp
from repro.trees import serialize
from repro.trees.tree import DataTree

#: Record payloads travel through the wire codec.
_constraints_out = codec.derive(tuple[UpdateConstraint, ...], "constraints")[0]
_ops_out = codec.derive(tuple[StreamOp, ...], "ops")[0]


def _fields(**types: Any) -> dict[str, Callable[..., Any]]:
    return {key: codec.derive(tp, key)[1] for key, tp in types.items()}


_NAMES = tuple[str, ...]
#: Every record's envelope, then the record kinds each file may hold and
#: their fields: recovery decodes a record through these before it acts
#: on it, so an ill-typed value is refused, never coerced.  ``None``
#: marks a field a record may omit.
_ENVELOPE = _fields(lsn=Count, kind=str)
_SET_KINDS = {
    "constraints": _fields(name=str, constraints=tuple[UpdateConstraint, ...],
                           replace=bool | None),
    "template": _fields(name=str, template=UpdateTemplate, set=str,
                        replace=bool | None),
    "fleet": _fields(documents=_NAMES, set=str, epoch=Count,
                     checksum=Count),
    "fleet-drop": _fields(documents=_NAMES, set=str),
}
_DOC_KINDS = {
    "document": _fields(name=str, tree=DataTree, replace=bool | None),
    "submit": _fields(set=str, ops=tuple[StreamOp, ...]),
    "certified": _fields(set=str, template=str, bindings=dict[str, Binding],
                         ops=tuple[StreamOp, ...]),
}
_CHECKPOINT_KINDS = {"checkpoint": _fields(doc=str, set=str, next_id=int)}

_SETS = "sets.journal"
_DOCS = "docs"
_JOURNAL = "journal"
_CHECKPOINT = "checkpoint"


def _doc_dirname(name: str) -> str:
    """A filesystem-safe, reversible directory name for a document."""
    return "doc-" + urllib.parse.quote(name, safe="")


def _fsync_dir(path: Path) -> None:
    """Best-effort directory fsync (durable renames on POSIX)."""
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _decoded(record: Any, path: Path, kinds: dict[str, dict]) -> dict:
    """``record``, read back from ``path``, with its fields decoded.

    A record must be an object with a non-negative int ``lsn`` and a
    ``kind`` that ``path`` may hold, whose fields decode; anything else
    is a :class:`~repro.errors.JournalError` naming the file and the lsn.
    """
    where = f"record in {path}"
    try:
        if record.__class__ is not dict:
            raise WireError(f"a record must be a JSON object, got "
                            f"{record!r:.80}")
        for key, decode in _ENVELOPE.items():
            decode(record.get(key))
        where = f"record (lsn {record['lsn']}) in {path}"
        fields = kinds.get(record["kind"])
        if fields is None:
            raise WireError(f"unknown record kind {record['kind']!r}; "
                            f"expected one of {sorted(kinds)}")
        for key, decode in fields.items():
            record[key] = decode(record.get(key))
    except ReproError as err:
        raise JournalError(f"malformed {where}: {err}") from None
    return record


@dataclass
class RecoveryReport:
    """What :meth:`ServerJournal.recover` found and rebuilt."""

    constraint_sets: list[str] = field(default_factory=list)
    documents: list[str] = field(default_factory=list)
    records_replayed: int = 0
    decisions_replayed: int = 0
    checkpoints_used: list[str] = field(default_factory=list)
    #: ``(path, bytes_dropped)`` per journal whose torn tail was truncated.
    torn_tails: list[tuple[str, int]] = field(default_factory=list)

    def __str__(self) -> str:
        torn = (f", {len(self.torn_tails)} torn tail(s) truncated"
                if self.torn_tails else "")
        return (f"recovered {len(self.documents)} document(s), "
                f"{len(self.constraint_sets)} constraint set(s); "
                f"{self.records_replayed} record(s) / "
                f"{self.decisions_replayed} decision(s) replayed, "
                f"{len(self.checkpoints_used)} checkpoint(s) used{torn}")


class ServerJournal:
    """The durability layer behind a :class:`~repro.server.server.ReproServer`.

    Attach with :meth:`~repro.service.store.DocumentStore.attach_journal`
    *after* :meth:`recover` has rebuilt the store — an attached journal
    records every mutation the store performs, so recovering into an
    already-attached store would re-journal its own replay.

    ``fsync=False`` trades the per-record ``fsync`` for throughput: the
    journal is still written in order, but a power loss may take back
    acknowledged operations (:meth:`simulate_power_loss` models exactly
    this).  ``checkpoint_every`` bounds replay work and journal size: a
    document's stream is snapshotted after that many submit records and
    its journal compacted.  ``faults`` accepts a
    :class:`~repro.server.faults.CrashSchedule` (or anything with a
    ``hit(point)`` method) and is consulted at every durability point.
    """

    def __init__(self, root: str | Path, *, fsync: bool = True,
                 checkpoint_every: int = 256, audit_keep: int = 64,
                 faults=None, metrics: MetricsRegistry | None = None):
        self.root = Path(root)
        self.fsync = fsync
        self.checkpoint_every = max(1, checkpoint_every)
        self.audit_keep = max(0, audit_keep)
        self.faults = faults
        self._metrics = metrics if metrics is not None else _obs_registry()
        m = self._metrics
        self._m_records = m.counter("journal.records_total")
        self._m_bytes = m.counter("journal.bytes_written_total")
        self._m_fsync = m.histogram("journal.fsync_seconds")
        self._m_torn = m.counter("journal.torn_tails_total")
        self.root.mkdir(parents=True, exist_ok=True)
        (self.root / _DOCS).mkdir(exist_ok=True)
        self._lsn = 1  # next lsn to assign (recover() advances it)
        self._handles: dict[Path, BinaryIO] = {}
        self._synced: dict[Path, int] = {}  # last fsync'd size per file
        self._sizes: dict[Path, int] = {}   # written size per file
        self._journal_paths: dict[str, Path] = {}  # built once per document
        self._next_id: dict[str, int] = {}  # per-document leaf-id counter
        self._since_checkpoint: dict[str, int] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def _doc_dir(self, name: str) -> Path:
        return self.root / _DOCS / _doc_dirname(name)

    def doc_journal_path(self, name: str) -> Path:
        # Every submit record appends here: quote the name and join the
        # parts once per document, not once per record.
        path = self._journal_paths.get(name)
        if path is None:
            path = self._journal_paths[name] = self._doc_dir(name) / _JOURNAL
        return path

    def doc_checkpoint_path(self, name: str) -> Path:
        return self._doc_dir(name) / _CHECKPOINT

    @property
    def sets_journal_path(self) -> Path:
        return self.root / _SETS

    # ------------------------------------------------------------------
    # Low-level append
    # ------------------------------------------------------------------
    def _fault(self, point: str) -> None:
        if self.faults is not None:
            self.faults.hit(point)

    def _handle(self, path: Path) -> BinaryIO:
        handle = self._handles.get(path)
        if handle is None:
            handle = open(path, "ab", buffering=0)
            self._handles[path] = handle
            size = path.stat().st_size
            self._sizes[path] = size
            self._synced[path] = size
        return handle

    def _append(self, path: Path, record: dict) -> None:
        if self._closed:
            raise JournalError("the journal is closed")
        record = dict(record)
        record["lsn"] = self._lsn
        self._lsn += 1
        blob = encode_record(record)
        handle = self._handle(path)
        handle.write(blob)
        self._sizes[path] = self._sizes.get(path, 0) + len(blob)
        self._m_records.inc()
        self._m_bytes.inc(len(blob))
        self._fault("journal-write")
        if self.fsync:
            started = perf_counter()
            os.fsync(handle.fileno())
            self._m_fsync.observe(perf_counter() - started)
            self._synced[path] = self._sizes[path]
            self._fault("journal-fsync")

    # ------------------------------------------------------------------
    # Store hooks (called by DocumentStore)
    # ------------------------------------------------------------------
    def constraints_registered(self, name: str, constraints: Iterable,
                               replace: bool) -> None:
        self._append(self.sets_journal_path, {
            "kind": "constraints", "name": name,
            "constraints": _constraints_out(constraints),
            "replace": bool(replace),
        })

    def template_registered(self, name: str, template: UpdateTemplate,
                            set_name: str, replace: bool) -> None:
        """Record one *certified* template registration.

        Lives in ``sets.journal`` (like the constraint sets certificates
        are statements about); recovery replays the record through
        :meth:`~repro.service.store.DocumentStore.add_template`, and the
        deterministic certifier reproduces the stored verdict — the
        journal never records rejected or unknown templates.
        """
        self._append(self.sets_journal_path, {
            "kind": "template", "name": name,
            "template": template.to_dict(), "set": set_name,
            "replace": bool(replace),
        })

    def document_registered(self, name: str, tree: DataTree,
                            replace: bool) -> None:
        """Start (or restart, on replace) the document's journal."""
        doc_dir = self._doc_dir(name)
        journal = self.doc_journal_path(name)
        checkpoint = self.doc_checkpoint_path(name)
        # A re-registration voids the document's whole history: drop the
        # open handle, the old journal and any checkpoint before the new
        # registration record lands.
        handle = self._handles.pop(journal, None)
        if handle is not None:
            handle.close()
        doc_dir.mkdir(parents=True, exist_ok=True)
        journal.unlink(missing_ok=True)
        checkpoint.unlink(missing_ok=True)
        self._sizes.pop(journal, None)
        self._synced.pop(journal, None)
        self._append(journal, {
            "kind": "document", "name": name,
            "tree": serialize.to_dict(tree), "replace": bool(replace),
        })
        _fsync_dir(doc_dir)
        self._next_id[name] = max(tree.node_ids()) + 1
        self._since_checkpoint[name] = 0

    def prepare_ops(self, doc: str, ops: tuple[StreamOp, ...]
                    ) -> tuple[StreamOp, ...]:
        """Pin unpinned :class:`AddLeaf` ids from the document's counter.

        A journaled log must replay to the *same* document, so fresh
        leaves cannot draw from the process-global allocator (a recovered
        process would allocate differently).  The per-document counter is
        deterministic — it starts past the registered tree's ids and only
        a journaled record moves it (:meth:`_advance`), on the live server
        and during replay alike, so an op that never reaches the journal
        uses up no id.  A caller therefore appends a document's record
        before it pins that document's next ops.  Pinning at the service
        boundary also tells the wire client which id its insert received.
        """
        counter = self._next_id.get(doc)
        if counter is None:
            return ops  # unknown document: the enforcer lookup will raise
        pinned: list[StreamOp] = []
        for op in ops:
            if isinstance(op, AddLeaf):
                if op.nid is None:
                    op = AddLeaf(op.parent, op.label, nid=counter)
                counter = max(counter, op.nid + 1)
            pinned.append(op)
        return tuple(pinned)

    def _advance(self, doc: str, ops: Iterable[StreamOp]) -> None:
        """Move the document's leaf-id counter past a record's pinned ids
        and count the record toward the next checkpoint."""
        counter = self._next_id.get(doc, 1)
        for op in ops:
            if isinstance(op, AddLeaf) and op.nid is not None:
                counter = max(counter, op.nid + 1)
        self._next_id[doc] = counter
        self._since_checkpoint[doc] = self._since_checkpoint.get(doc, 0) + 1

    def _doc_record(self, doc: str, set_name: str, record: dict,
                    ops: tuple[StreamOp, ...],
                    enforcer: StreamEnforcer) -> None:
        """Append a submission record to the document's journal, advance
        its counter past the record's ops, and checkpoint when due."""
        self._append(self.doc_journal_path(doc), record)
        self._advance(doc, ops)
        if (self._since_checkpoint[doc] >= self.checkpoint_every
                and not enforcer.in_transaction):
            self.checkpoint(doc, set_name, enforcer)

    def fleet_submitted(self, documents: tuple[str, ...], set_name: str,
                        epoch: int, checksum: int) -> None:
        """Record a fleet's ledger as it opens and after each
        ``fleet-submit``.

        Written when the fleet opens, before any member's bracket, and
        again after every member's bracket record, so an acknowledged
        submission always recovers whole.  A crash between the two can
        leave an unacknowledged submission applied on some members, with
        the ledger still at the previous submission (or at epoch 0);
        ``stream-status`` on each member tells a client which brackets
        survived, and a retry continues the fleet.
        """
        self._append(self.sets_journal_path, {
            "kind": "fleet", "documents": list(documents), "set": set_name,
            "epoch": epoch, "checksum": checksum,
        })

    def fleet_dropped(self, documents: tuple[str, ...],
                      set_name: str) -> None:
        """Record that a re-registration closed a fleet.

        Written before the registration record: a member's checkpoint
        can compact that record away, and recovery must still close the
        fleet and its members' streams at this point in the log.
        """
        self._append(self.sets_journal_path, {
            "kind": "fleet-drop", "documents": list(documents),
            "set": set_name,
        })

    def stream_submitted(self, doc: str, set_name: str,
                         ops: tuple[StreamOp, ...],
                         enforcer: StreamEnforcer) -> None:
        """Record one effective submission; checkpoint when due."""
        if ops:
            self._doc_record(doc, set_name, {
                "kind": "submit", "set": set_name, "ops": _ops_out(ops),
            }, ops, enforcer)

    def certified_submitted(self, doc: str, set_name: str,
                            template_name: str, bindings: dict,
                            ops: tuple[StreamOp, ...],
                            enforcer: StreamEnforcer) -> None:
        """Record one applied certified submission; checkpoint when due.

        The record carries the template *name* plus the bindings and the
        pinned ops: recovery replays it through
        :meth:`~repro.stream.engine.StreamEnforcer.apply_certified` (the
        template itself recovers from ``sets.journal`` first — its lsn is
        always lower), so a recovered stream's audit trail, counters and
        ``certified`` accounting match the live one's exactly.
        """
        self._doc_record(doc, set_name, {
            "kind": "certified", "set": set_name,
            "template": template_name,
            "bindings": bindings_to_wire(bindings), "ops": _ops_out(ops),
        }, ops, enforcer)

    # ------------------------------------------------------------------
    # Checkpoints and compaction
    # ------------------------------------------------------------------
    def checkpoint(self, doc: str, set_name: str,
                   enforcer: StreamEnforcer) -> None:
        """Snapshot the stream's state and compact its journal.

        The checkpoint covers every record with ``lsn < self._lsn``; the
        write is crash-safe (temp file + fsync + atomic rename — a crash
        at any point leaves either the old checkpoint or the new one,
        never a torn one), and only after the rename is the journal
        compacted.  A crash between the two merely replays records the
        checkpoint already covers — which the covered-lsn filter skips.
        """
        covered = self._lsn - 1
        with span("journal.checkpoint", registry=self._metrics):
            record = encode_record({
                "kind": "checkpoint", "lsn": covered, "doc": doc,
                "set": set_name, "next_id": self._next_id.get(doc, 1),
                "state": enforcer.state_dict(),
            })
            path = self.doc_checkpoint_path(doc)
            tmp = path.with_suffix(".tmp")
            with open(tmp, "wb") as handle:
                handle.write(record)
                self._fault("checkpoint-write")
                if self.fsync:
                    os.fsync(handle.fileno())
            os.replace(tmp, path)
            _fsync_dir(path.parent)
            self._fault("checkpoint-rename")
            self._compact(doc)
            enforcer.audit.compact(keep_last=self.audit_keep)
        self._since_checkpoint[doc] = 0

    def _compact(self, doc: str) -> None:
        """Empty the document's journal, crash-safely.

        The checkpoint just written covers every record a document
        journal can hold (each has ``lsn < self._lsn``), so nothing is
        kept and nothing needs reading first.
        """
        with span("journal.compact", registry=self._metrics):
            journal = self.doc_journal_path(doc)
            handle = self._handles.pop(journal, None)
            if handle is not None:
                handle.close()
            tmp = journal.with_suffix(".compact")
            with open(tmp, "wb") as out:
                if self.fsync:
                    os.fsync(out.fileno())
            os.replace(tmp, journal)
            _fsync_dir(journal.parent)
            self._fault("compact")
            self._sizes[journal] = 0
            self._synced[journal] = 0

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def recover(self, store) -> RecoveryReport:
        """Rebuild ``store`` from disk; returns what was replayed.

        Call on a *fresh* store with no journal attached, then attach
        this journal.  Torn tails are truncated in place (the files are
        repaired, not just skipped); corrupt history raises
        :class:`~repro.errors.JournalCorruptError` before the store is
        touched beyond the records already applied.
        """
        report = RecoveryReport()
        events: list[tuple[int, int, str, dict]] = []  # (lsn, tie, kind, data)
        top = self._scan(self.sets_journal_path, _SET_KINDS, report)
        for record in top:
            events.append((record["lsn"], 0, record["kind"], record))
        docs_root = self.root / _DOCS
        for doc_dir in sorted(p for p in docs_root.iterdir() if p.is_dir()):
            self._gather_doc(doc_dir, events, report)
        events.sort(key=lambda e: (e[0], e[1]))
        max_lsn = 0
        for lsn, _, kind, data in events:
            max_lsn = max(max_lsn, lsn)
            self._apply(kind, data, store, report)
            report.records_replayed += 1
        self._check_fleets(store)
        self._lsn = max_lsn + 1
        return report

    @staticmethod
    def _check_fleets(store) -> None:
        """Refuse a recovered fleet whose set or member nothing registers.

        A ledger record skips admission, and a member's registration may
        sit in a checkpoint restored at a later lsn, so this runs once the
        whole replay is done.
        """
        sets, documents = set(store.constraint_sets()), set(store.documents())
        for docs, set_name, _ in store.live_fleets():
            missing = ([f"constraint set {set_name!r}"]
                       if set_name not in sets else [])
            missing += [f"document {doc!r}" for doc in docs
                        if doc not in documents]
            if missing:
                raise JournalError(
                    f"journaled fleet {(docs, set_name)!r} names "
                    f"{' and '.join(missing)}, which the journals never "
                    f"register")

    def _scan(self, path: Path, kinds: dict[str, dict],
              report: RecoveryReport) -> list[dict]:
        """Read a journal file's records (:func:`_decoded`), truncating a
        torn tail in place."""
        if not path.exists():
            return []
        blob = path.read_bytes()
        records, good = scan_records(blob, path=str(path))
        if good < len(blob):
            report.torn_tails.append((str(path), len(blob) - good))
            self._m_torn.inc()
            with open(path, "ab") as handle:
                handle.truncate(good)
                if self.fsync:
                    os.fsync(handle.fileno())
        return [_decoded(record, path, kinds) for record in records]

    def _gather_doc(self, doc_dir: Path,
                    events: list[tuple[int, int, str, dict]],
                    report: RecoveryReport) -> None:
        name = urllib.parse.unquote(doc_dir.name[len("doc-"):])
        journal_path = doc_dir / _JOURNAL
        records = self._scan(journal_path, _DOC_KINDS, report)
        checkpoint = self._load_checkpoint(doc_dir / _CHECKPOINT, report)
        covered = -1
        if checkpoint is not None:
            covered = checkpoint["lsn"]
            # tie=1: a checkpoint at lsn L embodies record L — it must
            # apply *after* any other event carrying the same lsn.
            events.append((covered, 1, "restore", checkpoint))
            report.checkpoints_used.append(name)
        survivors = [r for r in records if r["lsn"] > covered]
        if checkpoint is None and not any(
                r["kind"] == "document" for r in survivors):
            if not survivors:
                return  # empty journal directory: nothing to rebuild
            raise JournalError(
                f"document journal {journal_path} has submissions but no "
                f"registration record and no checkpoint: unrecoverable")
        for record in survivors:
            # Submit records live in the document's own journal and do not
            # repeat the name; stamp it so _apply sees a self-contained event.
            record.setdefault("doc", name)
            events.append((record["lsn"], 0, record["kind"], record))

    def _load_checkpoint(self, path: Path,
                         report: RecoveryReport) -> dict | None:
        if not path.exists():
            return None
        blob = path.read_bytes()
        records, good = scan_records(blob, path=str(path))
        if not records or good < len(blob):
            # A torn checkpoint cannot happen through the atomic-rename
            # write path; treat external truncation as "no checkpoint"
            # and fall back to full journal replay.
            report.torn_tails.append((str(path), len(blob) - good))
            self._m_torn.inc()
            return None
        return _decoded(records[0], path, _CHECKPOINT_KINDS)

    def _apply(self, kind: str, data: dict, store,
               report: RecoveryReport) -> None:
        if kind == "constraints":
            store.add_constraints(
                data["name"], data["constraints"],
                replace=bool(data["replace"]) or
                data["name"] in store.constraint_sets())
            if data["name"] not in report.constraint_sets:
                report.constraint_sets.append(data["name"])
        elif kind == "document":
            name = data["name"]
            store.add_document(name, data["tree"],
                               replace=bool(data["replace"]) or
                               name in store.documents())
            self._next_id[name] = max(store.document(name).node_ids()) + 1
            self._since_checkpoint[name] = 0
            if name not in report.documents:
                report.documents.append(name)
        elif kind == "template":
            outcome = store.add_template(
                data["name"], data["template"], data["set"],
                replace=bool(data["replace"]) or
                data["name"] in store.templates())
            if not outcome.certified:
                # certify() is deterministic over (template, set); a
                # journaled registration that no longer certifies means
                # the journals disagree with themselves.
                raise JournalError(
                    f"journaled template {data['name']!r} (lsn "
                    f"{data['lsn']}) failed re-certification against set "
                    f"{data['set']!r} during recovery")
        elif kind in ("submit", "certified"):
            name = data["doc"]
            what = "submission" if kind == "submit" else "certified submission"
            ops = data["ops"]
            try:
                enforcer = store.stream(name, data["set"])
                if kind == "submit":
                    decisions = enforcer.replay(ops)
                else:
                    template, _ = store.template(data["template"], data["set"])
                    decisions = enforcer.apply_certified(
                        template, data["bindings"], ops=ops)
            except Exception as err:
                raise JournalError(
                    f"replay of journaled {what} (lsn {data['lsn']}) for "
                    f"document {name!r} failed: {err}") from err
            report.decisions_replayed += len(decisions)
            self._advance(name, ops)
        elif kind == "fleet":
            store.restore_fleet(data["documents"], data["set"],
                                data["epoch"], data["checksum"])
        elif kind == "fleet-drop":
            key = (data["documents"], data["set"])
            if key not in {(docs, set_name)
                           for docs, set_name, _ in store.live_fleets()}:
                raise JournalError(
                    f"journaled drop (lsn {data['lsn']}) names fleet "
                    f"{key!r}, which the journals never opened")
            store.drop_fleet(key)
        elif kind == "restore":
            name = data["doc"]
            try:
                constraints = store.constraints(data["set"])
            except ServiceError as err:
                raise JournalError(
                    f"checkpoint for document {name!r} names constraint "
                    f"set {data['set']!r} which the journals do not "
                    f"register: {err}") from None
            try:
                enforcer = StreamEnforcer.restore(constraints, data["state"])
                store.adopt_stream(name, data["set"], enforcer)
            except Exception as err:
                raise JournalError(
                    f"restore of checkpoint (lsn {data['lsn']}) for "
                    f"document {name!r} failed: {err}") from err
            self._next_id[name] = data["next_id"]
            self._since_checkpoint[name] = 0
            if name not in report.documents:
                report.documents.append(name)

    # ------------------------------------------------------------------
    # Lifecycle and fault hooks
    # ------------------------------------------------------------------
    def sync(self) -> None:
        """fsync every open journal handle (used with ``fsync=False``)."""
        for path, handle in self._handles.items():
            started = perf_counter()
            os.fsync(handle.fileno())
            self._m_fsync.observe(perf_counter() - started)
            self._synced[path] = self._sizes.get(path, 0)

    def simulate_power_loss(self) -> None:
        """Model the kill-between-fsync window: un-fsync'd bytes vanish.

        The fault harness calls this after a
        :class:`~repro.server.faults.SimulatedCrash` to make the on-disk
        state exactly what a power cut at that instant could leave:
        every journal truncated back to its last fsync'd offset.  The
        journal object is closed (the "process" died).
        """
        paths = list(self._handles)
        self.abandon()
        for path in paths:
            # A compaction may have atomically replaced the file with a
            # *smaller* durable one after the last tracked fsync; never
            # "restore" past the real end (truncate would zero-pad).
            synced = min(self._synced.get(path, 0), path.stat().st_size)
            with open(path, "ab") as repair:
                repair.truncate(synced)

    def abandon(self) -> None:
        """Let go of every handle the way a killed process does.

        The operating system closes a dead process's files without an
        fsync; writes are unbuffered, so every written byte stays in the
        file.  The journal is closed.
        """
        for handle in self._handles.values():
            handle.close()
        self._handles.clear()
        self._closed = True

    def close(self) -> None:
        """Flush and close every handle (idempotent)."""
        if self._closed:
            return
        for handle in self._handles.values():
            if self.fsync:
                os.fsync(handle.fileno())
            handle.close()
        self._handles.clear()
        self._closed = True

    def __enter__(self) -> "ServerJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"ServerJournal({str(self.root)!r}, fsync={self.fsync}, "
                f"checkpoint_every={self.checkpoint_every}, "
                f"next_lsn={self._lsn})")


__all__ = ["ServerJournal", "RecoveryReport"]
