"""The closed-loop socket driver, the set-up it times, and the gates.

One process runs a real :class:`~repro.server.server.ReproServer` and
:data:`~perfbench.traffic.CONNECTIONS` :class:`~repro.server.client.
ReproClient` connections on one event loop, over loopback TCP.  Each
connection keeps ``window`` callers, and each caller sends its next
request only after the previous one's response has arrived (a closed
loop).  Requests for one document always travel on one connection, in
sequence order, so every response is fixed by the seed.

A measurement runs in three phases:

1. **Set-up, seven times.**  Start the server (the durable workload
   first copies a seeded journal and recovers it), connect, handshake
   and register; ``setup_s`` is the median.  Each set-up is followed by
   the **count window**: the first ``count_window`` requests of every
   connection, drained to quiescence.  The counts it leaves behind
   (stream ops, rejections, fast-path ops, journal records, bytes,
   fsyncs, checkpoints) depend only on the seed, so every window must
   agree exactly; the windows also warm the caches before timing.
2. **Timed phase** on the last server, for ``seconds``, in
   :data:`SLICES` slices with a :func:`calibrate` sample between them;
   traced mode alternates untraced and traced slices.
3. **Gates.**  The folded response checksums of each connection must
   equal an in-process replay of the same requests through
   :meth:`ConstraintService.handle`, and the replay's count-window stream
   counts must equal the live ones.  The durable workload's journal
   directory is recovered into a fresh store, and every document's
   ``StreamStatus`` must equal the live server's.  The traced run also
   replays through bare enforcers and sessions (:func:`direct`).
"""

from __future__ import annotations

import asyncio
import json
import shutil
import statistics
import zlib
from collections import Counter
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

from repro.server import ReproClient, ReproServer, ServerJournal
from repro.service.dispatch import bind_session, compiled_session
from repro.service.protocol import (
    Ack,
    ImplicationQuery,
    QueryAnswers,
    RegisterConstraints,
    RegisterDocument,
    StreamDecisions,
    StreamStatus,
    StreamSubmit,
    Verdict,
    WireDecision,
    response_checksum,
)
from repro.service.service import ConstraintService
from repro.service.store import DocumentStore
from repro.stream.engine import StreamEnforcer

from perfbench.tracer import SENT_TRACE, Tracer
from perfbench.traffic import CONNECTIONS, POLICY, Workload

#: Set-ups per measurement (``setup_s`` is their median).
SETUPS = 7
#: The timed phase runs in this many slices, with a calibration sample
#: before each and after the last; traced mode alternates untraced and
#: traced slices.
SLICES = 30
#: Seconds :func:`calibrate`'s fixed work takes on an unloaded 2-core
#: measuring box (the scale of every normalised time).
CALIBRATION_NOMINAL = 0.025
_FOLD = 1_000_003
_MOD = 2 ** 61


class BenchmarkError(Exception):
    """The server refused the benchmark's own set-up."""


def fold(total: int, value: int) -> int:
    return (total * _FOLD + value) % _MOD


def _stream_totals(pairs_per_doc) -> Counter:
    totals: Counter = Counter()
    for pairs in pairs_per_doc:
        totals.update(dict(pairs))
    return totals


# ----------------------------------------------------------------------
# Machine speed
# ----------------------------------------------------------------------
def _calibration_work() -> int:
    total = 0
    table: dict[tuple[int, int], int] = {}
    for i in range(40_000):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0) + i
        total += len(str(i)) + (i * 7919) % 104729
    payload = json.dumps({str(k): v for k, v in table.items()}, sort_keys=True)
    return total + zlib.crc32(payload.encode()) + len(json.loads(payload))


def calibrate() -> float:
    """Seconds a fixed piece of interpreter work takes right now.

    The measuring box is shared: its speed drifts by a quarter within
    minutes, and every time the benchmark takes drifts with it.  The work
    touches no ``repro`` code, so a change to the program cannot move it;
    the run's mean over samples taken between slices scales the
    end-to-end times to :data:`CALIBRATION_NOMINAL`.
    """
    started = perf_counter()
    _calibration_work()
    return perf_counter() - started


# ----------------------------------------------------------------------
# The server under test
# ----------------------------------------------------------------------
class Served:
    """One server and the benchmark's connections to it."""

    def __init__(self, server: ReproServer, clients: list[ReproClient]):
        self.server = server
        self.clients = clients

    @classmethod
    async def start(cls, wl: Workload, root: Path | None
                    ) -> tuple["Served", float]:
        """Start, recover, handshake and register; returns its seconds."""
        started = perf_counter()
        server = (ReproServer.durable(root) if wl.durable else ReproServer())
        host, port = await server.start()
        clients = [await ReproClient.connect(host, port)
                   for _ in range(CONNECTIONS)]
        if not wl.durable:  # the durable server recovered its registrations
            replies = [await clients[0].request(
                RegisterConstraints(POLICY, tuple(wl.policy)))]
            for name, tree in wl.documents:
                replies.append(await clients[0].request(
                    RegisterDocument(name, tree)))
            bad = [r for r in replies if r.kind != "ack"]
            if bad:
                raise BenchmarkError(f"registration failed: {bad[0]}")
        return cls(server, clients), perf_counter() - started

    async def counts(self, wl: Workload) -> Counter:
        """Stream counters over every document plus the journal's counters."""
        acks = [await self.clients[0].request(StreamStatus(name))
                for name, _ in wl.documents]
        totals = _stream_totals(ack.stats for ack in acks)
        snapshot = await self.metrics()
        counters, histograms = snapshot["counters"], snapshot["histograms"]
        totals["records"] = counters.get("journal.records_total", 0)
        totals["bytes"] = counters.get("journal.bytes_written_total", 0)
        for key, name in (("fsyncs", "journal.fsync_seconds"),
                          ("checkpoints", "journal.checkpoint_seconds")):
            totals[key] = histograms.get(name, {}).get("count", 0)
        return totals

    async def metrics(self) -> dict:
        return (await self.clients[0].metrics()).metrics

    async def statuses(self, wl: Workload) -> list[int]:
        return [response_checksum(await self.clients[0].request(
            StreamStatus(name))) for name, _ in wl.documents]

    async def close(self) -> None:
        for client in self.clients:
            await client.close()
        await self.server.close()


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------
class ClosedLoop:
    """``window`` callers per connection, each awaiting its response."""

    def __init__(self, wl: Workload, served: Served):
        self.wl = wl
        self.served = served
        self.cursor = [0] * CONNECTIONS
        # Checksums, not responses: a run's worth of retained response
        # objects would make each full collection rescan them, and those
        # pauses would be the harness's, not the server's.
        self.checksums: list[list[int]] = [[0] * len(seq)
                                           for seq in wl.connections]
        self.submit_latency: list[float] = []
        self.query_latency: list[float] = []
        self.failed = 0
        self.exhausted = False

    @property
    def sent(self) -> int:
        return sum(self.cursor)

    async def run(self, *, limit: int | None = None,
                  seconds: float | None = None, record: bool = False,
                  walls: list | None = None) -> tuple[int, float]:
        """Send until ``limit`` per connection or ``seconds`` have passed.

        Every request sent is awaited before this returns, so the phase
        ends quiescent.  Returns ``(requests completed, elapsed seconds)``.
        """
        started = perf_counter()
        deadline = None if seconds is None else started + seconds
        before = self.sent
        submits, queries = self.submit_latency, self.query_latency

        async def caller(c: int) -> None:
            client = self.served.clients[c]
            seq = self.wl.connections[c]
            checksums = self.checksums[c]
            end = len(seq) if limit is None else min(limit, len(seq))
            while True:
                i = self.cursor[c]
                if deadline is not None and perf_counter() >= deadline:
                    return
                if i >= end:
                    self.exhausted |= limit is None or end < limit
                    return
                self.cursor[c] = i + 1
                request = seq[i]
                sent = perf_counter()
                response = await (await client.submit(request))
                done = perf_counter()
                checksums[i] = response_checksum(response)
                if response.kind == "error":
                    self.failed += 1
                if record:
                    (submits if type(request) is StreamSubmit
                     else queries).append(done - sent)
                if walls is not None:
                    walls.append((SENT_TRACE.get(), sent, done))

        budget = 120.0 + (seconds or 0.0)
        await asyncio.wait_for(asyncio.gather(*(
            caller(c) for c in range(CONNECTIONS)
            for _ in range(self.wl.window))), budget)
        return self.sent - before, perf_counter() - started

    def folds(self) -> list[int]:
        """Per-connection fold of response checksums, in send order."""
        out = []
        for c in range(CONNECTIONS):
            total = 0
            for checksum in self.checksums[c][:self.cursor[c]]:
                total = fold(total, checksum)
            out.append(total)
        return out


# ----------------------------------------------------------------------
# In-process references
# ----------------------------------------------------------------------
def _pristine(request):
    """Stores adopt the trees they register: hand them a private copy."""
    if isinstance(request, RegisterDocument):
        return replace(request, tree=request.tree.copy())
    return request


def _service(wl: Workload, store: DocumentStore | None = None
             ) -> ConstraintService:
    svc = ConstraintService(store=store)
    svc.handle(RegisterConstraints(POLICY, tuple(wl.policy)))
    for name, tree in wl.fresh_documents():
        svc.handle(RegisterDocument(name, tree))
    for request in wl.history:
        svc.handle(_pristine(request))
    return svc


def write_seed_journal(wl: Workload, root: Path) -> None:
    """The durable workload's history, journaled as a server would."""
    journal = ServerJournal(root, fsync=False)
    store = DocumentStore()
    journal.recover(store)
    store.attach_journal(journal)
    _service(wl, store)
    journal.close()


def replay(wl: Workload, sent: list[int]) -> tuple[list[int], Counter]:
    """The same requests through ``ConstraintService.handle``.

    Returns the per-connection checksum folds and the stream counts the
    count window added.
    """
    svc = _service(wl)

    def totals() -> Counter:
        return _stream_totals(enforcer.stats.wire_pairs()
                              for _, _, enforcer in svc.store.live_streams())

    folds = [0] * CONNECTIONS

    def play(bounds) -> None:
        for c, (lo, hi) in enumerate(bounds):
            for request in wl.connections[c][lo:hi]:
                folds[c] = fold(folds[c], response_checksum(
                    svc.handle(_pristine(request))))

    before = totals()
    window = [min(wl.count_window, n) for n in sent]
    play([(0, end) for end in window])
    counts = totals()
    counts.subtract(before)
    play(list(zip(window, sent)))
    return folds, counts


def recovered_statuses(wl: Workload, root: Path) -> list[int]:
    """Recover a journal directory into a fresh store; its statuses."""
    store = DocumentStore()
    journal = ServerJournal(root, fsync=False)
    journal.recover(store)
    svc = ConstraintService(store=store)
    out = [response_checksum(svc.handle(StreamStatus(name)))
           for name, _ in wl.documents]
    journal.close()
    return out


def direct(wl: Workload, sent: list[int]) -> tuple[list[int], float, int]:
    """The same requests through bare enforcers and sessions.

    The waterfall's base: no service, no store, no wire.  Only the
    enforcement and reasoning calls are timed.  Returns the checksum
    folds (which must equal the socket's), the timed seconds and the
    number of requests.
    """
    session = compiled_session(wl.policy)
    enforcers = {name: StreamEnforcer(wl.policy, tree)
                 for name, tree in wl.fresh_documents()}
    bound: dict[str, tuple[int, object]] = {}

    def answer(request):
        if isinstance(request, RegisterDocument):
            tree = request.tree.copy()
            enforcers[request.name] = StreamEnforcer(wl.policy, tree)
            return Ack("document", request.name, tree.size)
        if isinstance(request, StreamSubmit):
            apply = enforcers[request.document].apply
            return [apply(op) for op in request.ops]
        if isinstance(request, ImplicationQuery):
            return session.implies_all(
                request.conclusions, fail_fast=request.fail_fast,
                require_decision=request.require_decision).results
        tree = enforcers[request.document].tree
        cached = bound.get(request.document)
        if cached is None or cached[0] != tree.version:
            cached = bound[request.document] = (
                tree.version, bind_session(session, tree))
        return cached[1].implies_all(
            request.conclusions, fail_fast=request.fail_fast,
            require_decision=request.require_decision,
            max_moves=request.max_moves,
            search_budget=request.search_budget).results

    def wire(request, result):
        if isinstance(request, RegisterDocument):
            return result
        if isinstance(request, StreamSubmit):
            return StreamDecisions(tuple(WireDecision.of(d) for d in result))
        return QueryAnswers(tuple(Verdict.of(r) if r is not None else None
                                  for r in result))

    for request in wl.history:
        answer(request)
    folds = [0] * CONNECTIONS
    seconds = 0.0
    count = 0
    for c, seq in enumerate(wl.connections):
        for request in seq[:sent[c]]:
            started = perf_counter()
            result = answer(request)
            seconds += perf_counter() - started
            count += 1
            folds[c] = fold(folds[c], response_checksum(wire(request, result)))
    return folds, seconds, count


# ----------------------------------------------------------------------
# One measurement
# ----------------------------------------------------------------------
@dataclass
class Outcome:
    setups: list[float]
    window: Counter
    window_requests: int
    window_entries: int
    completed: int = 0
    elapsed: float = 0.0
    #: Machine speed over the run relative to nominal (see calibrate).
    speed: float = 1.0
    attempted: int = 0
    failed: int = 0
    traced_requests: int = 0
    exhausted: bool = False
    submit_latency: list[float] = field(default_factory=list)
    query_latency: list[float] = field(default_factory=list)
    timed_metrics: tuple[dict, dict] | None = None
    layers: dict[str, float] = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def _window_shape(wl: Workload) -> tuple[int, int]:
    """Requests and stream entries (ops plus markers) in the count window."""
    requests = [r for seq in wl.connections for r in seq[:wl.count_window]]
    entries = sum(len(r.ops) for r in requests if isinstance(r, StreamSubmit))
    return len(requests), entries


async def _measure(wl: Workload, seconds: float, traced: bool,
                   workdir: Path) -> Outcome:
    seed_root = workdir / "seed"
    if wl.durable:
        write_seed_journal(wl, seed_root)
    requests, entries = _window_shape(wl)
    setups: list[float] = []
    windows: list[Counter] = []
    attempted = failed = 0
    calibration: list[float] = []
    for k in range(SETUPS):
        calibration.append(calibrate())
        root = None
        if wl.durable:
            root = workdir / f"server{k}"
            shutil.copytree(seed_root, root)
        served, took = await Served.start(wl, root)
        setups.append(took)
        loop = ClosedLoop(wl, served)
        before = await served.counts(wl)
        await loop.run(limit=wl.count_window)
        window = await served.counts(wl)
        window.subtract(before)
        windows.append(+window)
        if k < SETUPS - 1:
            attempted += loop.sent
            failed += loop.failed
            await served.close()
    out = Outcome(setups=setups, window=windows[-1],
                  window_requests=requests, window_entries=entries)
    if any(w != windows[0] for w in windows):
        out.errors.append(f"count windows differ between set-ups: "
                          f"{[dict(w) for w in windows]}")

    tracer = Tracer() if traced else None
    first = await served.metrics()
    plain = [0, 0.0]
    for k in range(SLICES):
        calibration.append(calibrate())
        if tracer is not None and k % 2:
            with tracer.installed():
                done, took = await loop.run(seconds=seconds / SLICES,
                                            walls=tracer.walls)
            tracer.completed += done
            tracer.elapsed += took
        else:
            done, took = await loop.run(seconds=seconds / SLICES,
                                        record=tracer is None)
            plain[0] += done
            plain[1] += took
    calibration.append(calibrate())
    out.completed, out.elapsed = plain
    out.speed = CALIBRATION_NOMINAL / statistics.fmean(calibration)
    out.timed_metrics = (first, await served.metrics())
    out.attempted = attempted + loop.sent
    out.failed = failed + loop.failed
    out.exhausted = loop.exhausted
    out.submit_latency = loop.submit_latency
    out.query_latency = loop.query_latency
    live_status = await served.statuses(wl) if wl.durable else None
    live = loop.folds()
    sent = list(loop.cursor)
    await served.close()

    folds, counts = replay(wl, sent)
    if folds != live:
        out.errors.append(f"response checksums differ from the "
                          f"ConstraintService replay: {live} != {folds}")
    for key in ("ops", "rejected", "independent", "entries"):
        if counts[key] != out.window[key]:
            out.errors.append(f"count window {key}: live {out.window[key]} "
                              f"!= replay {counts[key]}")
    if live_status is not None:
        if recovered_statuses(wl, root) != live_status:
            out.errors.append("recovered journal statuses differ from the "
                              "live server's")
    if tracer is not None:
        direct_folds, direct_seconds, direct_count = direct(wl, sent)
        if direct_folds != live:
            out.errors.append("response checksums differ from the direct "
                              "enforcer replay")
        out.layers = tracer.layers()
        out.traced_requests = len(tracer.walls)
        direct_us = direct_seconds / direct_count * 1e6
        out.layers["direct.apply_us"] = direct_us
        out.layers["transport_ratio"] = (
            out.elapsed / out.completed * 1e6 / direct_us)
        out.layers["trace.overhead_frac"] = 1 - (
            (tracer.completed / tracer.elapsed)
            / (out.completed / out.elapsed))
    return out


def measure(wl: Workload, seconds: float, traced: bool,
            workdir: Path) -> Outcome:
    """Run one measurement; the journal directories live under ``workdir``."""
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return asyncio.run(_measure(wl, seconds, traced, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def percentile(values: list[float], q: int) -> float:
    """The ``q``-th percentile (``statistics.quantiles``, inclusive)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


__all__ = ["BenchmarkError", "ClosedLoop", "Outcome", "Served", "measure",
           "percentile", "replay", "direct", "write_seed_journal"]
