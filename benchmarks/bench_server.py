"""Durable-server costs: journaling, recovery replay, snapshot leverage.

Three sections over one seeded multi-document workload:

* **journal** — per-submission enforcement throughput with no journal,
  with a write-behind journal (``fsync=False``), and with the full
  per-record ``fsync`` discipline.  Absolute op/s track the disk, not
  the code, so only the fold of the response checksums is gated: all
  three configurations must produce *bit-identical* decision streams
  (durability may cost time, never answers).
* **recovery** — cold-start replay rate of the same history, once
  through pure journal replay and once from snapshot checkpoints taken
  every 32 submissions.  The ``speedup`` (checkpointed recovery vs full
  replay, measured in wall time) is the one machine-relative ratio the
  ``--compare`` gate tracks: snapshots exist precisely so recovery work
  is bounded by the checkpoint interval instead of history length, and
  that leverage collapsing means compaction broke.  Both recoveries must
  agree with the live fleet — ``recovered_checksum`` pins the fold of
  per-document status responses.
* **socket** — end-to-end request round-trips through the asyncio
  front end (:class:`~repro.server.server.ReproServer`) from a single
  pipelining client, in-memory vs durable.  Reported, not gated: the
  numbers mix loopback latency with disk flushes.

Run:  PYTHONPATH=src python benchmarks/bench_server.py [output.json]
          [--smoke] [--compare BASELINE.json] [--tolerance 0.2]

Emits ``BENCH_server.json`` at the repo root by default; the command
line and the ``--compare`` gate are :func:`bench_helpers.gate`'s.
"""

from __future__ import annotations

import asyncio
import random
import tempfile
import time
from pathlib import Path

from bench_helpers import gate
from repro.server import ReproClient, ReproServer, ServerJournal
from repro.service.protocol import (
    RegisterConstraints,
    RegisterDocument,
    StreamStatus,
    StreamSubmit,
    response_checksum,
)
from repro.service.service import ConstraintService
from repro.service.store import DocumentStore
from repro.constraints import constraint_set
from repro.stream.ops import AddLeaf, Begin, Commit, Move, RemoveSubtree, Rollback
from repro.trees.tree import DataTree

SEED = 20070611  # PODS 2007
DOCS = ("ward", "clinic")
_FOLD = 1_000_003
_MOD = 2 ** 61

POLICY = constraint_set(
    ("/patient[/clinicalTrial]", "up"),
    ("/patient[/clinicalTrial]", "down"),
    ("/patient[/visit]", "down"),
)


def fresh_doc() -> DataTree:
    tree = DataTree(root_id=1)
    tree.add_child(1, "patient", nid=5)
    tree.add_child(5, "visit", nid=7)
    tree.add_child(5, "clinicalTrial", nid=8)
    return tree


def workload(length: int) -> list[StreamSubmit]:
    """Seeded submissions with *pinned* leaf ids, so the no-journal
    configuration allocates exactly the same nodes as the journaled ones
    (the journal pins unpinned ids itself; direct enforcement has no
    journal to do it) and checksums compare across configurations."""
    rng = random.Random(SEED)
    nid = 100
    requests = []
    for _ in range(length):
        doc = rng.choice(DOCS)
        roll = rng.random()
        if roll < 0.5:
            ops = (AddLeaf(5, rng.choice(["note", "visit", "chart"]),
                           nid=(nid := nid + 1)),)
        elif roll < 0.62:
            ops = (RemoveSubtree(rng.choice([7, 8])),)
        elif roll < 0.7:
            ops = (Move(7, 5),)
        elif roll < 0.85:
            ops = (Begin(), AddLeaf(5, "note", nid=(nid := nid + 1)),
                   AddLeaf(5, "chart", nid=(nid := nid + 1)), Commit())
        else:
            ops = (Begin(), AddLeaf(5, "note", nid=(nid := nid + 1)),
                   Rollback())
        requests.append(StreamSubmit(doc, "policy", ops))
    return requests


def build_service(root=None, **journal_opts):
    store = DocumentStore()
    journal = None
    if root is not None:
        journal = ServerJournal(root, **journal_opts)
        journal.recover(store)
        store.attach_journal(journal)
    svc = ConstraintService(store=store)
    svc.handle(RegisterConstraints("policy", tuple(POLICY)))
    for doc in DOCS:
        svc.handle(RegisterDocument(doc, fresh_doc()))
    return svc, journal


def fold(values) -> int:
    total = 0
    for value in values:
        total = (total * _FOLD + value) % _MOD
    return total


def status_checksum(svc) -> int:
    return fold(response_checksum(svc.handle(StreamStatus(doc)))
                for doc in DOCS)


# ----------------------------------------------------------------------
# Section 1: journaling cost
# ----------------------------------------------------------------------
def bench_journal(submits: int, rounds: int) -> dict:
    requests = workload(submits)
    configs = [("direct", dict(root=None)),
               ("nofsync", dict(fsync=False)),
               ("fsync", dict(fsync=True))]
    rates: dict[str, float] = {}
    sums: dict[str, int] = {}
    for name, opts in configs:
        best = float("inf")
        for _ in range(rounds):
            with tempfile.TemporaryDirectory() as tmp:
                root = None if opts.get("root", tmp) is None else Path(tmp)
                journal_opts = {k: v for k, v in opts.items() if k != "root"}
                svc, journal = build_service(
                    root, checkpoint_every=10 ** 9, **journal_opts)
                start = time.perf_counter()
                checksum = fold(response_checksum(svc.handle(r))
                                for r in requests)
                best = min(best, time.perf_counter() - start)
                sums[name] = checksum
                if journal is not None:
                    journal.close()
        rates[name] = submits / best
    agree = len(set(sums.values())) == 1
    return {
        "submits": submits,
        "documents": len(DOCS),
        "direct_ops_per_sec": round(rates["direct"], 1),
        "nofsync_ops_per_sec": round(rates["nofsync"], 1),
        "fsync_ops_per_sec": round(rates["fsync"], 1),
        # disk-bound, so reported rather than gated (not named "speedup")
        "nofsync_ratio": round(rates["nofsync"] / rates["direct"], 2),
        "fsync_ratio": round(rates["fsync"] / rates["direct"], 2),
        "decisions_match": agree,
        "decision_checksum": sums["fsync"],
    }


# ----------------------------------------------------------------------
# Section 2: recovery replay and snapshot leverage
# ----------------------------------------------------------------------
def bench_recovery(submits: int, checkpoint_every: int, rounds: int) -> dict:
    requests = workload(submits)
    result: dict = {"submits": submits, "checkpoint_every": checkpoint_every}
    with tempfile.TemporaryDirectory() as full_root, \
            tempfile.TemporaryDirectory() as snap_root:
        live_sum = None
        for name, root, every in (("full", full_root, 10 ** 9),
                                  ("snap", snap_root, checkpoint_every)):
            svc, journal = build_service(Path(root), fsync=False,
                                         checkpoint_every=every)
            for request in requests:
                svc.handle(request)
            journal.sync()
            journal.close()
            live_sum = status_checksum(svc)

        recovered_sums = set()
        times: dict[str, float] = {}
        replayed: dict[str, int] = {}
        for name, root, every in (("full", full_root, 10 ** 9),
                                  ("snap", snap_root, checkpoint_every)):
            best = float("inf")
            for _ in range(rounds):
                store = DocumentStore()
                journal = ServerJournal(Path(root), fsync=False,
                                       checkpoint_every=every)
                start = time.perf_counter()
                report = journal.recover(store)
                best = min(best, time.perf_counter() - start)
                store.attach_journal(journal)
                svc = ConstraintService(store=store)
                recovered_sums.add(status_checksum(svc))
                replayed[name] = report.records_replayed
                journal.close()
            times[name] = best
        result.update({
            "full_replay_records": replayed["full"],
            "snap_replay_records": replayed["snap"],
            "full_replay_ms": round(times["full"] * 1000, 2),
            "snap_replay_ms": round(times["snap"] * 1000, 2),
            "replay_submits_per_sec": round(submits / times["full"], 1),
            # the one tracked ratio: snapshot leverage over full replay
            "speedup": round(times["full"] / times["snap"], 2),
            "recovered_matches_live": recovered_sums == {live_sum},
            "recovered_checksum": live_sum,
        })
    return result


# ----------------------------------------------------------------------
# Section 3: socket round trips
# ----------------------------------------------------------------------
def bench_socket(submits: int, rounds: int) -> dict:
    requests = workload(submits)

    async def drive(server) -> tuple[float, int]:
        await server.start()
        host, port = server.address
        client = await ReproClient.connect(host, port)
        await client.request(RegisterConstraints("policy", tuple(POLICY)))
        for doc in DOCS:
            await client.request(RegisterDocument(doc, fresh_doc()))
        start = time.perf_counter()
        futures = [await client.submit(r) for r in requests]
        responses = await asyncio.gather(*futures)
        elapsed = time.perf_counter() - start
        checksum = fold(response_checksum(r) for r in responses)
        await client.close()
        await server.close()
        return elapsed, checksum

    best_memory = best_durable = float("inf")
    sums = set()
    for _ in range(rounds):
        elapsed, checksum = asyncio.run(drive(ReproServer()))
        best_memory = min(best_memory, elapsed)
        sums.add(checksum)
        with tempfile.TemporaryDirectory() as tmp:
            elapsed, checksum = asyncio.run(drive(
                ReproServer.durable(tmp, fsync=False,
                                    checkpoint_every=10 ** 9)))
            best_durable = min(best_durable, elapsed)
            sums.add(checksum)
    return {
        "submits": submits,
        "memory_rps": round(submits / best_memory, 1),
        "durable_rps": round(submits / best_durable, 1),
        # loopback + disk bound: reported, not gated
        "durable_ratio": round(best_memory / best_durable, 2),
        "decisions_match": len(sums) == 1,
        "socket_checksum": sums.pop() if len(sums) == 1 else 0,
    }


def run(smoke: bool) -> tuple[dict, list[str]]:
    if smoke:
        journal = bench_journal(submits=120, rounds=2)
        recovery = bench_recovery(submits=240, checkpoint_every=32, rounds=2)
        socket = bench_socket(submits=60, rounds=2)
    else:
        journal = bench_journal(submits=400, rounds=3)
        recovery = bench_recovery(submits=1200, checkpoint_every=32, rounds=3)
        socket = bench_socket(submits=200, rounds=3)

    report = {
        "benchmark": "durable server: journaling, recovery replay, "
                     "snapshot leverage, socket round trips",
        "seed": SEED,
        "mode": "smoke" if smoke else "full",
        "journal": journal,
        "recovery": recovery,
        "socket": socket,
    }
    print(f"journal : direct {journal['direct_ops_per_sec']:>9} op/s | "
          f"nofsync x{journal['nofsync_ratio']} | "
          f"fsync x{journal['fsync_ratio']} (disk-bound; not gated)")
    print(f"recover : replay {recovery['replay_submits_per_sec']:>9} sub/s | "
          f"snap {recovery['snap_replay_ms']}ms vs "
          f"full {recovery['full_replay_ms']}ms | x{recovery['speedup']}")
    print(f"socket  : memory {socket['memory_rps']:>9} rps | "
          f"durable {socket['durable_rps']:>9} rps | "
          f"x{socket['durable_ratio']} (loopback; not gated)")

    failures = []
    if not journal["decisions_match"]:
        failures.append("journal: durable configs diverged from direct "
                        "enforcement — durability changed answers")
    if not recovery["recovered_matches_live"]:
        failures.append("recovery: recovered fleet diverged from live")
    if not socket["decisions_match"]:
        failures.append("socket: response stream diverged between "
                        "in-memory and durable servers")
    return report, failures


if __name__ == "__main__":
    gate("server", run)
