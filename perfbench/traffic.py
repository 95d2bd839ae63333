"""Seeded traffic for the end-to-end socket benchmark.

Every workload is a pure function of its seed: :func:`build` returns the
policy, the documents, the history applied before the run and one request
sequence per connection.  Node ids are pinned (documents are renumbered
to ``1..n`` and every inserted leaf carries its id), so the same seed
yields the same requests in any process — a differential oracle can
replay exactly the traffic the benchmark measures.

Each document is generated as its own stream and pinned to one
connection (``doc index % CONNECTIONS``); a connection's sequence merges
its documents' streams in a seeded order.  Per-document order is
therefore fixed by the seed, whatever the timing, and so is every
response.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from dataclasses import dataclass, replace

from repro.constraints.model import (
    ConstraintSet,
    ConstraintType,
    UpdateConstraint,
    constraint_set,
)
from repro.service.protocol import (
    ImplicationQuery,
    InstanceQuery,
    RegisterDocument,
    Request,
    StreamSubmit,
)
from repro.stream.ops import (
    AddLeaf,
    Begin,
    Commit,
    Move,
    RemoveSubtree,
    Rollback,
)
from repro.trees.tree import DataTree
from repro.workloads.generators import (
    FragmentSpec,
    random_constraints,
    random_pattern,
    random_tree,
    random_update_stream,
    scaling_labels,
)

#: The name every workload registers its policy under.
POLICY = "policy"
#: Client connections (one per core of the 2-core measuring box).
CONNECTIONS = 2

# The ward policy of ``benchmarks/bench_server.py``.
WARD_POLICY = constraint_set(
    ("/patient[/clinicalTrial]", "up"),
    ("/patient[/clinicalTrial]", "down"),
    ("/patient[/visit]", "down"),
)
WARD_CONCLUSIONS = tuple(constraint_set(
    ("/patient[/visit]", "down"),
    ("/patient[/clinicalTrial]", "up"),
    ("/patient[/visit][/clinicalTrial]", "down"),
    ("/patient/note", "up"),
    ("/patient[/chart]", "down"),
    ("//visit", "up"),
))
#: Leaves a ward document holds before single ops start removing them,
#: so document size (and per-op cost) stays level over a long run.
WARD_LEAVES = 12
#: Share of ward requests that are reads (instance or implication).
WARD_READS = 0.03
#: Ward history per document written to the durable workload's seeded
#: journal: one checkpoint (at the default cadence of 256) and about two
#: hundred records after it, so a restart replays real work and every
#: document crosses its next checkpoint inside the count window.
DURABLE_HISTORY = 486

LARGE_LABELS = scaling_labels(8)
LARGE_SPEC = FragmentSpec(predicates=True, descendant=True, wildcard=False)
#: Query conclusions stay in the linear (predicate-free) fragment, which
#: the engines decide in polynomial time: one costly coNP-side query in
#: a run would otherwise set its query latencies on its own.
LARGE_QUERY_SPEC = FragmentSpec(predicates=False, descendant=True,
                                wildcard=False)
LARGE_RECORDS = 40
LARGE_RECORD_NODES = 50
LARGE_BATCH = 8
#: Seed of the large workload's policy and documents (not its traffic).
LARGE_SHAPE_SEED = "large_mixed/shape"
#: Requests per drawn cycle of a large document's traffic (see large_mixed).
LARGE_CYCLE = 400
#: Share of large requests that are reads; two thirds of the reads are
#: instance queries, so the query median sits inside one population.
LARGE_READS = 0.12


@dataclass(frozen=True)
class Workload:
    """Everything one workload sends, as a function of its seed."""

    name: str
    policy: ConstraintSet
    documents: tuple[tuple[str, DataTree], ...]
    #: Requests applied before the run (the durable workload writes them
    #: to its seeded journal; the in-memory workloads have none).
    history: tuple[Request, ...]
    #: One request sequence per connection, in send order.
    connections: tuple[tuple[Request, ...], ...]
    #: Requests each connection keeps outstanding (closed loop).
    window: int
    #: Requests per connection in the exact-count window (see harness).
    count_window: int
    durable: bool

    def fresh_documents(self) -> list[tuple[str, DataTree]]:
        """Private copies of the initial documents (stores adopt trees)."""
        return [(name, tree.copy()) for name, tree in self.documents]


def ward_tree() -> DataTree:
    """The three-node ``/patient`` document of ``bench_server``."""
    tree = DataTree(root_id=1)
    tree.add_child(1, "patient", nid=5)
    tree.add_child(5, "visit", nid=7)
    tree.add_child(5, "clinicalTrial", nid=8)
    return tree


def _ward_stream(rng: random.Random, doc: str) -> Iterator[Request]:
    """Endless single-op and short-bracket traffic for one ward document.

    The generator tracks which leaves it added, so removals and moves
    name live nodes; protected removals and brackets that add a second
    visited patient are rejected by the policy on purpose.
    """
    leaves: list[int] = []
    next_id = 100
    while True:
        roll = rng.random()
        if roll < WARD_READS:
            picks = tuple(rng.sample(WARD_CONCLUSIONS, 2))
            if rng.random() < 2 / 3:
                yield InstanceQuery(POLICY, doc, picks, max_moves=1,
                                    search_budget=40)
            else:
                yield ImplicationQuery(POLICY, picks)
            continue
        if roll < 0.63:
            if leaves and (len(leaves) >= WARD_LEAVES or rng.random() < 0.45):
                ops = (RemoveSubtree(leaves.pop(rng.randrange(len(leaves)))),)
            else:
                next_id += 1
                leaves.append(next_id)
                ops = (AddLeaf(5, rng.choice(("note", "visit", "chart")),
                               nid=next_id),)
        elif roll < 0.73 and leaves:
            ops = (Move(rng.choice(leaves), rng.choice((5, 7))),)
        elif roll < 0.78:
            ops = (RemoveSubtree(8),)  # protected: always rejected
        elif roll < 0.88:
            leaves.extend((next_id + 1, next_id + 2))
            ops = (Begin(), AddLeaf(5, "note", nid=next_id + 1),
                   AddLeaf(5, "chart", nid=next_id + 2), Commit())
            next_id += 2
        elif roll < 0.93:
            # A second patient with a visit violates the no-insert range.
            ops = (Begin(), AddLeaf(1, "patient", nid=next_id + 1),
                   AddLeaf(next_id + 1, "visit", nid=next_id + 2), Commit())
            next_id += 2
        else:
            next_id += 1
            ops = (Begin(), AddLeaf(5, "note", nid=next_id), Rollback())
        yield StreamSubmit(doc, POLICY, ops)


def _merge(rng: random.Random, streams: list[Iterator[Request]],
           count: int) -> tuple[Request, ...]:
    """Interleave a connection's document streams in a seeded order."""
    out: list[Request] = []
    live = list(streams)
    while len(out) < count and live:
        stream = rng.choice(live)
        try:
            out.append(next(stream))
        except StopIteration:
            live.remove(stream)
    return tuple(out)


def _wards(name: str, seed: int, per_connection: int, documents: int,
           history: int, count_window: int, durable: bool) -> Workload:
    names = [f"ward{i}" for i in range(documents)]
    streams = {doc: _ward_stream(random.Random(f"{seed}/{name}/{doc}"), doc)
               for doc in names}
    past = tuple(request for doc in names
                 for request, _ in zip(streams[doc], range(history)))
    connections = tuple(
        _merge(random.Random(f"{seed}/{name}/conn{c}"),
               [streams[doc] for i, doc in enumerate(names)
                if i % CONNECTIONS == c], count_window + per_connection)
        for c in range(CONNECTIONS))
    return Workload(name=name, policy=WARD_POLICY,
                    documents=tuple((doc, ward_tree()) for doc in names),
                    history=past, connections=connections, window=8,
                    count_window=count_window, durable=durable)


def small_pipelined(seed: int, per_connection: int) -> Workload:
    """4 in-memory ward documents: per-request fixed cost dominates."""
    return _wards("small_pipelined", seed, per_connection, documents=4,
                  history=0, count_window=400, durable=False)


def durable_small(seed: int, per_connection: int) -> Workload:
    """8 ward documents on a durable fsync'd server restarted from a
    seeded journal: journal append and fsync dominate."""
    return _wards("durable_small", seed, per_connection, documents=8,
                  history=DURABLE_HISTORY, count_window=300, durable=True)


def _renumber(tree: DataTree, log: list) -> tuple[DataTree, list]:
    """Ids ``1..n`` in preorder, then inserted leaves in log order, so the
    traffic does not depend on the process-global id allocator."""
    ids: dict[int, int] = {}
    out = DataTree(root_label=tree.label(tree.root), root_id=1)
    for nid in tree.node_ids():
        ids[nid] = len(ids) + 1
        if nid != tree.root:
            out.add_child(ids[tree.parent(nid)], tree.label(nid), nid=ids[nid])
    renumbered = []
    for op in log:
        if isinstance(op, AddLeaf):
            ids[op.nid] = len(ids) + 1
            op = AddLeaf(ids[op.parent], op.label, nid=ids[op.nid])
        elif isinstance(op, Move):
            op = Move(ids[op.nid], ids[op.new_parent])
        elif isinstance(op, RemoveSubtree):
            op = RemoveSubtree(ids[op.nid])
        renumbered.append(op)
    return out, renumbered


def _records_tree(rng: random.Random) -> DataTree:
    """A root over :data:`LARGE_RECORDS` random record subtrees.

    A single random tree of 2000 nodes has subtrees of a thousand nodes
    near its root, and removing or reviving one costs a hundred times a
    typical op: a handful of such ops would decide a run's throughput.
    Records bound every subtree to :data:`LARGE_RECORD_NODES` nodes.
    """
    tree = DataTree()
    for _ in range(LARGE_RECORDS):
        record = random_tree(rng, LARGE_LABELS, size=LARGE_RECORD_NODES - 1)
        ids = {record.root: tree.add_child(tree.root,
                                           rng.choice(LARGE_LABELS))}
        for nid in record.descendants(record.root):
            ids[nid] = tree.add_child(ids[record.parent(nid)],
                                      record.label(nid))
    return tree


def _large_stream(rng: random.Random, doc: str, log: list
                  ) -> Iterator[Request]:
    """8-op submissions of one log with reads of the same document mixed in."""
    for at in range(0, len(log), LARGE_BATCH):
        if rng.random() < LARGE_READS:
            if rng.random() < 2 / 3:
                conclusion = (random_pattern(rng, LARGE_LABELS,
                                             LARGE_QUERY_SPEC,
                                             spine=rng.randint(1, 2)),)
                yield InstanceQuery(POLICY, doc, _typed(rng, conclusion),
                                    max_moves=0, search_budget=30)
            else:
                patterns = tuple(
                    random_pattern(rng, LARGE_LABELS, LARGE_QUERY_SPEC,
                                   spine=rng.randint(1, 2))
                    for _ in range(2))
                yield ImplicationQuery(POLICY, _typed(rng, patterns))
        yield StreamSubmit(doc, POLICY, tuple(log[at:at + LARGE_BATCH]))


def _typed(rng: random.Random, patterns) -> tuple[UpdateConstraint, ...]:
    return tuple(UpdateConstraint(p, rng.choice(list(ConstraintType)))
                 for p in patterns)


def large_mixed(seed: int, per_connection: int) -> Workload:
    """2 in-memory documents of ~2000 nodes under 6 random constraints:
    enforcement and reasoning dominate.

    The policy and the documents are drawn once, from
    :data:`LARGE_SHAPE_SEED`: a random 6-constraint policy's enforcement
    cost varies fivefold from one draw to the next, which would drown
    any change under test.  ``seed`` draws the update logs and queries.

    ``random_update_stream`` draws each log against a shadow enforcer, so
    drawing costs about what enforcing costs.  Each connection therefore
    draws one cycle of :data:`LARGE_CYCLE` requests and repeats it on
    fresh copies of its document, each registered in-band when the
    previous copy's cycle ends.
    """
    count_window = 30
    per_connection += count_window
    shape = random.Random(LARGE_SHAPE_SEED)
    policy = random_constraints(shape, LARGE_LABELS, LARGE_SPEC, count=6,
                                types="mixed", spine=3)
    documents = []
    connections = []
    for i in range(CONNECTIONS):
        doc = f"big{i}"
        tree = _records_tree(shape)
        doc_rng = random.Random(f"{seed}/large_mixed/{doc}")
        log = random_update_stream(doc_rng, tree, LARGE_LABELS,
                                   constraints=policy,
                                   ops=LARGE_CYCLE * LARGE_BATCH,
                                   violation_rate=0.3)
        tree, log = _renumber(tree, log)
        documents.append((doc, tree))
        cycle = [r for r, _ in zip(_large_stream(doc_rng, doc, log),
                                   range(LARGE_CYCLE))]
        sequence: list[Request] = []
        for k in itertools.count():
            name = doc if k == 0 else f"{doc}.{k}"
            if k:
                sequence.append(RegisterDocument(name, tree))
            sequence.extend(r if isinstance(r, ImplicationQuery)
                            else replace(r, document=name) for r in cycle)
            if len(sequence) >= per_connection:
                break
        connections.append(tuple(sequence[:per_connection]))
    return Workload(name="large_mixed", policy=policy,
                    documents=tuple(documents), history=(),
                    connections=tuple(connections), window=2,
                    count_window=count_window, durable=False)


WORKLOADS = {
    "small_pipelined": small_pipelined,
    "durable_small": durable_small,
    "large_mixed": large_mixed,
}


def build(name: str, seed: int, per_connection: int) -> Workload:
    """The named workload's traffic for ``seed``: its count window plus
    ``per_connection`` further requests on every connection."""
    return WORKLOADS[name](seed, per_connection)


__all__ = ["Workload", "WORKLOADS", "build", "POLICY", "CONNECTIONS",
           "small_pipelined", "durable_small", "large_mixed", "ward_tree"]
