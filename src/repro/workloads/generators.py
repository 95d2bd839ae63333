"""Random workload generators for property tests and benchmarks.

Everything is seeded and deterministic: every benchmark row in
EXPERIMENTS.md can be regenerated bit-for-bit.  Generators are
fragment-aware so each cell of Table 1 / Table 2 gets inputs from exactly
the XPath fragment its complexity bound speaks about.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.constraints.model import (
    ConstraintSet,
    ConstraintType,
    UpdateConstraint,
)
from repro.trees.tree import DataTree
from repro.xpath.ast import Axis, Pattern, Pred, Step, normalize


@dataclass(frozen=True)
class FragmentSpec:
    """Which navigational features a generated pattern may use."""

    predicates: bool = True
    descendant: bool = True
    wildcard: bool = True

    @staticmethod
    def from_name(name: str) -> "FragmentSpec":
        return FragmentSpec(
            predicates="[]" in name,
            descendant="//" in name,
            wildcard="*" in name,
        )


def random_pattern(rng: random.Random, labels: list[str], spec: FragmentSpec,
                   spine: int = 3, pred_prob: float = 0.4,
                   max_pred_depth: int = 2) -> Pattern:
    """A random concrete pattern of the given fragment."""
    steps = []
    for position in range(spine):
        axis = Axis.DESC if spec.descendant and rng.random() < 0.5 else Axis.CHILD
        last = position == spine - 1
        if not last and spec.wildcard and rng.random() < 0.25:
            label: str | None = None
        else:
            label = rng.choice(labels)
        preds: tuple[Pred, ...] = ()
        if spec.predicates and not (position == 0) and rng.random() < pred_prob:
            preds = (random_pred(rng, labels, spec, max_pred_depth),)
        steps.append(Step(axis, label, preds))
    return normalize(Pattern(tuple(steps)))


def random_pred(rng: random.Random, labels: list[str], spec: FragmentSpec,
                depth: int) -> Pred:
    axis = Axis.DESC if spec.descendant and rng.random() < 0.4 else Axis.CHILD
    label = None if spec.wildcard and rng.random() < 0.2 else rng.choice(labels)
    children: tuple[Pred, ...] = ()
    if depth > 1 and rng.random() < 0.35:
        children = (random_pred(rng, labels, spec, depth - 1),)
    return Pred(axis, label, children)


def random_constraints(rng: random.Random, labels: list[str], spec: FragmentSpec,
                       count: int, types: str = "mixed",
                       spine: int = 3) -> ConstraintSet:
    """A random premise set; ``types`` is 'up', 'down' or 'mixed'."""
    constraints = []
    for _ in range(count):
        pattern = random_pattern(rng, labels, spec, spine=rng.randint(1, spine))
        if types == "up":
            ctype = ConstraintType.NO_REMOVE
        elif types == "down":
            ctype = ConstraintType.NO_INSERT
        else:
            ctype = rng.choice(list(ConstraintType))
        constraints.append(UpdateConstraint(pattern, ctype))
    return ConstraintSet(constraints)


def random_tree(rng: random.Random, labels: list[str], size: int,
                max_children: int = 4) -> DataTree:
    """A random tree with ``size`` non-root nodes (uniform attachment)."""
    tree = DataTree()
    nodes = [tree.root]
    for _ in range(size):
        parent = rng.choice(nodes)
        if len(tree.children(parent)) >= max_children:
            parent = tree.root
        nid = tree.add_child(parent, rng.choice(labels))
        nodes.append(nid)
    return tree


def random_valid_pair(rng: random.Random, tree: DataTree,
                      constraints: ConstraintSet,
                      edits: int = 4) -> tuple[DataTree, DataTree]:
    """A pair ``(I, J)`` produced by random edits, filtered for validity.

    Edits that break a constraint are rolled back, so the result is always
    valid — a generator of *positive* instances for the validity checker
    and the publishing example.
    """
    from repro.constraints.validity import is_valid

    before = tree.copy()
    after = tree.copy()
    for _ in range(edits):
        candidate = after.copy()
        op = rng.random()
        nodes = [n for n in candidate.node_ids() if n != candidate.root]
        try:
            if op < 0.4 and nodes:
                candidate.remove_subtree(rng.choice(nodes))
            elif op < 0.8:
                parent = rng.choice(list(candidate.node_ids()))
                candidate.add_child(parent, rng.choice(
                    [candidate.label(n) for n in nodes] or ["x"]))
            elif nodes:
                node = rng.choice(nodes)
                target = rng.choice(list(candidate.node_ids()))
                candidate.move(node, target)
        except Exception:
            continue
        if is_valid(before, candidate, constraints):
            after = candidate
    return before, after


def random_update_stream(rng: random.Random, tree: DataTree,
                         labels: list[str], *,
                         constraints: ConstraintSet | None = None,
                         ops: int = 30,
                         violation_rate: float = 0.3,
                         txn_prob: float = 0.15,
                         max_txn_ops: int = 5) -> list:
    """A seeded update log for the enforcement stream (:mod:`repro.stream`).

    Generation is *enforcement-aware*: each candidate operation is drawn
    against a shadow replay of the log so far (same engine, same rollback
    semantics), so every op references nodes that actually exist at its
    point in the log — including after rejections and rolled-back
    transactions.  ``violation_rate`` tunes the fraction of ops drawn
    adversarially at the constraint ranges' baseline answers (the nodes
    whose removal/insertion can break a constraint); the remainder are
    neutral random edits.  Leaf inserts pin fresh node ids, so replaying
    the returned log on a copy of ``tree`` is deterministic.

    Transaction brackets (``Begin``/``Commit``/``Rollback``) appear with
    probability ``txn_prob`` per entry, stay flat, and are always closed
    before the log ends.  Returns a list of :mod:`repro.stream.ops`
    entries, exactly ``ops`` of them plus a possible closing commit.
    """
    from repro.stream.engine import StreamEnforcer
    from repro.stream.ops import (
        AddLeaf, Begin, Commit, Move, RemoveSubtree, Rollback,
    )
    from repro.trees.node import fresh_id

    policy = ConstraintSet([]) if constraints is None else constraints
    shadow = StreamEnforcer(policy, tree.copy())
    targets = sorted({node.nid for answers in shadow.baseline_answers().values()
                      for node in answers})
    log: list = []
    txn_left = 0

    def emit(op) -> None:
        log.append(op)
        shadow.apply(op)

    for _ in range(ops):
        current = shadow.tree
        if shadow.in_transaction and txn_left <= 0:
            emit(Commit() if rng.random() < 0.7 else Rollback())
            continue
        if not shadow.in_transaction and rng.random() < txn_prob:
            emit(Begin())
            txn_left = rng.randint(1, max_txn_ops)
            continue
        nodes = list(current.node_ids())
        nonroot = [n for n in nodes if n != current.root]
        live_targets = [n for n in targets if n in current]
        if live_targets and rng.random() < violation_rate:
            # Adversarial: aim straight at a node some range answers.
            victim = rng.choice(live_targets)
            roll = rng.random()
            if roll < 0.45 and victim != current.root:
                emit(RemoveSubtree(victim))
            elif roll < 0.8 and victim != current.root and nonroot:
                emit(Move(victim, rng.choice(nodes)))
            else:
                emit(AddLeaf(victim, rng.choice(labels), nid=fresh_id()))
        else:
            roll = rng.random()
            if roll < 0.5 or not nonroot:
                emit(AddLeaf(rng.choice(nodes), rng.choice(labels),
                             nid=fresh_id()))
            elif roll < 0.8:
                emit(Move(rng.choice(nonroot), rng.choice(nodes)))
            else:
                emit(RemoveSubtree(rng.choice(nonroot)))
        txn_left -= 1
    if shadow.in_transaction:
        log.append(Commit())
    return log


def mostly_irrelevant_stream(rng: random.Random, tree: DataTree,
                             labels: list[str], *,
                             constraints: ConstraintSet,
                             ops: int = 200,
                             irrelevant_rate: float = 0.95,
                             noise_labels: list[str] | None = None) -> list:
    """A seeded log where most traffic cannot affect any constraint.

    The workload the static analyzer's zero-work fast path is built for
    (:mod:`repro.analysis`): a fraction ``irrelevant_rate`` of the ops
    edit *noise* subtrees — leaves carrying ``noise_labels``, disjoint
    from every constraint's label alphabet, added, shuffled and removed
    among themselves — while the remainder aim at the constraint ranges'
    baseline answers exactly like :func:`random_update_stream`'s
    adversarial draws.  Generation replays against a shadow enforcer, so
    every op references a node that exists at its point in the log and
    leaf inserts pin fresh ids (deterministic replay).

    The target rate is only achievable when the constraint patterns use
    concrete labels (a wildcard first step makes every edit relevant);
    callers can confirm the achieved rate from
    :attr:`~repro.stream.engine.StreamStats.independent` after replay.
    """
    from repro.stream.engine import StreamEnforcer
    from repro.stream.ops import AddLeaf, Move, RemoveSubtree
    from repro.trees.node import fresh_id

    if noise_labels is None:
        noise_labels = [f"noise{i}" for i in range(4)]
    shadow = StreamEnforcer(constraints, tree.copy())
    targets = sorted({node.nid for answers in shadow.baseline_answers().values()
                      for node in answers})
    log: list = []
    noise_nodes: list[int] = []

    def emit(op) -> None:
        log.append(op)
        shadow.apply(op)

    for _ in range(ops):
        current = shadow.tree
        live_noise = [n for n in noise_nodes if n in current]
        if rng.random() < irrelevant_rate:
            roll = rng.random()
            if roll < 0.6 or not live_noise:
                # Fresh noise leaf; hosts include earlier noise nodes, so
                # noise grows little subtrees of its own.
                host = rng.choice(list(current.node_ids()))
                nid = fresh_id()
                emit(AddLeaf(host, rng.choice(noise_labels), nid=nid))
                noise_nodes.append(nid)
            elif roll < 0.8:
                victim = rng.choice(live_noise)
                inside = set(current.descendants(victim, include_self=True))
                hosts = [n for n in current.node_ids() if n not in inside]
                emit(Move(victim, rng.choice(hosts)))
            else:
                victim = rng.choice(live_noise)
                emit(RemoveSubtree(victim))
        else:
            live_targets = [n for n in targets if n in current]
            if live_targets and rng.random() < 0.6:
                victim = rng.choice(live_targets)
                if victim != current.root and rng.random() < 0.6:
                    emit(RemoveSubtree(victim))
                else:
                    emit(AddLeaf(victim, rng.choice(labels), nid=fresh_id()))
            else:
                emit(AddLeaf(rng.choice(list(current.node_ids())),
                             rng.choice(labels), nid=fresh_id()))
    return log


def random_requests(rng: random.Random, labels: list[str], *,
                    constraint_sets: int = 2, documents: int = 2,
                    queries: int = 10, tree_size: int = 20,
                    stream_ops: int = 12, stream_batches: int = 3,
                    spec: FragmentSpec | None = None,
                    conclusions_per_query: int = 3,
                    violation_rate: float = 0.3) -> list:
    """A seeded request sequence for the service (:mod:`repro.service`).

    Registers ``constraint_sets`` named policies and ``documents`` named
    documents, then interleaves implication batches, instance batches and
    enforcement-log slices.  Each document's whole update log is drawn
    once (enforcement-aware, against a shadow replay — see
    :func:`random_update_stream`) and split across ``stream_batches``
    :class:`~repro.service.protocol.StreamSubmit` requests, so every op
    references nodes that exist at its point in the stream regardless of
    how the batches interleave with queries.

    The same sequence replayed through any serving path must produce the
    same response stream — the service equivalence suite feeds these to
    direct calls, :class:`~repro.service.service.ConstraintService` and
    :class:`~repro.service.async_service.AsyncService` and compares
    response checksums.
    """
    from repro.service.protocol import (
        ImplicationQuery,
        InstanceQuery,
        RegisterConstraints,
        RegisterDocument,
        StreamSubmit,
    )

    spec = spec or FragmentSpec(predicates=True, descendant=True,
                                wildcard=False)
    requests: list = []
    set_names: list[str] = []
    for i in range(constraint_sets):
        name = f"policy{i}"
        policy = random_constraints(rng, labels, spec,
                                    count=rng.randint(2, 4), types="mixed",
                                    spine=2)
        requests.append(RegisterConstraints(name, tuple(policy)))
        set_names.append(name)
    doc_names: list[str] = []
    pending_batches: list[tuple[str, str, list]] = []
    for i in range(documents):
        name = f"doc{i}"
        tree = random_tree(rng, labels, size=tree_size)
        requests.append(RegisterDocument(name, tree))
        doc_names.append(name)
        # One policy per document (a document has one live stream).
        policy_name = rng.choice(set_names)
        policy = next(r.constraints for r in requests
                      if isinstance(r, RegisterConstraints)
                      and r.name == policy_name)
        log = random_update_stream(rng, tree, labels,
                                   constraints=ConstraintSet(policy),
                                   ops=stream_ops,
                                   violation_rate=violation_rate)
        cut = max(1, len(log) // max(1, stream_batches))
        for at in range(0, len(log), cut):
            pending_batches.append((name, policy_name,
                                    list(log[at:at + cut])))
    for _ in range(queries):
        roll = rng.random()
        if roll < 0.4 and pending_batches:
            doc, policy_name, batch = pending_batches.pop(0)
            requests.append(StreamSubmit(doc, policy_name, tuple(batch)))
            continue
        conclusions = tuple(
            UpdateConstraint(
                random_pattern(rng, labels, spec, spine=rng.randint(1, 2)),
                rng.choice(list(ConstraintType)))
            for _ in range(conclusions_per_query))
        if roll < 0.7:
            requests.append(ImplicationQuery(
                rng.choice(set_names), conclusions,
                fail_fast=rng.random() < 0.3))
        else:
            requests.append(InstanceQuery(
                rng.choice(set_names), rng.choice(doc_names), conclusions,
                fail_fast=rng.random() < 0.3,
                max_moves=1, search_budget=60))
    # Flush leftover log slices so every document's stream settles.
    for doc, policy_name, batch in pending_batches:
        requests.append(StreamSubmit(doc, policy_name, tuple(batch)))
    return requests


def scaling_labels(count: int) -> list[str]:
    """A deterministic label alphabet ``l0 .. l<count-1>``."""
    return [f"l{i}" for i in range(count)]
