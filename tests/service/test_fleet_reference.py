"""Fleet submissions against the paper's definition, and a pinned fold.

Two guarantees outlive the batched fleet engine these tests replaced:

1. **Semantics** — random fleets under random policies, with random
   epoch traffic (structural errors included), driven as
   ``FleetSubmit`` requests through the service, agree epoch by epoch
   with a naive reference that replays each member's ops on plain tree
   copies and asks :func:`~repro.constraints.explain_violations` — the
   paper's validity check with no mask machinery at all.
2. **The pinned checksum** — a seeded 1000-document workload folds to
   the same ``FleetDecisions.checksum`` the batched engine committed,
   605941345630370767; five small fleets with explicit ids, one fold
   path each (witnesses, structural notes, empty epochs), fold to the
   checksums that engine returned for them.

Base trees are built **once** and each side gets its own ``copy()``:
copies keep node ids, while rebuilding "the same" fleet draws fresh ids
from the global allocator and legitimately changes every witness.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import ConstraintService
from repro.constraints import explain_violations
from repro.errors import TreeError
from repro.service import FleetDecisions, FleetSubmit, WireViolation
from repro.stream import AddLeaf, Move, RemoveSubtree
from repro.trees import DataTree, serialize
from repro.trees import node as tree_node
from repro.trees.node import fresh_id, reset_ids
from repro.workloads import (
    FragmentSpec,
    random_constraints,
    random_tree,
    random_update_stream,
)

LABELS = ["a", "b", "c"]
SPECS = [FragmentSpec(False, False, False), FragmentSpec(True, False, False),
         FragmentSpec(True, True, False), FragmentSpec(True, True, True)]
RELAXED = settings(max_examples=20, deadline=None,
                   suppress_health_check=[HealthCheck.too_slow])


def build_fleet(rng: random.Random):
    """One shared policy and the base trees (built once; copy per use)."""
    spec = rng.choice(SPECS)
    constraints = random_constraints(rng, LABELS, spec,
                                     count=rng.randint(1, 4), spine=2)
    trees = [random_tree(rng, LABELS, size=rng.randint(1, 12))
             for _ in range(rng.randint(1, 6))]
    return constraints, trees


def epoch_traffic(rng: random.Random, constraints, trees,
                  *, epochs: int) -> list[dict[int, list]]:
    """Per-epoch edit batches drawn from enforcement-aware streams.

    The per-document logs come from :func:`random_update_stream` (whose
    shadow replay has *per-op* rollback); chopping them into epochs
    deliberately desynchronises them from that shadow, so later ops may
    reference nodes a rejected epoch never created — exactly the
    structural-error traffic a fleet must survive.
    """
    logs = [random_update_stream(rng, tree, LABELS, constraints=constraints,
                                 ops=rng.randint(2, 8), txn_prob=0.0,
                                 violation_rate=0.5)
            for tree in trees]
    batches: list[dict[int, list]] = []
    for _ in range(epochs):
        batch: dict[int, list] = {}
        for d, log in enumerate(logs):
            if not log or rng.random() < 0.2:
                continue
            take = rng.randint(1, min(3, len(log)))
            batch[d], logs[d] = log[:take], log[take:]
        if batch:
            batches.append(batch)
    return batches


def apply_naive(tree: DataTree, ops) -> None:
    """Plain tree edits — raises TreeError exactly where a stream does."""
    for op in ops:
        if isinstance(op, AddLeaf):
            tree.add_child(op.parent, op.label, nid=op.nid)
        elif isinstance(op, Move):
            if tree.parent(op.nid) is None:
                raise TreeError("cannot move the root")
            tree.move(op.nid, op.new_parent)
        else:
            if op.nid not in tree:
                raise TreeError(f"node {op.nid} not in tree")
            tree.remove_subtree(op.nid)


class NaiveFleet:
    """The reference semantics: copies, replays and explain_violations."""

    def __init__(self, constraints, trees):
        self.constraints = constraints
        self.base = [t.copy() for t in trees]    # baseline at fleet open
        self.state = [t.copy() for t in trees]

    def submit_epoch(self, edits):
        """``(rejected, structural, witnesses)`` by document position."""
        rejected, structural, witnesses = set(), set(), {}
        for d, ops in edits.items():
            trial = self.state[d].copy()
            try:
                apply_naive(trial, ops)
            except TreeError:
                rejected.add(d)
                structural.add(d)
                continue
            found = explain_violations(self.base[d], trial, self.constraints)
            if found:
                rejected.add(d)
                witnesses[d] = tuple(WireViolation.of(v) for v in found)
            else:
                self.state[d] = trial
        return rejected, structural, witnesses


def names(count: int) -> tuple[str, ...]:
    return tuple(f"d{i}" for i in range(count))


def fleet_service(constraints, trees) -> ConstraintService:
    svc = ConstraintService()
    svc.register_constraints("policy", constraints)
    for name, tree in zip(names(len(trees)), trees):
        svc.register_document(name, tree.copy())
    return svc


def as_request(docs: tuple[str, ...], batches) -> FleetSubmit:
    return FleetSubmit(docs, "policy", tuple(
        tuple((docs[d], tuple(ops)) for d, ops in batch.items())
        for batch in batches))


@RELAXED
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_fleet_submit_matches_naive_reference(seed):
    rng = random.Random(seed)
    constraints, trees = build_fleet(rng)
    batches = epoch_traffic(rng, constraints, trees,
                            epochs=rng.randint(1, 3))
    docs = names(len(trees))
    svc = fleet_service(constraints, trees)
    naive = NaiveFleet(constraints, trees)
    # One epoch per request, so the ledger carries across submissions.
    for batch in batches:
        reply = svc.handle(as_request(docs, [batch]))
        assert isinstance(reply, FleetDecisions), reply
        [epoch] = reply.epochs
        rejected, structural, witnesses = naive.submit_epoch(batch)
        assert epoch.edited == tuple(docs[d] for d in sorted(batch))
        assert set(epoch.rejected) == {docs[d] for d in rejected}
        assert {doc for doc, _ in epoch.structural} \
            == {docs[d] for d in structural}
        assert dict(epoch.violations) \
            == {docs[d]: vs for d, vs in witnesses.items()}
    for d, doc in enumerate(docs):
        assert svc.store.document(doc).same_instance(naive.state[d]), doc
        assert not explain_violations(naive.base[d], naive.state[d],
                                      constraints)
        live = svc.store.live_stream(doc)
        assert live is None or live[1].is_valid()


# ----------------------------------------------------------------------
# The pinned decision checksum
# ----------------------------------------------------------------------
SEED = 20070611  # PODS 2007
FLEET_LABELS = [f"l{i}" for i in range(8)]


def pinned_workload(docs: int = 1000, tree_size: int = 30,
                    n_constraints: int = 10, n_epochs: int = 4,
                    edit_fraction: float = 0.3):
    """A seeded fleet plus its epoch traffic.

    Epoch operations are drawn against the *base* trees, not a live
    replay: some hit nodes an earlier epoch removed or reference a leaf
    a rejected epoch never created — structural-error traffic.
    """
    rng = random.Random(SEED)
    spec = FragmentSpec(predicates=True, descendant=True, wildcard=False)
    constraints = random_constraints(rng, FLEET_LABELS, spec,
                                     count=n_constraints, types="mixed",
                                     spine=2)
    trees = [random_tree(rng, FLEET_LABELS, size=tree_size)
             for _ in range(docs)]
    epochs = []
    for _ in range(n_epochs):
        batch = {}
        for d in rng.sample(range(docs), int(docs * edit_fraction)):
            tree = trees[d]
            nodes = list(tree.node_ids())
            nonroot = [n for n in nodes if n != tree.root]
            ops = []
            for _ in range(rng.randint(1, 2)):
                roll = rng.random()
                if roll < 0.55 or not nonroot:
                    ops.append(AddLeaf(rng.choice(nodes),
                                       rng.choice(FLEET_LABELS),
                                       nid=fresh_id()))
                elif roll < 0.8:
                    ops.append(Move(rng.choice(nonroot), rng.choice(nodes)))
                else:
                    ops.append(RemoveSubtree(rng.choice(nonroot)))
            batch[d] = ops
        epochs.append(batch)
    return constraints, trees, epochs


def test_pinned_workload_reproduces_the_committed_checksum():
    previous = tree_node.GLOBAL_IDS
    reset_ids()  # the ids, and so every witness, as in a fresh process
    try:
        constraints, trees, epochs = pinned_workload()
    finally:
        tree_node.GLOBAL_IDS = previous
    docs = names(len(trees))
    svc = ConstraintService()
    svc.register_constraints("policy", constraints)
    for name, tree in zip(docs, trees):
        svc.register_document(name, tree)
    reply = svc.handle(as_request(docs, epochs))
    assert isinstance(reply, FleetDecisions), reply
    assert [e.epoch for e in reply.epochs] == [1, 2, 3, 4]
    assert reply.checksum == 605941345630370767
    assert all(enforcer.is_valid()
               for _, _, enforcer in svc.store.live_streams())


# ----------------------------------------------------------------------
# Small pinned fleets: one fold path each
# ----------------------------------------------------------------------
SMALL_POLICY = [("/patient[/clinicalTrial]", "up"), ("//visit", "down"),
                ("/patient/visit", "up")]


def small_ward(base: int) -> DataTree:
    """root -> patient -> {clinicalTrial, visit}; root -> note — every
    id explicit, so the witnesses (and the fold) never depend on the
    global allocator."""
    return serialize.from_dict({
        "id": base, "label": "root", "children": [
            {"id": base + 1, "label": "patient", "children": [
                {"id": base + 2, "label": "clinicalTrial", "children": []},
                {"id": base + 3, "label": "visit", "children": []}]},
            {"id": base + 4, "label": "note", "children": []}]})


#: (traffic over members w0/w1/w2 rooted at ids 0/100/200, per-epoch
#: (edited, rejected, structural), the checksum the batched fleet
#: engine returned for it).
SMALL_FLEETS = {
    "accepted": (
        ((("w0", (AddLeaf(1, "note", nid=900),)),),),
        [(("w0",), (), ())],
        8192024576),
    "violation": (
        ((("w1", (RemoveSubtree(102),)),),),
        [(("w1",), ("w1",), ())],
        1688146301829611972),
    "structural": (
        ((("w2", (AddLeaf(201, "note", nid=901), RemoveSubtree(10 ** 9),
                  AddLeaf(200, "never", nid=902))),),),
        [(("w2",), ("w2",), ("w2",))],
        8192052318078077),
    "empty-epochs": (
        ((), (("w0", ()), ("w2", ()))),
        [((), (), ()), (("w0", "w2"), (), ())],
        16384106495172033),
    "mixed": (
        ((("w0", (AddLeaf(1, "visit", nid=903),)),
          ("w1", (Move(103, 100), AddLeaf(104, "x", nid=904))),
          ("w2", (RemoveSubtree(204),))),
         (("w0", (RemoveSubtree(2), AddLeaf(4, "visit", nid=905))),
          ("w1", (Move(1, 100),)),
          ("w2", (AddLeaf(201, "visit", nid=906), RemoveSubtree(203)))),
         (("w1", (RemoveSubtree(101),)),)),
        [(("w0", "w1", "w2"), ("w0", "w1"), ()),
         (("w0", "w1", "w2"), ("w0", "w1", "w2"), ("w1",)),
         (("w1",), ("w1",), ())],
        1557029182100796449),
}


@pytest.mark.parametrize("case", sorted(SMALL_FLEETS))
def test_small_fleets_fold_to_the_engine_checksums(case):
    """Accepted edits, a commit witness, a structural note, empty epochs
    and multi-witness rejections each fold to the checksum the batched
    engine pinned for the same fleet and traffic."""
    epochs, expected, checksum = SMALL_FLEETS[case]
    docs = ("w0", "w1", "w2")
    svc = ConstraintService()
    svc.register_constraints("policy", SMALL_POLICY)
    for i, doc in enumerate(docs):
        svc.register_document(doc, small_ward(100 * i))
    reply = svc.handle(FleetSubmit(docs, "policy", epochs))
    assert isinstance(reply, FleetDecisions), reply
    assert [(e.edited, e.rejected, tuple(doc for doc, _ in e.structural))
            for e in reply.epochs] == expected
    assert reply.checksum == checksum
