"""Theorem 5.5: instance-based no-remove implication by possible embeddings.

Setting: ``C`` all ``↑``, conclusion ``c = (q, ↑)``, current instance ``J``.
A violation is a past instance ``I`` with a node ``n ∈ q(I)`` that is *not*
in ``q(J)``, while every node of ``I`` keeps all its no-remove ranges into
``J``.  Following the proof:

* ``I`` can be taken to be a *possible embedding* of ``q``: a homomorphic
  image of a canonical instantiation of ``q`` (no redundant nodes), with
  wildcards drawn from the labels of ``J`` plus a fresh label and chain gaps
  capped by the star length;
* every node of ``I`` lying in some premise range must be *identified* with
  a distinct node of ``J`` carrying the same label and at least the same
  range memberships — a bipartite matching problem (solved exactly with
  networkx's Hopcroft-Karp);
* the witness node additionally must avoid ``q(J)`` (or stay fresh).

Complexity matches the theorem: polynomial in ``|J|`` and ``|C|``,
exponential in ``|c|`` (instantiations x sibling-merge quotients).

Scope note (documented deviation): homomorphic images are enumerated as
*sibling-label merges* of canonical instantiations.  This captures every
quotient of a ground tree and is complete whenever ``q`` is linear or
child-only; when ``q`` combines ``//`` with predicates, embeddings that
route a descendant gap *through another predicate's concrete nodes* are not
enumerated, so the engine may over-report implication on such queries.  The
brute-force oracle tests pin down the fragments where exactness is claimed.
"""

from __future__ import annotations

import networkx as nx

from repro.constraints.model import ConstraintSet, ConstraintType, UpdateConstraint
from repro.errors import FragmentError
from repro.implication.result import (
    Counterexample,
    ImplicationResult,
    implied,
    not_implied,
)
from repro.trees.ops import fresh_label_for, remap_ids
from repro.trees.tree import DataTree
from repro.xpath.bitset import BitsetEvaluator
from repro.xpath.canonical import canonical_models
from repro.xpath.evaluator import evaluate_ids
from repro.xpath.properties import labels_of, max_star_length

ENGINE = "instance-no-remove-embeddings"

# Canonical instantiations of q are usually tiny, and naive evaluation of
# a tiny candidate is output-sensitive and cheap; only quotient walks over
# models at least this large carry an incremental snapshot (every premise
# range is re-evaluated per quotient there, so masks amortise sooner than
# in the cascade search).
MERGE_SNAPSHOT_MIN_SIZE = 24

# Quotients a sibling-merge walk yields per canonical model, original
# included.
MERGE_BUDGET = 512


# ----------------------------------------------------------------------
# Sibling-merge closure (homomorphic quotients of a ground tree)
# ----------------------------------------------------------------------
def merge_variants(tree: DataTree, output: int, budget: int = MERGE_BUDGET):
    """Enumerate quotients of ``tree`` under same-label sibling merges.

    Yields ``(tree, output)`` pairs, the original included, deduplicated by
    shape.  Merging two same-labelled siblings redirects the children of one
    under the other; the output node always survives a merge involving it.

    The walk is copy-free: every quotient is realised on ONE scratch tree by
    a merge journal (move children, drop the emptied sibling) that is undone
    after the recursive exploration returns.  The yielded tree is therefore
    only valid until the generator is advanced — consumers that keep a
    candidate must :meth:`~repro.trees.tree.DataTree.copy` it (the engine
    below materialises through ``remap_ids``, which already copies).
    """
    yield from _merge_walk(tree.copy(), output, budget)


def _merge_walk(scratch: DataTree, output: int, budget: int = MERGE_BUDGET,
                context=None):
    """The merge/undo journal over one scratch tree (optionally snapshotted).

    ``context`` is a mutable snapshot evaluator of ``scratch`` (e.g. a
    :class:`repro.xpath.bitset.BitsetEvaluator`); when given, every journal
    edit — child relocations, the emptied sibling's removal and its
    revival on undo — is applied through its index, so candidate quotients
    are evaluated set-at-a-time without rebinding per candidate.
    """
    seen: set[tuple] = set()
    produced = 0
    if context is not None:
        index = context.index
        move = index.apply_move
        remove_leaf = index.apply_remove_subtree
        add_leaf = index.apply_add_leaf
    else:
        move = scratch.move
        remove_leaf = scratch.remove_subtree
        add_leaf = scratch.add_child

    def merge_ops():
        """Applicable (parent, keep, drop) merges of the current scratch."""
        ops = []
        for parent in list(scratch.node_ids()):
            kids = scratch.children(parent)
            for i in range(len(kids)):
                for j in range(i + 1, len(kids)):
                    a, b = kids[i], kids[j]
                    if scratch.label(a) != scratch.label(b):
                        continue
                    keep, drop = (a, b) if b != output else (b, a)
                    ops.append((parent, keep, drop))
        return ops

    def apply(parent, keep, drop):
        moved = list(scratch.children(drop))
        drop_label = scratch.label(drop)
        for child in moved:
            move(child, keep)
        remove_leaf(drop)
        return (parent, drop, drop_label, moved)

    def revert(record):
        # Revive the dropped sibling (same id, same label) and hand its
        # children back.
        parent, drop, drop_label, moved = record
        add_leaf(parent, drop_label, nid=drop)
        for child in moved:
            move(child, drop)

    seen.add(_shape_key(scratch, output))
    produced += 1
    yield scratch, output
    # Explicit DFS (no recursion limit on long merge chains): one iterator
    # of untried ops per depth, one applied-merge record per depth below
    # the original tree.
    pending = [iter(merge_ops())]
    applied: list[tuple] = []
    while pending:
        op = next(pending[-1], None)
        if op is None:
            pending.pop()
            if applied:
                revert(applied.pop())
            continue
        record = apply(*op)
        key = _shape_key(scratch, output)
        if key in seen:
            revert(record)
            continue
        seen.add(key)
        produced += 1
        yield scratch, output
        if produced >= budget:
            return
        applied.append(record)
        pending.append(iter(merge_ops()))


def _shape_key(tree: DataTree, out: int) -> str:
    # Iterative fold (reversed preorder visits children before parents) into
    # FLAT strings: nested-tuple keys recurse during hashing/equality inside
    # the dedup set, so deep quotient chains would hit the recursion limit.
    # repr() quotes labels, keeping the serialisation unambiguous.
    order: list[int] = []
    stack = [tree.root]
    while stack:
        nid = stack.pop()
        order.append(nid)
        stack.extend(tree.children(nid))
    keys: dict[int, str] = {}
    for nid in reversed(order):
        kids = sorted(keys.pop(c) for c in tree.children(nid))
        mark = "*" if nid == out else ""
        keys[nid] = f"{tree.label(nid)!r}{mark}({','.join(kids)})"
    return keys[tree.root]


# ----------------------------------------------------------------------
# Identification against J (bipartite matching)
# ----------------------------------------------------------------------
def _identify(candidate: DataTree, output: int,
              j_by_label: dict[str, list[int]],
              premises: ConstraintSet, q_answers: set[int],
              range_hits_j: dict[UpdateConstraint, set[int]],
              candidate_ctx=None,
              ) -> dict[int, int] | None:
    """Match obligation-carrying candidate nodes to distinct J-nodes.

    Returns the id substitution (candidate id -> J id) or ``None``.
    ``j_by_label`` maps each label to J's non-root nodes carrying it, in
    preorder, and ``range_hits_j`` holds ``{c: c.range(current)}`` — both
    loop-invariant across candidates, so the caller builds them once.
    ``candidate_ctx`` optionally carries the merge walk's incremental
    snapshot of ``candidate``, so the per-candidate premise evaluations
    run set-at-a-time.
    """
    range_hits_i = {c: evaluate_ids(c.range, candidate, context=candidate_ctx)
                    for c in premises}

    graph = nx.Graph()
    need: list[int] = []
    for nid in candidate.node_ids():
        if nid == candidate.root:
            continue
        obligations = [c for c in premises if nid in range_hits_i[c]]
        if not obligations:
            continue
        need.append(nid)
        for j in j_by_label.get(candidate.label(nid), ()):
            if any(j not in range_hits_j[c] for c in obligations):
                continue
            if nid == output and j in q_answers:
                continue  # the witness must not already satisfy q in J
            graph.add_edge(("i", nid), ("j", j))
    for nid in need:
        if ("i", nid) not in graph:
            return None
    if not need:
        return {}
    matching = nx.algorithms.bipartite.maximum_matching(
        graph, top_nodes=[("i", n) for n in need]
    )
    mapping: dict[int, int] = {}
    for nid in need:
        partner = matching.get(("i", nid))
        if partner is None:
            return None
        mapping[nid] = partner[1]
    return mapping


def _label_buckets(current: DataTree, context=None) -> dict[str, list[int]]:
    """J's non-root nodes by label, each bucket in preorder.

    Preorder buckets keep the matching graph's edge order (and with it the
    certificate networkx returns) independent of how J is indexed.  A
    snapshot ``context`` covering ``current`` already holds them: its
    label buckets are in document order, which is the tree's preorder.
    """
    root = current.root
    buckets: dict[str, list[int]] = {}
    if context is not None and context.covers(current):
        index = context.index
        for label in index.labels():
            bucket = index.nodes_with_label(label)
            if bucket[0] == root:  # first in document order
                del bucket[0]
            if bucket:
                buckets[label] = bucket
        return buckets
    for nid in current.node_ids():
        if nid != root:
            buckets.setdefault(current.label(nid), []).append(nid)
    return buckets


def implies_no_remove(premises: ConstraintSet, current: DataTree,
                      conclusion: UpdateConstraint,
                      range_hits: dict[UpdateConstraint, set[int]] | None = None,
                      context=None,
                      ) -> ImplicationResult:
    """Instance-based implication for an all-``↑`` problem (Theorem 5.5).

    ``range_hits`` optionally supplies ``{c: c.range(current)}`` computed
    elsewhere (a :class:`repro.api.BoundReasoner` shares them across
    conclusions); otherwise they are evaluated once here and reused for
    every candidate embedding.  ``context`` optionally carries a snapshot
    evaluator of ``current`` (the
    :class:`repro.xpath.bitset.BitsetEvaluator` a bound reasoner holds)
    for the ``J``-side evaluations; candidate embeddings get their
    own incremental snapshot only on quotient walks over models of at
    least :data:`MERGE_SNAPSHOT_MIN_SIZE` nodes.
    """
    if any(c.type is not ConstraintType.NO_REMOVE for c in premises):
        raise FragmentError("no-remove engine requires an all-no-remove premise set")
    if conclusion.type is not ConstraintType.NO_REMOVE:
        raise FragmentError("no-remove engine decides no-remove conclusions")
    conclusion.require_concrete()
    premises.require_concrete()
    q = conclusion.range
    cap = max_star_length(list(premises.ranges) + [q]) + 1
    j_by_label = _label_buckets(current, context)
    fresh = fresh_label_for(labels_of(q, *premises.ranges) | set(j_by_label))
    wildcard_labels = sorted(j_by_label) + [fresh]
    q_answers = evaluate_ids(q, current, context=context)
    if range_hits is None:
        range_hits = {c: evaluate_ids(c.range, current, context=context)
                      for c in premises}

    checked = 0
    for model in canonical_models(q, cap, wildcard_labels=wildcard_labels, fresh=fresh):
        scratch = model.tree.copy()
        scratch_ctx = (BitsetEvaluator.for_tree(scratch)
                       if scratch.size >= MERGE_SNAPSHOT_MIN_SIZE else None)
        for candidate, output in _merge_walk(scratch, model.output,
                                             context=scratch_ctx):
            checked += 1
            mapping = _identify(candidate, output, j_by_label, premises,
                                q_answers, range_hits, candidate_ctx=scratch_ctx)
            if mapping is None:
                continue
            past = remap_ids(candidate, mapping)
            witness = mapping.get(output, output)
            return not_implied(ENGINE, premises, conclusion,
                               Counterexample(past, current, witness=witness),
                               reason="a possible embedding of q admits a "
                                      "consistent identification against J",
                               candidates_checked=checked)
    return implied(ENGINE, premises, conclusion,
                   reason="no possible embedding of q can be identified "
                          "consistently with J",
                   candidates_checked=checked)
