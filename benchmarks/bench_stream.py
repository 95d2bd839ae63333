"""Online enforcement throughput: delta-maintained masks vs re-validation.

Two sections, checksummed so the compared paths provably behave
identically:

* **enforcement** — one seeded update log (ops, transaction brackets and a
  tunable adversarial fraction) replayed against a ~2k-node document under
  a mixed constraint set.  The incremental path is the shipped
  :class:`~repro.stream.engine.StreamEnforcer`: one live
  :class:`~repro.trees.index.TreeIndex` across the whole stream,
  predicate masks delta-patched when a check reads them.  The baseline
  is the same engine with its validation strategy swapped for honest
  per-op recompute-from-scratch: a *fresh* snapshot and cold masks for every
  check (what a caller would do with the session API alone, rebinding
  after each mutation).  Same decisions, same witnesses — the acceptance
  floor is a ≥3x per-op speedup at 2k nodes.
* **decoder** — the ``int.to_bytes`` batch slot decoder
  (:func:`repro.xpath.bitset.slots_of`) vs the old big-int bit-kernel
  loop, extracting every mask of a >10k-node document
  (ROADMAP follow-up: the bitset ceiling on large documents).

Run:  PYTHONPATH=src python benchmarks/bench_stream.py [output.json]
          [--smoke] [--compare BASELINE.json] [--tolerance 0.2]

Emits ``BENCH_stream.json`` at the repo root by default; the command
line, the floors and the ``--compare`` gate are :func:`bench_helpers.gate`'s.
"""

from __future__ import annotations

import random

from bench_helpers import gate, timed_interleaved
from repro.constraints.validity import Violation, range_violation
from repro.errors import TreeError
from repro.stream import StreamEnforcer, decision_checksum
from repro.trees.index import TreeIndex
from repro.trees.tree import DataTree
from repro.workloads import (
    FragmentSpec,
    random_constraints,
    random_tree,
    random_update_stream,
)
from repro.xpath.bitset import BitsetEvaluator, slots_of

SEED = 20070611  # PODS 2007
LABELS = [f"l{i}" for i in range(8)]


class RawEdits:
    """The ``apply_*`` edit surface of a snapshot, on the bare tree.

    The shared edit journal (:func:`repro.stream.ops.perform` /
    :func:`~repro.stream.ops.undo`) drives whatever it is handed; this
    hands it the tree itself, so no snapshot is maintained per edit.
    Each edit returns the same inverse a :class:`TreeIndex` edit does.
    """

    def __init__(self, tree: DataTree):
        self.tree = tree

    @property
    def index(self) -> "RawEdits":
        """Where the stream reaches its evaluator's edit surface."""
        return self

    def apply_add_leaf(self, parent: int, label: str,
                       nid: int | None = None) -> int:
        return self.tree.add_child(parent, label, nid=nid)

    def apply_move(self, nid: int, new_parent: int) -> int:
        return self.tree.move(nid, new_parent)

    def apply_add_subtree(self, spec) -> None:
        for nid, parent, label in spec:
            self.tree.add_child(parent, label, nid=nid)

    def apply_remove_subtree(self, nid: int):
        tree = self.tree
        if tree.parent(nid) is None:  # an absent node raises here
            raise TreeError("cannot remove the root")
        spec = tuple((n, tree.parent(n), tree.label(n))
                     for n in tree.descendants(nid, include_self=True))
        tree.remove_subtree(nid)
        return spec


class ScratchEnforcer(StreamEnforcer):
    """The same enforcement semantics, validated from scratch per op.

    Edits go straight to the raw tree (no live snapshot to maintain) and
    every re-check builds a fresh :class:`BitsetEvaluator` — cold masks,
    full bottom-up recompute — and diffs each constraint's answer set
    against the one frozen at open.  Decisions must be bit-identical to
    the incremental engine's; only the work per operation differs.
    """

    def __init__(self, constraints, tree: DataTree) -> None:
        super().__init__(constraints, tree, analysis=False)
        # q_c(I₀) per constraint position, duplicates kept.
        self._opening = [(c, self._ctx.evaluate(c.range))
                         for c in self.constraints]
        self._ctx = RawEdits(tree)  # the journal edits the bare tree

    def _check_fresh(self) -> None:  # the initial snapshot is left behind
        pass

    def _current_violations(self, only=None) -> tuple[Violation, ...]:
        # A full recheck answers any restricted one (``only`` names the
        # constraints that may have changed; the rest are known to hold).
        fresh = BitsetEvaluator.for_tree(self._tree)
        found = (range_violation(c, before, fresh.evaluate(c.range))
                 for c, before in self._opening)
        return tuple(v for v in found if v is not None)


def bench_enforcement(tree_size: int, ops: int, rounds: int) -> dict:
    rng = random.Random(SEED)
    base = random_tree(rng, LABELS, size=tree_size)
    spec = FragmentSpec(predicates=True, descendant=True, wildcard=False)
    constraints = random_constraints(rng, LABELS, spec, count=6,
                                     types="mixed", spine=2)
    log = random_update_stream(rng, base, LABELS, constraints=constraints,
                               ops=ops, violation_rate=0.3, txn_prob=0.15)

    incremental_out, scratch_out = [], []

    def incremental():
        incremental_out.clear()
        # analysis=False: this section isolates the delta-maintained mask
        # machinery; the independence fast path has its own benchmark
        # (bench_analysis.py) with a workload shaped to exercise it.
        stream = StreamEnforcer(constraints, base.copy(), analysis=False)
        incremental_out.extend(stream.submit(log))

    def scratch():
        scratch_out.clear()
        # ScratchEnforcer runs with analysis off: it leaves the live
        # snapshot behind, so the analyzer must not consult it — and an
        # honest recompute baseline takes no fast path anyway.
        stream = ScratchEnforcer(constraints, base.copy())
        scratch_out.extend(stream.submit(log))

    incremental_qps, scratch_qps = timed_interleaved(
        [(incremental, len(log)), (scratch, len(log))], rounds)
    inc_sum = decision_checksum(incremental_out)
    scr_sum = decision_checksum(scratch_out)
    rejected = sum(1 for d in incremental_out if d.rejected and not d.pending)
    return {
        "tree_size": base.size,
        "log_entries": len(log),
        "constraints": len(constraints),
        "rejections": rejected,
        "scratch_qps": round(scratch_qps, 1),
        "incremental_qps": round(incremental_qps, 1),
        "speedup": round(incremental_qps / scratch_qps, 2),
        "decisions_match": inc_sum == scr_sum,
        "decision_checksum": inc_sum,
    }


def bench_decoder(tree_size: int, rounds: int) -> dict:
    """Batch ``int.to_bytes`` slot decoding vs the big-int bit-kernel."""
    rng = random.Random(SEED)
    tree = random_tree(rng, LABELS, size=tree_size)
    index = TreeIndex(tree)
    masks = [index.label_mask(label) for label in LABELS]
    masks.append(index.all_mask())

    def bitkernel(mask: int) -> list[int]:
        out = []
        while mask:
            low = mask & -mask
            out.append(low.bit_length() - 1)
            mask ^= low
        return out

    total_slots = sum(len(slots_of(m)) for m in masks)

    def batch():
        for m in masks:
            slots_of(m)

    def kernel():
        for m in masks:
            bitkernel(m)

    batch_sps, kernel_sps = timed_interleaved(
        [(batch, total_slots), (kernel, total_slots)], rounds)
    checksum = sum(sum(slots_of(m)) for m in masks) % (2 ** 61)
    reference = sum(sum(bitkernel(m)) for m in masks) % (2 ** 61)
    return {
        "tree_size": tree.size,
        "masks": len(masks),
        "slots_decoded": total_slots,
        "bitkernel_slots_per_sec": round(kernel_sps, 0),
        "batch_slots_per_sec": round(batch_sps, 0),
        "speedup": round(batch_sps / kernel_sps, 2),
        "answers_match": checksum == reference,
        "slot_checksum": checksum,
    }


def run(smoke: bool) -> tuple[dict, list[str]]:
    if smoke:
        enforcement = bench_enforcement(tree_size=300, ops=40, rounds=2)
        decoder = bench_decoder(tree_size=2_000, rounds=2)
        floors = {"enforcement": 1.3, "decoder": 1.05}
    else:
        enforcement = bench_enforcement(tree_size=2_000, ops=150, rounds=3)
        decoder = bench_decoder(tree_size=12_000, rounds=5)
        floors = {"enforcement": 3.0, "decoder": 1.2}

    report = {
        "benchmark": "online enforcement: delta-maintained vs re-validation",
        "seed": SEED,
        "mode": "smoke" if smoke else "full",
        "enforcement": enforcement,
        "decoder": decoder,
        "floors": floors,
    }
    print(f"enforce : scratch {enforcement['scratch_qps']:>8} op/s | "
          f"incremental {enforcement['incremental_qps']:>9} op/s | "
          f"x{enforcement['speedup']}")
    print(f"decoder : kernel {decoder['bitkernel_slots_per_sec']:>9} sl/s | "
          f"batch       {decoder['batch_slots_per_sec']:>9} sl/s | "
          f"x{decoder['speedup']}")

    failures = []
    if not enforcement["decisions_match"]:
        failures.append("enforcement decisions diverged between incremental "
                        "and recompute-from-scratch")
    if not decoder["answers_match"]:
        failures.append("decoder slot sets diverged from the bit-kernel")
    return report, failures


if __name__ == "__main__":
    gate("stream", run)
