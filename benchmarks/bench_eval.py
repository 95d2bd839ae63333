"""Evaluation-kernel throughput: naive vs the set-at-a-time bitset snapshot.

Four workloads, all checksummed so the competing paths are provably
answering identically:

* **pattern evaluation** — a pool of concrete ``XP{/,[],//}`` patterns
  evaluated as a repeated stream over one ~1k-node tree: the naive
  two-phase evaluator vs one :class:`BitsetEvaluator` snapshot.  The
  snapshot build is charged to the bitset path; ``distinct_only``
  isolates the cold-memo speedup from the memo's contribution.
* **bitset distinct (cold memo)** — the set-at-a-time layer's acceptance
  workload: one shared :class:`TreeIndex` snapshot of a ~2k-node tree, a
  pool of full-fragment ``XP{/,[],//,*}`` patterns with nested predicates,
  and per-round *fresh* evaluators (all query/predicate memos cold).
  Naive two-phase evaluation vs whole-frontier bitset masks, same
  answers.
* **instance implication** — a stream of distinct all-``↓`` conclusions
  against one ``(C, J)``: legacy one-shot ``implies_on`` vs
  ``Reasoner(C).bind(J)`` (bitset snapshot + shared premise answer sets).
* **instance implication with search** — mixed-type premises whose
  conclusions drive the bounded refutation search (including exhausted
  budgets -> UNKNOWN), asked as a production-style repeated stream:
  legacy one-shot vs a bound session.

Each section times its competing paths round-robin, seven rounds in the
full run (``bench_helpers.timed_interleaved``), so a slow moment of a
shared machine lands on both sides of a gated ratio.

Run:  PYTHONPATH=src python benchmarks/bench_eval.py [output.json]
          [--smoke] [--compare BASELINE.json] [--tolerance 0.2]

Emits ``BENCH_eval.json`` at the repo root by default.  Exits non-zero when
verdict/answer checksums diverge or a speedup floor is missed — ``--smoke``
shrinks the workload and relaxes the floors for a quick local check.  The
command line, the floors and the ``--compare`` gate (>20% ratio regression
or any checksum drift fails; run it in the baseline's mode) are
:func:`bench_helpers.gate`'s.
"""

from __future__ import annotations

import random

from bench_helpers import gate, timed_interleaved
from repro import Reasoner, implies_on
from repro.constraints.model import ConstraintType, UpdateConstraint
from repro.trees.index import TreeIndex
from repro.workloads import FragmentSpec, random_constraints, random_pattern, random_tree
from repro.xpath import BitsetEvaluator
from repro.xpath.evaluator import evaluate_ids

SEED = 20070611  # PODS 2007
LABELS = [f"l{i}" for i in range(8)]


def answer_checksum(answer_sets) -> int:
    total = 0
    for ids in answer_sets:
        total = (total * 1_000_003 + hash(tuple(sorted(ids)))) % (2 ** 61)
    return total


def verdict_checksum(results) -> int:
    code = {"implied": 1, "not-implied": 2, "unknown": 0}
    total = 0
    for result in results:
        total = (total * 3 + code[result.answer.value]) % (2 ** 31)
    return total


def bench_eval(tree_size: int, pool_size: int, repeats: int, rounds: int) -> dict:
    rng = random.Random(SEED)
    tree = random_tree(rng, LABELS, size=tree_size)
    spec = FragmentSpec(predicates=True, descendant=True, wildcard=False)
    pool = [random_pattern(rng, LABELS, spec, spine=rng.randint(2, 4))
            for _ in range(pool_size)]
    stream = pool * repeats
    rng.shuffle(stream)

    naive_out, bitset_out = [], []

    def naive():
        naive_out.clear()
        naive_out.extend(evaluate_ids(p, tree) for p in stream)

    def bitset():
        bitset_out.clear()
        ctx = BitsetEvaluator.for_tree(tree)  # snapshot build charged here
        bitset_out.extend(ctx.evaluate_ids(p) for p in stream)

    def naive_distinct():
        for p in pool:
            evaluate_ids(p, tree)

    def bitset_distinct():
        ctx = BitsetEvaluator.for_tree(tree)
        for p in pool:
            ctx.evaluate_ids(p)

    naive_qps, bitset_qps, naive_distinct_qps, bitset_distinct_qps = (
        timed_interleaved([(naive, len(stream)), (bitset, len(stream)),
                           (naive_distinct, len(pool)),
                           (bitset_distinct, len(pool))], rounds))
    naive_sum = answer_checksum(naive_out)
    bitset_sum = answer_checksum(bitset_out)
    return {
        "tree_size": tree.size,
        "distinct_patterns": len(pool),
        "queries": len(stream),
        "naive_qps": round(naive_qps, 1),
        "bitset_qps": round(bitset_qps, 1),
        "speedup": round(bitset_qps / naive_qps, 2),
        "distinct_only": {
            "naive_qps": round(naive_distinct_qps, 1),
            "bitset_qps": round(bitset_distinct_qps, 1),
            "speedup": round(bitset_distinct_qps / naive_distinct_qps, 2),
        },
        "answers_match": naive_sum == bitset_sum,
        "answer_checksum": naive_sum,
    }


def bench_bitset(tree_size: int, pool_size: int, rounds: int) -> dict:
    """Naive two-phase evaluation vs bitset masks, cold evaluator memos.

    One shared :class:`TreeIndex` (its structural facts — label buckets,
    parent-slot table, children masks — are snapshot properties the
    bitset path may warm); every round constructs a fresh evaluator, so
    all query/predicate memos start cold.  The pool uses the paper's full
    fragment with nested predicates, where the naive evaluator re-checks
    every predicate per (candidate, step).
    """
    rng = random.Random(SEED)
    tree = random_tree(rng, LABELS, size=tree_size)
    spec = FragmentSpec(predicates=True, descendant=True, wildcard=True)
    pool = [random_pattern(rng, LABELS, spec, spine=rng.randint(2, 4),
                           pred_prob=0.7, max_pred_depth=3)
            for _ in range(pool_size)]
    snapshot = TreeIndex(tree)

    naive_out, bitset_out = [], []

    def naive():
        naive_out.clear()
        naive_out.extend(evaluate_ids(p, tree) for p in pool)

    def bitset_cold():
        bitset_out.clear()
        ctx = BitsetEvaluator(snapshot)
        bitset_out.extend(ctx.evaluate_ids(p) for p in pool)

    naive_qps, bitset_qps = timed_interleaved(
        [(naive, len(pool)), (bitset_cold, len(pool))], rounds)
    bitset_sum = answer_checksum(bitset_out)
    return {
        "tree_size": tree.size,
        "distinct_patterns": len(pool),
        "naive_qps": round(naive_qps, 1),
        "bitset_qps": round(bitset_qps, 1),
        "speedup": round(bitset_qps / naive_qps, 2),
        "answers_match": answer_checksum(naive_out) == bitset_sum,
        "answer_checksum": bitset_sum,
    }


def bench_instance(tree_size: int, pool_size: int, rounds: int) -> dict:
    rng = random.Random(SEED)
    tree = random_tree(rng, LABELS[:3], size=tree_size)
    spec = FragmentSpec(predicates=True, descendant=True, wildcard=True)
    premises = random_constraints(rng, LABELS[:3], spec, count=6,
                                  types="down", spine=2)
    conclusions = [
        UpdateConstraint(random_pattern(rng, LABELS[:3], spec, spine=2),
                         ConstraintType.NO_INSERT)
        for _ in range(pool_size)
    ]

    legacy_out, bound_out = [], []

    def legacy():
        legacy_out.clear()
        legacy_out.extend(implies_on(premises, tree, c) for c in conclusions)

    def bound():
        bound_out.clear()
        session = Reasoner(premises).bind(tree)  # snapshot charged here
        bound_out.extend(session.implies_on(c) for c in conclusions)

    legacy_qps, bound_qps = timed_interleaved(
        [(legacy, len(conclusions)), (bound, len(conclusions))], rounds)
    legacy_sum = verdict_checksum(legacy_out)
    bound_sum = verdict_checksum(bound_out)
    return {
        "tree_size": tree.size,
        "conclusions": len(conclusions),
        "premises": len(premises),
        "legacy_qps": round(legacy_qps, 2),
        "bound_qps": round(bound_qps, 2),
        "speedup": round(bound_qps / legacy_qps, 2),
        "verdicts_match": legacy_sum == bound_sum,
        "verdict_checksum": legacy_sum,
    }


def bench_search(tree_size: int, pool_size: int, repeats: int,
                 rounds: int, budget: int) -> dict:
    """Mixed-type instance implication with the refutation search engaged.

    The workload seed is advanced until the pool contains conclusions the
    hybrid dispatch can only answer UNKNOWN (the search runs its whole
    budget), then the pool is asked as a repeated stream — the production
    shape the bound session's result memo and shared premise answers are
    built for.
    """
    spec = FragmentSpec(predicates=True, descendant=False, wildcard=False)
    for attempt in range(64):
        rng = random.Random(SEED + attempt)
        tree = random_tree(rng, LABELS[:3], size=tree_size)
        premises = random_constraints(rng, LABELS[:3], spec, count=4,
                                      types="mixed", spine=2)
        pool = [UpdateConstraint(random_pattern(rng, LABELS[:3], spec, spine=2),
                                 rng.choice(list(ConstraintType)))
                for _ in range(pool_size)]
        probe = [implies_on(premises, tree, c, max_moves=1,
                            search_budget=budget) for c in pool]
        if sum(r.is_unknown for r in probe) >= 2:
            break
    stream = pool * repeats
    rng.shuffle(stream)

    legacy_out, bound_out = [], []

    def legacy():
        legacy_out.clear()
        legacy_out.extend(implies_on(premises, tree, c, max_moves=1,
                                     search_budget=budget) for c in stream)

    def bound():
        bound_out.clear()
        session = Reasoner(premises).bind(tree)
        bound_out.extend(session.implies_on(c, max_moves=1,
                                            search_budget=budget)
                         for c in stream)

    legacy_qps, bound_qps = timed_interleaved(
        [(legacy, len(stream)), (bound, len(stream))], rounds)
    legacy_sum = verdict_checksum(legacy_out)
    bound_sum = verdict_checksum(bound_out)
    return {
        "tree_size": tree.size,
        "queries": len(stream),
        "distinct_conclusions": len(pool),
        "unknown_verdicts": sum(r.is_unknown for r in probe),
        "search_budget": budget,
        "legacy_qps": round(legacy_qps, 2),
        "bound_qps": round(bound_qps, 2),
        "speedup": round(bound_qps / legacy_qps, 2),
        "verdicts_match": legacy_sum == bound_sum,
        "verdict_checksum": legacy_sum,
    }


def run(smoke: bool) -> tuple[dict, list[str]]:
    if smoke:
        eval_row = bench_eval(tree_size=300, pool_size=10, repeats=3, rounds=2)
        bitset_row = bench_bitset(tree_size=300, pool_size=10, rounds=2)
        instance_row = bench_instance(tree_size=60, pool_size=8, rounds=2)
        search_row = bench_search(tree_size=40, pool_size=6, repeats=2,
                                  rounds=2, budget=150)
        floors = {"pattern_evaluation": 1.0, "bitset": 1.0,
                  "instance_implication": 1.0, "instance_search": 1.0}
    else:
        eval_row = bench_eval(tree_size=1000, pool_size=20, repeats=5, rounds=7)
        bitset_row = bench_bitset(tree_size=2000, pool_size=30, rounds=7)
        instance_row = bench_instance(tree_size=150, pool_size=15, rounds=7)
        search_row = bench_search(tree_size=60, pool_size=8, repeats=3,
                                  rounds=7, budget=300)
        floors = {"pattern_evaluation": 10.0, "bitset": 7.0,
                  "instance_implication": 3.0, "instance_search": 1.5}

    report = {
        "benchmark": "evaluation kernel: naive vs bitset",
        "seed": SEED,
        "mode": "smoke" if smoke else "full",
        "pattern_evaluation": eval_row,
        "bitset": bitset_row,
        "instance_implication": instance_row,
        "instance_search": search_row,
        "floors": floors,
    }
    print(f"eval    : naive {eval_row['naive_qps']:>9} q/s | "
          f"bitset  {eval_row['bitset_qps']:>9} q/s | x{eval_row['speedup']}")
    print(f"bitset  : naive {bitset_row['naive_qps']:>9} q/s | "
          f"bitset  {bitset_row['bitset_qps']:>9} q/s | x{bitset_row['speedup']}")
    print(f"instance: legacy {instance_row['legacy_qps']:>8} q/s | "
          f"bound   {instance_row['bound_qps']:>9} q/s | x{instance_row['speedup']}")
    print(f"search  : legacy {search_row['legacy_qps']:>8} q/s | "
          f"bound   {search_row['bound_qps']:>9} q/s | x{search_row['speedup']}")

    failures = []
    if not eval_row["answers_match"]:
        failures.append("pattern-evaluation answer sets diverged")
    if not bitset_row["answers_match"]:
        failures.append("bitset answer sets diverged from naive")
    if not instance_row["verdicts_match"]:
        failures.append("instance-implication verdicts diverged")
    if not search_row["verdicts_match"]:
        failures.append("search-enabled instance verdicts diverged")
    return report, failures


if __name__ == "__main__":
    gate("eval", run)
