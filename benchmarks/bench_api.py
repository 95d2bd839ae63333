"""Repeated-query throughput: legacy free functions vs the compiled Reasoner.

Models the production traffic pattern the session API exists for: one
stable constraint set ``C``, a stream of conclusions drawn from a finite
query pool (real traffic repeats itself).  The legacy path pays the full
per-call analysis every time; ``Reasoner(C)`` compiles once and serves
repeats from its canonical-form memo.

Run:  PYTHONPATH=src python benchmarks/bench_api.py [output.json]
          [--compare BASELINE.json] [--tolerance 0.2]

Emits ``BENCH_api.json`` (at the repo root by default) with queries/sec
for both paths and the resulting speedup, for the general (Table 1) and
the instance-based (Table 2) problem, plus a distinct-only column so the
memo's contribution is visible separately from the compile-once savings.
The full run takes seconds, so there is no ``--smoke`` mode.  The command
line and the ``--compare`` gate are :func:`bench_helpers.gate`'s.
"""

from __future__ import annotations

import random

from bench_helpers import gate, timed_interleaved
from repro import Reasoner, implies, implies_on
from repro.constraints.model import ConstraintType, UpdateConstraint
from repro.workloads import FragmentSpec, random_constraints, random_pattern, random_tree

LABELS = ["a", "b", "c"]
SEED = 20070611  # PODS 2007
POOL_SIZE = 25          # distinct conclusions in the pool
REPEATS = 5             # times each pool entry appears in the stream
ROUNDS = 7              # timing rounds; best-of is reported


def build_workload():
    rng = random.Random(SEED)
    spec = FragmentSpec(predicates=True, descendant=False, wildcard=True)
    premises = random_constraints(rng, LABELS, spec, count=6, types="mixed",
                                  spine=2)
    pool = []
    while len(pool) < POOL_SIZE:
        kind = rng.choice(list(ConstraintType))
        conclusion = UpdateConstraint(
            random_pattern(rng, LABELS, spec, spine=2), kind)
        pool.append(conclusion)
    stream = pool * REPEATS
    rng.shuffle(stream)
    tree = random_tree(rng, LABELS, size=12)
    return premises, pool, stream, tree


def checksum(results) -> int:
    code = {"implied": 1, "not-implied": 2, "unknown": 0}
    total = 0
    for result in results:
        total = (total * 3 + code[result.answer.value]) % (2 ** 31)
    return total


def bench_general(premises, pool, stream):
    legacy_out, session_out = [], []

    def legacy():
        legacy_out.clear()
        legacy_out.extend(implies(premises, c) for c in stream)

    def session():
        session_out.clear()
        reasoner = Reasoner(premises)  # compile cost charged to this path
        session_out.extend(reasoner.implies(c) for c in stream)

    def session_distinct():
        reasoner = Reasoner(premises)
        for c in pool:
            reasoner.implies(c)

    legacy_qps, session_qps, distinct_qps = timed_interleaved(
        [(legacy, len(stream)), (session, len(stream)),
         (session_distinct, len(pool))], ROUNDS)
    assert checksum(legacy_out) == checksum(session_out), "verdicts diverged"
    return {
        "queries": len(stream),
        "distinct_conclusions": len(pool),
        "legacy_qps": round(legacy_qps, 1),
        "reasoner_qps": round(session_qps, 1),
        "reasoner_distinct_only_qps": round(distinct_qps, 1),
        "speedup": round(session_qps / legacy_qps, 2),
        "verdict_checksum": checksum(legacy_out),
    }


def bench_instance(premises, pool, stream, tree):
    legacy_out, session_out = [], []

    def legacy():
        legacy_out.clear()
        legacy_out.extend(implies_on(premises, tree, c) for c in stream)

    def session():
        session_out.clear()
        bound = Reasoner(premises).bind(tree)
        session_out.extend(bound.implies_on(c) for c in stream)

    legacy_qps, session_qps = timed_interleaved(
        [(legacy, len(stream)), (session, len(stream))], ROUNDS)
    assert checksum(legacy_out) == checksum(session_out), "verdicts diverged"
    return {
        "queries": len(stream),
        "tree_size": tree.size,
        "legacy_qps": round(legacy_qps, 1),
        "reasoner_qps": round(session_qps, 1),
        "speedup": round(session_qps / legacy_qps, 2),
        "verdict_checksum": checksum(legacy_out),
    }


def run() -> tuple[dict, list[str]]:
    premises, pool, stream, tree = build_workload()
    report = {
        "benchmark": "session-api repeated-query throughput",
        "seed": SEED,
        "constraints": [str(c) for c in premises],
        "general": bench_general(premises, pool, stream),
        "instance": bench_instance(premises, pool, stream, tree),
    }
    general, instance = report["general"], report["instance"]
    print(f"general : legacy {general['legacy_qps']:>8} q/s | "
          f"reasoner {general['reasoner_qps']:>8} q/s | "
          f"x{general['speedup']}")
    print(f"instance: legacy {instance['legacy_qps']:>8} q/s | "
          f"reasoner {instance['reasoner_qps']:>8} q/s | "
          f"x{instance['speedup']}")
    return report, []


if __name__ == "__main__":
    gate("api", run, has_smoke=False)
