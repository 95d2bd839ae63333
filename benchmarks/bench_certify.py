"""Certified-template throughput: guard-only hot path vs per-op enforcement.

One certified-template-dominated stream, three ways — checksummed so the
compared paths provably make the same decisions:

* **certified** — the shipped hot path: each bracket runs through
  :meth:`~repro.stream.engine.StreamEnforcer.apply_certified`, which
  validates only the template guard (binding domains, node existence,
  subtree-label bounds) and applies the ops with **zero** mask work.
* **per_op** — the honest baseline the issue gates against: the same
  concrete brackets replayed as ``Begin/ops/Commit`` through the
  uncertified enforcer, delta-maintained masks re-checked per commit.
* **analyzed** — the same replay with the PR 6 independence analysis on
  (``analysis=True``): the strongest uncertified configuration, since
  constraint-irrelevant ops can take its zero-work fast path.  Reported
  for honesty; the ≥5x gate is against ``per_op`` (the certified path
  must also beat ``analyzed``, asserted as ≥1x, but its margin is the
  analyzer's own benchmark story — see ``bench_analysis.py``).

The workload mirrors the oracle suite: a ~2k-node document labelled from
a HOT alphabet the constraints range over, with COLD subtrees grafted
on; the two templates (a 4-leaf annotate, a subtree rotate) confine
themselves to COLD labels, so both certify statically (attempts=0 — the
bench asserts it).  Fresh-leaf ids are pinned in the schedule, exactly
as the durable service pins them at its journal boundary, so all three
engines see identical concrete ops and
:func:`~repro.stream.decision_checksum` must agree bit for bit.

Run:  PYTHONPATH=src python benchmarks/bench_certify.py [output.json]
          [--smoke] [--compare BASELINE.json] [--tolerance 0.2]

Emits ``BENCH_certify.json`` at the repo root by default; ``--compare``
gates tracked ratios and checksums against the committed baseline like
the other bench scripts (see ``bench_helpers``).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from bench_helpers import compare_reports, timed, timed_interleaved
from repro.certify import (
    LabelHole,
    NodeHole,
    SubtreeHole,
    TemplateAdd,
    TemplateMove,
    UpdateTemplate,
    certify,
)
from repro.stream import StreamEnforcer, decision_checksum
from repro.stream.ops import AddLeaf, Begin, Commit
from repro.workloads import FragmentSpec, random_constraints, random_tree

SEED = 20070611  # PODS 2007
HOT = [f"l{i}" for i in range(8)]   # the constraint alphabet
COLD = ["note", "memo", "tag"]      # what certified templates touch

ANNOTATE = UpdateTemplate("annotate", tuple(
    TemplateAdd(NodeHole("p"), LabelHole(f"l{i}", frozenset(COLD)))
    for i in range(4)))

ROTATE = UpdateTemplate("rotate", (
    TemplateMove(SubtreeHole("s", frozenset(COLD)), NodeHole("d")),
    TemplateMove(SubtreeHole("s", frozenset(COLD)), NodeHole("e")),
))


def build_workload(tree_size: int, brackets: int):
    """(base tree, constraints, schedule) — fully pinned and replayable.

    The schedule is a list of ``(template, bindings, concrete_ops)``
    rows.  Ids are pinned from a private counter (never the global
    allocator) so every round — and every engine — replays the identical
    sequence; bindings only reference base-tree nodes, which no bracket
    ever removes, so the guard passes on the evolving document too.
    """
    rng = random.Random(SEED)
    base = random_tree(rng, HOT, size=tree_size)
    anchors = list(base.node_ids())
    cold_leaves = [base.add_child(rng.choice(anchors), rng.choice(COLD))
                   for _ in range(10)]
    spec = FragmentSpec(predicates=True, descendant=True, wildcard=False)
    constraints = random_constraints(rng, HOT, spec, count=6,
                                     types="mixed", spine=2)
    next_id = max(base.node_ids()) + 1
    schedule = []
    for _ in range(brackets):
        if rng.random() < 0.7:
            bindings = {"p": rng.choice(anchors)}
            bindings.update((f"l{i}", rng.choice(COLD)) for i in range(4))
            ops = []
            for op in ANNOTATE.instantiate(bindings):
                ops.append(AddLeaf(op.parent, op.label, nid=next_id))
                next_id += 1
            schedule.append((ANNOTATE, bindings, tuple(ops)))
        else:
            leaf = rng.choice(cold_leaves)
            d, e = rng.sample([n for n in anchors if n != leaf], 2)
            bindings = {"s": leaf, "d": d, "e": e}
            schedule.append((ROTATE, bindings,
                             ROTATE.instantiate(bindings)))
    return base, constraints, schedule


def bench_certified(tree_size: int, brackets: int, rounds: int) -> dict:
    base, constraints, schedule = build_workload(tree_size, brackets)
    for template in (ANNOTATE, ROTATE):
        outcome = certify(template, constraints)
        assert outcome.certified and outcome.attempts == 0, \
            f"{template.name} must certify statically against the workload"

    certified_out, per_op_out, analyzed_out = [], [], []

    def certified():
        certified_out.clear()
        stream = StreamEnforcer(constraints, base.copy(), analysis=False)
        for template, bindings, ops in schedule:
            certified_out.extend(
                stream.apply_certified(template, bindings, ops=ops))

    def replay(analysis: bool, out: list):
        out.clear()
        stream = StreamEnforcer(constraints, base.copy(),
                                analysis=analysis)
        for template, _, ops in schedule:
            for op in (Begin(template.name), *ops, Commit()):
                out.append(stream.apply(op))

    template_ops = sum(len(ops) for _, _, ops in schedule)
    # Round-robin: both gates are ratios between these paths.
    certified_qps, per_op_qps, analyzed_qps = timed_interleaved(
        [(certified, template_ops),
         (lambda: replay(False, per_op_out), template_ops),
         (lambda: replay(True, analyzed_out), template_ops)], rounds)
    checksum = decision_checksum(certified_out)
    return {
        "tree_size": base.size,
        "constraints": len(constraints),
        "brackets": brackets,
        "template_ops": template_ops,
        "per_op_qps": round(per_op_qps, 1),
        "analyzed_qps": round(analyzed_qps, 1),
        "certified_qps": round(certified_qps, 1),
        "speedup": round(certified_qps / per_op_qps, 2),
        # Reported, not ratio-gated: the analyzer fast path's margin has
        # its own benchmark; here it only must not *beat* certified.
        "speedup_vs_analyzed": round(certified_qps / analyzed_qps, 2),
        "decisions_match": (checksum == decision_checksum(per_op_out)
                            == decision_checksum(analyzed_out)),
        "decision_checksum": checksum,
    }


def bench_certifier(rounds: int) -> dict:
    """One-time certification cost: the price paid *once* per template.

    Reported for scale (it is off the hot path): the static discharge of
    a COLD-confined template against the random workload policy, and —
    on a fixed two-constraint policy where the violation is known to be
    reachable — the bounded refutation search that rejects a violating
    template with a replaying witness.
    """
    from repro.constraints import constraint_set
    _, constraints, _ = build_workload(tree_size=300, brackets=1)
    policy = constraint_set(("/patient/visit", "down"),
                            ("/patient[/clinicalTrial]", "up"))
    intrude = UpdateTemplate("intrude", (
        TemplateAdd(NodeHole("p"), "visit"),))

    def static():
        assert certify(ANNOTATE, constraints).certified

    def search():
        assert not certify(intrude, policy).certified

    static_cps = timed(static, 1, rounds)
    search_cps = timed(search, 1, rounds)
    outcome = certify(intrude, policy)
    return {
        "static_certifications_per_sec": round(static_cps, 1),
        "refutation_searches_per_sec": round(search_cps, 1),
        "search_attempts": outcome.attempts,
        "search_rejected": outcome.counterexample is not None,
        "attempts_checksum": outcome.attempts,
    }


def main() -> None:
    args = list(sys.argv[1:])
    smoke = "--smoke" in args
    if smoke:
        args.remove("--smoke")
    baseline_path = None
    if "--compare" in args:
        at = args.index("--compare")
        baseline_path = Path(args[at + 1])
        del args[at:at + 2]
    tolerance = 0.20
    if "--tolerance" in args:
        at = args.index("--tolerance")
        tolerance = float(args[at + 1])
        del args[at:at + 2]
    out_path = (Path(args[0]) if args
                else Path(__file__).resolve().parent.parent
                / "BENCH_certify.json")

    if smoke:
        certified = bench_certified(tree_size=300, brackets=40, rounds=2)
        certifier = bench_certifier(rounds=2)
        floor = 3.0
    else:
        certified = bench_certified(tree_size=2_000, brackets=250,
                                    rounds=7)
        certifier = bench_certifier(rounds=3)
        floor = 5.0

    report = {
        "benchmark": "certified templates: guard-only vs per-op enforcement",
        "seed": SEED,
        "mode": "smoke" if smoke else "full",
        "certified": certified,
        "certifier": certifier,
        "floors": {"certified": floor},
    }
    out_path.write_text(json.dumps(report, indent=2, ensure_ascii=False)
                        + "\n")
    print(f"certified: per-op {certified['per_op_qps']:>9} op/s | "
          f"analyzed {certified['analyzed_qps']:>9} op/s | "
          f"certified {certified['certified_qps']:>9} op/s | "
          f"x{certified['speedup']}")
    print(f"certifier: static {certifier['static_certifications_per_sec']}"
          f"/s | search {certifier['refutation_searches_per_sec']}/s "
          f"({certifier['search_attempts']} attempts)")
    print(f"wrote {out_path}")

    failures = []
    if not certified["decisions_match"]:
        failures.append("certified decisions diverged from uncertified "
                        "replay (with and/or without analysis)")
    if certified["speedup"] < floor:
        failures.append(f"certified speedup {certified['speedup']} "
                        f"< floor {floor}")
    if certified["speedup_vs_analyzed"] < 1.0:
        failures.append("certified path lost to the analyzer fast path "
                        f"(x{certified['speedup_vs_analyzed']})")
    if not certifier["search_rejected"]:
        failures.append("refutation search failed to reject the "
                        "conflicting template")
    if baseline_path is not None:
        baseline = json.loads(baseline_path.read_text())
        if baseline.get("mode") != report["mode"]:
            failures.append(f"--compare mode mismatch: baseline is "
                            f"{baseline.get('mode')!r}, this run is "
                            f"{report['mode']!r}")
        else:
            failures.extend(compare_reports(report, baseline, tolerance))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        raise SystemExit(1)


if __name__ == "__main__":
    main()
