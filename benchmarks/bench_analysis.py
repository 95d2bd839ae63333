"""Static independence analysis: the zero-work fast path, measured.

Checksummed so the compared paths provably decide alike:

* **fastpath** — one seeded, mostly-irrelevant update log
  (:func:`repro.workloads.mostly_irrelevant_stream`: ~95% of the ops
  edit noise subtrees outside every constraint's label alphabet)
  replayed against a ~2k-node document under six concrete-label mixed
  constraints.  The analyzed path is the shipped
  :class:`~repro.stream.engine.StreamEnforcer` (``analysis=True``): ops
  no impact signature intersects are accepted with zero mask work.  The
  baseline is the same engine with the analyzer off — every op pays the
  delta-maintained mask check.  Decisions are bit-identical
  (``decision_checksum`` ignores the ``independent`` witness); the
  acceptance floor is a ≥5x per-op speedup at ≥90% irrelevant traffic.

Run:  PYTHONPATH=src python benchmarks/bench_analysis.py [output.json]
          [--smoke] [--compare BASELINE.json] [--tolerance 0.2]

Emits ``BENCH_analysis.json`` at the repo root by default; ``--compare``
gates every tracked ratio and checksum against a committed baseline
exactly like the other bench scripts (see ``bench_helpers``).
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from bench_helpers import compare_reports, timed
from repro.stream import StreamEnforcer, decision_checksum
from repro.workloads import (
    FragmentSpec,
    mostly_irrelevant_stream,
    random_constraints,
    random_tree,
)

SEED = 20070611  # PODS 2007
LABELS = [f"l{i}" for i in range(8)]


def workload(tree_size: int, ops: int, irrelevant_rate: float):
    rng = random.Random(SEED)
    base = random_tree(rng, LABELS, size=tree_size)
    spec = FragmentSpec(predicates=True, descendant=True, wildcard=False)
    constraints = random_constraints(rng, LABELS, spec, count=6,
                                     types="mixed", spine=2)
    log = mostly_irrelevant_stream(rng, base, LABELS, constraints=constraints,
                                   ops=ops, irrelevant_rate=irrelevant_rate)
    return base, constraints, log


def bench_fastpath(tree_size: int, ops: int, irrelevant_rate: float,
                   rounds: int) -> dict:
    base, constraints, log = workload(tree_size, ops, irrelevant_rate)
    fast_out, full_out = [], []

    def fastpath():
        fast_out.clear()
        stream = StreamEnforcer(constraints, base.copy())
        fast_out.extend(stream.submit(log))

    def full():
        full_out.clear()
        stream = StreamEnforcer(constraints, base.copy(), analysis=False)
        full_out.extend(stream.submit(log))

    fast_qps = timed(fastpath, len(log), rounds)
    full_qps = timed(full, len(log), max(1, rounds - 1))
    fast_sum = decision_checksum(fast_out)
    full_sum = decision_checksum(full_out)
    independent = sum(1 for d in fast_out if d.independent)
    rejected = sum(1 for d in fast_out if d.rejected and not d.pending)
    return {
        "tree_size": base.size,
        "log_entries": len(log),
        "constraints": len(constraints),
        "independent_ops": independent,
        "independent_rate": round(independent / len(log), 3),
        "rejections": rejected,
        "full_qps": round(full_qps, 1),
        "fastpath_qps": round(fast_qps, 1),
        "speedup": round(fast_qps / full_qps, 2),
        "decisions_match": fast_sum == full_sum,
        "decision_checksum": fast_sum,
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
                / "BENCH_analysis.json")

    if smoke:
        fastpath = bench_fastpath(tree_size=300, ops=80,
                                  irrelevant_rate=0.95, rounds=2)
        floors = {"fastpath": 1.5}
    else:
        fastpath = bench_fastpath(tree_size=2_000, ops=400,
                                  irrelevant_rate=0.95, rounds=3)
        floors = {"fastpath": 5.0}

    report = {
        "benchmark": "static independence: zero-work fast path",
        "seed": SEED,
        "mode": "smoke" if smoke else "full",
        "fastpath": fastpath,
        "floors": floors,
    }
    out_path.write_text(json.dumps(report, indent=2, ensure_ascii=False) + "\n")
    print(f"fastpath : full {fastpath['full_qps']:>9} op/s | "
          f"analyzed {fastpath['fastpath_qps']:>9} op/s | "
          f"x{fastpath['speedup']} "
          f"({fastpath['independent_rate']:.0%} independent)")
    print(f"wrote {out_path}")

    failures = []
    if not fastpath["decisions_match"]:
        failures.append("fast-path decisions diverged from full checking")
    if fastpath["independent_rate"] < 0.9:
        failures.append(f"workload irrelevance {fastpath['independent_rate']} "
                        "< 0.9 — the fast path was not exercised as claimed")
    if fastpath["speedup"] < floors["fastpath"]:
        failures.append(f"fastpath speedup {fastpath['speedup']} "
                        f"< floor {floors['fastpath']}")
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
