"""Service-layer throughput: refutation search, async front end, dispatch.

Three sections, checksummed so the compared paths provably behave
identically:

* **refutation** — one budget-exhausting mixed-type refutation search
  (the coNP cell's worst case: every cascade candidate validated, no
  counterexample found) through
  :func:`repro.instance.search.bounded_refutation`, reported as
  candidates/second.  Every timed run must reach the drawn verdict (no
  counterexample); the throughput is reported, not gated.
* **async** — a single client pipelining an update log through
  :class:`~repro.service.async_service.AsyncService` (one awaitable
  decision per op) vs direct :meth:`StreamEnforcer.apply` calls on the
  same log.  The façade adds one queue hop and one future per op; the
  tracked ``speedup`` (async/direct) is gated — the ROADMAP target is
  single-client throughput within ~10% of direct calls.
* **service** — wire-level dispatch overhead: repeated implication
  batches through :meth:`ConstraintService.handle` (request objects in,
  wire verdicts out) vs the same queries on the compiled session
  directly.  Gated like ``async``.

Run:  PYTHONPATH=src python benchmarks/bench_service.py [output.json]
          [--smoke] [--compare BASELINE.json] [--tolerance 0.2]

Emits ``BENCH_service.json`` at the repo root by default; ``--compare``
gates every tracked ratio and checksum against a committed baseline
exactly like the other bench scripts (see ``bench_helpers``).
"""

from __future__ import annotations

import asyncio
import json
import random
import sys
import time
from pathlib import Path

from bench_helpers import compare_reports, timed
from repro import AsyncService, ConstraintService, Reasoner, StreamEnforcer
from repro.constraints.model import ConstraintType, UpdateConstraint
from repro.instance.search import bounded_refutation
from repro.service import ImplicationQuery, StreamSubmit, response_checksum
from repro.workloads import (
    FragmentSpec,
    random_constraints,
    random_pattern,
    random_tree,
    random_update_stream,
)

SEED = 20070611  # PODS 2007
LABELS = [f"l{i}" for i in range(6)]

_FOLD = 1_000_003
_MOD = 2 ** 61


def fold_checksums(responses) -> int:
    total = 0
    for response in responses:
        total = (total * _FOLD + response_checksum(response)) % _MOD
    return total


# ----------------------------------------------------------------------
# Section 1: refutation search
# ----------------------------------------------------------------------
def refutation_problem(tree_size: int, budget: int):
    """A seeded mixed-type problem whose search exhausts its budget.

    Drawn until the sequential search returns no counterexample (the
    UNKNOWN-side worst case): then every one of ``budget`` cascade
    candidates is validated, and throughput is well-defined as
    candidates/second.
    """
    rng = random.Random(SEED)
    spec = FragmentSpec(predicates=True, descendant=True, wildcard=False)
    while True:
        tree = random_tree(rng, LABELS, size=tree_size)
        premises = random_constraints(rng, LABELS, spec, count=5,
                                      types="mixed", spine=2)
        conclusion = UpdateConstraint(
            random_pattern(rng, LABELS, spec, spine=2),
            rng.choice(list(ConstraintType)))
        if premises.of_type(conclusion.type) and \
                premises.of_type(conclusion.type.opposite) and \
                bounded_refutation(premises, tree, conclusion,
                                   max_moves=2, budget=budget) is None:
            return premises, tree, conclusion


def bench_refutation(tree_size: int, budget: int, rounds: int) -> dict:
    premises, tree, conclusion = refutation_problem(tree_size, budget)
    outcomes = []

    def search():
        outcomes.append(bounded_refutation(premises, tree, conclusion,
                                           max_moves=2, budget=budget))

    seq_cps = timed(search, budget, rounds)
    agree = all(outcome is None for outcome in outcomes)
    return {
        "tree_size": tree.size,
        "budget": budget,
        "premises": len(premises),
        "sequential_candidates_per_sec": round(seq_cps, 1),
        "verdicts_agree": agree,
        "verdict_checksum": 1 if agree else 0,
    }


# ----------------------------------------------------------------------
# Section 2: async front end vs direct StreamEnforcer
# ----------------------------------------------------------------------
def bench_async(tree_size: int, ops: int, rounds: int) -> dict:
    """Steady-state per-op throughput: stream setup (document copy,
    baseline evaluation, loop startup, registration) is excluded on both
    sides — the measured region is exactly the per-op path a long-lived
    single client exercises."""
    rng = random.Random(SEED)
    base = random_tree(rng, LABELS, size=tree_size)
    spec = FragmentSpec(predicates=True, descendant=True, wildcard=False)
    constraints = random_constraints(rng, LABELS, spec, count=5,
                                     types="mixed", spine=2)
    log = random_update_stream(rng, base, LABELS, constraints=constraints,
                               ops=ops, violation_rate=0.3, txn_prob=0.0)
    direct_out, async_out = [], []

    def direct_once() -> float:
        direct_out.clear()
        stream = StreamEnforcer(constraints, base.copy())
        start = time.perf_counter()
        direct_out.extend(stream.apply(op) for op in log)
        return time.perf_counter() - start

    async def pipeline() -> float:
        best = float("inf")
        async with AsyncService() as svc:
            await svc.register_constraints("policy", constraints)
            for round_no in range(rounds):
                doc = f"doc{round_no}"
                await svc.register_document(doc, base.copy())
                # Prime the stream (opens the enforcer, evaluates the
                # baseline) and pre-build the request objects — a wire
                # client hands the service ready-made requests — before
                # the clock starts.
                await svc.submit(StreamSubmit(doc, "policy", ()))
                requests = [StreamSubmit(doc, "policy", (op,)) for op in log]
                start = time.perf_counter()
                futures = [svc.submit(request) for request in requests]
                replies = list(await asyncio.gather(*futures))
                best = min(best, time.perf_counter() - start)
                async_out.clear()
                async_out.extend(replies)
        return best

    direct_qps = len(log) / min(direct_once() for _ in range(rounds))
    async_qps = len(log) / asyncio.run(pipeline())
    # Same per-op verdicts: fold the async wire decisions and the direct
    # decisions through one shape.
    from repro.service import StreamDecisions, WireDecision
    direct_wire = fold_checksums(
        StreamDecisions((WireDecision.of(d),)) for d in direct_out)
    async_wire = fold_checksums(async_out)
    rejected = sum(1 for r in async_out for d in r.decisions if not d.accepted)
    return {
        "tree_size": base.size,
        "log_entries": len(log),
        "constraints": len(constraints),
        "rejections": rejected,
        "direct_qps": round(direct_qps, 1),
        "async_qps": round(async_qps, 1),
        "speedup": round(async_qps / direct_qps, 2),
        "decisions_match": direct_wire == async_wire,
        "decision_checksum": async_wire,
    }


# ----------------------------------------------------------------------
# Section 3: wire-level dispatch overhead on implication traffic
# ----------------------------------------------------------------------
def bench_service_dispatch(batches: int, per_batch: int, rounds: int) -> dict:
    rng = random.Random(SEED)
    spec = FragmentSpec(predicates=True, descendant=False, wildcard=False)
    constraints = random_constraints(rng, LABELS, spec, count=5,
                                     types="mixed", spine=2)
    distinct = [UpdateConstraint(random_pattern(rng, LABELS, spec, spine=2),
                                 rng.choice(list(ConstraintType)))
                for _ in range(10)]
    requests = [ImplicationQuery("policy", tuple(
        rng.choice(distinct) for _ in range(per_batch)))
        for _ in range(batches)]

    svc = ConstraintService()
    svc.register_constraints("policy", constraints)
    session = Reasoner(constraints)
    service_out = []

    def through_service():
        service_out.clear()
        service_out.extend(svc.handle(request) for request in requests)

    def through_session():
        for request in requests:
            session.implies_all(request.conclusions)

    queries = batches * per_batch
    service_qps = timed(through_service, queries, rounds)
    session_qps = timed(through_session, queries, rounds)
    return {
        "batches": batches,
        "queries": queries,
        "session_qps": round(session_qps, 1),
        "service_qps": round(service_qps, 1),
        "speedup": round(service_qps / session_qps, 2),
        "answer_checksum": fold_checksums(service_out),
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
                else Path(__file__).resolve().parent.parent / "BENCH_service.json")

    if smoke:
        refutation = bench_refutation(tree_size=24, budget=300, rounds=2)
        asynchronous = bench_async(tree_size=200, ops=40, rounds=2)
        dispatch = bench_service_dispatch(batches=20, per_batch=4, rounds=2)
        floors = {"async": 0.45, "service": 0.25}
    else:
        refutation = bench_refutation(tree_size=48, budget=1500, rounds=2)
        asynchronous = bench_async(tree_size=1200, ops=120, rounds=3)
        dispatch = bench_service_dispatch(batches=60, per_batch=5, rounds=3)
        floors = {"async": 0.6, "service": 0.35}

    report = {
        "benchmark": "constraint service: refutation search, async front "
                     "end, wire dispatch",
        "seed": SEED,
        "mode": "smoke" if smoke else "full",
        "refutation": refutation,
        "async": asynchronous,
        "service": dispatch,
        "floors": floors,
    }
    out_path.write_text(json.dumps(report, indent=2, ensure_ascii=False) + "\n")
    print(f"refute  : seq {refutation['sequential_candidates_per_sec']:>9} c/s"
          f" (not gated)")
    print(f"async   : direct {asynchronous['direct_qps']:>8} op/s | "
          f"async  {asynchronous['async_qps']:>9} op/s | "
          f"x{asynchronous['speedup']}")
    print(f"service : session {dispatch['session_qps']:>7} q/s | "
          f"service {dispatch['service_qps']:>8} q/s | "
          f"x{dispatch['speedup']}")
    print(f"wrote {out_path}")

    failures = []
    if not refutation["verdicts_agree"]:
        failures.append("a timed refutation search found a counterexample "
                        "the drawn problem does not have")
    if not asynchronous["decisions_match"]:
        failures.append("async decisions diverged from direct StreamEnforcer")
    if asynchronous["speedup"] < floors["async"]:
        failures.append(f"async throughput ratio {asynchronous['speedup']} "
                        f"< floor {floors['async']}")
    if dispatch["speedup"] < floors["service"]:
        failures.append(f"service dispatch ratio {dispatch['speedup']} "
                        f"< floor {floors['service']}")
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
