"""Observability overhead: instrumented vs disabled enforcement.

The ``repro.obs`` contract is that instrumentation is cheap enough for
the hot path.  This gate holds it to a number: the bench_stream
enforcement workload (seeded update log, mixed constraint set, ~2k-node
document) run through a :class:`~repro.stream.engine.StreamEnforcer`
twice — once metering into a live :class:`~repro.obs.MetricsRegistry`,
once with the shared no-op :data:`~repro.obs.NULL` registry — must stay
within ``OVERHEAD_LIMIT`` (5%) of the disabled run, with bit-identical
decision checksums (instrumentation must never change behaviour).

A registry micro-section reports raw instrument update rates
(counter.inc / histogram.observe per second) for context; those are
informational, not gated (absolute rates move with the hardware).

Run:  PYTHONPATH=src python benchmarks/bench_obs.py [output.json]
          [--smoke] [--compare BASELINE.json] [--tolerance 0.2]

Emits ``BENCH_obs.json`` at the repo root by default; the ≤5% overhead
floor is self-gated (hard SystemExit, independent of ``--tolerance``),
and ``--compare`` additionally pins the decision checksum against the
committed baseline like every other bench script.
"""

from __future__ import annotations

import json
import random
import sys
import time
from pathlib import Path

from bench_helpers import compare_reports, timed
from repro.obs import MetricsRegistry, NULL
from repro.stream import StreamEnforcer, decision_checksum
from repro.workloads import (
    FragmentSpec,
    random_constraints,
    random_tree,
    random_update_stream,
)

SEED = 20070611  # PODS 2007
LABELS = [f"l{i}" for i in range(8)]

#: The gate: instrumented enforcement must keep ≥95% of disabled-registry
#: throughput on the bench_stream workload.
OVERHEAD_LIMIT = 0.05


def timed_pair(fn_a, fn_b, units: int, rounds: int) -> tuple[float, float]:
    """Best-of units/sec for two workloads, interleaved round-by-round.

    Alternating A and B inside one loop means clock drift, cache state
    and CPU frequency shifts hit both variants alike — a separate
    best-of per variant can attribute a machine hiccup entirely to one
    side, which matters when the gate is a 5% delta.
    """
    best_a = best_b = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return units / best_a, units / best_b


def bench_overhead(tree_size: int, ops: int, rounds: int) -> dict:
    """The bench_stream enforcement workload, metered vs disabled."""
    rng = random.Random(SEED)
    base = random_tree(rng, LABELS, size=tree_size)
    spec = FragmentSpec(predicates=True, descendant=True, wildcard=False)
    constraints = random_constraints(rng, LABELS, spec, count=6,
                                     types="mixed", spine=2)
    log = random_update_stream(rng, base, LABELS, constraints=constraints,
                               ops=ops, violation_rate=0.3, txn_prob=0.15)

    disabled_out, metered_out = [], []
    metered_registry = MetricsRegistry()
    stream_ops = {"stats": 0}

    def disabled():
        disabled_out.clear()
        stream = StreamEnforcer(constraints, base.copy(), metrics=NULL)
        disabled_out.extend(stream.submit(log))

    def metered():
        metered_out.clear()
        metered_registry.reset()  # count one round, not the best-of loop
        stream = StreamEnforcer(constraints, base.copy(),
                                metrics=metered_registry)
        metered_out.extend(stream.submit(log))
        stream_ops["stats"] = stream.stats.ops

    disabled_qps, metered_qps = timed_pair(disabled, metered, len(log), rounds)
    disabled_sum = decision_checksum(disabled_out)
    metered_sum = decision_checksum(metered_out)
    overhead = 1.0 - metered_qps / disabled_qps
    return {
        "tree_size": base.size,
        "log_entries": len(log),
        "constraints": len(constraints),
        "disabled_qps": round(disabled_qps, 1),
        "metered_qps": round(metered_qps, 1),
        "overhead_fraction": round(overhead, 4),
        "qps_ratio": round(metered_qps / disabled_qps, 3),
        "metered_ops_total": metered_registry.counter(
            "stream.ops_total").value,
        "stats_ops": stream_ops["stats"],
        "decisions_match": disabled_sum == metered_sum,
        "decision_checksum": metered_sum,
    }


def bench_registry_micro(updates: int, rounds: int) -> dict:
    """Raw instrument update rates (informational, not gated)."""
    reg = MetricsRegistry()
    counter = reg.counter("micro.hits_total")
    hist = reg.histogram("micro.lat_seconds")

    def inc_loop():
        for _ in range(updates):
            counter.inc()

    def observe_loop():
        for _ in range(updates):
            hist.observe(0.001)

    def resolve_loop():
        for _ in range(updates):
            reg.counter("micro.hits_total")

    return {
        "updates": updates,
        "counter_inc_per_sec": round(timed(inc_loop, updates, rounds), 0),
        "histogram_observe_per_sec": round(
            timed(observe_loop, updates, rounds), 0),
        "registry_resolve_per_sec": round(
            timed(resolve_loop, updates, rounds), 0),
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
                else Path(__file__).resolve().parent.parent / "BENCH_obs.json")

    if smoke:
        overhead = bench_overhead(tree_size=300, ops=40, rounds=9)
        micro = bench_registry_micro(updates=20_000, rounds=2)
    else:
        overhead = bench_overhead(tree_size=2_000, ops=150, rounds=9)
        micro = bench_registry_micro(updates=200_000, rounds=3)

    report = {
        "benchmark": "observability overhead: metered vs disabled registry",
        "seed": SEED,
        "mode": "smoke" if smoke else "full",
        "overhead_limit": OVERHEAD_LIMIT,
        "enforcement": overhead,
        "registry_micro": micro,
    }
    out_path.write_text(json.dumps(report, indent=2, ensure_ascii=False) + "\n")
    print(f"enforce : disabled {overhead['disabled_qps']:>9} op/s | "
          f"metered {overhead['metered_qps']:>9} op/s | "
          f"overhead {overhead['overhead_fraction'] * 100:.1f}% "
          f"(limit {OVERHEAD_LIMIT * 100:.0f}%)")
    print(f"registry: inc {micro['counter_inc_per_sec']:>11} /s | "
          f"observe {micro['histogram_observe_per_sec']:>11} /s | "
          f"resolve {micro['registry_resolve_per_sec']:>11} /s")
    print(f"wrote {out_path}")

    failures = []
    if not overhead["decisions_match"]:
        failures.append("instrumentation changed enforcement decisions "
                        "(metered and disabled checksums diverged)")
    if overhead["metered_qps"] < (1.0 - OVERHEAD_LIMIT) * overhead[
            "disabled_qps"]:
        failures.append(
            f"instrumentation overhead {overhead['overhead_fraction'] * 100:.1f}% "
            f"exceeds the {OVERHEAD_LIMIT * 100:.0f}% limit")
    if overhead["metered_ops_total"] != overhead["stats_ops"]:
        failures.append(
            f"metered stream.ops_total {overhead['metered_ops_total']} != "
            f"the enforcer's own stats.ops {overhead['stats_ops']}")
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
