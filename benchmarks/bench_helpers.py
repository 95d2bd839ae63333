"""Shared workload builders for the benchmark harness, and the one runner
(:func:`gate`) every gated ``bench_<name>.py`` script hands its ``run`` to.

Workloads are seeded per (cell, size) so every run regenerates identical
inputs; sizes are chosen so the full suite completes in minutes while still
exposing each cell's growth trend (recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

import argparse
import gc
import json
import random
import sys
import time
from collections.abc import Callable
from pathlib import Path

from repro.constraints import ConstraintSet, UpdateConstraint, ConstraintType
from repro.workloads import (
    FragmentSpec,
    random_constraints,
    random_pattern,
    random_tree,
)

LABELS = ["a", "b", "c"]


def implication_workload(cell: str, spec: FragmentSpec, count: int,
                         types: str, spine: int = 2, batch: int = 5
                         ) -> list[tuple[ConstraintSet, UpdateConstraint]]:
    """A deterministic batch of implication problems for one table cell."""
    rng = random.Random(hash((cell, count, types)) & 0xFFFFFFFF)
    problems = []
    for _ in range(batch):
        premises = random_constraints(rng, LABELS, spec, count=count,
                                      types=types, spine=spine)
        kind = (ConstraintType.NO_REMOVE if types in ("up", "mixed")
                else ConstraintType.NO_INSERT)
        conclusion = UpdateConstraint(
            random_pattern(rng, LABELS, spec, spine=spine), kind)
        problems.append((premises, conclusion))
    return problems


def instance_workload(cell: str, spec: FragmentSpec, count: int, types: str,
                      tree_size: int, spine: int = 2, batch: int = 5):
    """A deterministic batch of instance-based problems for one cell."""
    rng = random.Random(hash((cell, count, types, tree_size)) & 0xFFFFFFFF)
    problems = []
    for _ in range(batch):
        current = random_tree(rng, LABELS, size=tree_size)
        premises = random_constraints(rng, LABELS, spec, count=count,
                                      types=types, spine=spine)
        kind = (ConstraintType.NO_REMOVE if types == "up"
                else ConstraintType.NO_INSERT)
        conclusion = UpdateConstraint(
            random_pattern(rng, LABELS, spec, spine=spine), kind)
        problems.append((premises, current, conclusion))
    return problems


def timed(fn, units: int, rounds: int) -> float:
    """Best-of-``rounds`` units/sec for ``fn`` (runs the whole workload)."""
    best = float("inf")
    for _ in range(rounds):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return units / best


def timed_interleaved(paths, rounds: int) -> list[float]:
    """Best-of-``rounds`` units/sec for each ``(fn, units)`` path, timed
    round-robin: every round runs each path once, in order.

    Interleaving means clock drift, cache state and CPU frequency shifts
    hit every path alike — a separate best-of block per path can
    attribute a machine hiccup entirely to one side, which matters when
    a gate is a ratio between paths.  Each timed call starts from a
    full collection, so no path pays for the garbage another left.
    """
    best = [float("inf")] * len(paths)
    for _ in range(rounds):
        for i, (fn, _) in enumerate(paths):
            gc.collect()
            start = time.perf_counter()
            fn()
            best[i] = min(best[i], time.perf_counter() - start)
    return [units / t for (_, units), t in zip(paths, best, strict=True)]


def run_all(problems, engine) -> int:
    """Drive an engine over a batch; returns a checksum of the verdicts."""
    checksum = 0
    for args in problems:
        result = engine(*args)
        checksum = checksum * 3 + {"implied": 1, "not-implied": 2,
                                   "unknown": 0}[result.answer.value]
    return checksum


# ----------------------------------------------------------------------
# Benchmark-regression gate: the runner every gated script shares
# ----------------------------------------------------------------------
def tracked_ratios(report: dict, prefix: str = "") -> dict[str, float]:
    """All ``speedup`` entries of a benchmark report, keyed by JSON path.

    These are the machine-relative numbers a regression gate can compare
    across runners: absolute q/s moves with the hardware, but a tracked
    ratio collapsing means the optimisation it measures regressed.
    """
    out: dict[str, float] = {}
    for key, value in report.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(tracked_ratios(value, path))
        elif key == "speedup" and isinstance(value, (int, float)):
            out[path] = float(value)
    return out


def tracked_checksums(report: dict, prefix: str = "") -> dict[str, int]:
    """All ``*checksum`` entries, keyed by JSON path.

    Workloads are seeded, so checksums are machine-independent: any drift
    against the committed baseline means the answers themselves changed.
    """
    out: dict[str, int] = {}
    for key, value in report.items():
        path = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(tracked_checksums(value, path))
        elif key.endswith("checksum") and isinstance(value, int):
            out[path] = value
    return out


def compare_reports(fresh: dict, baseline: dict,
                    tolerance: float = 0.20) -> list[str]:
    """Regression check of a fresh report against a committed baseline.

    Returns human-readable failure lines (empty = gate passes):

    * a tracked ratio more than ``tolerance`` below the baseline fails;
    * a checksum differing from the baseline fails (answers changed —
      refresh the committed ``BENCH_*.json`` if the change is intended);
    * ratios/checksums present only on one side are reported, not failed
      (new sections appear as benchmarks grow).
    """
    failures: list[str] = []
    fresh_ratios = tracked_ratios(fresh)
    base_ratios = tracked_ratios(baseline)
    for path, base in sorted(base_ratios.items()):
        now = fresh_ratios.get(path)
        if now is None:
            print(f"compare: baseline ratio {path} absent from fresh run")
            continue
        floor = base * (1.0 - tolerance)
        status = "ok" if now >= floor else "REGRESSED"
        print(f"compare: {path}: baseline x{base:.2f} -> fresh x{now:.2f} "
              f"(floor x{floor:.2f}) {status}")
        if now < floor:
            failures.append(
                f"{path} regressed: x{now:.2f} < x{floor:.2f} "
                f"(baseline x{base:.2f}, tolerance {tolerance:.0%})")
    fresh_sums = tracked_checksums(fresh)
    for path, base in sorted(tracked_checksums(baseline).items()):
        now = fresh_sums.get(path)
        if now is not None and now != base:
            failures.append(
                f"{path} diverged from baseline ({now} != {base}): answers "
                f"changed — refresh the committed baseline if intended")
    return failures


#: Where each gate writes ``BENCH_<name>.json`` when no OUT is given.
ROOT = Path(__file__).resolve().parent.parent


def gate(name: str, run: Callable[..., tuple[dict, list[str]]], *,
         has_smoke: bool = True) -> None:
    """Run one ``bench_<name>.py`` gate: the CLI, the report and the verdict.

    ``bench_<name>.py [OUT] [--smoke] [--compare BASELINE] [--tolerance T]``
    calls ``run(smoke)`` (``run()`` when ``has_smoke`` is false, and then
    ``--smoke`` is refused), which measures, prints its summary lines and
    returns ``(report, failures)`` from its own correctness checks.  The
    report goes to OUT (``BENCH_<name>.json`` at the repo root by
    default), then the gate fails on:

    * a section whose ``speedup`` is below its ``report["floors"]`` entry;
    * a run whose ``mode`` differs from the baseline's;
    * anything :func:`compare_reports` finds against the baseline.

    The baseline is read before the run, and an OUT that is the baseline
    file is refused, so a gate never compares a run with itself.  Usage
    errors exit 2 with nothing run or written; failures print ``FAIL:``
    lines on stderr and exit 1.
    """
    parser = argparse.ArgumentParser(allow_abbrev=False)
    parser.add_argument("out", nargs="?", type=Path,
                        default=ROOT / f"BENCH_{name}.json",
                        help=f"report path (default: BENCH_{name}.json "
                             "at the repo root)")
    if has_smoke:
        parser.add_argument("--smoke", action="store_true",
                            help="the small workload with relaxed floors")
    parser.add_argument("--compare", type=Path, metavar="BASELINE",
                        help="gate tracked ratios and checksums against "
                             "a committed report")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed ratio drop below the baseline "
                             "(default 0.20)")
    args = parser.parse_args()
    baseline = None
    if args.compare is not None:
        if args.out.resolve() == args.compare.resolve():
            parser.error(f"OUT {args.out} is the baseline: the run would "
                         "overwrite what it is compared with")
        baseline = json.loads(args.compare.read_text())

    report, failures = run(args.smoke) if has_smoke else run()
    args.out.write_text(json.dumps(report, indent=2, ensure_ascii=False)
                        + "\n")
    print(f"wrote {args.out}")

    for section, floor in report.get("floors", {}).items():
        speedup = report[section]["speedup"]
        if speedup < floor:
            failures.append(f"{section} speedup {speedup} < floor {floor}")
    if baseline is not None:
        if baseline.get("mode") != report.get("mode"):
            failures.append(f"--compare mode mismatch: baseline is "
                            f"{baseline.get('mode')!r}, this run is "
                            f"{report.get('mode')!r}")
        else:
            failures.extend(compare_reports(report, baseline, args.tolerance))
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        raise SystemExit(1)
