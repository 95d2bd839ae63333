"""Shared workload builders for the benchmark harness.

Workloads are seeded per (cell, size) so every run regenerates identical
inputs; sizes are chosen so the full suite completes in minutes while still
exposing each cell's growth trend (recorded in EXPERIMENTS.md).
"""

from __future__ import annotations

import random
import time

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


def run_all(problems, engine) -> int:
    """Drive an engine over a batch; returns a checksum of the verdicts."""
    checksum = 0
    for args in problems:
        result = engine(*args)
        checksum = checksum * 3 + {"implied": 1, "not-implied": 2,
                                   "unknown": 0}[result.answer.value]
    return checksum


# ----------------------------------------------------------------------
# Benchmark-regression gate (--compare mode of the bench scripts)
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
