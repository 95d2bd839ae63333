"""End-to-end socket benchmark: three closed-loop workloads, one command.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload small_pipelined --seed 1 \\
        --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced slices and reports the
per-layer metrics instead.  Every metric is printed by name with its unit
and sample count; the last line of standard output is one JSON object
(``correct``, ``attempted``, ``failed``, ``metrics``).  The exit code is
non-zero when a correctness gate or the exact-count check fails.

The workloads, their layers and the end-to-end metric each layer should
move are recorded in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Requests per second per connection the generated traffic must cover:
#: at least three times the rate measured on a 2-core box, so a faster
#: program still runs for the whole ``--seconds``.
RATE = {"small_pipelined": 5000, "durable_small": 3600, "large_mixed": 720}

END_TO_END = {
    "throughput_rps": "req/s",
    "submit_p50_ms": "ms",
    "submit_p99_ms": "ms",
    "query_p50_ms": "ms",
    "query_p90_ms": "ms",
    "setup_s": "s",
}

PER_LAYER = {
    "client.send_us": "us", "client.recv_us": "us",
    "framing.read_us": "us", "framing.write_us": "us",
    "framing.frame_bytes": "B",
    "protocol.decode_us": "us", "protocol.encode_us": "us",
    "server.self_us": "us", "server.inflight_max": "count",
    "server.overload_total": "count",
    "async.queue_wait_us": "us", "async.resume_us": "us",
    "async.queue_depth_max": "count",
    "service.handle_self_us": "us",
    "stream.apply_us": "us", "stream.ops": "count",
    "stream.rejected_frac": "fraction",
    "analysis.independent_frac": "fraction",
    "journal.append_us": "us", "journal.fsync_us": "us",
    "journal.fsyncs_per_request": "fsync/req",
    "journal.bytes_per_record": "B",
    "journal.checkpoints": "count", "journal.checkpoint_us": "us",
    "journal_bytes_per_op": "B/op",
    "api.implies_us": "us", "api.bind_us": "us", "api.instance_us": "us",
    "direct.apply_us": "us", "transport_ratio": "x",
    "trace.unattributed_frac": "fraction", "trace.overhead_frac": "fraction",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _histogram_mean_us(first: dict, last: dict, name: str) -> float:
    """Mean of the observations a histogram gained between two snapshots."""
    before = first["histograms"].get(name, {"count": 0, "sum": 0.0})
    after = last["histograms"].get(name, {"count": 0, "sum": 0.0})
    return _ratio(after["sum"] - before["sum"],
                  after["count"] - before["count"]) * 1e6


def end_to_end(out, percentile) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)`` for the untraced run.

    Times are scaled to the nominal machine by the run's calibrated
    speed (``harness.calibrate``): a time ``t`` measured while the box
    ran at speed ``s`` is reported as ``t * s``, a rate as ``r / s``.
    """
    submits, queries = out.submit_latency, out.query_latency
    ms = out.speed * 1e3
    return {
        "throughput_rps": (out.completed / out.elapsed / out.speed,
                           out.completed),
        "submit_p50_ms": (percentile(submits, 50) * ms, len(submits)),
        "submit_p99_ms": (percentile(submits, 99) * ms, len(submits)),
        "query_p50_ms": (percentile(queries, 50) * ms, len(queries)),
        "query_p90_ms": (percentile(queries, 90) * ms, len(queries)),
        "setup_s": (statistics.median(out.setups) * out.speed,
                    len(out.setups)),
    }


def per_layer(out) -> dict[str, tuple[float, int]]:
    """``name -> (value, samples)`` for the traced run.

    Counts and fractions come from the count window (exact for a seed);
    times come from the traced slices, fsync and checkpoint means from
    the server's own ``journal.*_seconds`` histograms.
    """
    w = out.window
    first, last = out.timed_metrics
    overloads = (last["counters"].get("server.overload_total", 0)
                 - first["counters"].get("server.overload_total", 0))
    values = dict(out.layers)
    values.update({
        "server.overload_total": overloads,
        "stream.ops": w["ops"],
        "stream.rejected_frac": _ratio(w["rejected"], w["ops"]),
        "analysis.independent_frac": _ratio(w["independent"], w["ops"]),
        "journal.fsync_us": _histogram_mean_us(first, last,
                                               "journal.fsync_seconds"),
        "journal.fsyncs_per_request": _ratio(w["fsyncs"], out.window_requests),
        "journal.bytes_per_record": _ratio(w["bytes"], w["records"]),
        "journal.checkpoints": w["checkpoints"],
        "journal.checkpoint_us": _histogram_mean_us(
            first, last, "journal.checkpoint_seconds"),
        "journal_bytes_per_op": _ratio(w["bytes"], out.window_entries),
    })
    return {name: (values[name], out.traced_requests) for name in PER_LAYER}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(RATE))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashing decides set and dict order inside the server;
        # a random hash seed per process moves throughput by several
        # percent between identical runs.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no src/repro package under {ROOT}; run it from "
              f"the root of a repository checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT), str(ROOT / "src")]
    from perfbench import harness, traffic

    wl = traffic.build(args.workload, args.seed,
                       math.ceil(RATE[args.workload] * args.seconds))
    # The pre-generated traffic is the harness's, not the server's: keep
    # the collector from rescanning it under load.
    gc.collect()
    gc.freeze()

    traced = bool(args.trace)
    workdir = ROOT / ".perfbench-work" / f"{args.workload}-{os.getpid()}"
    out = harness.measure(wl, args.seconds, traced, workdir)
    try:
        workdir.parent.rmdir()
    except OSError:
        pass

    if traced:
        metrics, units = per_layer(out), PER_LAYER
    else:
        metrics, units = end_to_end(out, harness.percentile), END_TO_END
    print(f"workload {wl.name}: seed {args.seed}, closed loop, "
          f"{len(wl.connections)} connections x window {wl.window}, "
          f"{'durable fsync' if wl.durable else 'in-memory'} server, "
          f"{'traced' if traced else 'untraced'} {args.seconds:g} s")
    for name, (value, samples) in metrics.items():
        print(f"  {name:<28} {value:>14.4f} {units[name]:<10} (n={samples})")
    print(f"  {'failed_frac':<28} {_ratio(out.failed, out.attempted):>14.4f} "
          f"{'fraction':<10} (n={out.attempted})")
    print(f"  machine speed {out.speed:.4f} of nominal; unscaled "
          f"throughput {out.completed / out.elapsed:.1f} req/s")
    print(f"  count window: {out.window_requests} requests, "
          f"{dict(sorted(out.window.items()))}")
    if out.exhausted:
        print("  note: the generated traffic ran out before --seconds")
    for error in out.errors:
        print(f"  GATE FAILED: {error}")
    print(json.dumps({
        "correct": not out.errors,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, (value, _) in metrics.items()},
    }))
    return 1 if out.errors else 0


if __name__ == "__main__":
    sys.exit(main())
