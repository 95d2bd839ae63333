"""``python -m repro.server`` — run a (durable) constraint server.

Binds, prints the bound address and the recovery report (when a journal
directory is given), then serves until interrupted.  SIGINT/SIGTERM
trigger a *graceful* shutdown: in-flight requests drain and the journal
is flushed — crash-test with ``kill -9`` instead, then restart with the
same ``--journal`` directory and watch recovery replay it.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal

from repro.obs import registry
from repro.server.server import ReproServer


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.server",
        description="Serve the constraint protocol over a socket.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=0,
                        help="port to bind (0 = let the OS pick)")
    parser.add_argument("--journal", metavar="DIR", default=None,
                        help="journal directory: recover it on start and "
                             "journal every mutation (omit for an "
                             "in-memory server)")
    parser.add_argument("--no-fsync", action="store_true",
                        help="skip the per-record fsync (faster, but a "
                             "power cut may take back acknowledged ops)")
    parser.add_argument("--checkpoint-every", type=int, default=256,
                        metavar="N",
                        help="snapshot a stream every N submissions "
                             "(default 256)")
    parser.add_argument("--timeout", type=float, default=30.0,
                        help="seconds to wait for a response still pending "
                             "(0 = unbounded); requests are served in "
                             "submission order as they are decoded, so "
                             "only work a service defers ever waits")
    parser.add_argument("--max-inflight", type=int, default=256,
                        help="refuse requests beyond this many in flight")
    parser.add_argument("--metrics-interval", type=float, default=0,
                        metavar="SECONDS",
                        help="periodically dump the metrics registry in "
                             "Prometheus text format (0 = never; the "
                             "metrics wire request works regardless)")
    return parser


async def _dump_metrics(interval: float) -> None:
    while True:
        await asyncio.sleep(interval)
        print(f"--- metrics ---\n{registry().render()}", flush=True)


async def _run(args: argparse.Namespace) -> None:
    timeout = args.timeout if args.timeout > 0 else None
    if args.journal is not None:
        server = ReproServer.durable(
            args.journal, fsync=not args.no_fsync,
            checkpoint_every=args.checkpoint_every,
            host=args.host, port=args.port,
            request_timeout=timeout, max_inflight=args.max_inflight)
    else:
        server = ReproServer(host=args.host, port=args.port,
                             request_timeout=timeout,
                             max_inflight=args.max_inflight)
    host, port = await server.start()
    print(f"repro server listening on {host}:{port}", flush=True)
    if server.recovery is not None:
        print(f"recovery: {server.recovery}", flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):
            loop.add_signal_handler(sig, stop.set)
    dumper: asyncio.Task | None = None
    if args.metrics_interval > 0:
        dumper = loop.create_task(_dump_metrics(args.metrics_interval))
    try:
        await stop.wait()
    finally:
        if dumper is not None:
            dumper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await dumper
        print("draining and shutting down...", flush=True)
        await server.close()


def main(argv=None) -> None:
    args = _parser().parse_args(argv)
    try:
        asyncio.run(_run(args))
    except KeyboardInterrupt:
        pass


if __name__ == "__main__":
    main()
