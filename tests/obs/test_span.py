"""Spans and trace ids: timing histograms, contextvar propagation."""

import asyncio
import time

from repro.obs import (
    MetricsRegistry,
    new_trace_id,
    span,
    trace_id,
    tracing,
)


class TestSpan:
    def test_span_times_into_name_seconds_histogram(self):
        reg = MetricsRegistry()
        with span("journal.fsync", registry=reg) as s:
            time.sleep(0.002)
        hist = reg.histogram("journal.fsync_seconds")
        assert hist.count == 1
        assert s.seconds >= 0.002
        assert hist.sum == s.seconds

    def test_span_records_even_when_the_block_raises(self):
        reg = MetricsRegistry()
        try:
            with span("work", registry=reg):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert reg.histogram("work_seconds").count == 1

    def test_span_labels_reach_the_histogram(self):
        reg = MetricsRegistry()
        with span("server.request", registry=reg, kind="fleet-submit"):
            pass
        assert reg.histogram("server.request_seconds",
                             kind="fleet-submit").count == 1


class TestTracing:
    def test_no_trace_by_default(self):
        assert trace_id() is None

    def test_new_trace_ids_are_unique_and_prefixed(self):
        ids = {new_trace_id() for _ in range(64)}
        assert len(ids) == 64
        assert all(t.startswith("t-") and len(t) == 14 for t in ids)

    def test_tracing_installs_and_restores(self):
        with tracing("t-abc"):
            assert trace_id() == "t-abc"
            with tracing("t-inner"):
                assert trace_id() == "t-inner"
            assert trace_id() == "t-abc"
            with tracing(None):  # None clears the inherited id
                assert trace_id() is None
        assert trace_id() is None

    def test_span_carries_the_current_trace(self):
        reg = MetricsRegistry()
        with tracing("t-123"):
            with span("op", registry=reg) as s:
                pass
        assert s.trace == "t-123"

    def test_trace_is_task_local_in_asyncio(self):
        async def run():
            seen = {}

            async def worker(tid):
                with tracing(tid):
                    await asyncio.sleep(0.001)
                    seen[tid] = trace_id()

            await asyncio.gather(worker("t-a"), worker("t-b"))
            return seen

        seen = asyncio.run(run())
        assert seen == {"t-a": "t-a", "t-b": "t-b"}
