"""The metrics registry: instruments, edge cases, export."""

import asyncio
import json
import threading

import pytest

from repro.obs import (
    COUNT_BUCKETS,
    DEFAULT_BUCKETS,
    NULL,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    flat_name,
    registry,
    set_registry,
)


# ----------------------------------------------------------------------
# Counters and gauges
# ----------------------------------------------------------------------
class TestCountersAndGauges:
    def test_counter_accumulates_and_is_monotone(self):
        reg = MetricsRegistry()
        c = reg.counter("stream.ops_total")
        c.inc()
        c.inc(4)
        assert c.value == 5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_moves_both_ways(self):
        reg = MetricsRegistry()
        g = reg.gauge("server.inflight_requests")
        g.set(3)
        g.inc()
        g.dec(2)
        assert g.value == 2

    def test_same_name_same_labels_is_the_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("a.b_total") is reg.counter("a.b_total")
        assert (reg.counter("a.b_total", kind="x")
                is not reg.counter("a.b_total", kind="y"))

    def test_kind_clash_is_an_error(self):
        reg = MetricsRegistry()
        reg.counter("a.b_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("a.b_total")
        with pytest.raises(ValueError, match="already registered"):
            reg.histogram("a.b_total")

    def test_labels_sort_into_one_key(self):
        reg = MetricsRegistry()
        a = reg.counter("c.n_total", x="1", y="2")
        b = reg.counter("c.n_total", y="2", x="1")
        assert a is b
        assert flat_name(a.name, a.labels) == 'c.n_total{x="1",y="2"}'


# ----------------------------------------------------------------------
# Histogram edge cases (satellite: boundary, overflow, merge, concurrency)
# ----------------------------------------------------------------------
class TestHistogramEdges:
    def test_value_on_bucket_boundary_lands_in_that_bucket(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.x_seconds", buckets=(0.1, 0.2, 0.4))
        h.observe(0.2)  # le=0.2 is inclusive: counts into the 0.2 bucket
        assert h.bucket_counts == (0, 1, 0, 0)
        cumulative = dict(h.cumulative())
        assert cumulative[repr(0.1)] == 0
        assert cumulative[repr(0.2)] == 1
        assert cumulative[repr(0.4)] == 1
        assert cumulative["+Inf"] == 1

    def test_overflow_bucket_catches_values_past_the_last_bound(self):
        reg = MetricsRegistry()
        h = reg.histogram("t.x_seconds", buckets=(1.0, 2.0))
        h.observe(99.0)
        h.observe(2.0)   # boundary: not overflow
        assert h.bucket_counts == (0, 1, 1)
        assert h.count == 2
        assert h.sum == pytest.approx(101.0)

    def test_bounds_must_strictly_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError, match="strictly increase"):
            reg.histogram("t.bad_seconds", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ValueError, match="strictly increase"):
            reg.histogram("t.bad2_seconds", buckets=(2.0, 1.0))

    def test_re_request_with_different_bounds_is_an_error(self):
        reg = MetricsRegistry()
        reg.histogram("t.x_seconds", buckets=(1.0, 2.0))
        with pytest.raises(ValueError, match="bounds"):
            reg.histogram("t.x_seconds", buckets=(1.0, 3.0))
        # no buckets argument accepts whatever is registered
        assert reg.histogram("t.x_seconds").bounds == (1.0, 2.0)

    def test_concurrent_increments_from_asyncio_tasks(self):
        reg = MetricsRegistry()

        async def run():
            counter = reg.counter("t.hits_total")
            hist = reg.histogram("t.lat_seconds", buckets=COUNT_BUCKETS)

            async def worker(n):
                for i in range(n):
                    counter.inc()
                    hist.observe(float(i % 7))
                    if i % 16 == 0:
                        await asyncio.sleep(0)

            await asyncio.gather(*(worker(200) for _ in range(8)))

        asyncio.run(run())
        assert reg.counter("t.hits_total").value == 1600
        assert reg.histogram("t.lat_seconds").count == 1600

    def test_concurrent_increments_from_threads(self):
        reg = MetricsRegistry()
        counter = reg.counter("t.hits_total")
        hist = reg.histogram("t.lat_seconds")

        def worker():
            for _ in range(500):
                counter.inc()
                hist.observe(0.001)

        threads = [threading.Thread(target=worker) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 3000
        assert hist.count == 3000


# ----------------------------------------------------------------------
# Export: to_dict / to_json / render
# ----------------------------------------------------------------------
class TestExport:
    def test_to_dict_sections_and_flat_keys(self):
        reg = MetricsRegistry()
        reg.counter("s.ops_total", kind="query").inc(3)
        reg.gauge("s.depth").set(2)
        reg.histogram("s.lat_seconds", buckets=(0.1,)).observe(0.05)
        snap = reg.to_dict()
        assert snap["counters"] == {'s.ops_total{kind="query"}': 3}
        assert snap["gauges"] == {"s.depth": 2}
        hist = snap["histograms"]["s.lat_seconds"]
        assert hist["count"] == 1
        assert hist["buckets"][-1] == ["+Inf", 1]
        json.loads(reg.to_json())  # JSON-safe round trip

    def test_render_is_prometheus_shaped(self):
        reg = MetricsRegistry()
        reg.counter("stream.ops_total").inc(2)
        reg.histogram("journal.fsync_seconds", buckets=(0.5,)).observe(0.1)
        text = reg.render()
        assert "# TYPE stream_ops_total counter" in text
        assert "stream_ops_total 2" in text
        assert "# TYPE journal_fsync_seconds histogram" in text
        assert 'journal_fsync_seconds_bucket{le="0.5"} 1' in text
        assert 'journal_fsync_seconds_bucket{le="+Inf"} 1' in text
        assert "journal_fsync_seconds_count 1" in text

    def test_iteration_is_sorted_and_len_counts(self):
        reg = MetricsRegistry()
        reg.counter("b_total")
        reg.counter("a_total")
        assert [i.name for i in reg] == ["a_total", "b_total"]
        assert len(reg) == 2
        reg.reset()
        assert len(reg) == 0


# ----------------------------------------------------------------------
# NULL registry and the global default
# ----------------------------------------------------------------------
class TestDisabledAndGlobal:
    def test_null_registry_hands_out_noop_instruments(self):
        NULL.counter("x_total").inc(5)
        NULL.gauge("y").set(9)
        NULL.histogram("z_seconds").observe(1.0)
        assert NULL.counter("x_total").value == 0
        assert NULL.gauge("y").value == 0
        assert NULL.histogram("z_seconds").count == 0
        assert len(NULL) == 0
        assert isinstance(NULL.counter("x_total"), Counter)
        assert isinstance(NULL.gauge("y"), Gauge)
        assert isinstance(NULL.histogram("z_seconds"), Histogram)

    def test_set_registry_swaps_and_restores_the_global(self):
        fresh = MetricsRegistry()
        previous = set_registry(fresh)
        try:
            assert registry() is fresh
            registry().counter("swap.test_total").inc()
            assert fresh.counter("swap.test_total").value == 1
        finally:
            assert set_registry(previous) is fresh
        assert registry() is previous

    def test_default_buckets_are_increasing(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
        assert list(COUNT_BUCKETS) == sorted(COUNT_BUCKETS)
