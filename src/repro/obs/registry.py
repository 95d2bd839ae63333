"""Process-local metrics: counters, gauges, fixed-bucket histograms.

A :class:`MetricsRegistry` is the one observability primitive every layer
of the stack shares — dependency-free, cheap enough for the enforcement
hot loop, and safe to touch from threads and asyncio tasks alike (one
lock guards instrument creation; each instrument carries its own lock for
updates, and the GIL-visible critical sections are a handful of opcodes).

Instruments are keyed by ``(name, sorted labels)`` and created on first
touch, so call sites just say ``registry.counter("stream.ops_total")``
and hold the returned object — resolution cost is paid once, update cost
is one method call.  Naming follows ``<subsystem>.<noun>_<unit>``
(see CONTRIBUTING): dots group by subsystem in the dict form and are
flattened to underscores in the Prometheus-style text exposition
(:meth:`MetricsRegistry.render`).

Three instrument kinds:

* :class:`Counter` — monotone; ``inc(n)``;
* :class:`Gauge` — a level; ``set``/``inc``/``dec``;
* :class:`Histogram` — fixed upper-bound buckets with Prometheus ``le``
  semantics (a value equal to a bound lands in that bound's bucket) plus
  an overflow (``+Inf``) bucket, a count and a sum.

``MetricsRegistry(enabled=False)`` (the module's :data:`NULL`) hands out
shared no-op instruments, so instrumented code can be benchmarked against
a disabled registry without branching at every call site — the
``bench_obs`` gate holds the difference at ≤5% on the enforcement
workload.

The process-global default lives behind :func:`registry` /
:func:`set_registry`; components accept a ``metrics=`` override but
default to the global one, which is what the server's
``MetricsRequest`` endpoint snapshots.
"""

from __future__ import annotations

import json
import threading
from bisect import bisect_left
from typing import Iterator

#: Default histogram bounds: latency-shaped, 100µs .. 10s (seconds).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)

#: Count-shaped bounds for "how many per batch" histograms.
COUNT_BUCKETS: tuple[float, ...] = (
    1.0, 2.0, 5.0, 10.0, 25.0, 50.0, 100.0, 250.0, 1000.0)

_LabelKey = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, object]) -> _LabelKey:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def flat_name(name: str, labels: _LabelKey) -> str:
    """``name{k="v",...}`` — the flat key of the dict and text forms."""
    if not labels:
        return name
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return f"{name}{{{inner}}}"


class Counter:
    """A monotone counter."""

    kind = "counter"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease "
                             f"(inc({amount}))")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Counter({flat_name(self.name, self.labels)}={self._value})"


class Gauge:
    """A level that can move both ways (inflight requests, say)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "_lock", "_value")

    def __init__(self, name: str, labels: _LabelKey):
        self.name = name
        self.labels = labels
        self._lock = threading.Lock()
        self._value: float = 0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def inc(self, amount: float = 1) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1) -> None:
        with self._lock:
            self._value -= amount

    @property
    def value(self) -> float:
        return self._value

    def __repr__(self) -> str:
        return f"Gauge({flat_name(self.name, self.labels)}={self._value})"


class Histogram:
    """Fixed upper-bound buckets, Prometheus ``le`` semantics.

    ``bounds`` are inclusive upper bounds in increasing order; a value
    exactly on a bound counts into that bound's bucket, values past the
    last bound land in the overflow (``+Inf``) bucket.  Per-bucket counts
    are stored raw and cumulated only on export.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "bounds", "_lock", "_counts",
                 "_count", "_sum")

    def __init__(self, name: str, labels: _LabelKey,
                 bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(set(bounds)):
            raise ValueError(f"histogram bounds must strictly increase: "
                             f"{bounds!r}")
        self.name = name
        self.labels = labels
        self.bounds = tuple(float(b) for b in bounds)
        self._lock = threading.Lock()
        self._counts = [0] * (len(self.bounds) + 1)  # +1 = overflow
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        # bisect_left: the first bound >= value, i.e. value == bound
        # falls *into* that bound's bucket (le is inclusive).
        at = bisect_left(self.bounds, value)
        with self._lock:
            self._counts[at] += 1
            self._count += 1
            self._sum += value

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def bucket_counts(self) -> tuple[int, ...]:
        """Raw per-bucket counts, overflow last (non-cumulative)."""
        return tuple(self._counts)

    def cumulative(self) -> list[tuple[str, int]]:
        """``(le, cumulative_count)`` pairs, ``"+Inf"`` last."""
        out: list[tuple[str, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self._counts):
            running += count
            out.append((repr(bound), running))
        out.append(("+Inf", self._count))
        return out

    def __repr__(self) -> str:
        return (f"Histogram({flat_name(self.name, self.labels)}: "
                f"count={self._count}, sum={self._sum:.6f})")


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: float = 1) -> None:
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def inc(self, amount: float = 1) -> None:
        pass

    def dec(self, amount: float = 1) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


Instrument = Counter | Gauge | Histogram


class MetricsRegistry:
    """All instruments of one process (or one component under test).

    ``enabled=False`` turns every accessor into a shared no-op
    instrument — same types, no state, no locking — so instrumentation
    can be switched off wholesale (the overhead benchmark's baseline).
    """

    def __init__(self, *, enabled: bool = True):
        self.enabled = enabled
        self._lock = threading.Lock()
        self._instruments: dict[tuple[str, _LabelKey], Instrument] = {}
        self._null_counter = _NullCounter("", ())
        self._null_gauge = _NullGauge("", ())
        self._null_histogram = _NullHistogram("", ())

    # ------------------------------------------------------------------
    # Instrument accessors (create on first touch)
    # ------------------------------------------------------------------
    def counter(self, name: str, **labels: object) -> Counter:
        if not self.enabled:
            return self._null_counter
        instrument = self._resolve(name, labels, Counter)
        assert isinstance(instrument, Counter)
        return instrument

    def gauge(self, name: str, **labels: object) -> Gauge:
        if not self.enabled:
            return self._null_gauge
        instrument = self._resolve(name, labels, Gauge)
        assert isinstance(instrument, Gauge)
        return instrument

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None,
                  **labels: object) -> Histogram:
        if not self.enabled:
            return self._null_histogram
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is None:
                existing = self._instruments[key] = Histogram(
                    name, key[1], buckets if buckets is not None
                    else DEFAULT_BUCKETS)
            elif not isinstance(existing, Histogram):
                raise ValueError(f"metric {name!r} is already registered "
                                 f"as a {existing.kind}")
            elif buckets is not None and existing.bounds != tuple(
                    float(b) for b in buckets):
                raise ValueError(f"histogram {name!r} is already registered "
                                 f"with bounds {existing.bounds!r}")
        return existing

    def _resolve(self, name: str, labels: dict[str, object],
                 cls: type[Counter] | type[Gauge]) -> Instrument:
        key = (name, _label_key(labels))
        with self._lock:
            existing = self._instruments.get(key)
            if existing is None:
                existing = self._instruments[key] = cls(name, key[1])
            elif not isinstance(existing, cls):
                raise ValueError(f"metric {name!r} is already registered "
                                 f"as a {existing.kind}")
        return existing

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Instrument]:
        with self._lock:
            return iter(sorted(self._instruments.values(),
                               key=lambda i: (i.name, i.labels)))

    def __len__(self) -> int:
        return len(self._instruments)

    def to_dict(self) -> dict:
        """JSON-safe snapshot: flat keys, one section per instrument kind."""
        counters: dict[str, float] = {}
        gauges: dict[str, float] = {}
        histograms: dict[str, dict] = {}
        for instrument in self:
            key = flat_name(instrument.name, instrument.labels)
            if isinstance(instrument, Counter):
                counters[key] = instrument.value
            elif isinstance(instrument, Gauge):
                gauges[key] = instrument.value
            else:
                histograms[key] = {
                    "count": instrument.count,
                    "sum": instrument.sum,
                    "buckets": [[le, n] for le, n in instrument.cumulative()],
                }
        return {"counters": counters, "gauges": gauges,
                "histograms": histograms}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def render(self) -> str:
        """Prometheus-style text exposition (dots become underscores)."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for instrument in self:
            name = instrument.name.replace(".", "_")
            if name not in seen_types:
                seen_types.add(name)
                lines.append(f"# TYPE {name} {instrument.kind}")
            if isinstance(instrument, Histogram):
                for le, count in instrument.cumulative():
                    labels = instrument.labels + (("le", le),)
                    lines.append(f"{flat_name(name + '_bucket', labels)} "
                                 f"{count}")
                lines.append(f"{flat_name(name + '_sum', instrument.labels)} "
                             f"{instrument.sum}")
                lines.append(
                    f"{flat_name(name + '_count', instrument.labels)} "
                    f"{instrument.count}")
            else:
                lines.append(f"{flat_name(name, instrument.labels)} "
                             f"{instrument.value}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # Merge / reset
    # ------------------------------------------------------------------
    def merge(self, other: "MetricsRegistry") -> None:
        """Fold ``other`` into this registry (shard/worker aggregation).

        Counters and histograms add; gauges take ``other``'s value (the
        newer level wins).  Histograms must agree on bucket bounds.
        """
        for instrument in other:
            labels = dict(instrument.labels)
            if isinstance(instrument, Counter):
                self.counter(instrument.name, **labels).inc(instrument.value)
            elif isinstance(instrument, Gauge):
                self.gauge(instrument.name, **labels).set(instrument.value)
            else:
                mine = self.histogram(instrument.name,
                                      buckets=instrument.bounds, **labels)
                with mine._lock:
                    for at, count in enumerate(instrument.bucket_counts):
                        mine._counts[at] += count
                    mine._count += instrument.count
                    mine._sum += instrument.sum

    def reset(self) -> None:
        """Drop every instrument (tests and benchmark isolation)."""
        with self._lock:
            self._instruments.clear()

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"MetricsRegistry({len(self._instruments)} instruments, {state})"


#: The process-global default registry: what components instrument into
#: unless handed an explicit ``metrics=``, and what the server's
#: ``MetricsRequest`` endpoint snapshots.
_GLOBAL = MetricsRegistry()

#: A shared disabled registry: pass as ``metrics=NULL`` to switch a
#: component's instrumentation off entirely.
NULL = MetricsRegistry(enabled=False)


def registry() -> MetricsRegistry:
    """The process-global default registry."""
    return _GLOBAL


def set_registry(new: MetricsRegistry) -> MetricsRegistry:
    """Swap the global registry (tests); returns the previous one."""
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = new
    return previous


__all__ = [
    "MetricsRegistry", "Counter", "Gauge", "Histogram",
    "DEFAULT_BUCKETS", "COUNT_BUCKETS", "NULL",
    "registry", "set_registry", "flat_name",
]
