"""Memoisation primitives shared across the library.

The dispatchers of Tables 1 and 2 are pure functions of the *canonical
forms* of their inputs: ``implies`` of ``(C, c)`` and ``implies_on`` of
``(C, J, c)`` (plus the search knobs of the hybrid instance engine).  A
session memo is private to its :class:`~repro.api.session.Reasoner`, so
the premise set ``C`` is implicit in the cache instance; entries are keyed
on :attr:`UpdateConstraint.canonical_key` of the conclusion (and the
search knobs), so syntactic variants of the same query (permuted or
duplicated predicates) share one cache line.

The same primitive caps the per-snapshot query and predicate memos of the
:class:`repro.xpath.bitset.BitsetEvaluator` — long-lived bindings serving
adversarial query streams must not grow without bound.  It lives here (not
under :mod:`repro.api`) because ``api`` already imports ``xpath``.

:class:`LRUMemo` is a small insertion-ordered LRU with hit/miss counters;
:class:`CacheStats` is the immutable snapshot surfaced through
``Reasoner.stats``.
"""

from __future__ import annotations

from collections import OrderedDict
from collections.abc import Callable, Hashable
from dataclasses import dataclass
from typing import Any

DEFAULT_MEMO_SIZE = 4096

_MISS = object()  # sentinel distinguishing "absent" from cached falsy values


@dataclass(frozen=True)
class CacheStats:
    """Snapshot of a memo cache's effectiveness."""

    hits: int
    misses: int
    size: int
    maxsize: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.requests if self.requests else 0.0

    def __str__(self) -> str:
        return (f"{self.hits}/{self.requests} hits "
                f"({self.hit_rate:.0%}), {self.size}/{self.maxsize} entries")


class LRUMemo:
    """A least-recently-used memo table with statistics.

    ``maxsize=0`` disables caching entirely (every lookup recomputes) —
    the mode the legacy free functions use through their transient
    :class:`~repro.api.session.Reasoner`; ``maxsize=None`` means unbounded.
    """

    __slots__ = ("_data", "_maxsize", "_hits", "_misses")

    def __init__(self, maxsize: int | None = DEFAULT_MEMO_SIZE):
        if maxsize is not None and maxsize < 0:
            raise ValueError("maxsize must be None (unbounded) or >= 0")
        self._data: OrderedDict[Hashable, Any] = OrderedDict()
        self._maxsize = maxsize
        self._hits = 0
        self._misses = 0

    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._data

    @property
    def enabled(self) -> bool:
        return self._maxsize is None or self._maxsize > 0

    def keys(self) -> list[Hashable]:
        """The cached keys, LRU-first (a stable copy, safe to mutate over)."""
        return list(self._data)

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Cached value for ``key`` without touching recency or statistics.

        Maintenance passes (e.g. batch delta-patching every cached mask)
        must not distort the LRU order or the hit/miss counters callers
        read as *query* statistics.
        """
        return self._data.get(key, default)

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Cached value for ``key`` (touching its recency), else ``default``.

        Paired with :meth:`put`, this is the allocation-free alternative to
        :meth:`get_or_compute` for hot paths that cannot afford a closure
        per lookup.  Falsy cached values are valid: pass a sentinel default
        when they can occur.
        """
        try:
            value = self._data[key]
        except KeyError:
            self._misses += 1
            return default
        self._hits += 1
        self._data.move_to_end(key)
        return value

    def put(self, key: Hashable, value: Any) -> Any:
        """Store ``value`` under ``key`` (evicting LRU entries); return it."""
        if not self.enabled:
            return value
        self._data[key] = value
        self._data.move_to_end(key)
        if self._maxsize is not None and len(self._data) > self._maxsize:
            self._data.popitem(last=False)
        return value

    def get_or_compute(self, key: Hashable, compute: Callable[[], Any]) -> Any:
        """Return the cached value for ``key``, computing and storing on miss."""
        if not self.enabled:
            self._misses += 1
            return compute()
        try:
            value = self._data[key]
        except KeyError:
            self._misses += 1
            value = compute()
            self._data[key] = value
            if self._maxsize is not None and len(self._data) > self._maxsize:
                self._data.popitem(last=False)
            return value
        self._hits += 1
        self._data.move_to_end(key)
        return value

    def clear(self) -> None:
        self._data.clear()

    @property
    def stats(self) -> CacheStats:
        maxsize = -1 if self._maxsize is None else self._maxsize
        return CacheStats(self._hits, self._misses, len(self._data), maxsize)


__all__ = ["DEFAULT_MEMO_SIZE", "CacheStats", "LRUMemo"]
