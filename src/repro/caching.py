"""A small thread-safe LRU cache with hit/miss/eviction counters.

Both the compiled-kernel memo (:mod:`repro.compile.kernels`) and the
annotation service (:mod:`repro.service`) need bounded caches whose
effectiveness can be reported: a long-lived serving process must not leak
memory through an unbounded memo, and the service's stats report wants hit
rates per cache.  This module provides the one implementation they share.
It deliberately lives below both packages so neither has to import the
other for a utility class.

:class:`SingleFlight` is the cache's concurrent companion: an LRU cache
deduplicates *sequential* repeats, while a single-flight registry
deduplicates *simultaneous* ones -- concurrent requests for the same key
join the computation already in flight instead of racing it, so a burst of
identical cold requests costs one computation and fills the cache once.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Iterator, Optional

#: Returned by :meth:`LruCache.get` misses when no default is supplied; a
#: dedicated sentinel so ``None`` remains a storable value.
_MISSING = object()


@dataclass(frozen=True)
class CacheStats:
    """A point-in-time snapshot of one cache's counters."""

    name: str
    capacity: int
    size: int
    hits: int
    misses: int
    evictions: int

    @property
    def requests(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when never used)."""
        total = self.requests
        return self.hits / total if total else 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "capacity": self.capacity,
            "size": self.size,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class LruCache:
    """Least-recently-used cache with a fixed capacity and usage counters.

    Lookups and insertions are O(1) (an :class:`~collections.OrderedDict`
    keeps recency order) and guarded by a lock so the network server's
    worker threads can share one instance.
    """

    def __init__(self, capacity: int, name: str = "cache") -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        self._capacity = capacity
        self._name = name
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    # -- core operations ---------------------------------------------------

    def get(self, key: Hashable, default: Any = None) -> Any:
        """Return the cached value (marking it most recently used) or ``default``."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self._misses += 1
                return default
            self._entries.move_to_end(key)
            self._hits += 1
            return value

    def get_many(self, keys: Iterable[Hashable]) -> list:
        """:meth:`get` of each key (``None`` for a miss), counted and
        reordered exactly as one call per key would be, under one lock
        acquisition instead of one per key."""
        values = []
        with self._lock:
            entries = self._entries
            for key in keys:
                value = entries.get(key, _MISSING)
                if value is _MISSING:
                    self._misses += 1
                    value = None
                else:
                    entries.move_to_end(key)
                    self._hits += 1
                values.append(value)
        return values

    def holds_all(self, keys: Iterable[Hashable]) -> bool:
        """Whether every key has an entry; like :meth:`peek`, touches
        neither the counters nor the recency order."""
        with self._lock:
            entries = self._entries
            return all(key in entries for key in keys)

    def peek(self, key: Hashable, default: Any = None) -> Any:
        """Read an entry without touching counters or recency order.

        For double-checks inside code paths that already counted their
        lookup -- e.g. the single-flight fill re-probing the cache after
        winning flight leadership -- so the hit/miss statistics keep
        meaning "distinct logical lookups".
        """
        with self._lock:
            value = self._entries.get(key, _MISSING)
            return default if value is _MISSING else value

    def put(self, key: Hashable, value: Any) -> None:
        """Insert or refresh an entry, evicting the least recently used on overflow."""
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def get_or_compute(self, key: Hashable, factory: Callable[[], Any]) -> Any:
        """Return the cached value, computing and storing it on a miss.

        ``factory`` runs outside the lock, so two threads racing on the same
        key may both compute; the second insert wins harmlessly (values for
        one key are interchangeable by construction).
        """
        value = self.get(key, _MISSING)
        if value is _MISSING:
            value = factory()
            self.put(key, value)
        return value

    def pop(self, key: Hashable, default: Any = None) -> Any:
        """Remove and return an entry without touching the usage counters.

        Targeted invalidation (the service's delta-driven eviction after a
        database mutation) removes exactly the entries a mutation made
        stale; those removals are accounted by the caller's own counters,
        not as capacity evictions.
        """
        with self._lock:
            value = self._entries.pop(key, _MISSING)
            return default if value is _MISSING else value

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def keys(self) -> Iterator[Hashable]:
        with self._lock:
            return iter(tuple(self._entries.keys()))

    # -- management --------------------------------------------------------

    @property
    def capacity(self) -> int:
        return self._capacity

    def resize(self, capacity: int) -> None:
        """Change the capacity, evicting oldest entries if the cache shrank."""
        if capacity < 1:
            raise ValueError(f"capacity must be at least 1, got {capacity}")
        with self._lock:
            self._capacity = capacity
            while len(self._entries) > self._capacity:
                self._entries.popitem(last=False)
                self._evictions += 1

    def clear(self, reset_counters: bool = False) -> None:
        with self._lock:
            self._entries.clear()
            if reset_counters:
                self._hits = self._misses = self._evictions = 0

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                name=self._name,
                capacity=self._capacity,
                size=len(self._entries),
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
            )


@dataclass(frozen=True)
class SingleFlightStats:
    """A point-in-time snapshot of one single-flight registry's counters."""

    name: str
    #: Computations actually launched (one per flight leader).
    launches: int
    #: Callers that joined an already in-flight computation instead of
    #: launching their own -- the work the registry saved.
    joins: int
    #: Leader computations that raised (followers re-raise the same error).
    failures: int
    #: Flights currently in progress.
    in_flight: int

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "launches": self.launches,
            "joins": self.joins,
            "failures": self.failures,
            "in_flight": self.in_flight,
        }


class _FlightSlot:
    """One in-flight computation: an event the followers wait on."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None


class SingleFlight:
    """Coalesce concurrent computations of the same key onto one leader.

    :meth:`run` returns ``(value, leader)``: the first caller for a key
    becomes the *leader* and executes the factory; callers arriving while
    the leader is still computing block until it finishes and receive the
    leader's value (or re-raise its exception) without computing anything.
    Once a flight lands, the key is forgotten -- persistent memoisation is
    the neighbouring :class:`LruCache`'s job, and the two compose: check
    the cache, and on a miss run the fill inside a flight.
    """

    def __init__(self, name: str = "flights") -> None:
        self._name = name
        self._slots: dict[Hashable, _FlightSlot] = {}
        self._lock = threading.Lock()
        self._launches = 0
        self._joins = 0
        self._failures = 0

    def run(self, key: Hashable, factory: Callable[[], Any]) -> tuple[Any, bool]:
        """Compute ``factory()`` for ``key``, or join the flight doing so."""
        with self._lock:
            slot = self._slots.get(key)
            if slot is None:
                slot = _FlightSlot()
                self._slots[key] = slot
                self._launches += 1
                leader = True
            else:
                self._joins += 1
                leader = False
        if leader:
            try:
                slot.value = factory()
            except BaseException as error:
                slot.error = error
                with self._lock:
                    self._failures += 1
                raise
            finally:
                # Remove before waking followers: a late arrival after the
                # flight lands must start (or cache-hit) afresh, never join
                # a finished slot.
                with self._lock:
                    del self._slots[key]
                slot.event.set()
            return slot.value, True
        slot.event.wait()
        if slot.error is not None:
            raise slot.error
        return slot.value, False

    def __len__(self) -> int:
        with self._lock:
            return len(self._slots)

    def stats(self) -> SingleFlightStats:
        with self._lock:
            return SingleFlightStats(
                name=self._name,
                launches=self._launches,
                joins=self._joins,
                failures=self._failures,
                in_flight=len(self._slots),
            )
