"""TTL result cache with single-flight deduplication.

The service caches finished response payloads by
``(dataset, engine, mode, query, k, backend)``; each pool worker keeps
one more, with no TTL, as its memo.  Two properties matter under
concurrency:

* **TTL + LRU** — an entry is served only while fresh
  (``ttl_s`` seconds) and the cache holds at most ``size`` entries,
  evicting the least recently used.
* **Single-flight** — when several identical requests arrive while the
  answer is being computed, exactly one (the *leader*) computes; the
  rest (*followers*) block on the leader's flight and share its result,
  so a thundering herd of the same query costs one engine run.  A
  follower whose deadline expires while waiting gives up with
  :class:`~repro.errors.DeadlineExceededError` without disturbing the
  leader.

Every lookup reports one of three outcomes — ``"hit"``, ``"miss"``
(leader) or ``"coalesced"`` (follower) — which the service turns into
the ``result_cache_hits`` / ``result_cache_misses`` /
``singleflight_coalesced`` counters; the three add up to the number of
admitted requests that reached the cache, which is what makes the
``/metrics`` reconciliation in ``docs/SERVING.md`` possible.

The clock is injectable (monotonic by default) so tests can expire
entries deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Any, Callable, Dict, Hashable, Optional, Tuple

from repro.errors import DeadlineExceededError

__all__ = ["ResultCache"]


class _Flight:
    """One in-progress computation other requests may wait on."""

    __slots__ = ("done", "value", "error", "followers")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.value: Any = None
        self.error: Optional[BaseException] = None
        self.followers = 0


class ResultCache:
    """Bounded TTL cache with single-flight deduplication."""

    def __init__(
        self,
        size: int = 256,
        ttl_s: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        if ttl_s < 0:
            raise ValueError(f"ttl_s must be >= 0, got {ttl_s}")
        self.size = size
        self.ttl_s = ttl_s
        self._clock = clock
        self._lock = threading.Lock()
        # key -> (expires_at, value), LRU order (most recent last)
        self._entries: "OrderedDict[Hashable, Tuple[float, Any]]" = OrderedDict()  # guarded-by: _lock
        self._flights: Dict[Hashable, _Flight] = {}  # guarded-by: _lock
        self._invalidations = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def get_or_compute(
        self,
        key: Hashable,
        compute: Callable[[], Any],
        timeout: Optional[float] = None,
        observe: Optional[Callable[[str], None]] = None,
    ) -> Tuple[Any, str]:
        """The cached value for *key*, computing on miss.

        Returns ``(value, outcome)`` with outcome ``"hit"``, ``"miss"``
        or ``"coalesced"``.  *timeout* bounds how long a follower waits
        for the leader (seconds; None waits indefinitely) — on expiry it
        raises :class:`DeadlineExceededError`.  A leader's exception
        propagates to the leader and every follower of that flight, and
        is never cached.

        *observe*, when given, is called with the outcome as soon as the
        request's role is decided — **before** the compute or the wait,
        so the outcome is reported even when they fail.  That ordering
        is what makes the service's ``admitted = hits + misses +
        coalesced`` reconciliation exact.
        """
        epoch = 0
        with self._lock:
            cached = self._fresh_entry(key)
            if cached is not None:
                outcome = "hit"
            else:
                flight = self._flights.get(key)
                if flight is None:
                    flight = _Flight()
                    self._flights[key] = flight
                    outcome = "miss"
                    # epoch guard: a value computed before an invalidation
                    # must not be stored after it (it may reflect
                    # pre-mutation data)
                    epoch = self._invalidations
                else:
                    flight.followers += 1
                    outcome = "coalesced"
        if observe is not None:
            observe(outcome)
        if outcome == "hit":
            return cached[1], "hit"
        if outcome == "coalesced":
            return self._wait(key, flight, timeout), "coalesced"
        try:
            value = compute()
        except BaseException as exc:
            with self._lock:
                self._flights.pop(key, None)
            flight.error = exc
            flight.done.set()
            raise
        with self._lock:
            self._flights.pop(key, None)
            if self.ttl_s > 0 and self._invalidations == epoch:
                self._store(key, value)
        flight.value = value
        flight.done.set()
        return value, "miss"

    def _wait(self, key: Hashable, flight: _Flight, timeout: Optional[float]) -> Any:
        if not flight.done.wait(timeout):
            raise DeadlineExceededError(
                f"timed out waiting for in-flight computation of {key!r}"
            )
        if flight.error is not None:
            raise flight.error
        return flight.value

    # ------------------------------------------------------------------
    # Bookkeeping (callers hold the lock)
    # ------------------------------------------------------------------
    def _fresh_entry(self, key: Hashable) -> Optional[Tuple[float, Any]]:
        entry = self._entries.get(key)
        if entry is None:
            return None
        if self._clock() >= entry[0]:
            del self._entries[key]
            return None
        self._entries.move_to_end(key)
        return entry

    def _store(self, key: Hashable, value: Any) -> None:
        self._entries[key] = (self._clock() + self.ttl_s, value)
        self._entries.move_to_end(key)
        while len(self._entries) > self.size:
            self._entries.popitem(last=False)

    # ------------------------------------------------------------------
    # Invalidation / introspection
    # ------------------------------------------------------------------
    def invalidate(self, predicate: Optional[Callable[[Hashable], bool]] = None) -> int:
        """Drop every entry (or those whose key matches *predicate*).

        Returns the number of entries dropped.  In-flight computations
        still deliver their value to waiting followers, but the epoch
        guard in :meth:`get_or_compute` prevents a value computed before
        the invalidation from being *stored* after it.
        """
        with self._lock:
            if predicate is None:
                dropped = len(self._entries)
                self._entries.clear()
            else:
                doomed = [key for key in self._entries if predicate(key)]
                for key in doomed:
                    del self._entries[key]
                dropped = len(doomed)
            self._invalidations += 1
            return dropped

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @property
    def invalidations(self) -> int:
        with self._lock:
            return self._invalidations

