"""Thread-safe LRU result cache with single-flight deduplication.

Two concurrent misses on the same key are the common case for a hot
source the instant its cached answer is invalidated: without
coordination every worker would recompute the same SSRWR vector.
:class:`SingleFlightCache` collapses them -- the first thread to miss
becomes the *owner* and computes; every other thread *coalesces*, parking
on the owner's flight until the value is published.  The compute runs
outside the cache lock, so unrelated keys never serialize behind it.

Entries are tagged with the cache *generation* at the time their flight
started.  :meth:`invalidate` bumps the generation and drops every stored
entry; a flight that started before the invalidation still hands its
value to its waiters (they asked under the old graph) but refuses to
store it, and callers arriving *after* the invalidation refuse to join
it -- they wait for the stale flight to finish, then compute fresh --
so no query issued after ``invalidate`` returns can hit a value computed
before it.

:meth:`invalidate_where` is the fine-grained variant used by incremental
dynamic-graph serving: entries may carry opaque *metadata* (attached at
publish time via ``get_or_compute``'s ``meta`` callback) and a keep
predicate decides, per entry, whether it survives a mutation -- see
:mod:`repro.serving.retention` for the bound math the serving tier
plugs in here.
"""

from __future__ import annotations

import threading
from collections import OrderedDict

from repro.errors import ParameterError


class _Flight:
    """One in-progress computation that waiters can park on."""

    __slots__ = ("event", "value", "error", "generation")

    def __init__(self, generation):
        self.event = threading.Event()
        self.value = None
        self.error = None
        self.generation = generation


class SingleFlightCache:
    """LRU mapping with per-key single-flight computation.

    All bookkeeping happens under one internal lock; user-supplied
    ``compute`` callables run outside it.
    """

    def __init__(self, max_size=256):
        if max_size < 0:
            raise ParameterError(f"max_size must be >= 0, got {max_size}")
        self._max_size = int(max_size)
        self._lock = threading.Lock()
        self._data = OrderedDict()
        self._meta = {}
        self._flights = {}
        self._generation = 0

    @property
    def max_size(self):
        return self._max_size

    @property
    def generation(self):
        with self._lock:
            return self._generation

    def __len__(self):
        with self._lock:
            return len(self._data)

    def __contains__(self, key):
        with self._lock:
            return key in self._data

    def keys(self):
        """Snapshot of the cached keys, LRU-first."""
        with self._lock:
            return list(self._data)

    def entries(self):
        """Snapshot of ``(key, value)`` pairs, LRU-first."""
        with self._lock:
            return list(self._data.items())

    def get_meta(self, key):
        """The metadata attached to ``key``, or None."""
        with self._lock:
            return self._meta.get(key)

    def get_or_compute(self, key, compute, *, meta=None):
        """``(value, outcome)`` where outcome is one of:

        * ``"hit"`` -- served from the cache;
        * ``"miss"`` -- this thread owned the flight and ran ``compute``;
        * ``"coalesced"`` -- another thread's in-flight compute was
          awaited and its value shared.

        If the owning compute raises, its waiters re-raise the same
        exception; nothing is cached.

        ``meta`` is an optional callable applied to the freshly computed
        value; its result is attached to the entry atomically with the
        store and later handed to :meth:`invalidate_where` keep
        predicates.

        A flight whose generation predates the current one (an
        invalidation happened after it took off) is never joined: its
        value belongs to the old graph.  Late arrivals wait for it to
        land, then retry and compute fresh.
        """
        while True:
            hits, owned, waiting = self.begin_flights([key])
            if key in hits:
                return hits[key], "hit"
            if key in owned:
                try:
                    value = compute()
                except BaseException as exc:
                    self.settle_flight(key, owned[key], error=exc)
                    raise
                self.settle_flight(key, owned[key], value=value, meta=meta)
                return value, "miss"
            # A stale flight (it predates an invalidation) has landed by
            # the time wait_for returns "retry", so the retry either owns
            # a fresh flight or joins a current-generation one.
            value, outcome = self.wait_for(key, *waiting[key])
            if outcome != "retry":
                return value, outcome

    def begin_flights(self, keys):
        """Claim flights for a batch of keys in one lock acquisition.

        The blocked multi-source solve uses this to split a cold batch
        into exactly three disjoint groups under one consistent snapshot
        of the cache: ``(hits, owned, waiting)`` where ``hits`` maps key
        to cached value, ``owned`` maps key to a fresh flight this
        caller **must** resolve via :meth:`settle_flight` (value or
        error -- leaking one deadlocks its waiters), and ``waiting``
        maps key to ``(flight, stale)`` for flights owned elsewhere, to
        be awaited with :meth:`wait_for`.

        Keys already in flight land in ``waiting`` -- never in
        ``owned`` -- so a blocked solve can never shadow or duplicate a
        solo solve that is already computing the same key; conversely
        the flights it does own are the very flights a later solo
        :meth:`get_or_compute` on that key will coalesce onto.  Flight
        generations follow the same rules as the solo path.
        """
        hits, owned, waiting = {}, {}, {}
        with self._lock:
            for key in keys:
                if key in hits or key in owned or key in waiting:
                    continue
                if key in self._data:
                    self._data.move_to_end(key)
                    hits[key] = self._data[key]
                    continue
                flight = self._flights.get(key)
                if flight is None:
                    flight = _Flight(self._generation)
                    self._flights[key] = flight
                    owned[key] = flight
                else:
                    waiting[key] = (
                        flight, flight.generation != self._generation,
                    )
        return hits, owned, waiting

    def settle_flight(self, key, flight, *, value=None, error=None,
                      meta=None):
        """Resolve a flight claimed via :meth:`begin_flights`.

        The one publish path (:meth:`get_or_compute` settles through it
        too): the value is published only if the flight's generation is
        still current and the cache stores anything at all; waiters
        receive the value (or re-raise ``error``) either way.  ``meta``
        is applied to the value as in :meth:`get_or_compute`.
        """
        if error is not None:
            flight.error = error
        else:
            flight.value = value
        meta_value = None
        if flight.error is None and meta is not None:
            try:
                meta_value = meta(flight.value)
            except Exception:
                meta_value = None  # entry stays cached, just unretainable
        with self._lock:
            self._flights.pop(key, None)
            publishable = (flight.error is None
                           and self._max_size > 0
                           and flight.generation == self._generation)
            if publishable:
                self._data[key] = flight.value
                if meta_value is not None:
                    self._meta[key] = meta_value
                while len(self._data) > self._max_size:
                    evicted, _ = self._data.popitem(last=False)
                    self._meta.pop(evicted, None)
        flight.event.set()

    def wait_for(self, key, flight, stale):
        """Await a flight owned elsewhere (from :meth:`begin_flights`).

        Returns ``(value, "coalesced")``, re-raises the owner's error,
        or returns ``(None, "retry")`` when the flight predated an
        invalidation -- its value belongs to the old graph, so the
        caller must retry the key.
        """
        del key  # part of the signature for symmetry/debugging
        flight.event.wait()
        if stale:
            return None, "retry"
        if flight.error is not None:
            raise flight.error
        return flight.value, "coalesced"

    def invalidate(self):
        """Drop every entry and fence out in-flight stores.

        Returns the number of entries removed.  Flights that started
        before the call complete normally for their waiters but are not
        stored, so no query issued after ``invalidate`` returns can hit
        a value computed before it.
        """
        with self._lock:
            self._generation += 1
            cleared = len(self._data)
            self._data.clear()
            self._meta.clear()
            return cleared

    def invalidate_where(self, keep):
        """Selectively drop entries; returns ``(retained, evicted)`` keys.

        ``keep(key, value, meta)`` is called under the cache lock for
        every stored entry and must return the entry's new metadata to
        retain it, or None to evict it (entries whose stored meta is
        None are handed ``meta=None`` -- a keep predicate that requires
        metadata should evict those).  The generation is bumped exactly
        as in :meth:`invalidate`, so in-flight computes -- which ran
        against the pre-mutation graph and have no drift bound -- are
        fenced from storing, and late arrivals never coalesce onto them.
        LRU order of retained entries is preserved.
        """
        with self._lock:
            self._generation += 1
            retained_data = OrderedDict()
            retained_meta = {}
            retained, evicted = [], []
            for key, value in self._data.items():
                new_meta = keep(key, value, self._meta.get(key))
                if new_meta is None:
                    evicted.append(key)
                else:
                    retained_data[key] = value
                    retained_meta[key] = new_meta
                    retained.append(key)
            self._data = retained_data
            self._meta = retained_meta
            return retained, evicted
