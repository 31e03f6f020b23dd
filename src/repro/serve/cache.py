"""The LRU graph/session cache behind the serving layer's hot path.

Building a session (parse + annotate + allocate, ~100 ms) dwarfs what
any warm request costs afterwards, so the server keys sessions by their
:func:`~repro.api.session.session_key` content hash and keeps the most
recently used ``capacity`` of them.  A warm request finds its session
with one read of the spec argument and one comparison against content
seen before (about 40 µs for a gen-1k file, mostly the read), and the
server answers it from the session's memoized responses
(:attr:`~repro.api.session.Session.answers`).

Properties:

* **Exact-content lookup.**  :meth:`GraphCache.get` reads the spec
  argument once (:meth:`~repro.api.frontends.FrontEndRegistry.read`)
  and looks up an alias by its shape, ``(registry generation, input
  kind, file stem, content length)``.  An alias keeps the content
  itself (a file's bytes, or the argument text), and a lookup matches
  it with ``==``: a lookup hashes nothing.  A hit resolves nothing.  A miss
  resolves those same bytes once and builds from that resolution, so a
  file rewritten mid-request cannot tie one content to another
  content's session.  Aliases die with their session, and at most
  :attr:`GraphCache.ALIASES_PER_SESSION` times ``capacity`` of them are
  kept, oldest out first.  Registering or unregistering a front end
  bumps the generation: no alias from before it matches, and the next
  lookup drops them all.
* **Thread-safe.**  One lock guards the LRU order and the aliases;
  reads, comparisons and session builds run outside it so a slow parse
  never blocks hits on other keys.
* **Build coalescing.**  Concurrent misses on the same key build once:
  the first thread in becomes the builder, later threads wait on its
  event and then re-read the cache — a thundering herd of identical
  cold requests costs one parse, not N.
* **Counted.**  Hits/misses/evictions are tracked locally (surfaced in
  ``GET /v1/stats``) and mirrored to :mod:`repro.obs` counters
  (``serve.cache.hits`` / ``.misses`` / ``.evictions``) when
  instrumentation is enabled.  Each lookup runs in a ``serve.resolve``
  span whose ``alias_hit`` attribute says whether the alias matched.
* **Disableable.**  ``capacity=0`` turns the cache off entirely: every
  request parses from scratch.  That is the "cold" baseline the
  throughput benchmark compares against.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Dict, List, Tuple

from repro.api.frontends import FRONTENDS
from repro.api.session import Session, load, session_key
from repro.obs import OBS, span


class GraphCache:
    """Thread-safe LRU of parsed+annotated :class:`Session` objects."""

    #: aliases kept per cached session, on average (inline text and a
    #: file path of one document are two aliases of one session)
    ALIASES_PER_SESSION = 4

    def __init__(self, capacity: int = 32) -> None:
        if capacity < 0:
            raise ValueError(f"cache capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._sessions: "OrderedDict[str, Session]" = OrderedDict()
        # alias (shape, content) -> session key, least recently used
        # first; shape is (generation, kind, stem, len(content)).  The
        # content is hashed once, when its alias is stored; lookups
        # find it through _by_length and compare it with ==
        self._aliases: "OrderedDict[tuple, str]" = OrderedDict()
        # shape -> the aliases of that shape, so a lookup compares
        # content only against stored content of the same length
        self._by_length: Dict[tuple, List[tuple]] = {}
        self._generation = FRONTENDS.generation
        self._building: Dict[str, threading.Event] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    def keys(self) -> List[str]:
        """Cached keys, least recently used first."""
        with self._lock:
            return list(self._sessions)

    def clear(self) -> None:
        with self._lock:
            self._sessions.clear()
            self._aliases.clear()
            self._by_length.clear()

    def key_for(self, spec: str) -> str:
        """The cache key a spec resolves to (no session is built)."""
        return session_key(spec)

    def get(self, spec: str) -> Tuple[Session, bool]:
        """Return ``(session, hit)`` for a spec, building on miss.

        With ``capacity=0`` every call builds a fresh session (counted
        as a miss) — the parse-per-request baseline.
        """
        with span("serve.resolve", alias_hit=False) as sp:
            if self.capacity == 0:
                self._count_miss()
                return load(spec), False
            generation = FRONTENDS.generation
            read = FRONTENDS.read(spec)
            content = read.data if read.kind == "file" else read.spec
            shape = (generation, read.kind, read.stem, len(content))
            with self._lock:
                if generation > self._generation:
                    # the resolution rule changed: no alias can match
                    self._aliases.clear()
                    self._by_length.clear()
                    self._generation = generation
                for alias in self._by_length.get(shape, ()):
                    if alias[1] == content:
                        self._aliases.move_to_end(alias)
                        sp.set_attribute("alias_hit", True)
                        return self._hit(self._aliases[alias]), True
            return self._get_resolved(
                FRONTENDS.resolve(read), (shape, content)
            )

    def _get_resolved(self, resolved, alias: tuple) -> Tuple[Session, bool]:
        """Find or build the session of a resolved spec; alias it."""
        key = session_key(resolved)
        while True:
            with self._lock:
                if key in self._sessions:
                    self._add_alias(alias, key)
                    return self._hit(key), True
                pending = self._building.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._building[key] = pending
                    break  # this thread builds
            # Another thread is building this key: wait, then re-read.
            pending.wait()
        try:
            session = load(resolved)
        except BaseException:
            with self._lock:
                self._building.pop(key, None)
            pending.set()
            raise
        with self._lock:
            self._sessions[key] = session
            self._sessions.move_to_end(key)
            while len(self._sessions) > self.capacity:
                self._evict()
            self._add_alias(alias, key)
            self._building.pop(key, None)
        pending.set()
        self._count_miss()
        return session, False

    def _hit(self, key: str) -> Session:
        """Count a hit on a cached key and refresh its recency (locked)."""
        self._sessions.move_to_end(key)
        self.hits += 1
        if OBS.enabled:
            OBS.inc("serve.cache.hits")
        return self._sessions[key]

    def _add_alias(self, alias: tuple, key: str) -> None:
        """Map an alias to a cached key, oldest alias out first (locked)."""
        if alias[0][0] < self._generation:
            return  # read under a resolution rule that is gone
        if alias not in self._aliases:
            self._by_length.setdefault(alias[0], []).append(alias)
        self._aliases[alias] = key
        self._aliases.move_to_end(alias)
        while len(self._aliases) > self.ALIASES_PER_SESSION * self.capacity:
            self._drop_alias(next(iter(self._aliases)))

    def _drop_alias(self, alias: tuple) -> None:
        """Forget one stored alias (locked)."""
        del self._aliases[alias]
        same_shape = self._by_length[alias[0]]
        same_shape.remove(alias)
        if not same_shape:
            del self._by_length[alias[0]]

    def _evict(self) -> None:
        """Drop the least recently used session and its aliases (locked)."""
        key, _ = self._sessions.popitem(last=False)
        for alias in [a for a, k in self._aliases.items() if k == key]:
            self._drop_alias(alias)
        self.evictions += 1
        if OBS.enabled:
            OBS.inc("serve.cache.evictions")

    def _count_miss(self) -> None:
        with self._lock:
            self.misses += 1
        if OBS.enabled:
            OBS.inc("serve.cache.misses")

    def stats(self) -> Dict[str, object]:
        """Plain-data snapshot for ``GET /v1/stats``."""
        with self._lock:
            return {
                "capacity": self.capacity,
                "size": len(self._sessions),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
