"""Singleflight for estimate requests that share a cached graph.

Estimation is deterministic: two requests with the same session key,
frequency mode and concurrency flag produce byte-identical results.
The :class:`MicroBatcher` exploits that without ever waiting: the first
request for a key becomes the *leader* and computes at once; every
identical request that arrives while it runs is a *follower* and gets
the leader's result object (or exception) without touching the
estimators at all.  A lone request pays nothing extra, and N identical
concurrent requests cost one evaluation.  Requests that differ in any
part of the key never coalesce: each computes on its own.

Counters (local, mirrored to :mod:`repro.obs` when enabled):

* ``serve.batch.leaders`` — evaluations actually performed;
* ``serve.batch.coalesced`` — requests served by someone else's
  evaluation;
* ``serve.batch.size`` histogram — requests per evaluation.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, Optional, TypeVar

from repro.obs import OBS

T = TypeVar("T")


class _Flight:
    """One in-flight evaluation and the followers waiting on it."""

    __slots__ = ("done", "result", "error", "followers")

    def __init__(self) -> None:
        self.done = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None
        self.followers = 0


class MicroBatcher:
    """Share one evaluation among identical concurrent requests."""

    def __init__(self) -> None:
        self._flights: Dict[Hashable, _Flight] = {}
        self._lock = threading.Lock()
        self.leaders = 0
        self.coalesced = 0

    def run_grouped(
        self, group: Hashable, key: Hashable, compute: Callable[[], T]
    ) -> T:
        """Return ``compute()``, shared with identical requests in flight.

        ``group`` names the cached graph and ``key`` the request against
        it (frequency mode, concurrency flag); one ``(group, key)`` pair
        is one flight.  ``compute`` must be deterministic in that pair:
        every caller must be content with any other caller's result and
        any other caller's exception.
        """
        pair = (group, key)
        with self._lock:
            flight = self._flights.get(pair)
            leader = flight is None
            if leader:
                flight = self._flights[pair] = _Flight()
                self.leaders += 1
            else:
                flight.followers += 1
                self.coalesced += 1
        if not leader:
            if OBS.enabled:
                OBS.inc("serve.batch.coalesced")
            flight.done.wait()  # the leader sets it in its finally
            if flight.error is not None:
                raise flight.error
            return flight.result
        try:
            flight.result = compute()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                del self._flights[pair]
            flight.done.set()
            if OBS.enabled:
                OBS.inc("serve.batch.leaders")
                OBS.observe("serve.batch.size", 1 + flight.followers)
        return flight.result

    def stats(self) -> Dict[str, int]:
        """Plain-data snapshot for ``GET /v1/stats``."""
        with self._lock:
            return {
                "leaders": self.leaders,
                "coalesced": self.coalesced,
                "pending": len(self._flights),
            }
