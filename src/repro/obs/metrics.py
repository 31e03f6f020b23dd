"""Metric primitives: counters, gauges, histograms and their registry.

The instrumentation contract is the one SpecSyn's own feedback loop
implies (Section 6: "rapid estimates ... for each option examined"): the
system must be able to *count* what the estimators and searches do —
memo hits, cost evaluations, accepted moves — without perturbing the
very hot paths whose speed is the paper's claim.  Hence:

* every metric is thread-safe (a single lock per metric; contention is
  irrelevant at the coarse rates instrumentation points fire);
* the :class:`Registry` carries an ``enabled`` flag, and every
  instrumentation point in the codebase is written as
  ``if OBS.enabled: OBS.inc(...)`` so disabled instrumentation costs
  one attribute load and one branch;
* every metric is *mergeable* across process boundaries: worker processes
  :meth:`Registry.dump` their registries into plain data and the
  coordinator :meth:`Registry.merge`\\ s them back (counters sum, gauges
  last-write-wins, histograms add bucket counts), so a ``--jobs 8``
  sweep's summary covers all nine processes;
* there are no dependencies beyond the standard library.

Histograms use **fixed log-scale buckets** (:data:`BUCKETS_PER_DECADE`
boundaries per power of ten) rather than raw samples: two histograms
observe the same boundaries no matter which process they live in, so a
merge is an exact bucket-count sum — the property the old sorted-sample
implementation could not provide — and quantile error is bounded by the
bucket growth factor (~±7.5% relative).  ``count``/``sum``/``min``/
``max`` stay exact.

Metrics are named with dotted paths (``estimate.exectime.memo_hit``,
``partition.annealing.accepted``) so the summary table and JSONL export
group naturally by subsystem.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, List, Optional, Tuple


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0
        self._lock = threading.Lock()

    def inc(self, amount: int = 1) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Counter({self.name}={self._value})"


class Gauge:
    """A value that goes up and down (temperature, best cost, depth)."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = value

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    def max(self, value: float) -> None:
        """Keep the running maximum (used for recursion depth)."""
        with self._lock:
            if value > self._value:
                self._value = value

    @property
    def value(self) -> float:
        return self._value

    def reset(self) -> None:
        with self._lock:
            self._value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Gauge({self.name}={self._value})"


#: Log-scale bucket resolution: boundaries per power of ten.  16 gives
#: a growth factor of 10^(1/16) ≈ 1.155, i.e. quantiles are accurate to
#: about ±7.5% relative — plenty for latency analysis — while a span of
#: 1 µs .. 1000 s occupies at most ~150 sparse buckets.
BUCKETS_PER_DECADE = 16


def bucket_index(value: float) -> Optional[int]:
    """The fixed log-scale bucket holding ``value``.

    ``None`` is the zero bucket (values <= 0: durations can round to
    zero, and gap metrics can legitimately be negative-free).  Bucket
    ``i`` covers ``(upper(i-1), upper(i)]`` with
    ``upper(i) = 10**(i / BUCKETS_PER_DECADE)`` — the same boundaries in
    every process, which is what makes histogram merges exact.
    """
    if value <= 0.0:
        return None
    # the epsilon keeps exact boundary values (10**(k/16)) in bucket k
    # instead of spilling into k+1 through float rounding
    return math.ceil(math.log10(value) * BUCKETS_PER_DECADE - 1e-9)


def bucket_upper(index: int) -> float:
    """Inclusive upper bound of bucket ``index``."""
    return 10.0 ** (index / BUCKETS_PER_DECADE)


class Histogram:
    """A distribution over fixed log-scale buckets, mergeable exactly.

    Observations land in sparse buckets keyed by :func:`bucket_index`;
    ``count``/``sum``/``min``/``max`` are exact, quantiles are read off
    the bucket boundaries (geometric bucket midpoint, clamped into
    ``[min, max]``) with relative error bounded by the bucket growth
    factor.  Because the boundaries are fixed — never derived from the
    data — two histograms from different processes merge by summing
    bucket counts (:meth:`merge`), which is how worker telemetry folds
    into the coordinator's registry.
    """

    __slots__ = (
        "name", "_buckets", "_zero", "_count", "_sum", "_min", "_max",
        "_lock",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self._buckets: Dict[int, int] = {}
        self._zero = 0
        self._count = 0
        self._sum = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        index = bucket_index(value)
        with self._lock:
            self._count += 1
            self._sum += value
            if self._min is None or value < self._min:
                self._min = value
            if self._max is None or value > self._max:
                self._max = value
            if index is None:
                self._zero += 1
            else:
                self._buckets[index] = self._buckets.get(index, 0) + 1

    @property
    def count(self) -> int:
        return self._count

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def mean(self) -> float:
        return self._sum / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._min is not None else 0.0

    @property
    def max(self) -> float:
        return self._max if self._max is not None else 0.0

    def quantile(self, q: float) -> float:
        """The ``q``-quantile (0 <= q <= 1), bucket-resolution accurate."""
        with self._lock:
            if not self._count:
                return 0.0
            rank = q * (self._count - 1)
            seen = self._zero
            if seen > rank:
                return self._min if self._min is not None else 0.0
            for index in sorted(self._buckets):
                seen += self._buckets[index]
                if seen > rank:
                    # geometric midpoint of the bucket, clamped to the
                    # exactly-tracked extremes (single-sample histograms
                    # therefore report their sample exactly)
                    mid = 10.0 ** ((index - 0.5) / BUCKETS_PER_DECADE)
                    return max(self.min, min(self.max, mid))
            return self.max  # pragma: no cover - counts always add up

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs, Prometheus-style.

        Only occupied buckets are materialized (plus a leading zero
        bucket when present); the caller appends the implicit ``+Inf``
        bucket, whose cumulative count is :attr:`count`.
        """
        with self._lock:
            out: List[Tuple[float, int]] = []
            running = 0
            if self._zero:
                running = self._zero
                out.append((0.0, running))
            for index in sorted(self._buckets):
                running += self._buckets[index]
                out.append((bucket_upper(index), running))
            return out

    def reset(self) -> None:
        with self._lock:
            self._buckets = {}
            self._zero = 0
            self._count = 0
            self._sum = 0.0
            self._min = None
            self._max = None

    def summary(self) -> Dict[str, object]:
        """Plain-data summary: moments, quantiles and bucket counts."""
        buckets = {
            f"{upper:.6g}": cumulative
            for upper, cumulative in self.cumulative_buckets()
        }
        return {
            "count": self.count,
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
            "max": self.max,
            "buckets": buckets,
        }

    # -- cross-process merge -------------------------------------------

    def dump(self) -> Dict[str, object]:
        """Raw-bucket form for :meth:`merge` in another process."""
        with self._lock:
            return {
                "count": self._count,
                "sum": self._sum,
                "min": self._min,
                "max": self._max,
                "zero": self._zero,
                "buckets": {str(k): v for k, v in self._buckets.items()},
            }

    def merge(self, data: Dict[str, object]) -> None:
        """Fold a :meth:`dump` from another histogram into this one."""
        with self._lock:
            self._count += int(data.get("count", 0))
            self._sum += float(data.get("sum", 0.0))
            other_min = data.get("min")
            if other_min is not None and (
                self._min is None or float(other_min) < self._min
            ):
                self._min = float(other_min)
            other_max = data.get("max")
            if other_max is not None and (
                self._max is None or float(other_max) > self._max
            ):
                self._max = float(other_max)
            self._zero += int(data.get("zero", 0))
            for key, value in dict(data.get("buckets", {})).items():
                index = int(key)
                self._buckets[index] = self._buckets.get(index, 0) + int(value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Histogram({self.name}, n={self._count})"


class Registry:
    """Named metrics plus the global on/off switch.

    ``enabled`` is a plain attribute on purpose: the hot-path guard
    ``if OBS.enabled`` must not pay a method call.  Metric creation is
    get-or-create under a lock; the returned objects are stable, so
    call sites may cache them.
    """

    def __init__(self, enabled: bool = False) -> None:
        self.enabled = enabled
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- get-or-create -------------------------------------------------

    def counter(self, name: str) -> Counter:
        try:
            return self._counters[name]
        except KeyError:
            with self._lock:
                return self._counters.setdefault(name, Counter(name))

    def gauge(self, name: str) -> Gauge:
        try:
            return self._gauges[name]
        except KeyError:
            with self._lock:
                return self._gauges.setdefault(name, Gauge(name))

    def histogram(self, name: str) -> Histogram:
        try:
            return self._histograms[name]
        except KeyError:
            with self._lock:
                return self._histograms.setdefault(name, Histogram(name))

    # -- one-call conveniences used by instrumentation points ----------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- introspection -------------------------------------------------

    @property
    def counters(self) -> Dict[str, Counter]:
        return dict(self._counters)

    @property
    def gauges(self) -> Dict[str, Gauge]:
        return dict(self._gauges)

    @property
    def histograms(self) -> Dict[str, Histogram]:
        return dict(self._histograms)

    def counter_value(self, name: str) -> int:
        """The current value of ``name`` (0 if never incremented)."""
        metric = self._counters.get(name)
        return metric.value if metric is not None else 0

    def snapshot(self) -> Dict[str, Dict]:
        """A plain-data copy of every metric, for export / benchmarks."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
        }

    def dump(self) -> Dict[str, Dict]:
        """Serializable raw form of every metric, for cross-process merge.

        Unlike :meth:`snapshot` (which summarizes histograms into
        quantiles) this keeps the raw bucket counts, so
        :meth:`merge`\\ ing a dump into another registry is exact.
        """
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.dump() for n, h in sorted(self._histograms.items())
            },
        }

    def merge(self, data: Dict[str, Dict]) -> None:
        """Fold another registry's :meth:`dump` into this one.

        Counters sum, gauges are last-write-wins (the merged value
        overwrites), histogram bucket counts add.  Used by the
        exploration coordinator to absorb worker-process telemetry.
        """
        for name, value in dict(data.get("counters", {})).items():
            self.counter(name).inc(int(value))
        for name, value in dict(data.get("gauges", {})).items():
            self.gauge(name).set(float(value))
        for name, hist_data in dict(data.get("histograms", {})).items():
            self.histogram(name).merge(hist_data)

    def reset(self) -> None:
        """Drop every metric (the enabled flag is left as is)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
