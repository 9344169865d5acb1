"""Namespaced counters and histograms behind one ``MetricSource`` protocol.

Every component that accounts for *where time and bytes go* — the enclave
boundary, the cloud store, the administrator, clients, replay engines —
keeps its numbers in a :class:`MetricRegistry` of dotted-name metrics
(``sgx.crossings``, ``cloud.bytes_out``, ``admin.plans_committed``, …).
The registry is the single authoritative store.  The per-component
metric objects (``CrossingMeter``, ``CloudMetrics``, ``AdminMetrics``)
hold no values of their own: their attributes read and write registry
counters through :class:`CounterField`, and their ``registry`` is what
telemetry snapshots read.

The consumer-facing contract is :class:`MetricSource`: anything with
``snapshot() -> {dotted name: value}`` and ``reset()``.  Registries
implement it natively; ``repro.obs.merge_snapshots`` combines many
sources into the one flat mapping that ``System.telemetry()`` and the
benchmark harness read.
"""

from __future__ import annotations

import random
from collections import deque
from typing import Callable, Deque, Dict, Iterable, List, Mapping, \
    Optional, Protocol, Sequence, Tuple, runtime_checkable


@runtime_checkable
class MetricSource(Protocol):
    """The common face of every metric surface in the package."""

    def snapshot(self) -> Mapping[str, float]:
        """Current values keyed by dotted metric name."""
        ...

    def reset(self) -> None:
        """Zero all values (gauges, being derived, are unaffected)."""
        ...


class Counter:
    """A monotonically adjustable scalar (ints or floats)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: float = 0

    def add(self, amount: float = 1) -> None:
        self.value += amount

    def set(self, value: float) -> None:
        self.value = value

    def reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


def quantile_from_samples(samples: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of a sample list (0 <= q <= 1)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    if len(ordered) == 1:
        return ordered[0]
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    fraction = position - low
    return ordered[low] * (1.0 - fraction) + ordered[high] * fraction


class Histogram:
    """Streaming summary of an observed distribution.

    Exact aggregates (``count/total/min/max/mean``) are maintained for
    every observation; quantiles (``p50/p95/p99``) come from a *bounded
    reservoir* (Vitter's algorithm R, deterministic per histogram name)
    so memory stays O(:attr:`RESERVOIR_SIZE`) however many values are
    observed.  Below the reservoir bound the quantiles are exact.
    """

    RESERVOIR_SIZE = 256

    __slots__ = ("name", "count", "total", "min", "max",
                 "_reservoir", "_reservoir_size", "_rand")

    def __init__(self, name: str,
                 reservoir_size: int = RESERVOIR_SIZE) -> None:
        self.name = name
        self._reservoir_size = reservoir_size
        self.reset()

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self._reservoir) < self._reservoir_size:
            self._reservoir.append(value)
        else:
            slot = self._rand.randrange(self.count)
            if slot < self._reservoir_size:
                self._reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Reservoir estimate of the ``q``-quantile (exact while the
        observation count is within the reservoir bound)."""
        return quantile_from_samples(self._reservoir, q)

    def samples(self) -> List[float]:
        """The current reservoir contents (a uniform sample of all
        observations), unordered."""
        return list(self._reservoir)

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        The exact aggregates (count/total/min/max) merge exactly; the
        reservoir absorbs the other's samples through :meth:`observe`-
        style replacement weighted by the combined count, so quantiles
        stay an unbiased estimate of the union.  Used to combine the
        same metric across many registries — e.g. every client's
        ``client.sync.seconds`` into one fleet-wide distribution for
        the scale suite's report.
        """
        if other.count == 0:
            return
        self.total += other.total
        if self.min is None or (other.min is not None
                                and other.min < self.min):
            self.min = other.min
        if self.max is None or (other.max is not None
                                and other.max > self.max):
            self.max = other.max
        for value in other.samples():
            self.count += 1
            if len(self._reservoir) < self._reservoir_size:
                self._reservoir.append(value)
            else:
                slot = self._rand.randrange(self.count)
                if slot < self._reservoir_size:
                    self._reservoir[slot] = value
        # Observations the other histogram saw but no longer holds in
        # its reservoir still count toward the aggregate total.
        self.count += max(0, other.count - len(other.samples()))

    def reset(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._reservoir: List[float] = []
        # Deterministic per-name stream: snapshots are reproducible for
        # a fixed observation sequence (the bench gate relies on this).
        self._rand = random.Random(f"histogram:{self.name}")

    def snapshot(self) -> Dict[str, float]:
        return {
            f"{self.name}.count": self.count,
            f"{self.name}.total": self.total,
            f"{self.name}.min": self.min or 0.0,
            f"{self.name}.max": self.max or 0.0,
            f"{self.name}.mean": self.mean,
            f"{self.name}.p50": self.quantile(0.50),
            f"{self.name}.p95": self.quantile(0.95),
            f"{self.name}.p99": self.quantile(0.99),
        }

    def __repr__(self) -> str:
        return (f"Histogram({self.name}: n={self.count}, "
                f"total={self.total:.6f})")


class SloWindow:
    """Rolling last-``size`` observations of (latency, outcome).

    The operator-facing complement to :class:`Histogram`: where the
    histogram summarises *everything since reset* with a reservoir, the
    SLO window answers "how is the server doing *right now*" — exact
    p50/p95/p99 latency and error rate over the most recent ``size``
    requests, plus lifetime totals.  The server keeps one per wire
    method and one for all traffic combined; ``stats``/``health``
    responses and the chaos/scale reports embed :meth:`snapshot`.
    """

    DEFAULT_SIZE = 256

    __slots__ = ("name", "count", "errors", "_window")

    def __init__(self, name: str, size: int = DEFAULT_SIZE) -> None:
        self.name = name
        self.count = 0       # lifetime observations
        self.errors = 0      # lifetime error outcomes
        self._window: Deque[Tuple[float, bool]] = deque(maxlen=size)

    def observe(self, latency_ms: float, ok: bool = True) -> None:
        self.count += 1
        if not ok:
            self.errors += 1
        self._window.append((latency_ms, ok))

    @property
    def window_size(self) -> int:
        return len(self._window)

    @property
    def error_rate(self) -> float:
        """Fraction of errored requests within the current window."""
        if not self._window:
            return 0.0
        bad = sum(1 for _, ok in self._window if not ok)
        return bad / len(self._window)

    def snapshot(self) -> Dict[str, float]:
        latencies = [latency for latency, _ in self._window]
        return {
            "count": self.count,
            "errors": self.errors,
            "window": len(self._window),
            "error_rate": round(self.error_rate, 6),
            "p50_ms": round(quantile_from_samples(latencies, 0.50), 3),
            "p95_ms": round(quantile_from_samples(latencies, 0.95), 3),
            "p99_ms": round(quantile_from_samples(latencies, 0.99), 3),
            "max_ms": round(max(latencies), 3) if latencies else 0.0,
        }

    def reset(self) -> None:
        self.count = 0
        self.errors = 0
        self._window.clear()

    def __repr__(self) -> str:
        return (f"SloWindow({self.name}: n={self.count}, "
                f"errors={self.errors}, window={len(self._window)})")


class MetricRegistry:
    """A namespace of counters, histograms and derived gauges.

    Metric names are dotted (``sgx.crossings``); an optional ``prefix``
    is prepended to every name created through this registry, letting a
    component own a sub-namespace without repeating itself.
    """

    def __init__(self, prefix: str = "") -> None:
        self._prefix = f"{prefix}." if prefix and not prefix.endswith(".") \
            else prefix
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._gauges: Dict[str, Callable[[], float]] = {}

    def _qualify(self, name: str) -> str:
        return self._prefix + name

    def counter(self, name: str) -> Counter:
        """Get-or-create the counter at ``name`` (idempotent)."""
        name = self._qualify(name)
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(self, name: str) -> Histogram:
        """Get-or-create the histogram at ``name`` (idempotent)."""
        name = self._qualify(name)
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name)
        return histogram

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register a derived metric evaluated at snapshot time."""
        self._gauges[self._qualify(name)] = fn

    # -- MetricSource ---------------------------------------------------------

    def snapshot(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            name: counter.value for name, counter in self._counters.items()
        }
        for histogram in self._histograms.values():
            out.update(histogram.snapshot())
        for name, fn in self._gauges.items():
            out[name] = fn()
        return out

    def counters_snapshot(self) -> Dict[str, float]:
        """Counter values only (no histograms, no gauges).

        This is the *mergeable* subset: a worker process can snapshot it
        before and after a task and ship the difference back for
        :func:`repro.obs.collect.merge_task_telemetry` to add into the
        parent's registries (gauges are derived and histograms are not
        delta-composable, so neither crosses the process boundary).
        """
        return {name: counter.value
                for name, counter in self._counters.items()}

    def add_counter_deltas(self, deltas: Mapping[str, float]) -> None:
        """Add per-counter increments (a worker's task-local activity)
        into this registry.  Unknown names create their counter."""
        for name, delta in deltas.items():
            if delta:
                self._counters.setdefault(name, Counter(name)).add(delta)

    def reset(self) -> None:
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()

    def names(self) -> Iterable[str]:
        return sorted({*self._counters, *self._histograms, *self._gauges})

    def __contains__(self, name: str) -> bool:
        return (name in self._counters or name in self._histograms
                or name in self._gauges)

    def __repr__(self) -> str:
        return (f"MetricRegistry({len(self._counters)} counters, "
                f"{len(self._histograms)} histograms, "
                f"{len(self._gauges)} gauges)")


class CounterField:
    """Descriptor exposing a registry counter as a plain numeric attribute.

    Component metric classes declare

    ``requests = CounterField("cloud.requests")``

    so call sites read and bump a plain attribute (``metrics.requests +=
    1``) while the value itself lives in ``obj.registry`` — the
    consolidated :class:`MetricRegistry` that telemetry snapshots read.
    The owning object must expose that registry as ``registry``.
    """

    __slots__ = ("metric_name",)

    def __init__(self, metric_name: str) -> None:
        self.metric_name = metric_name

    def __get__(self, obj, objtype=None):
        if obj is None:
            return self
        return obj.registry.counter(self.metric_name).value

    def __set__(self, obj, value) -> None:
        obj.registry.counter(self.metric_name).set(value)


def merge_snapshots(sources: Iterable[MetricSource]) -> Dict[str, float]:
    """Flatten several sources into one dotted-name mapping.

    Later sources win on (unexpected) name collisions, matching plain
    ``dict.update`` semantics.
    """
    merged: Dict[str, float] = {}
    for source in sources:
        merged.update(source.snapshot())
    return merged
