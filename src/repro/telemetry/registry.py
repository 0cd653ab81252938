"""The telemetry registry: counters, gauges, histograms/timers, spans.

Dependency-free instrumentation shared by the checker, the runtime machine,
the verifier, and the RPC server.  Four primitives:

* :class:`Counter` — a monotonically increasing integer (``inc``);
* :class:`Gauge` — a point-in-time level that can go up and down
  (``set``/``inc``/``dec``): queue depth, last seed, high-water marks;
* :class:`Histogram` — a streaming summary (count/total/min/max/mean) of
  observed values plus fixed log-scale buckets, so quantiles (p50/p99)
  can be estimated from an export; doubles as a timer via
  :meth:`Registry.time`;
* spans — nestable wall-time scopes (:meth:`Registry.span`); completed
  spans are aggregated per ``(name, parent)`` so the call structure is
  preserved without unbounded event storage.  When the process-global
  :mod:`tracer <.tracer>` is enabled, each span additionally records an
  individual trace event, which is how checker/verifier/machine spans
  appear in request traces without touching those modules.

The process-global registry is **disabled by default** and the disabled
path is a single attribute check (``registry().enabled``), so instrumented
code pays nothing measurable when telemetry is off.  Enable a fresh
registry with :func:`enable`, or install a custom one with
:func:`set_registry` (e.g. one registry per benchmark run).

The enabled path is **thread-safe**: one lock guards every mutation (the
RPC daemon records from its worker threads), and the span stack is
thread-local so concurrent requests nest their spans independently.
"""

from __future__ import annotations

import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from . import tracer as _tracing

#: Histogram bucket upper bounds (``le`` semantics, log-ish scale).  One
#: overflow bucket rides after the last bound.  Milliseconds-flavored —
#: wide enough that byte-sized observations still land somewhere useful.
BUCKET_BOUNDS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0, 10.0, 25.0, 50.0,
    100.0, 250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n

    def __repr__(self) -> str:
        return f"Counter({self.name}={self.value})"


class Gauge:
    """A named level: settable, not monotonic.

    Counters that were really gauges (``server.queue_depth``,
    ``machine.seed``, ``machine.starvation_max_wait``) live here now, so
    exports can state their merge semantics (max envelope) instead of
    nonsensically summing them.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        self.value -= n

    def set_max(self, value: float) -> None:
        """High-water-mark update: keep the larger of old and new."""
        if value > self.value:
            self.value = value

    def __repr__(self) -> str:
        return f"Gauge({self.name}={self.value})"


class Histogram:
    """A streaming summary of observed values (also the timer backend).

    Besides count/total/min/max it keeps fixed log-scale bucket counts
    (:data:`BUCKET_BOUNDS` plus one overflow bucket), which is what lets
    :meth:`quantile` estimate p50/p99 from an export — the observations
    themselves are never stored.
    """

    __slots__ = ("name", "count", "total", "min", "max", "buckets")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: List[int] = [0] * (len(BUCKET_BOUNDS) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        self.buckets[bisect_left(BUCKET_BOUNDS, value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> Optional[float]:
        """Estimate the ``q``-quantile (``0 <= q <= 1``) from the bucket
        counts by linear interpolation within the winning bucket, clamped
        to the observed min/max.  A histogram whose buckets do not cover
        every observation (one merged from a document with no buckets or
        a foreign bucket layout) falls back to interpolating between min
        and max."""
        if not self.count:
            return None
        if sum(self.buckets) < self.count:
            # Buckets incomplete: min/max line.
            lo = self.min if self.min is not None else 0.0
            hi = self.max if self.max is not None else lo
            return lo + (hi - lo) * q
        target = q * self.count
        cumulative = 0
        for index, n in enumerate(self.buckets):
            if n == 0:
                continue
            cumulative += n
            if cumulative >= target:
                lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                upper = (
                    BUCKET_BOUNDS[index]
                    if index < len(BUCKET_BOUNDS)
                    else (self.max if self.max is not None else lower)
                )
                fraction = (target - (cumulative - n)) / n if n else 1.0
                estimate = lower + (upper - lower) * fraction
                if self.min is not None:
                    estimate = max(estimate, self.min)
                if self.max is not None:
                    estimate = min(estimate, self.max)
                return estimate
        return self.max

    def __repr__(self) -> str:
        return f"Histogram({self.name}: n={self.count} mean={self.mean:.3f})"


class SpanStats:
    """Aggregated completions of one span name under one parent."""

    __slots__ = ("name", "parent", "depth", "count", "total_ms", "min_ms", "max_ms")

    def __init__(self, name: str, parent: Optional[str], depth: int):
        self.name = name
        self.parent = parent
        self.depth = depth
        self.count = 0
        self.total_ms = 0.0
        self.min_ms: Optional[float] = None
        self.max_ms: Optional[float] = None

    def observe(self, ms: float) -> None:
        self.count += 1
        self.total_ms += ms
        if self.min_ms is None or ms < self.min_ms:
            self.min_ms = ms
        if self.max_ms is None or ms > self.max_ms:
            self.max_ms = ms


class Registry:
    """A bag of named metrics, swappable process-globally.

    Mutations on the enabled path take one lock (the RPC daemon's worker
    threads record concurrently); the disabled path takes nothing.  The
    span stack is per-thread, so spans opened by concurrent requests
    nest within their own thread only.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.spans: Dict[Tuple[str, Optional[str]], SpanStats] = {}
        self._lock = threading.Lock()
        self._local = threading.local()

    @property
    def _span_stack(self) -> List[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- counters ---------------------------------------------------------

    def counter(self, name: str) -> Counter:
        counter = self.counters.get(name)
        if counter is None:
            with self._lock:
                counter = self.counters.get(name)
                if counter is None:
                    counter = self.counters[name] = Counter(name)
        return counter

    def inc(self, name: str, n: int = 1) -> None:
        if self.enabled:
            counter = self.counter(name)
            with self._lock:
                counter.inc(n)

    def value(self, name: str) -> int:
        """Current value of a counter (0 if never incremented)."""
        counter = self.counters.get(name)
        return 0 if counter is None else counter.value

    # -- gauges -----------------------------------------------------------

    def gauge(self, name: str) -> Gauge:
        gauge = self.gauges.get(name)
        if gauge is None:
            with self._lock:
                gauge = self.gauges.get(name)
                if gauge is None:
                    gauge = self.gauges[name] = Gauge(name)
        return gauge

    def set_gauge(self, name: str, value: float) -> None:
        if self.enabled:
            gauge = self.gauge(name)
            with self._lock:
                gauge.set(value)

    def set_gauge_max(self, name: str, value: float) -> None:
        """High-water-mark form of :meth:`set_gauge`."""
        if self.enabled:
            gauge = self.gauge(name)
            with self._lock:
                gauge.set_max(value)

    def gauge_value(self, name: str) -> float:
        """Current value of a gauge (0.0 if never set)."""
        gauge = self.gauges.get(name)
        return 0.0 if gauge is None else gauge.value

    # -- histograms / timers ----------------------------------------------

    def histogram(self, name: str) -> Histogram:
        hist = self.histograms.get(name)
        if hist is None:
            with self._lock:
                hist = self.histograms.get(name)
                if hist is None:
                    hist = self.histograms[name] = Histogram(name)
        return hist

    def observe(self, name: str, value: float) -> None:
        if self.enabled:
            hist = self.histogram(name)
            with self._lock:
                hist.observe(value)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Time a block into histogram ``name`` (milliseconds)."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, (time.perf_counter() - t0) * 1000.0)

    # -- spans ------------------------------------------------------------

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """A nestable wall-time scope.  Completions aggregate per
        ``(name, parent-span-name)`` so nesting survives aggregation.
        When the global tracer is enabled, the same scope records one
        individual trace event (the registry→tracer bridge)."""
        if not self.enabled:
            yield
            return
        stack = self._span_stack
        parent = stack[-1] if stack else None
        depth = len(stack)
        stack.append(name)
        tr = _tracing.tracer()  # honors the per-thread use_tracer override
        trace_cm = tr.span(name, cat="registry") if tr.enabled else None
        if trace_cm is not None:
            trace_cm.__enter__()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            stack.pop()
            if trace_cm is not None:
                trace_cm.__exit__(None, None, None)
            ms = (time.perf_counter() - t0) * 1000.0
            key = (name, parent)
            with self._lock:
                stats = self.spans.get(key)
                if stats is None:
                    stats = self.spans[key] = SpanStats(name, parent, depth)
                stats.observe(ms)

    # -- management -------------------------------------------------------

    def reset(self) -> None:
        with self._lock:
            self.counters.clear()
            self.gauges.clear()
            self.histograms.clear()
            self.spans.clear()
            self._local = threading.local()

    def __repr__(self) -> str:
        return (
            f"Registry(enabled={self.enabled}, {len(self.counters)} counters, "
            f"{len(self.gauges)} gauges, {len(self.histograms)} histograms, "
            f"{len(self.spans)} spans)"
        )


#: The permanently disabled default — instrumented code sees
#: ``registry().enabled == False`` and skips all metric work.
_NULL = Registry(enabled=False)
_active = _NULL
#: Per-thread override installed by :func:`use_local`.  Keeping that
#: swap thread-local is what lets the in-process (thread-mode) pipeline
#: give each concurrent worker task its own collection registry without
#: the tasks clobbering one another or the process-global registry.
_override = threading.local()


def registry() -> Registry:
    """The currently active registry: this thread's :func:`use_local`
    override when one is installed, the process-global registry
    otherwise."""
    reg = getattr(_override, "registry", None)
    return _active if reg is None else reg


def set_registry(reg: Registry) -> Registry:
    """Install ``reg`` as the process-global registry; returns the old one."""
    global _active
    old = _active
    _active = reg
    return old


def enable() -> Registry:
    """Install and return a fresh enabled registry."""
    return_new = Registry(enabled=True)
    set_registry(return_new)
    return return_new


def disable() -> None:
    """Restore the disabled default registry."""
    set_registry(_NULL)


@contextmanager
def use(reg: Registry) -> Iterator[Registry]:
    """Temporarily make ``reg`` the **process-global** registry.

    Scoped and reentrant; visible from every thread (benchmarks and
    tests wrap whole server lifecycles in it).  For a swap private to
    the calling thread — concurrent pipeline tasks collecting into
    separate registries — use :func:`use_local`."""
    old = set_registry(reg)
    try:
        yield reg
    finally:
        set_registry(old)


@contextmanager
def use_local(reg: Registry) -> Iterator[Registry]:
    """Temporarily make ``reg`` the active registry **for this thread
    only**.

    Scoped and reentrant; other threads (and the process-global registry
    installed via :func:`set_registry`/:func:`use`) are unaffected."""
    old = getattr(_override, "registry", None)
    _override.registry = reg
    try:
        yield reg
    finally:
        _override.registry = old
