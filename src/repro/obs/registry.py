"""Zero-dependency tracing, timers, and counters for the inference hot path.

Three layers, all stdlib-only:

* **Timers/counters/distributions** — a :class:`Timer` accumulates
  wall-clock durations per named stage (count/total/min/max plus a
  streaming log-bucket :class:`Histogram` for p50/p90/p99); a
  :class:`Counter` accumulates event counts; a :class:`Distribution`
  accumulates a stream of plain values (engine batch sizes, queue
  depths) behind the same percentile histogram.
* **Spans** — ``with registry.span("detect.total", task="...") as sp:``
  opens a hierarchical span.  Spans nest through a thread-local stack, so
  a stage timed inside another stage becomes its child automatically;
  every completed span both feeds the stage's Timer and is appended to a
  bounded in-memory event list that :mod:`repro.obs.trace` can export as
  Chrome trace-event JSON (viewable in Perfetto / ``chrome://tracing``).
  ``registry.time(name)`` is the attribute-less alias, so the historical
  call sites participate in the tree for free.
* **Telemetry** — :meth:`Registry.telemetry_snapshot` is the
  serialization-ready view (strict JSON: no ``Infinity``) that
  :mod:`repro.obs.telemetry` embeds in ``BENCH_*.json`` files.

A process-wide default registry (:func:`get_registry`) lets deep call
sites — window extraction, model forward, KG matching, NMS, the hardware
simulator, trainers, quantization calibration — record into one shared
table without plumbing a handle through every signature.

Overhead discipline: with ``registry.enabled = False`` every probe
returns before touching a clock, a lock, or the span stack; with it
enabled, the get-or-create accessors are lock-free on the hit path
(plain dict reads are atomic under the GIL) and only take the registry
lock to *create* a stage or append a completed span.  Per-stage mutation
uses a per-Timer/per-Counter lock so concurrent recordings never lose
updates (totals stay exact across threads).
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import math
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional

from repro.obs.context import current_context

__all__ = [
    "Counter",
    "Distribution",
    "FP_SCALE",
    "Histogram",
    "Registry",
    "Span",
    "Timer",
    "get_registry",
    "traced",
]

# Fixed-point scale for mergeable accumulators.  Floating-point addition
# is not associative, so per-shard float totals merged in different
# orders drift in the last bits; accumulating integers (nanoseconds for
# timers, value * FP_SCALE for counters/distributions) at record time
# makes every merge order bit-identical.  Python ints never overflow.
FP_SCALE = 10 ** 9


def fixed_point(value: float) -> int:
    """Round a value onto the shared fixed-point grid (1e-9 resolution)."""
    return int(round(value * FP_SCALE))


# ----------------------------------------------------------------------
# Percentile histogram
# ----------------------------------------------------------------------
# Geometric buckets from 0.1 µs up: bucket i covers
# [_HIST_MIN_S * G**i, _HIST_MIN_S * G**(i+1)).  93 buckets reach ~100 s,
# and the geometric-midpoint representative bounds the relative error of
# any percentile by sqrt(G) - 1 ≈ 11.8 %.
_HIST_MIN_S = 1e-7
_HIST_GROWTH = 1.25
_HIST_BUCKETS = 93
_LOG_GROWTH = math.log(_HIST_GROWTH)


class Histogram:
    """Streaming fixed-bucket (log-scale) histogram of durations.

    Constant memory, O(1) :meth:`record`, percentile queries by walking
    the cumulative counts.  Representative values are clamped to the
    observed ``[min, max]`` so extreme percentiles never overshoot the
    data.
    """

    __slots__ = ("counts", "count", "_min", "_max")

    def __init__(self) -> None:
        self.counts = [0] * _HIST_BUCKETS
        self.count = 0
        self._min = math.inf
        self._max = 0.0

    @staticmethod
    def bucket_index(seconds: float) -> int:
        if seconds <= _HIST_MIN_S:
            return 0
        index = int(math.log(seconds / _HIST_MIN_S) / _LOG_GROWTH)
        return min(index, _HIST_BUCKETS - 1)

    def record(self, seconds: float) -> None:
        self.counts[self.bucket_index(seconds)] += 1
        self.count += 1
        if seconds < self._min:
            self._min = seconds
        if seconds > self._max:
            self._max = seconds

    def percentile(self, q: float) -> float:
        """Approximate the ``q``-th percentile (``0 <= q <= 100``)."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("percentile must be in [0, 100]")
        if self.count == 0:
            return 0.0
        rank = max(1, math.ceil(q / 100.0 * self.count))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= rank:
                low = _HIST_MIN_S * _HIST_GROWTH ** index
                representative = low * math.sqrt(_HIST_GROWTH)
                return min(max(representative, self._min), self._max)
        return self._max  # pragma: no cover — unreachable (seen == count)

    # -- mergeable state ------------------------------------------------
    # Sparse JSON-safe bucket state for the cross-process snapshot merge
    # protocol (see repro.obs.export).  Bucket counts are ints and
    # min/max are exact observed values, so merging is associative,
    # commutative, and bit-exact in any order.

    def merge_state(self) -> Dict[str, Any]:
        return {
            "count": self.count,
            "buckets": [[i, c] for i, c in enumerate(self.counts) if c],
            "min": self._min if self.count else None,
            "max": self._max if self.count else None,
        }

    def merge_in(self, state: Dict[str, Any]) -> "Histogram":
        for index, bucket_count in state["buckets"]:
            self.counts[int(index)] += int(bucket_count)
        self.count += int(state["count"])
        if state["min"] is not None and state["min"] < self._min:
            self._min = state["min"]
        if state["max"] is not None and state["max"] > self._max:
            self._max = state["max"]
        return self

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "Histogram":
        return cls().merge_in(state)


# ----------------------------------------------------------------------
# Timers and counters
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Timer:
    """Accumulated wall-clock statistics for one named stage."""

    name: str
    calls: int = 0
    total_s: float = 0.0
    min_s: float = math.inf
    max_s: float = 0.0
    last_s: float = 0.0
    # Integer-nanosecond twin of total_s: the order-independent
    # accumulator the mergeable snapshot protocol exports.
    total_ns: int = 0
    histogram: Histogram = dataclasses.field(default_factory=Histogram,
                                             repr=False, compare=False)
    _lock: threading.Lock = dataclasses.field(default_factory=threading.Lock,
                                              repr=False, compare=False)

    def record(self, seconds: float) -> None:
        with self._lock:
            self.calls += 1
            self.total_s += seconds
            self.total_ns += fixed_point(seconds)
            self.min_s = min(self.min_s, seconds)
            self.max_s = max(self.max_s, seconds)
            self.last_s = seconds
            self.histogram.record(seconds)

    @property
    def mean_s(self) -> float:
        return self.total_s / self.calls if self.calls else 0.0

    def percentile(self, q: float) -> float:
        return self.histogram.percentile(q)

    @property
    def p50_s(self) -> float:
        return self.percentile(50.0)

    @property
    def p90_s(self) -> float:
        return self.percentile(90.0)

    @property
    def p99_s(self) -> float:
        return self.percentile(99.0)

    def stats(self) -> Dict[str, float]:
        """Strict-JSON stats dict (never emits ``Infinity``)."""
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "mean_s": self.mean_s,
            # A created-but-never-recorded timer keeps min_s = inf
            # internally; exporting that breaks strict JSON consumers.
            "min_s": self.min_s if self.calls else 0.0,
            "max_s": self.max_s,
            "last_s": self.last_s,
            "p50_s": self.p50_s,
            "p90_s": self.p90_s,
            "p99_s": self.p99_s,
        }

    def merge_state(self) -> Dict[str, Any]:
        """Order-independent state for cross-process merging.

        ``last_s`` is deliberately absent: "last" depends on arrival
        order, which a merge of concurrent shards cannot define.
        """
        with self._lock:
            return {
                "calls": self.calls,
                "total_ns": self.total_ns,
                "min_s": self.min_s if self.calls else None,
                "max_s": self.max_s if self.calls else None,
                "hist": self.histogram.merge_state(),
            }


@dataclasses.dataclass
class Counter:
    """Accumulated event count (windows scanned, ops simulated, ...)."""

    name: str
    value: float = 0
    # Fixed-point twin of value (value * FP_SCALE, rounded per add) so
    # shard merges are bit-exact regardless of order.
    value_fp: int = 0
    _lock: threading.Lock = dataclasses.field(default_factory=threading.Lock,
                                              repr=False, compare=False)

    def add(self, amount: float = 1) -> None:
        with self._lock:
            self.value += amount
            self.value_fp += fixed_point(amount)

    def merge_state(self) -> Dict[str, Any]:
        with self._lock:
            return {"value_fp": self.value_fp}


@dataclasses.dataclass
class Distribution:
    """Accumulated statistics of a dimensionless value stream.

    Where a :class:`Timer` summarizes durations, a Distribution
    summarizes *values* the hot path observes — engine batch sizes,
    queue depths, candidate counts — with the same constant-memory
    log-bucket :class:`Histogram` behind p50/p90/p99.  The bucket grid
    spans roughly ``[1e-7, 1e2]``; values outside saturate the edge
    buckets, but ``min``/``max`` stay exact and percentiles are clamped
    to them, so small-integer streams (the intended use) lose at most
    the histogram's ~12 % bucket error.
    """

    name: str
    count: int = 0
    total: float = 0.0
    min: float = math.inf
    max: float = 0.0
    last: float = 0.0
    total_fp: int = 0
    histogram: Histogram = dataclasses.field(default_factory=Histogram,
                                             repr=False, compare=False)
    _lock: threading.Lock = dataclasses.field(default_factory=threading.Lock,
                                              repr=False, compare=False)

    def record(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.total += value
            self.total_fp += fixed_point(value)
            self.min = min(self.min, value)
            self.max = max(self.max, value)
            self.last = value
            self.histogram.record(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        return self.histogram.percentile(q)

    def stats(self) -> Dict[str, float]:
        """Strict-JSON stats dict (never emits ``Infinity``)."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "last": self.last,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
        }

    def merge_state(self) -> Dict[str, Any]:
        """Order-independent state for cross-process merging (no
        ``last`` — see :meth:`Timer.merge_state`)."""
        with self._lock:
            return {
                "count": self.count,
                "total_fp": self.total_fp,
                "min": self.min if self.count else None,
                "max": self.max if self.count else None,
                "hist": self.histogram.merge_state(),
            }


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclasses.dataclass
class Span:
    """One (possibly still open) node of the trace tree.

    ``start_us``/``dur_us`` are microseconds relative to the registry's
    epoch (reset on :meth:`Registry.reset`) — the Chrome trace-event
    convention.
    """

    name: str
    span_id: int
    parent_id: Optional[int]
    tid: int
    start_us: float = 0.0
    dur_us: float = 0.0
    attrs: Dict[str, Any] = dataclasses.field(default_factory=dict)
    trace_id: Optional[str] = None

    def set_attr(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-span (window counts, ...)."""
        self.attrs.update(attrs)
        return self

    def as_dict(self) -> Dict[str, Any]:
        doc = {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "tid": self.tid,
            "start_us": self.start_us,
            "dur_us": self.dur_us,
            "attrs": dict(self.attrs),
        }
        if self.trace_id is not None:
            doc["trace_id"] = self.trace_id
        return doc


class _NullSpan:
    """Inert span handed out while the registry is disabled."""

    __slots__ = ()

    def set_attr(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()

# Hot loops can emit millions of spans; keep a bounded window and count
# the overflow instead of growing without limit.
DEFAULT_MAX_SPANS = 100_000


class Registry:
    """Named collection of timers, counters, and completed spans.

    Thread-safe for concurrent ``span``/``time``/``count`` calls;
    detection servers can share one registry across worker threads.  Each
    thread keeps its own span stack, so parent/child links cross threads
    only where a caller hands its span over explicitly (:meth:`adopt`).
    """

    def __init__(self, name: str = "obs",
                 max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.name = name
        self.enabled = True
        self.max_spans = max_spans
        self._timers: Dict[str, Timer] = {}
        self._counters: Dict[str, Counter] = {}
        self._distributions: Dict[str, Distribution] = {}
        self._spans: List[Span] = []
        self._dropped_spans = 0
        self._lock = threading.Lock()
        self._tls = threading.local()
        self._span_ids = itertools.count(1)
        self._epoch = time.perf_counter()
        # Optional live-series sink (repro.obs.series.SeriesRecorder):
        # when attached, every timer/counter/distribution recording is
        # mirrored into sliding windows.  One attribute read + None
        # check when absent, so the default path pays nothing.
        self._series: Optional[Any] = None

    # -- accessors ------------------------------------------------------
    def timer(self, name: str) -> Timer:
        # Lock-free hit path: dict reads are atomic under the GIL, and
        # entries are never deleted outside reset().
        timer = self._timers.get(name)
        if timer is None:
            with self._lock:
                timer = self._timers.get(name)
                if timer is None:
                    timer = self._timers[name] = Timer(name)
        return timer

    def counter(self, name: str) -> Counter:
        counter = self._counters.get(name)
        if counter is None:
            with self._lock:
                counter = self._counters.get(name)
                if counter is None:
                    counter = self._counters[name] = Counter(name)
        return counter

    def distribution(self, name: str) -> Distribution:
        dist = self._distributions.get(name)
        if dist is None:
            with self._lock:
                dist = self._distributions.get(name)
                if dist is None:
                    dist = self._distributions[name] = Distribution(name)
        return dist

    @property
    def timers(self) -> Dict[str, Timer]:
        with self._lock:
            return dict(self._timers)

    @property
    def counters(self) -> Dict[str, Counter]:
        with self._lock:
            return dict(self._counters)

    @property
    def distributions(self) -> Dict[str, Distribution]:
        with self._lock:
            return dict(self._distributions)

    @property
    def spans(self) -> List[Span]:
        with self._lock:
            return list(self._spans)

    @property
    def dropped_spans(self) -> int:
        return self._dropped_spans

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[Span]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, **attrs: Any) -> Iterator[Span]:
        """Open a named child span of whatever span this thread is in.

        Yields the :class:`Span` so the block can ``set_attr(...)``
        values it only learns mid-flight.  On exit the duration feeds the
        stage's :class:`Timer` (so percentiles aggregate across calls)
        and the completed span joins the trace buffer.
        """
        if not self.enabled:
            yield _NULL_SPAN
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        ctx = current_context()
        if parent is not None:
            parent_id: Optional[int] = parent.span_id
        elif ctx is not None:
            # Queue-hop re-parenting: a thread-root span opened under a
            # request context hangs off the request's root span, so the
            # trace tree survives thread-pool handoffs.
            parent_id = ctx.parent_span_id
        else:
            parent_id = None
        span = Span(
            name=name,
            span_id=next(self._span_ids),
            parent_id=parent_id,
            tid=threading.get_ident(),
            attrs=dict(attrs) if attrs else {},
            trace_id=ctx.trace_id if ctx is not None else None,
        )
        stack.append(span)
        start = time.perf_counter()
        try:
            yield span
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            span.start_us = (start - self._epoch) * 1e6
            span.dur_us = elapsed * 1e6
            self.timer(name).record(elapsed)
            series = self._series
            if series is not None:
                series.record_timer(name, elapsed)
            with self._lock:
                if len(self._spans) < self.max_spans:
                    self._spans.append(span)
                else:
                    self._dropped_spans += 1

    def current_span(self) -> Optional[Span]:
        """The innermost span this thread holds open, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @contextlib.contextmanager
    def adopt(self, parent: Optional[Span]) -> Iterator[None]:
        """Open this thread's spans as children of ``parent``.

        For work handed to another thread mid-span (the forward pool):
        the caller passes :meth:`current_span`, and spans the helper
        thread opens inside the block hang under it instead of
        becoming roots.  ``parent`` itself is not re-recorded.
        """
        if parent is None:
            yield
            return
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def record_span(self, name: str, start_s: float, end_s: float, *,
                    trace_id: Optional[str] = None,
                    parent_id: Optional[int] = None,
                    attrs: Optional[Dict[str, Any]] = None) -> Optional[Span]:
        """Record an externally-timed interval as a completed span.

        For intervals whose endpoints straddle threads — an engine
        job's queue wait is timed from the submitter's ``put`` to the
        worker's flush — no ``with`` block can wrap them, so the caller
        passes the two ``time.perf_counter()`` readings (and the
        captured request's ``trace_id``/``parent_id``) directly.  The
        interval feeds the stage Timer and series exactly like a
        :meth:`span` block.
        """
        if not self.enabled:
            return None
        elapsed = max(0.0, end_s - start_s)
        span = Span(
            name=name,
            span_id=next(self._span_ids),
            parent_id=parent_id,
            tid=threading.get_ident(),
            start_us=(start_s - self._epoch) * 1e6,
            dur_us=elapsed * 1e6,
            attrs=dict(attrs) if attrs else {},
            trace_id=trace_id,
        )
        self.timer(name).record(elapsed)
        series = self._series
        if series is not None:
            series.record_timer(name, elapsed)
        with self._lock:
            if len(self._spans) < self.max_spans:
                self._spans.append(span)
            else:
                self._dropped_spans += 1
        return span

    def time(self, name: str) -> "contextlib.AbstractContextManager[Span]":
        """Attribute-less :meth:`span` — kept for the historical call
        sites; timed blocks still join the span tree."""
        return self.span(name)

    def count(self, name: str, amount: float = 1) -> None:
        if self.enabled:
            self.counter(name).add(amount)
            series = self._series
            if series is not None:
                series.record_counter(name, amount)

    def observe(self, name: str, value: float) -> None:
        """Record one sample of a value stream (queue depth, batch size)."""
        if self.enabled:
            self.distribution(name).record(value)
            series = self._series
            if series is not None:
                series.record_value(name, value)

    # -- live series ----------------------------------------------------
    def attach_series(self, series: Any) -> Any:
        """Mirror every recording into a sliding-window series sink
        (:class:`repro.obs.series.SeriesRecorder`).  Returns the sink.
        Pass ``None`` to detach."""
        self._series = series
        return series

    @property
    def series(self) -> Optional[Any]:
        return self._series

    def traced(self, name: Optional[str] = None) -> Callable:
        """Decorator timing every call to the wrapped function.

        The stage name defaults to the function's qualified name.  When
        the registry is disabled the wrapper is a plain passthrough — no
        lock, no clock, no span bookkeeping.
        """

        def decorate(func: Callable) -> Callable:
            stage = name or f"{func.__module__.split('.')[-1]}.{func.__qualname__}"

            @functools.wraps(func)
            def wrapper(*args, **kwargs):
                if not self.enabled:
                    return func(*args, **kwargs)
                with self.span(stage):
                    return func(*args, **kwargs)

            return wrapper

        return decorate

    # -- inspection -----------------------------------------------------
    def snapshot(self) -> Dict[str, Dict[str, float]]:
        """Plain-dict view of all stats (stable for serialization/tests).

        Strict-JSON safe: never-recorded timers report ``min_s = 0.0``
        rather than leaking ``Infinity``.
        """
        with self._lock:
            return {
                "timers": {n: t.stats() for n, t in self._timers.items()},
                "counters": {n: c.value for n, c in self._counters.items()},
                "distributions": {
                    n: d.stats() for n, d in self._distributions.items()
                },
            }

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """Snapshot plus the span buffer — the ``obs`` block that
        :mod:`repro.obs.telemetry` embeds in ``BENCH_*.json``."""
        doc = self.snapshot()
        with self._lock:
            doc["spans"] = [s.as_dict() for s in self._spans]
            doc["dropped_spans"] = self._dropped_spans
        return doc

    def spans_for_trace(self, trace_id: str) -> List[Span]:
        """All buffered spans stamped with ``trace_id`` (any thread)."""
        with self._lock:
            return [s for s in self._spans if s.trace_id == trace_id]

    def span_tree(self) -> List[Dict[str, Any]]:
        """Nested view of the span buffer (see :func:`repro.obs.trace.span_tree`)."""
        from repro.obs.trace import span_tree

        return span_tree(self.spans)

    def report(self, title: Optional[str] = None) -> str:
        """Human-readable per-stage latency table, sorted by total time."""
        lines = [f"== {title or self.name}: per-stage timings =="]
        timers = sorted(self.timers.values(), key=lambda t: -t.total_s)
        if timers:
            width = max(len(t.name) for t in timers)
            lines.append(
                f"{'stage'.ljust(width)} | {'calls':>6} | {'total ms':>10} | "
                f"{'mean ms':>10} | {'p50 ms':>10} | {'p99 ms':>10} | "
                f"{'max ms':>10}"
            )
            for t in timers:
                lines.append(
                    f"{t.name.ljust(width)} | {t.calls:>6d} | "
                    f"{t.total_s * 1e3:>10.3f} | {t.mean_s * 1e3:>10.3f} | "
                    f"{t.p50_s * 1e3:>10.3f} | {t.p99_s * 1e3:>10.3f} | "
                    f"{t.max_s * 1e3:>10.3f}"
                )
        else:
            lines.append("(no timers recorded)")
        counters = sorted(self.counters.values(), key=lambda c: c.name)
        if counters:
            width = max(len(c.name) for c in counters)
            lines.append("-- counters --")
            for c in counters:
                amount = int(c.value) if float(c.value).is_integer() else c.value
                lines.append(f"{c.name.ljust(width)} | {amount}")
        distributions = sorted(self.distributions.values(),
                               key=lambda d: d.name)
        if distributions:
            width = max(len(d.name) for d in distributions)
            lines.append("-- distributions --")
            lines.append(
                f"{'name'.ljust(width)} | {'count':>6} | {'mean':>8} | "
                f"{'p50':>8} | {'p99':>8} | {'min':>8} | {'max':>8}"
            )
            for d in distributions:
                stats = d.stats()
                lines.append(
                    f"{d.name.ljust(width)} | {d.count:>6d} | "
                    f"{stats['mean']:>8.2f} | {stats['p50']:>8.2f} | "
                    f"{stats['p99']:>8.2f} | {stats['min']:>8.2f} | "
                    f"{stats['max']:>8.2f}"
                )
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._timers.clear()
            self._counters.clear()
            self._distributions.clear()
            self._spans.clear()
            self._dropped_spans = 0
            self._epoch = time.perf_counter()
        series = self._series
        if series is not None:
            series.reset()


_GLOBAL = Registry("repro")


def get_registry() -> Registry:
    """The process-wide registry the hot path records into."""
    return _GLOBAL


def install_registry(registry: Registry) -> Registry:
    """Replace the process-wide registry; returns the previous one.

    Shard worker bootstrap installs a *fresh* registry after fork: the
    inherited one carries the parent's accumulated metrics (which would
    double-count in merged snapshots) and locks whose state at fork
    time is not guaranteed clean.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = registry
    return previous


def traced(name: Optional[str] = None) -> Callable:
    """``@traced("stage")`` — time calls into the global registry."""
    return _GLOBAL.traced(name)
