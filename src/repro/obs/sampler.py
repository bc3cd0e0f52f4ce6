"""Tail-based exemplar sampling and a flight-recorder ring buffer.

Keeping every span tree forever is exactly what the bounded span buffer
exists to prevent; keeping *none* leaves an operator staring at a p99
with no example request to explain it.  The middle path is tail-based
sampling: decide which traces to retain **after** seeing how they ended,
and keep only the interesting tails —

* the K slowest requests (a bounded min-heap on duration),
* every shed / escalated / errored request (bounded per-reason deques),

each retained as an :class:`Exemplar` whose span tree is resolved from
the registry's buffer via the request's trace_id.

The :class:`FlightRecorder` is the companion crash artifact: a
constant-memory ring of recent routing/engine events that
:meth:`FlightRecorder.dump` writes as replayable JSON when something
goes wrong — an engine batch raises, or a shed storm starts
(:class:`ShedStormDetector`).  ``repro.serve.engine`` and
``repro.cascade.router`` call into the installed sampler through
:func:`get_sampler`, which returns ``None`` unless one was installed,
so the un-instrumented hot path pays one global read per batch.
"""

from __future__ import annotations

import collections
import dataclasses
import heapq
import json
import os
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Exemplar",
    "ExemplarSampler",
    "FlightRecorder",
    "ShedStormDetector",
    "get_sampler",
    "install_sampler",
]

FLIGHT_SCHEMA = "repro.obs.flight/1"

REASON_SLOW = "slow"
REASON_SHED = "shed"
REASON_ESCALATED = "escalated"
REASON_ERROR = "error"


@dataclasses.dataclass
class Exemplar:
    """One retained request: identity, why it was kept, its span tree."""

    trace_id: str
    reason: str
    value: float = 0.0
    meta: Dict[str, Any] = dataclasses.field(default_factory=dict)
    spans: List[Dict[str, Any]] = dataclasses.field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "reason": self.reason,
            "value": self.value,
            "meta": dict(self.meta),
            "spans": list(self.spans),
        }


class ShedStormDetector:
    """Flag when the shed fraction over a sliding window crosses a bar.

    ``update(shed)`` returns True exactly once per storm — on the
    crossing — and re-arms only after the window drops back below the
    threshold, so one storm produces one flight-recorder artifact, not
    one per shed request.
    """

    def __init__(self, window: int = 64, threshold: float = 0.5,
                 min_events: int = 16) -> None:
        self.window = collections.deque(maxlen=max(1, window))
        self.threshold = threshold
        self.min_events = min_events
        self._in_storm = False
        self._lock = threading.Lock()

    def update(self, shed: bool) -> bool:
        with self._lock:
            self.window.append(bool(shed))
            if len(self.window) < self.min_events:
                return False
            fraction = sum(self.window) / len(self.window)
            if fraction >= self.threshold:
                if not self._in_storm:
                    self._in_storm = True
                    return True
            else:
                self._in_storm = False
            return False

    @property
    def shed_fraction(self) -> float:
        with self._lock:
            return sum(self.window) / len(self.window) if self.window else 0.0


class FlightRecorder:
    """Constant-memory ring of recent events, dumpable as JSON."""

    def __init__(self, capacity: int = 4096) -> None:
        self._events = collections.deque(maxlen=max(1, capacity))
        self._lock = threading.Lock()
        self.dumps: List[str] = []

    def record(self, kind: str, **fields: Any) -> None:
        event = {"kind": kind, "t_s": time.time()}
        event.update(fields)
        with self._lock:
            self._events.append(event)

    def events(self) -> List[Dict[str, Any]]:
        with self._lock:
            return list(self._events)

    def dump(self, directory: str, reason: str,
             registry: Any = None,
             exemplars: Iterable[Exemplar] = ()) -> str:
        """Write the ring (plus context) as a replayable JSON artifact."""
        os.makedirs(directory, exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        safe_reason = "".join(c if c.isalnum() or c in "-_" else "_"
                              for c in reason)
        path = os.path.join(
            directory, f"flight_{safe_reason}_{stamp}_{os.getpid()}.json")
        doc: Dict[str, Any] = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "written_at_s": time.time(),
            "events": self.events(),
            "exemplars": [e.as_dict() for e in exemplars],
        }
        if registry is not None:
            from repro.obs.export import mergeable_snapshot

            doc["merge"] = mergeable_snapshot(registry)
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
        os.replace(tmp, path)
        self.dumps.append(path)
        return path


class ExemplarSampler:
    """Tail-based retention of interesting traces (see module doc).

    Wire it in with :func:`install_sampler`; the engine and cascade
    router then feed it route decisions, per-request durations, and
    errors.  ``artifact_dir`` (or ``REPRO_OBS_DIR``) is where flight
    artifacts land on engine errors and shed storms.
    """

    def __init__(self, *, slow_k: int = 8, per_reason: int = 64,
                 artifact_dir: Optional[str] = None,
                 storm_window: int = 64, storm_threshold: float = 0.5,
                 storm_min_events: int = 16,
                 flight_capacity: int = 4096) -> None:
        self.slow_k = slow_k
        self.per_reason = per_reason
        self.artifact_dir = (artifact_dir
                             or os.environ.get("REPRO_OBS_DIR", "."))
        self.flight = FlightRecorder(capacity=flight_capacity)
        self.storm = ShedStormDetector(window=storm_window,
                                       threshold=storm_threshold,
                                       min_events=storm_min_events)
        # Min-heap of (duration, seq, Exemplar): the root is the fastest
        # of the retained slowest, evicted first.
        self._slow: List[Any] = []
        self._seq = 0
        self._by_reason: Dict[str, collections.deque] = {}
        self._by_trace: Dict[str, Exemplar] = {}
        self._lock = threading.Lock()

    # -- retention ------------------------------------------------------
    def _retain(self, exemplar: Exemplar) -> None:
        dq = self._by_reason.setdefault(
            exemplar.reason, collections.deque(maxlen=self.per_reason))
        if len(dq) == dq.maxlen:
            evicted = dq[0]
            if self._by_trace.get(evicted.trace_id) is evicted:
                del self._by_trace[evicted.trace_id]
        dq.append(exemplar)
        self._by_trace[exemplar.trace_id] = exemplar

    def offer(self, trace_id: Optional[str], reason: str, *,
              value: float = 0.0, meta: Optional[Dict[str, Any]] = None,
              registry: Any = None) -> Optional[Exemplar]:
        """Retain a trace for a reason; resolves spans if a registry is
        passed (or later via :meth:`resolve`)."""
        if not trace_id:
            return None
        exemplar = Exemplar(trace_id=trace_id, reason=reason, value=value,
                            meta=dict(meta) if meta else {})
        if registry is not None:
            exemplar.spans = [s.as_dict()
                              for s in registry.spans_for_trace(trace_id)]
        with self._lock:
            self._retain(exemplar)
        return exemplar

    def observe_request(self, trace_id: Optional[str], duration_s: float,
                        meta: Optional[Dict[str, Any]] = None) -> None:
        """Consider a completed request for the slowest-K pool."""
        if not trace_id:
            return
        exemplar = Exemplar(trace_id=trace_id, reason=REASON_SLOW,
                            value=duration_s, meta=dict(meta) if meta else {})
        with self._lock:
            self._seq += 1
            entry = (duration_s, self._seq, exemplar)
            if len(self._slow) < self.slow_k:
                heapq.heappush(self._slow, entry)
            elif duration_s > self._slow[0][0]:
                _, _, evicted = heapq.heapreplace(self._slow, entry)
                if self._by_trace.get(evicted.trace_id) is evicted:
                    del self._by_trace[evicted.trace_id]
            else:
                return
            self._by_trace.setdefault(trace_id, exemplar)

    def observe_route(self, decisions: Iterable[Any],
                      registry: Any = None) -> None:
        """Feed routing decisions: retain shed/escalated traces, track
        storms, and dump a flight artifact when one starts."""
        storm_started = False
        for decision in decisions:
            route = getattr(decision, "route", None)
            trace_id = getattr(decision, "trace_id", None)
            self.flight.record(
                "route", route=route, reason=getattr(decision, "reason", None),
                margin=getattr(decision, "margin", None), trace_id=trace_id,
                scene_index=getattr(decision, "scene_index", None))
            if route == "shed":
                self.offer(trace_id, REASON_SHED,
                           meta={"reason": getattr(decision, "reason", None)},
                           registry=registry)
            elif route == "escalated":
                self.offer(trace_id, REASON_ESCALATED,
                           meta={"reason": getattr(decision, "reason", None)},
                           registry=registry)
            if self.storm.update(route == "shed"):
                storm_started = True
        if storm_started:
            self.flight.record("shed_storm",
                               shed_fraction=self.storm.shed_fraction)
            self.flight.dump(self.artifact_dir, "shed_storm",
                             registry=registry,
                             exemplars=self.exemplars(REASON_SHED))

    def record_engine_error(self, error: BaseException, *,
                            scenes: int = 0, registry: Any = None,
                            trace_ids: Iterable[Optional[str]] = ()) -> str:
        """Log a failed engine batch and dump the flight ring."""
        kept = []
        for trace_id in trace_ids:
            exemplar = self.offer(trace_id, REASON_ERROR,
                                  meta={"error": repr(error)},
                                  registry=registry)
            if exemplar is not None:
                kept.append(exemplar)
        self.flight.record("engine_error", error=repr(error), scenes=scenes)
        return self.flight.dump(self.artifact_dir, "engine_error",
                                registry=registry, exemplars=kept)

    # -- queries --------------------------------------------------------
    def exemplars(self, reason: Optional[str] = None) -> List[Exemplar]:
        with self._lock:
            if reason == REASON_SLOW:
                return [e for _, _, e in sorted(self._slow, reverse=True)]
            if reason is not None:
                return list(self._by_reason.get(reason, ()))
            out = [e for _, _, e in sorted(self._slow, reverse=True)]
            for dq in self._by_reason.values():
                out.extend(dq)
            return out

    def lookup(self, trace_id: str) -> Optional[Exemplar]:
        with self._lock:
            return self._by_trace.get(trace_id)

    def resolve(self, registry: Any) -> None:
        """(Re-)resolve retained span trees from the registry buffer —
        call after in-flight work finishes so late spans (engine
        execute, cascade routing) join their exemplars."""
        for exemplar in self.exemplars():
            spans = registry.spans_for_trace(exemplar.trace_id)
            if spans:
                exemplar.spans = [s.as_dict() for s in spans]


_SAMPLER: Optional[ExemplarSampler] = None
_SAMPLER_LOCK = threading.Lock()


def get_sampler() -> Optional[ExemplarSampler]:
    """The installed sampler, or None (the default: zero overhead)."""
    return _SAMPLER


def install_sampler(sampler: Optional[ExemplarSampler]) -> \
        Optional[ExemplarSampler]:
    """Install (or, with None, remove) the process-wide sampler.

    Returns the previously installed sampler so callers can restore it:

        previous = install_sampler(ExemplarSampler())
        try: ...
        finally: install_sampler(previous)
    """
    global _SAMPLER
    with _SAMPLER_LOCK:
        previous = _SAMPLER
        _SAMPLER = sampler
    return previous
