"""Metric export: mergeable snapshots, Prometheus text, live HTTP.

Three surfaces, all stdlib-only:

* **Mergeable snapshot protocol** — :func:`mergeable_snapshot` freezes
  a registry (and optionally its attached series) into a JSON document
  of pure integer accumulators and sparse histogram buckets;
  :func:`merge_snapshots` combines any number of such documents.  The
  merge is **associative and commutative and bit-exact**: totals are
  fixed-point integers accumulated at record time, bucket counts are
  integers, and min/max are exact observed values, so
  ``merge(a, merge(b, c)) == merge(merge(a, b), c)`` as plain dicts.
  This is the contract the future sharded serving tier aggregates over
  (DESIGN.md): each engine process exports its shard snapshot and any
  reducer in any order produces the same fleet-wide document.
* **Prometheus text exposition** — :func:`prometheus_text` renders a
  snapshot (plus optional live windowed gauges) in the Prometheus 0.0.4
  text format for scraping.
* **HTTP surface** — :class:`MetricsServer` serves ``/metrics``
  (Prometheus), ``/healthz``, ``/slo`` (burn-rate status), and
  ``/snapshot`` (the mergeable document, which is also what
  ``repro obs top`` polls and diffs) from a daemon thread.
"""

from __future__ import annotations

import http.server
import json
import threading
import time
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.registry import (
    FP_SCALE,
    Histogram,
    Registry,
    dist_state_stats,
    get_registry,
    timer_state_stats,
)
from repro.obs.series import merge_series_states

__all__ = [
    "MERGE_SCHEMA",
    "MetricsServer",
    "mergeable_snapshot",
    "merge_snapshots",
    "prometheus_text",
    "snapshot_delta",
]

MERGE_SCHEMA = "repro.obs.merge/1"


# ----------------------------------------------------------------------
# Mergeable snapshot protocol
# ----------------------------------------------------------------------
def mergeable_snapshot(registry: Optional[Registry] = None,
                       series: Any = None) -> Dict[str, Any]:
    """Freeze a registry into the order-independent merge document."""
    registry = registry or get_registry()
    if series is None:
        series = registry.series
    doc: Dict[str, Any] = {"schema": MERGE_SCHEMA, **registry.merge_state()}
    if series is not None:
        doc["series"] = series.merge_state()
    return doc


def _check_schema(doc: Dict[str, Any]) -> None:
    schema = doc.get("schema")
    if schema != MERGE_SCHEMA:
        raise ValueError(
            f"not a mergeable snapshot (schema={schema!r}, "
            f"expected {MERGE_SCHEMA!r})")


def _merge_hist_states(a: Dict[str, Any], b: Dict[str, Any]) -> Dict[str, Any]:
    return Histogram.from_state(a).merge_in(b).merge_state()


def _merge_timer_states(a: Optional[Dict[str, Any]],
                        b: Dict[str, Any]) -> Dict[str, Any]:
    if a is None:
        return b
    mins = [m for m in (a["min_s"], b["min_s"]) if m is not None]
    maxs = [m for m in (a["max_s"], b["max_s"]) if m is not None]
    return {
        "calls": a["calls"] + b["calls"],
        "total_ns": a["total_ns"] + b["total_ns"],
        "min_s": min(mins) if mins else None,
        "max_s": max(maxs) if maxs else None,
        "hist": _merge_hist_states(a["hist"], b["hist"]),
    }


def _merge_dist_states(a: Optional[Dict[str, Any]],
                       b: Dict[str, Any]) -> Dict[str, Any]:
    if a is None:
        return b
    mins = [m for m in (a["min"], b["min"]) if m is not None]
    maxs = [m for m in (a["max"], b["max"]) if m is not None]
    return {
        "count": a["count"] + b["count"],
        "total_fp": a["total_fp"] + b["total_fp"],
        "min": min(mins) if mins else None,
        "max": max(maxs) if maxs else None,
        "hist": _merge_hist_states(a["hist"], b["hist"]),
    }


def merge_snapshots(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Combine per-shard mergeable snapshots into one aggregate.

    Associative, commutative, bit-exact (see module docstring); the
    result is itself a valid input to further merges, so shard trees of
    any shape reduce to the identical document.
    """
    snapshots = list(snapshots)
    for doc in snapshots:
        _check_schema(doc)
    out: Dict[str, Any] = {
        "schema": MERGE_SCHEMA,
        "timers": {},
        "counters": {},
        "distributions": {},
        "dropped_spans": 0,
    }
    series_states: List[Dict[str, Any]] = []
    for doc in snapshots:
        for name, state in doc["timers"].items():
            out["timers"][name] = _merge_timer_states(
                out["timers"].get(name), state)
        for name, state in doc["counters"].items():
            merged = out["counters"].setdefault(name, {"value_fp": 0})
            merged["value_fp"] += state["value_fp"]
        for name, state in doc["distributions"].items():
            out["distributions"][name] = _merge_dist_states(
                out["distributions"].get(name), state)
        out["dropped_spans"] += doc.get("dropped_spans", 0)
        if doc.get("series") is not None:
            series_states.append(doc["series"])
    if series_states:
        out["series"] = merge_series_states(series_states)
    return out


def _delta_hist(cur: Dict[str, Any], prev: Dict[str, Any]) -> Dict[str, Any]:
    counts = {int(i): c for i, c in cur["buckets"]}
    for index, count in prev["buckets"]:
        counts[int(index)] = counts.get(int(index), 0) - count
    buckets = [[i, max(0, c)] for i, c in sorted(counts.items()) if c > 0]
    delta_count = max(0, cur["count"] - prev["count"])
    # min/max of the delta interval are unknowable from endpoints; keep
    # the current observed envelope so percentile clamping stays sane.
    return {"count": delta_count, "buckets": buckets,
            "min": cur["min"], "max": cur["max"]}


def snapshot_delta(current: Dict[str, Any],
                   previous: Dict[str, Any]) -> Dict[str, Any]:
    """What happened *between* two snapshots of one monotone process.

    ``repro obs top`` polls ``/snapshot`` and renders interval rates and
    percentiles from these deltas.  Only meaningful when both documents
    come from the same uninterrupted process (counters monotone);
    negative deltas (a registry reset in between) clamp to zero.
    """
    _check_schema(current)
    _check_schema(previous)
    out: Dict[str, Any] = {
        "schema": MERGE_SCHEMA,
        "timers": {},
        "counters": {},
        "distributions": {},
        "dropped_spans": max(
            0, current.get("dropped_spans", 0) - previous.get("dropped_spans", 0)),
    }
    for name, cur in current["timers"].items():
        prev = previous["timers"].get(name)
        if prev is None:
            out["timers"][name] = cur
            continue
        out["timers"][name] = {
            "calls": max(0, cur["calls"] - prev["calls"]),
            "total_ns": max(0, cur["total_ns"] - prev["total_ns"]),
            "min_s": cur["min_s"],
            "max_s": cur["max_s"],
            "hist": _delta_hist(cur["hist"], prev["hist"]),
        }
    for name, cur in current["counters"].items():
        prev = previous["counters"].get(name, {"value_fp": 0})
        out["counters"][name] = {
            "value_fp": max(0, cur["value_fp"] - prev["value_fp"])}
    for name, cur in current["distributions"].items():
        prev = previous["distributions"].get(name)
        if prev is None:
            out["distributions"][name] = cur
            continue
        out["distributions"][name] = {
            "count": max(0, cur["count"] - prev["count"]),
            "total_fp": max(0, cur["total_fp"] - prev["total_fp"]),
            "min": cur["min"],
            "max": cur["max"],
            "hist": _delta_hist(cur["hist"], prev["hist"]),
        }
    return out


# ----------------------------------------------------------------------
# Prometheus text exposition
# ----------------------------------------------------------------------
def _escape_label(value: str) -> str:
    return (value.replace("\\", r"\\")
            .replace("\n", r"\n")
            .replace('"', r'\"'))


def _metric_name(name: str) -> str:
    out = []
    for ch in name:
        out.append(ch if ch.isalnum() or ch == "_" else "_")
    metric = "".join(out)
    if metric and metric[0].isdigit():
        metric = "_" + metric
    return metric


def prometheus_text(registry: Optional[Registry] = None, *,
                    snapshot: Optional[Dict[str, Any]] = None,
                    series: Any = None,
                    windows: Iterable[float] = (10.0, 60.0),
                    namespace: str = "repro") -> str:
    """Render a registry (or a pre-merged snapshot) as Prometheus text.

    Timers and distributions become summaries (quantiles from the
    log-bucket histograms, ~12 % relative error), counters become
    counters, and an attached series contributes windowed rate/p99
    gauges so a scrape sees "now", not just "since boot".
    """
    if snapshot is None:
        snapshot = mergeable_snapshot(registry, series=series)
    if series is None and registry is not None:
        series = registry.series
    lines: List[str] = []

    timer_metric = f"{namespace}_stage_duration_seconds"
    lines.append(f"# HELP {timer_metric} Stage wall-clock duration summary.")
    lines.append(f"# TYPE {timer_metric} summary")
    for name in sorted(snapshot["timers"]):
        stats = timer_state_stats(snapshot["timers"][name])
        label = f'stage="{_escape_label(name)}"'
        for q, key in ((0.5, "p50_s"), (0.9, "p90_s"), (0.99, "p99_s")):
            lines.append(
                f'{timer_metric}{{{label},quantile="{q}"}} {stats[key]:.9g}')
        lines.append(f'{timer_metric}_sum{{{label}}} {stats["total_s"]:.9g}')
        lines.append(f'{timer_metric}_count{{{label}}} {stats["calls"]}')

    counter_metric = f"{namespace}_events_total"
    lines.append(f"# HELP {counter_metric} Accumulated event counters.")
    lines.append(f"# TYPE {counter_metric} counter")
    for name in sorted(snapshot["counters"]):
        value = snapshot["counters"][name]["value_fp"] / FP_SCALE
        lines.append(
            f'{counter_metric}{{name="{_escape_label(name)}"}} {value:.9g}')

    dist_metric = f"{namespace}_value_summary"
    lines.append(f"# HELP {dist_metric} Value-stream summary "
                 f"(batch sizes, queue depths, ...).")
    lines.append(f"# TYPE {dist_metric} summary")
    for name in sorted(snapshot["distributions"]):
        stats = dist_state_stats(snapshot["distributions"][name])
        label = f'name="{_escape_label(name)}"'
        for q, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            lines.append(
                f'{dist_metric}{{{label},quantile="{q}"}} {stats[key]:.9g}')
        lines.append(f'{dist_metric}_sum{{{label}}} {stats["total"]:.9g}')
        lines.append(f'{dist_metric}_count{{{label}}} {stats["count"]}')

    dropped = f"{namespace}_dropped_spans_total"
    lines.append(f"# HELP {dropped} Spans dropped by the bounded buffer.")
    lines.append(f"# TYPE {dropped} counter")
    lines.append(f"{dropped} {snapshot.get('dropped_spans', 0)}")

    if series is not None:
        live = series.snapshot(windows=windows)
        rate_metric = f"{namespace}_stage_window_rate"
        p99_metric = f"{namespace}_stage_window_p99_seconds"
        lines.append(f"# HELP {rate_metric} Windowed stage call rate "
                     f"(calls per second).")
        lines.append(f"# TYPE {rate_metric} gauge")
        lines.append(f"# HELP {p99_metric} Windowed stage p99 duration.")
        lines.append(f"# TYPE {p99_metric} gauge")
        for window, tables in live["windows"].items():
            wlabel = f'window="{_escape_label(window)}"'
            for name in sorted(tables["timers"]):
                stats = tables["timers"][name]
                label = f'stage="{_escape_label(name)}",{wlabel}'
                lines.append(
                    f'{rate_metric}{{{label}}} {stats["rate_per_s"]:.9g}')
                lines.append(f'{p99_metric}{{{label}}} {stats["p99"]:.9g}')
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# HTTP surface
# ----------------------------------------------------------------------
class MetricsServer:
    """Serve ``/metrics``, ``/healthz``, ``/slo``, ``/snapshot``.

    A :class:`~http.server.ThreadingHTTPServer` on a daemon thread:
    start it next to a running :class:`~repro.serve.engine
    .DetectionEngine` and scrape while traffic flows.  ``slos`` is an
    optional list of :class:`repro.obs.slo.SLO` evaluated live per
    request to ``/slo``.

    ``port=0`` (the default) binds an ephemeral port — the bind happens
    in the constructor and :attr:`port`/:attr:`url` report the actual
    kernel-chosen value, so N shard processes on one host never collide
    and each can report its real endpoint back to the front-end
    aggregator.

    ``snapshot_fn`` turns the server into an *aggregation endpoint*:
    when provided, ``/snapshot`` serves ``snapshot_fn()`` instead of
    this process's registry and ``/metrics`` renders the same document.
    The shard front-end uses this with
    ``lambda: merge_snapshots(shard_documents)`` so its ``/snapshot``
    is bit-identical to the merge of the individual shard snapshots.
    """

    def __init__(self, registry: Optional[Registry] = None, *,
                 host: str = "127.0.0.1", port: int = 0,
                 series: Any = None,
                 slos: Optional[List[Any]] = None,
                 snapshot_fn: Optional[Any] = None) -> None:
        self.registry = registry or get_registry()
        self.series = series if series is not None else self.registry.series
        self.slos = slos
        self.snapshot_fn = snapshot_fn
        self._started_s = time.time()
        server = self

        class Handler(http.server.BaseHTTPRequestHandler):
            def log_message(self, fmt: str, *args: Any) -> None:
                pass  # keep scrapes out of stderr

            def _send(self, status: int, content_type: str,
                      body: bytes) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(body)))
                self.end_headers()
                self.wfile.write(body)

            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                path = self.path.split("?", 1)[0]
                try:
                    if path == "/metrics":
                        if server.snapshot_fn is not None:
                            body = prometheus_text(
                                snapshot=server.snapshot_fn()).encode()
                        else:
                            body = prometheus_text(
                                server.registry,
                                series=server.series).encode()
                        self._send(200,
                                   "text/plain; version=0.0.4; charset=utf-8",
                                   body)
                    elif path == "/healthz":
                        doc = {
                            "status": "ok",
                            "uptime_s": time.time() - server._started_s,
                            "dropped_spans": server.registry.dropped_spans,
                        }
                        self._send(200, "application/json",
                                   json.dumps(doc).encode())
                    elif path == "/slo":
                        from repro.obs.slo import default_slos, evaluate_live

                        slos = server.slos or default_slos()
                        statuses = evaluate_live(
                            slos, server.registry, series=server.series)
                        doc = {
                            "ok": all(s.ok for s in statuses),
                            "slos": [s.as_dict() for s in statuses],
                        }
                        self._send(200, "application/json",
                                   json.dumps(doc).encode())
                    elif path == "/snapshot":
                        if server.snapshot_fn is not None:
                            doc = server.snapshot_fn()
                        else:
                            doc = mergeable_snapshot(
                                server.registry, series=server.series)
                        self._send(200, "application/json",
                                   json.dumps(doc).encode())
                    else:
                        self._send(404, "text/plain", b"not found\n")
                except BrokenPipeError:  # client went away mid-write
                    pass

        self._httpd = http.server.ThreadingHTTPServer((host, port), Handler)
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_address[1]

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "MetricsServer":
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="repro-obs-metrics",
            daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._httpd.shutdown()
        self._httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc: Any) -> None:
        self.stop()
