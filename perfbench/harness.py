"""Shared machinery of the benchmark: statistics, manifest, tracing, oracle.

Nothing here imports :mod:`repro` at module import time, so ``run.py``
can report a missing program cleanly before touching it.
"""

from __future__ import annotations

import contextlib
import ctypes
import dataclasses
import itertools
import json
import os
import platform
import statistics
import subprocess
import threading
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = os.path.join(ROOT, ".perfbench")

# Boxes must match exactly; float-specialist scores may differ by a few
# ulps between a per-scene forward and a fused batch (the program's own
# documented tolerance for float models, ``repro.fuzz.oracles``).
FLOAT_SCORE_ATOL = 1e-5

# Below this many rows a quantized forward counts as a micro-batch.
SMALL_FORWARD_ROWS = 128


def load_config() -> Dict[str, Any]:
    with open(os.path.join(BENCH_DIR, "workloads.json")) as handle:
        return json.load(handle)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def latency_summary(seconds: Iterable[float]) -> Dict[str, float]:
    """Median and tail of latencies given in seconds, reported in ms.

    The tail is the highest percentile with at least ten samples beyond
    it: the sample of rank ``n - 11`` (0-based) in sorted order.
    """
    ordered = sorted(seconds)
    n = len(ordered)
    if n == 0:
        raise ValueError("no latency samples")
    tail_rank = max(0, n - 11)
    return {
        "p50_ms": statistics.median(ordered) * 1e3,
        "tail_ms": ordered[tail_rank] * 1e3,
        "tail_pct": 100.0 * (tail_rank + 1) / n,
        "samples": n,
    }


# ----------------------------------------------------------------------
# host, BLAS and memory
# ----------------------------------------------------------------------
_BLAS_GETTERS = ("scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads")
_BLAS_CONFIGS = ("scipy_openblas_get_config64_", "scipy_openblas_get_config",
                 "openblas_get_config64_", "openblas_get_config")


def _loaded_blas_paths() -> List[str]:
    paths: List[str] = []
    try:
        with open("/proc/self/maps") as maps:
            for line in maps:
                path = line.split()[-1]
                name = os.path.basename(path)
                if "openblas" in name and ".so" in name and path not in paths:
                    paths.append(path)
    except OSError:
        pass
    return paths


def _call(lib, names, restype):
    for name in names:
        func = getattr(lib, name, None)
        if func is not None:
            func.argtypes = []
            func.restype = restype
            return func()
    return None


def blas_info() -> List[Dict[str, Any]]:
    """Every OpenBLAS library this process loaded, with its thread count.

    numpy and scipy each bundle their own copy; the program's imports
    load both.  Read through ``ctypes`` from the already-loaded shared
    objects, so this reports the counts the process actually runs with;
    nothing is set and nothing more is loaded.
    """
    out = []
    for path in _loaded_blas_paths():
        lib = ctypes.CDLL(path)
        config = _call(lib, _BLAS_CONFIGS, ctypes.c_char_p)
        out.append({
            "library": os.path.basename(path),
            "config": config.decode("utf-8", "replace") if config else None,
            "threads": _call(lib, _BLAS_GETTERS, ctypes.c_int),
        })
    return out


def host_kernel_ms(repeats: int = 15) -> float:
    """Median time of a fixed reference kernel, independent of the program.

    A Python dict loop plus single-threaded numpy passes (``tanh`` and a
    multiply over 64k floats): interpreter and vector work, no BLAS, so
    no setting the program makes can change its speed.  Its time tracks
    how fast the host runs when the run measures; a shared host drifts
    by tens of percent over minutes.
    """
    import numpy as np

    x = np.linspace(-2.0, 2.0, 1 << 16, dtype=np.float32)
    out = np.empty_like(x)
    table: Dict[int, int] = {}
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        total = 0
        for i in range(20_000):
            table[i & 255] = i
            total += table.get((i * 7) & 255, 0)
        for _ in range(8):
            np.tanh(x, out=out)
            out *= x
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _proc_kb(path: str, field: str) -> Optional[int]:
    try:
        with open(path) as handle:
            for line in handle:
                if line.startswith(field):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def peak_rss_mb() -> float:
    """High-water resident set of this process, in MiB."""
    kb = _proc_kb("/proc/self/status", "VmHWM:")
    if kb is None:  # no procfs
        import resource

        kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kb / 1024.0


def pss_mb(pid: Any = "self") -> float:
    """Proportional set size of a process, in MiB.

    Private pages count in full; a page shared by several processes
    (a fork's copy-on-write pages) counts as its share, so summing over
    processes counts each page once.  Falls back to the resident set.
    """
    kb = _proc_kb(f"/proc/{pid}/smaps_rollup", "Pss:")
    if kb is None:
        kb = _proc_kb(f"/proc/{pid}/status", "VmRSS:")
    if kb is None:
        raise RuntimeError(f"cannot read the memory of process {pid}")
    return kb / 1024.0


def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def manifest(workload: str, seed: int, seconds: float,
             trace: bool) -> Dict[str, Any]:
    import numpy

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "cpu_count": os.cpu_count(),
        "blas_frontend": blas_info(),
        "git_sha": sha,
        "git_dirty": bool(status) if status is not None else None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# registry snapshots (the program's exported timers and counters)
# ----------------------------------------------------------------------
_FP = 10 ** 9


@dataclasses.dataclass
class Snapshot:
    """Summed view over one or more mergeable snapshot documents.

    ``timers`` hold ``[calls, total_ns]``, ``counters`` the fixed-point
    value and ``dists`` ``[count, total_fp]``.  Subtracting an earlier
    snapshot isolates what the measured interval recorded.
    """

    timers: Dict[str, List[int]] = dataclasses.field(default_factory=dict)
    counters: Dict[str, int] = dataclasses.field(default_factory=dict)
    dists: Dict[str, List[int]] = dataclasses.field(default_factory=dict)

    @classmethod
    def of(cls, docs: Iterable[Dict[str, Any]]) -> "Snapshot":
        snap = cls()
        for doc in docs:
            for name, state in doc.get("timers", {}).items():
                entry = snap.timers.setdefault(name, [0, 0])
                entry[0] += state["calls"]
                entry[1] += state["total_ns"]
            for name, state in doc.get("counters", {}).items():
                snap.counters[name] = (snap.counters.get(name, 0)
                                       + state["value_fp"])
            for name, state in doc.get("distributions", {}).items():
                entry = snap.dists.setdefault(name, [0, 0])
                entry[0] += state["count"]
                entry[1] += state["total_fp"]
        return snap

    def __sub__(self, other: "Snapshot") -> "Snapshot":
        def diff(mine, theirs, zero):
            out = {}
            for name, value in mine.items():
                base = theirs.get(name, zero)
                out[name] = ([a - b for a, b in zip(value, base)]
                             if isinstance(value, list) else value - base)
            return out

        return Snapshot(diff(self.timers, other.timers, [0, 0]),
                        diff(self.counters, other.counters, 0),
                        diff(self.dists, other.dists, [0, 0]))

    def __add__(self, other: "Snapshot") -> "Snapshot":
        def total(mine, theirs, zero):
            out = dict(mine)
            for name, value in theirs.items():
                base = out.get(name, zero)
                out[name] = ([a + b for a, b in zip(base, value)]
                             if isinstance(value, list) else base + value)
            return out

        return Snapshot(total(self.timers, other.timers, [0, 0]),
                        total(self.counters, other.counters, 0),
                        total(self.dists, other.dists, [0, 0]))

    def calls(self, name: str) -> int:
        return self.timers.get(name, [0, 0])[0]

    def total_s(self, name: str) -> float:
        return self.timers.get(name, [0, 0])[1] / _FP

    def mean_ms(self, name: str) -> float:
        calls = self.calls(name)
        return 1e3 * self.total_s(name) / calls if calls else 0.0

    def count(self, name: str) -> float:
        return self.counters.get(name, 0) / _FP

    def dist_mean(self, name: str) -> float:
        count, total = self.dists.get(name, [0, 0])
        return total / _FP / count if count else 0.0

    def program_spans(self) -> int:
        """Timed stages the program itself recorded (benchmark's excluded)."""
        return sum(calls for name, (calls, _) in self.timers.items()
                   if not name.startswith(TRACE_PREFIX))


def local_snapshot() -> Snapshot:
    from repro.obs import get_registry
    from repro.obs.export import mergeable_snapshot

    return Snapshot.of([mergeable_snapshot(get_registry())])


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ----------------------------------------------------------------------
# tracing
# ----------------------------------------------------------------------
TRACE_PREFIX = "perfbench."


class Tracer:
    """Spans recorded around calls into the program's public functions.

    Each span carries a name, start, end, parent span and request id and
    stays in memory until :meth:`write`.  Every span also feeds a timer
    ``perfbench.<name>`` (and a ``.rows`` counter when the call reports
    a row count) in the process-wide :mod:`repro.obs` registry: inside a
    forked shard worker that registry is the worker's own, so the
    front-end reads the numbers back through ``shard_snapshots()``.

    An untraced run never constructs a Tracer, so no wrapper exists.
    """

    def __init__(self) -> None:
        from repro.obs import get_registry

        self._registry = get_registry
        self.spans: List[Tuple[Any, ...]] = []
        self._ids = itertools.count(1)
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._patches: List[Tuple[Any, str, Any]] = []

    def set_request(self, request_id: Any) -> None:
        self._tls.request = request_id

    @contextlib.contextmanager
    def paused(self):
        """Calls on this thread bypass the wrappers (oracle replays)."""
        previous = getattr(self._tls, "paused", False)
        self._tls.paused = True
        try:
            yield
        finally:
            self._tls.paused = previous

    @contextlib.contextmanager
    def span(self, name: str):
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        attrs: Dict[str, Any] = {}
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            stack.pop()
            registry = self._registry()
            registry.timer(TRACE_PREFIX + name).record(end - start)
            for key, value in attrs.items():
                registry.counter(f"{TRACE_PREFIX}{name}.{key}").add(value)
            record = (span_id, parent, getattr(self._tls, "request", None),
                      name, start, end, attrs)
            with self._lock:
                self.spans.append(record)

    def wrap(self, owner: Any, attr: str,
             name: Callable[..., str] | str,
             measure: Optional[Callable[..., Dict[str, float]]] = None,
             ) -> bool:
        """Replace ``owner.attr`` by a spanning wrapper; False if absent.

        ``name`` may be a function of the call's arguments (to split a
        layer by call shape); ``measure(args, result)`` returns the
        counts the span records (rows, kept boxes, ...).
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) \
            else getattr(owner, attr, None)
        if original is None:
            return False
        if isinstance(original, (staticmethod, classmethod)):
            return False
        tracer = self

        def wrapper(*args, **kwargs):
            if getattr(tracer._tls, "paused", False):
                return original(*args, **kwargs)
            label = name(*args) if callable(name) else name
            with tracer.span(label) as attrs:
                result = original(*args, **kwargs)
                if measure is not None:
                    attrs.update(measure(args, result))
                return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))
        return True

    def count_calls(self, owner: Any, attr: str, name: str) -> bool:
        """Count calls to ``owner.attr`` (no span: for the recorder's own
        entry points, which a span would re-enter)."""
        original = owner.__dict__.get(attr)
        if original is None:
            return False
        tracer = self
        counter_name = TRACE_PREFIX + name

        def counting(*args, **kwargs):
            if not getattr(tracer._tls, "paused", False):
                tracer._registry().counter(counter_name).add(1)
            return original(*args, **kwargs)

        counting.__wrapped__ = original
        setattr(owner, attr, counting)
        self._patches.append((owner, attr, original))
        return True

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with self._lock:
            spans = list(self.spans)
        origin = spans[0][4] if spans else 0.0
        with open(path, "w") as handle:
            json.dump([{"id": s[0], "parent": s[1], "request": s[2],
                        "name": s[3], "start_us": (s[4] - origin) * 1e6,
                        "end_us": (s[5] - origin) * 1e6, "attrs": s[6]}
                       for s in spans], handle)


def install_layer_wrappers(tracer: Tracer) -> List[str]:
    """Wrap the public layer functions every workload can reach.

    ``nms`` is wrapped where the detector calls it (the name
    ``repro.detect.pipeline`` imported).  The registry's own ``count``
    and ``observe`` are only counted, since a span there would re-enter.
    Returns the names of targets that were missing (a refactor moved
    them); their per-layer metrics then read zero.
    """
    import repro.detect.pipeline as pipeline_module
    from repro.kg import GraphMatcher
    from repro.obs.registry import Registry
    from repro.quant import QuantizedVisionTransformer

    def forward_name(_model, images, *rest) -> str:
        rows = len(images)
        return ("quant.forward.small" if rows < SMALL_FORWARD_ROWS
                else "quant.forward.large")

    def forward_rows(args, _result) -> Dict[str, float]:
        return {"rows": len(args[1])}

    def match_rows(args, _result) -> Dict[str, float]:
        probs = args[1]
        first = next(iter(probs.values())) if probs else ()
        return {"rows": len(first)}

    def nms_counts(args, result) -> Dict[str, float]:
        return {"rows": len(args[0]), "kept": len(result)}

    missing = []
    for attr in ("count", "observe"):
        if not tracer.count_calls(Registry, attr, "obs.counter_updates"):
            missing.append(f"Registry.{attr}")
    for owner, attr, name, measure in (
            (QuantizedVisionTransformer, "forward", forward_name, forward_rows),
            (QuantizedVisionTransformer, "__call__", forward_name, forward_rows),
            (GraphMatcher, "match_distributions", "kg.match", match_rows),
            (pipeline_module, "nms", "detect.nms", nms_counts),
    ):
        if not tracer.wrap(owner, attr, name, measure):
            missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
    return missing


# ----------------------------------------------------------------------
# per-window cost model from the accelerator compiler
# ----------------------------------------------------------------------
def forward_cost_model(model) -> Dict[str, float]:
    """MACs and bytes moved by one quantized forward, as computed.

    Taken from :func:`repro.hw.compiler.compile_model`'s per-site GEMM
    and DMA ops (tensor sizes, not a measurement).  Bytes are linear in
    the batch: ``fixed + rows * per_row`` (weights are read once per
    forward, activations and outputs once per row).
    """
    from repro.hw.compiler import compile_model
    from repro.hw.isa import DmaOp, GemmOp

    def totals(batch: int) -> Tuple[int, int]:
        program = compile_model(model, batch=batch)
        macs = sum(op.macs for op in program if isinstance(op, GemmOp))
        moved = sum(op.act_bytes + op.weight_bytes + op.out_bytes
                    for op in program if isinstance(op, GemmOp))
        moved += sum(op.num_bytes for op in program if isinstance(op, DmaOp))
        return macs, moved

    macs1, bytes1 = totals(1)
    macs2, bytes2 = totals(2)
    return {"macs_per_row": float(macs2 - macs1),
            "bytes_per_row": float(bytes2 - bytes1),
            "bytes_fixed": float(2 * bytes1 - bytes2)}


def layer_metrics(delta: Snapshot, cost: Optional[Dict[str, float]],
                  requests: int) -> Dict[str, float]:
    """Per-layer metrics every workload derives the same way."""
    small = TRACE_PREFIX + "quant.forward.small"
    large = TRACE_PREFIX + "quant.forward.large"
    nms = TRACE_PREFIX + "detect.nms"
    match = TRACE_PREFIX + "kg.match"
    calls = delta.calls(small) + delta.calls(large)
    rows = delta.count(small + ".rows") + delta.count(large + ".rows")
    out = {
        "detect.window_build_us_per_window": 1e6 * ratio(
            delta.total_s("detect.window_build"),
            delta.count("detect.windows_scored")),
        "detect.nms_ms": delta.mean_ms(nms),
        "detect.nms_kept_ratio": ratio(delta.count(nms + ".kept"),
                                       delta.count(nms + ".rows")),
        "detect.windows_scored": delta.count("detect.windows_scored"),
        "quant.forward_us_per_window.micro_batch": 1e6 * ratio(
            delta.total_s(small), delta.count(small + ".rows")),
        "quant.forward_us_per_window.large_batch": 1e6 * ratio(
            delta.total_s(large), delta.count(large + ".rows")),
        "quant.forward_calls": float(calls),
        "quant.rows_per_forward": ratio(rows, calls),
        "kg.match_us_per_window": 1e6 * ratio(
            delta.total_s(match), delta.count(match + ".rows")),
        "obs.spans_per_request": ratio(delta.program_spans(), requests),
        "obs.counts_per_request": ratio(
            delta.count(TRACE_PREFIX + "obs.counter_updates"), requests),
    }
    if cost is not None and calls:
        mean_rows = rows / calls
        out["quant.macs_per_forward"] = cost["macs_per_row"] * mean_rows
        out["quant.bytes_per_forward"] = (cost["bytes_fixed"]
                                          + cost["bytes_per_row"] * mean_rows)
    else:
        out["quant.macs_per_forward"] = 0.0
        out["quant.bytes_per_forward"] = 0.0
    return out


# ----------------------------------------------------------------------
# correctness oracle
# ----------------------------------------------------------------------
def detections_identical(left, right) -> bool:
    """Bit-identical detection lists (the quantized guarantee)."""
    return len(left) == len(right) and all(
        a.bbox == b.bbox and a.score == b.score
        and a.objectness == b.objectness and a.task_score == b.task_score
        and a.class_id == b.class_id
        for a, b in zip(left, right))


def detections_close(left, right, threshold: float,
                     atol: float = FLOAT_SCORE_ATOL) -> bool:
    """Same boxes, scores within ``atol`` (the float-model guarantee).

    A box on one side only is excused when its score sits within
    ``atol`` of the decision threshold: an ulp-level flip across it.
    """
    by_box_l = {tuple(d.bbox): d for d in left}
    by_box_r = {tuple(d.bbox): d for d in right}
    for box in set(by_box_l) ^ set(by_box_r):
        only = by_box_l.get(box) or by_box_r[box]
        if abs(only.score - threshold) > atol:
            return False
    return all(abs(by_box_l[box].score - by_box_r[box].score) <= atol
               for box in set(by_box_l) & set(by_box_r))


@contextlib.contextmanager
def unobserved(tracer: Optional[Tracer]):
    """Run oracle work without it landing in any measured counter."""
    from repro.obs import get_registry

    registry = get_registry()
    previous = registry.enabled
    registry.enabled = False
    try:
        if tracer is None:
            yield
        else:
            with tracer.paused():
                yield
    finally:
        registry.enabled = previous


def write_json(path: str, payload: Any) -> None:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True, default=str)
