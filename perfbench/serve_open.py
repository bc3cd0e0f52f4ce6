"""``serve_open``: cascade serving through the sharded tier.

Single-scene requests go through a :class:`repro.serve.ShardRouter`
(forked shards) over per-mission :class:`repro.cascade.CascadeSession`\\ s
built as ``repro cascade route`` builds them: the quantized fast path
with the mission's specialist registered and its stored calibration
threshold.  Scenes are small grid-3 scenes.  Most requests target the
warm missions; every twentieth is a cold few-shot mission whose support
examples give it a fresh fingerprint.  Tenants are zipf-skewed.

A run is several rounds, each on freshly forked shards:

* the first round opens with an open-loop phase of Poisson arrivals at
  the nominal rate.  Each request's latency runs from its due time, so
  a generator stall counts against the requests it delays; how late the
  generator sent is ``loadgen.late_p99_ms``.  These requests give
  ``p50_ms``/``tail_ms``;
* every round runs a closed-loop phase keeping a fixed number of
  requests in flight, cycling a pre-generated pool of requests for as
  long as the phase lasts, so no speed of the tier runs it dry.
  ``rate_per_s`` is the completions per second over all rounds' closed
  phases: the tier's capacity.  Per-second counts swing by a factor of
  two or more, and one fork runs faster than the next, so the capacity
  is averaged over several forks.  ``peak_rss_mb`` is the summed
  proportional set size (Pss) of the front-end and every shard worker,
  sampled in each closed phase once a fixed number of requests were
  sent, with the phase's requests in flight.  Each cold mission leaves
  a session and engine in its shard, so a sample taken after a fixed
  amount of time would grow with the tier's speed.  Pss splits the
  copy-on-write pages a fork shares among the processes mapping them
  instead of counting them once per process.  The oracle's reference
  pipeline is built in the front-end only after the last sample, so it
  is not counted.

The last round then climbs the ladder of fixed absolute offered rates
above the nominal one, open loop, until a rung misses the p99 limit,
sheds, or leaves a growing backlog; ``serve.max_rate_per_s`` is the
highest rate meeting the limit, interpolated in log p99 between the
last passing and the first failing rung.  The shards keep the
program's default queue bound (``ShardConfig.queue_size``), so an
overloaded rung sheds: the rung fails, but the run does not, since
shedding under overload is the program working as designed.  A shed
at the nominal rate or in a closed phase fails the run.  On a 2-CPU
host the shards' default BLAS thread pools oversubscribe the cores,
and open-loop latencies and the ladder's knee vary by tens of percent
between runs, so both are reported per layer, without a bound.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
import statistics
import threading
import time
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from harness import (
    Snapshot,
    TRACE_PREFIX,
    Tracer,
    blas_info,
    detections_close,
    detections_identical,
    forward_cost_model,
    latency_summary,
    layer_metrics,
    local_snapshot,
    pss_mb,
    ratio,
    unobserved,
)

COLD_MARK = "~cold"


def base_task(mission: str) -> str:
    return mission.split(COLD_MARK)[0]


def mission_spec(mission: str, seed: int):
    """The :class:`TaskSpec` a mission name stands for.

    Warm missions are the plain task; ``<task>~cold<i>`` is a few-shot
    variant whose support examples are drawn from ``(seed, i)``, so its
    fingerprint is fresh yet the front-end and the shard rebuild the
    same spec.
    """
    from repro.core import TaskSpec
    from repro.data import get_task, sample_profile

    task = get_task(base_task(mission))
    if COLD_MARK not in mission:
        return TaskSpec.from_definition(task)
    index = int(mission.split(COLD_MARK)[1])
    rng = np.random.default_rng([seed, index])
    positives: List[Any] = []
    negatives: List[Any] = []
    while len(positives) < 3 or len(negatives) < 3:
        profile = sample_profile(rng)
        (positives if task.matches(profile) else negatives).append(profile)
    return TaskSpec.from_definition(task, support_positives=positives[:3],
                                    support_negatives=negatives[:3])


def _exit_with_parent() -> None:
    """Stop this shard worker if the benchmark process dies.

    Workers treat SIGTERM as "drain" and hold each other's pipe ends, so
    a killed benchmark would otherwise leave them running for good.
    """
    parent = os.getppid()

    def watch() -> None:
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(0)

    threading.Thread(target=watch, name="perfbench-parent-watch",
                     daemon=True).start()


class CascadeFactory:
    """Mission -> cascade session, built the way ``repro cascade route``
    builds one.  Runs inside each shard worker (and once in the
    front-end for the references); the pipeline is built on first use.
    """

    def __init__(self, warm: List[str], seed: int,
                 tracer: Optional[Tracer] = None) -> None:
        self.warm = list(warm)
        self.seed = seed
        self.tracer = tracer
        self.pipeline = None
        self.thresholds: Dict[str, float] = {}

    def _build(self) -> None:
        from repro.cascade import CalibrationStore, CascadeConfig
        from repro.core import ArtifactBuilder, ITaskPipeline
        from repro.data import get_task
        from repro.kg import SimulatedLLM
        from repro.obs import get_registry

        if multiprocessing.parent_process() is not None:
            _exit_with_parent()
        builder = ArtifactBuilder(seed=0, verbose=False)
        pipeline = ITaskPipeline(builder.quantized())
        store = CalibrationStore(builder.registry)
        for name in self.warm:
            task = get_task(name)
            pipeline.register_specialist(
                name, builder.task_student_by_name(name),
                SimulatedLLM().generate_for_task(task))
            self.thresholds[name] = (
                store.load(name).margin_threshold if store.exists(name)
                else CascadeConfig().margin_threshold)
        self.pipeline = pipeline
        registry = get_registry()
        for lib in blas_info():
            if lib["threads"] is not None:
                registry.count(f"{TRACE_PREFIX}blas_threads.{lib['library']}",
                               lib["threads"])

    def __call__(self, mission: str):
        from repro.cascade import CascadeConfig
        from repro.obs import get_registry

        if self.pipeline is None:
            self._build()
        start = time.perf_counter()
        session = self.pipeline.cascade_session(
            mission_spec(mission, self.seed),
            config=CascadeConfig(
                margin_threshold=self.thresholds[base_task(mission)]))
        get_registry().timer(TRACE_PREFIX + "session.prepare").record(
            time.perf_counter() - start)
        specialist = session.router.specialist
        if self.tracer is not None and specialist is not None:
            self.tracer.wrap(specialist, "detect_batch", "cascade.specialist")
        return session


class _Request:
    __slots__ = ("due", "sent", "done", "mission", "tenant", "scene",
                 "future", "trace_id", "phase")

    def __init__(self, due: float, mission: str, tenant: str, scene: int,
                 phase: str) -> None:
        self.due = due
        self.mission = mission
        self.tenant = tenant
        self.scene = scene
        self.phase = phase
        self.sent = math.nan
        self.done = math.nan
        self.future = None
        self.trace_id = None


class ServeOpen:
    name = "serve_open"

    def __init__(self, cfg: Dict[str, Any], seed: int) -> None:
        from repro.data import SceneConfig, SceneGenerator

        self.cfg = cfg
        self.seed = seed
        self.warm = list(cfg["warm_missions"])
        self.scenes = SceneGenerator(
            SceneConfig(grid=cfg["grid"]),
            seed=int(np.random.default_rng(seed).integers(2 ** 31)),
        ).generate_batch(cfg["scene_pool"])
        self.tracer: Optional[Tracer] = None
        self.fast_refs: Dict[Tuple[str, int], Any] = {}
        self.spec_refs: Dict[Tuple[str, int], Any] = {}
        self.reference_factory: Optional[CascadeFactory] = None
        self.passes = 0
        self.requests_made = 0
        self.cold_next = 0
        tenants = cfg["tenants"]
        self.tenants = [f"tenant{i}" for i in range(tenants)]
        weights = np.array([1.0 / (i + 1) for i in range(tenants)])
        self.tenant_weights = weights / weights.sum()

    # -- system under test ---------------------------------------------
    def install_wrappers(self, tracer: Tracer) -> List[str]:
        from repro.serve import ShardRouter

        self.tracer = tracer
        return [] if tracer.wrap(ShardRouter, "submit", "shard.submit") \
            else ["ShardRouter.submit"]

    def setup(self) -> Dict[str, Any]:
        """Fork the shards; each warm mission's first request builds its
        shard's pipeline and session."""
        from repro.serve import ShardConfig, ShardRouter

        factory = CascadeFactory(self.warm, self.seed, self.tracer)
        router = ShardRouter(factory, ShardConfig(
            num_shards=self.cfg["shards"],
            base_seed=self.seed,
            start_method="fork",
        ))
        try:
            futures = [router.submit(self.scenes[0], mission)
                       for mission in self.warm]
            for future in futures:
                future.result(timeout=120)
        except BaseException:
            router.close(wait=False)
            raise
        return {"router": router}

    def teardown(self, handle: Dict[str, Any]) -> None:
        router = handle.pop("router", None)
        if router is not None:
            router.close(wait=True)

    # -- inputs and references -------------------------------------------
    def _cold_mission(self, task: str) -> str:
        mission = f"{task}{COLD_MARK}{self.cold_next}"
        self.cold_next += 1
        return mission

    def _request(self, rng, due: float, phase: str) -> _Request:
        """One request: every ``1 / cold_fraction``-th targets a new cold
        mission, the rest a uniformly chosen warm one; zipf tenants."""
        self.requests_made += 1
        if self.requests_made % round(1.0 / self.cfg["cold_fraction"]) == 0:
            mission = self._cold_mission(
                self.warm[self.cold_next % len(self.warm)])
        else:
            mission = self.warm[int(rng.integers(len(self.warm)))]
        tenant = self.tenants[int(rng.choice(len(self.tenants),
                                             p=self.tenant_weights))]
        return _Request(due, mission, tenant,
                        int(rng.integers(len(self.scenes))), phase)

    def _poisson(self, rng, rate: float, duration: float,
                 phase: str) -> List[_Request]:
        requests: List[_Request] = []
        offset = float(rng.exponential(1.0 / rate))
        while offset < duration:
            requests.append(self._request(rng, offset, phase))
            offset += float(rng.exponential(1.0 / rate))
        return requests

    def _plan(self, seconds: float) -> Dict[str, Any]:
        """Every phase's requests, generated before timing."""
        cfg = self.cfg
        rng = np.random.default_rng([self.seed, self.passes])
        nominal = cfg["nominal_rate_per_s"]
        closed_s = seconds * cfg["closed_share"]
        rounds = [{
            "nominal": (self._poisson(rng, nominal,
                                      seconds * cfg["nominal_share"],
                                      "nominal") if index == 0 else []),
            "closed": [self._request(rng, math.nan, "closed")
                       for _ in range(cfg["closed_pool"])],
        } for index in range(cfg["rounds"])]
        ladder = [(rate, self._poisson(rng, rate, cfg["rung_seconds"],
                                       f"rung{rate}"))
                  for rate in cfg["ladder_per_s"] if rate > nominal]
        return {"rounds": rounds, "ladder": ladder, "closed_s": closed_s}

    def _cycle(self, pool: List[_Request]) -> Iterator[_Request]:
        """``pool`` over and over; a cold mission gets a fresh name on
        every lap after the first, so it stays cold."""
        for lap in itertools.count():
            for template in pool:
                if not lap:
                    yield template
                    continue
                mission = template.mission
                if COLD_MARK in mission:
                    mission = self._cold_mission(base_task(mission))
                yield _Request(math.nan, mission, template.tenant,
                               template.scene, template.phase)

    def _references(self, pairs) -> None:
        """Fast-path and specialist results per (mission, scene), each
        from a per-scene ``detect`` in this process.  The reference
        pipeline is built here, after the last memory sample."""
        if self.reference_factory is None:
            self.reference_factory = CascadeFactory(self.warm, self.seed)
            self.reference_factory(self.warm[0])
            self.cost = forward_cost_model(
                self.reference_factory.pipeline.quantized_configuration.model)
        sessions: Dict[str, Any] = {}
        for mission, scene in pairs:
            if (mission, scene) in self.fast_refs:
                continue
            session = sessions.get(mission)
            if session is None:
                session = sessions[mission] = self.reference_factory(mission)
            router = session.router
            self.fast_refs[mission, scene] = router.fast.detect(
                self.scenes[scene])
            self.spec_refs[mission, scene] = (
                router.specialist.detect(self.scenes[scene])
                if router.specialist is not None else None)

    def prepare(self, handle: Dict[str, Any]) -> None:
        """Warm-up on this router: open loop at the nominal rate over
        every warm mission, then a closed burst at full in-flight depth
        (BLAS pools, every micro-batch shape, each shard's sessions)."""
        router = handle["router"]
        rate = self.cfg["nominal_rate_per_s"]
        count = int(rate * self.cfg["warmup_seconds"])
        rng = np.random.default_rng([self.seed, 10_000 + self.passes])
        start = time.perf_counter()
        futures = []
        for i in range(count + 2 * self.cfg["closed_inflight"]):
            delay = start + i / rate - time.perf_counter()
            if delay > 0 and i < count:
                time.sleep(delay)
            futures.append(router.submit(
                self.scenes[int(rng.integers(len(self.scenes)))],
                self.warm[i % len(self.warm)]))
        for future in futures:
            future.result(timeout=120)

    # -- load generation -------------------------------------------------
    def _submit(self, router, req: _Request, on_done) -> bool:
        """Submit without blocking under the request's own trace."""
        from repro.obs.context import request_context
        from repro.serve import ShardRejected

        if self.tracer is not None:
            self.tracer.set_request(id(req))
        with request_context(name=TRACE_PREFIX + "request",
                             tenant=req.tenant, mission=req.mission) as ctx:
            req.trace_id = ctx.trace_id
            try:
                req.future = router.submit(self.scenes[req.scene],
                                           req.mission, block=False)
            except ShardRejected:
                return False
        req.future.add_done_callback(on_done)
        return True

    @staticmethod
    def _stamp(req: _Request) -> None:
        req.done = time.perf_counter()

    def _drive_open(self, router, requests: List[_Request]) -> None:
        """Send on the schedule, whatever the system's progress."""
        start = time.perf_counter() + 0.002
        for req in requests:
            req.due += start
            delay = req.due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            req.sent = time.perf_counter()
            self._submit(router, req,
                         lambda _f, req=req: self._stamp(req))

    def _drive_closed(self, router, pool: List[_Request], duration: float
                      ) -> Tuple[List[_Request], List[float], Dict[str, Any]]:
        """Keep ``closed_inflight`` requests outstanding for ``duration``;
        returns the sent requests, the completions in each whole second
        of the phase, and the memory sampled once ``memory_sample_after``
        requests were sent (or as the phase ends, if it sent fewer)."""
        slots = threading.Semaphore(self.cfg["closed_inflight"])

        def finished(_future, req):
            self._stamp(req)
            slots.release()

        start = time.perf_counter()
        deadline = start + duration
        sent: List[_Request] = []
        memory = None
        for req in self._cycle(pool):
            if not slots.acquire(timeout=60.0):
                break
            now = time.perf_counter()
            if now >= deadline:
                slots.release()
                break
            req.due = req.sent = now
            if self._submit(router, req,
                            lambda f, req=req: finished(f, req)):
                sent.append(req)
                if len(sent) == self.cfg["memory_sample_after"]:
                    memory = self._memory(router)
            else:
                slots.release()
        if memory is None:
            memory = self._memory(router)
        self._wait(sent, timeout=60.0)
        windows = [0.0] * int(duration)
        for req in sent:
            second = int(req.done - start)
            if 0 <= second < len(windows):
                windows[second] += 1.0
        return sent, windows, memory

    @staticmethod
    def _memory(router) -> Dict[str, Any]:
        """Pss of the front-end and of each shard worker, in MiB."""
        shards = [pss_mb(info["pid"]) for info in router.shard_info()]
        front = pss_mb()
        return {"total_mb": front + sum(shards), "front_end_mb": front,
                "shards_mb": shards}

    @staticmethod
    def _wait(requests: List[_Request], timeout: float) -> None:
        deadline = time.perf_counter() + timeout
        for req in requests:
            if req.future is None:
                continue
            try:
                req.future.result(
                    timeout=max(0.0, deadline - time.perf_counter()))
            except Exception:  # counted as failed by the oracle pass
                pass
        # Done-callbacks run on the router's reader thread; let the last
        # ones stamp their completion time.
        for req in requests:
            while (req.future is not None and req.future.done()
                   and math.isnan(req.done) and time.perf_counter() < deadline):
                time.sleep(0.0005)

    def _open_phase(self, router, rate: float,
                    requests: List[_Request]) -> Dict[str, Any]:
        self._drive_open(router, requests)
        outstanding = sum(r.future is not None and not r.future.done()
                          for r in requests)
        self._wait(requests, timeout=60.0)
        return self._rung_verdict(rate, requests, outstanding)

    def _rung_verdict(self, rate: float, requests: List[_Request],
                      outstanding: int) -> Dict[str, Any]:
        limit_s = self.cfg["p99_limit_ms"] / 1e3
        served = [r.done - r.due for r in requests
                  if r.future is not None and not math.isnan(r.done)
                  and r.future.exception() is None]
        shed = sum(r.future is None for r in requests)
        errors = len(requests) - shed - len(served)
        ordered = sorted(served)
        p99 = (ordered[min(len(ordered) - 1, int(0.99 * len(ordered)))]
               if ordered else math.inf)
        backlog_limit = max(1.0, rate * limit_s)
        return {
            "p50_ms": 1e3 * ordered[len(ordered) // 2] if ordered else None,
            "rate": rate, "requests": len(requests), "served": len(served),
            "shed": shed, "errors": errors, "p99_ms": p99 * 1e3,
            "outstanding_at_end": outstanding,
            "passed": (p99 <= limit_s and shed == 0 and errors == 0
                       and outstanding <= backlog_limit),
        }

    def _max_rate(self, rungs: List[Dict[str, Any]]) -> float:
        """Highest offered rate meeting the limit, interpolated in log p99
        between the last passing and the first failing rung."""
        limit = self.cfg["p99_limit_ms"]
        for index, rung in enumerate(rungs):
            if rung["passed"]:
                continue
            failing_p99 = max(rung["p99_ms"], limit * (1 + 1e-9))
            if index == 0:
                return rung["rate"] * limit / failing_p99
            low = rungs[index - 1]
            if rung["p99_ms"] <= limit:
                # Failed by shedding or backlog: no latency to interpolate.
                return low["rate"]
            t = (math.log(limit / low["p99_ms"])
                 / math.log(failing_p99 / low["p99_ms"]))
            return low["rate"] + min(max(t, 0.0), 1.0) * (
                rung["rate"] - low["rate"])
        return rungs[-1]["rate"]

    def _snapshot(self, router) -> Snapshot:
        return Snapshot.of(router.shard_snapshots())

    # -- measurement -----------------------------------------------------
    def measure(self, handle: Dict[str, Any], seconds: float,
                tracer: Optional[Tracer]) -> Dict[str, Any]:
        """``rounds`` rounds, each on its own freshly forked shards: the
        first opens with the open-loop nominal phase, every round runs a
        closed-loop capacity phase, and the last then climbs the ladder
        above the nominal rate."""
        plan = self._plan(seconds)
        self.passes += 1
        nominal = self.cfg["nominal_rate_per_s"]
        sent: List[_Request] = []
        windows: List[float] = []
        memory: List[Dict[str, Any]] = []
        verdicts: List[Dict[str, Any]] = []
        worker = Snapshot()
        front = Snapshot()
        routes: Dict[str, str] = {}
        blas_shards: List[Dict[str, int]] = []
        for index, phases in enumerate(plan["rounds"]):
            if index:
                handle = self.setup()
            try:
                if index:
                    self.prepare(handle)
                router = handle["router"]
                front_before = local_snapshot()
                shards_before = self._snapshot(router)
                if phases["nominal"]:
                    verdicts = [self._open_phase(router, nominal,
                                                 phases["nominal"])]
                closed, rates, sample = self._drive_closed(
                    router, phases["closed"], plan["closed_s"])
                windows += rates
                memory.append(sample)
                sent += phases["nominal"] + closed
                if index == len(plan["rounds"]) - 1:
                    for rate, requests in plan["ladder"]:
                        verdicts.append(self._open_phase(router, rate,
                                                         requests))
                        sent += requests
                        if not verdicts[-1]["passed"]:
                            break
                docs = router.shard_snapshots()
                worker = worker + (Snapshot.of(docs) - shards_before)
                front = front + (local_snapshot() - front_before)
                blas_shards = [
                    {name[len(TRACE_PREFIX + "blas_threads."):]:
                     state["value_fp"] // 10 ** 9
                     for name, state in doc.get("counters", {}).items()
                     if name.startswith(TRACE_PREFIX + "blas_threads.")}
                    for doc in docs]
                if tracer is not None:
                    routes.update(self._routes(router))
            finally:
                if index:
                    self.teardown(handle)
        check = self._check(sent, routes, tracer)

        served = check["served"]
        nominal_served = [r for r in served if r.phase == "nominal"]
        summary = latency_summary([r.done - r.due for r in nominal_served])
        opened = sorted(r.sent - r.due for r in sent if r.phase != "closed")
        round_trip_ms = 1e3 * float(np.mean([r.done - r.sent for r in served]))
        routed = sum(worker.count(f"cascade.{route}")
                     for route in ("fast_path", "escalated", "shed"))
        per_layer = layer_metrics(worker, self.cost, len(served))
        per_layer.update({
            "serve.max_rate_per_s": self._max_rate(verdicts),
            "shard.submit_ms": front.mean_ms(TRACE_PREFIX + "shard.submit"),
            "shard.hop_ms": round_trip_ms - (
                worker.mean_ms("engine.queue_wait")
                + worker.mean_ms("engine.execute")),
            "shard.rejected": float(check["shed"] + check["ladder_shed"]),
            "engine.queue_wait_ms": worker.mean_ms("engine.queue_wait"),
            "engine.execute_ms": worker.mean_ms("engine.execute"),
            "engine.batch_size": worker.dist_mean("engine.batch_size"),
            "session.prepare_ms": worker.mean_ms(
                TRACE_PREFIX + "session.prepare"),
            "session.cache_hit_ratio": ratio(
                worker.count("session.cache.hit"),
                worker.count("session.cache.hit")
                + worker.count("session.cache.miss")),
            "cascade.escalated_frac": ratio(
                worker.count("cascade.escalated"), routed),
            "cascade.useful_ratio": ratio(check["useful"], check["escalated"]),
            "cascade.specialist_ms": worker.mean_ms(
                TRACE_PREFIX + "cascade.specialist"),
            "obs.spans_per_request": ratio(
                worker.program_spans() + front.program_spans(), len(served)),
            "obs.counts_per_request": ratio(
                worker.count(TRACE_PREFIX + "obs.counter_updates")
                + front.count(TRACE_PREFIX + "obs.counter_updates"),
                len(served)),
            "loadgen.late_p99_ms": 1e3 * opened[
                min(len(opened) - 1, int(0.99 * len(opened)))],
        })
        # Sheds on an overloaded ladder rung fail that rung, not the run.
        failed = check["shed"] + check["errors"] + check["wrong"]
        return {
            "attempted": len(sent),
            "failed": failed,
            "wrong": check["wrong"],
            "latency": summary,
            "end_to_end": {
                "rate_per_s": statistics.mean(windows),
                "task_acc": check["task_acc"],
                "peak_rss_mb": statistics.median(
                    sample["total_mb"] for sample in memory),
            },
            "per_layer": per_layer,
            "manifest": {"blas_shards": blas_shards},
            "details": {"window_rates": windows, "memory_mb": memory,
                        "rungs": verdicts, "shed": check["shed"],
                        "ladder_shed": check["ladder_shed"],
                        "errors": check["errors"],
                        "cold_missions": len({r.mission for r in sent
                                              if COLD_MARK in r.mission})},
        }

    def _check(self, sent: List[_Request], routes: Dict[str, str],
               tracer: Optional[Tracer]) -> Dict[str, Any]:
        """Oracle and accuracy over every sent request, after the run.

        A served result must equal the scene's fast-path reference bit
        for bit, or its specialist reference within the float tolerance.
        """
        from repro.cascade import scene_cell_accuracy
        from repro.data import get_task

        with unobserved(tracer):
            self._references({(r.mission, r.scene) for r in sent
                              if r.future is not None})
        threshold = self.reference_factory.pipeline.score_threshold
        out: Dict[str, Any] = {"served": [], "shed": 0, "ladder_shed": 0,
                               "errors": 0, "wrong": 0, "escalated": 0,
                               "useful": 0}
        accuracies: List[float] = []
        for req in sent:
            if req.future is None:
                out["ladder_shed" if req.phase.startswith("rung")
                    else "shed"] += 1
                continue
            if req.future.exception() is not None:
                out["errors"] += 1
                continue
            out["served"].append(req)
            got = req.future.result()
            fast = self.fast_refs[req.mission, req.scene]
            spec = self.spec_refs[req.mission, req.scene]
            if not (detections_identical(got, fast) or (
                    spec is not None
                    and detections_close(got, spec, threshold))):
                out["wrong"] += 1
            accuracies.append(scene_cell_accuracy(
                self.scenes[req.scene], got,
                get_task(base_task(req.mission))))
            if routes.get(req.trace_id) == "escalated":
                out["escalated"] += 1
                out["useful"] += ({d.bbox for d in fast}
                                  != {d.bbox for d in spec or ()})
        out["task_acc"] = float(np.mean(accuracies))
        return out

    @staticmethod
    def _routes(router) -> Dict[str, str]:
        """trace id -> cascade route, from every shard's decision log."""
        routes: Dict[str, str] = {}
        for shard in range(router.num_shards):
            for decisions in router.probe("decisions", shard).values():
                for decision in decisions:
                    if decision["trace_id"] is not None:
                        routes[decision["trace_id"]] = decision["route"]
        return routes
