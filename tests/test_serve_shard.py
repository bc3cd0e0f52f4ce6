"""Sharded serving tier: ``ShardRouter`` over forked engine workers.

Covers the multi-process refactor of the serving stack:

* the pure routing/seed functions (``shard_for_mission`` is a stable
  cross-process affinity hash; ``worker_seed`` de-correlates forked
  RNG streams),
* result exactness — scenes routed through worker processes must be
  bit-identical to in-process detection (the quantized batch-invariance
  guarantee extended across the process boundary),
* lifecycle: graceful SIGTERM drain (in-flight finishes, raced jobs are
  rejected with ``engine.rejected`` and rerouted without loss), queue
  backpressure shedding, per-tenant fairness caps, idempotent close,
  workers that exit once a SIGKILLed front-end's pipes reach EOF,
* the per-worker BLAS thread budget: every loaded OpenBLAS pool runs
  usable CPUs // shards threads in a worker, reported in the ready
  handshake, while the front-end's pools stay as they were,
* cross-process metrics: every shard serves a mergeable snapshot and
  the front-end's ``/snapshot`` is bit-identical to
  ``merge_snapshots`` over the per-shard documents,
* :class:`MetricsServer` ephemeral-port binding and ``snapshot_fn``
  aggregation endpoints,
* ``repro obs top --url a --url b`` merging: terminal totals bit-match
  a single-process run of the same workload.
"""

import json
import multiprocessing
import os
import select
import signal
import subprocess
import sys
import time
import urllib.request

import numpy as np
import pytest

from repro.cascade import CascadeRouter, CascadeSession, FAST_PATH
from repro.data import (
    SceneConfig,
    SceneGenerator,
    attribute_head_spec,
    get_task,
)
from repro.data.datasets import num_classes
from repro.detect import TaskDetector
from repro.kg import GraphMatcher, SimulatedLLM
from repro.nn import VisionTransformer, ViTConfig
from repro.obs import Registry, get_registry
from repro.obs.export import (
    MetricsServer,
    merge_snapshots,
    mergeable_snapshot,
)
from repro.obs.registry import FP_SCALE
from repro.serve import (
    EngineConfig,
    ShardClosed,
    ShardConfig,
    ShardRejected,
    ShardRouter,
    TaskSessionFactory,
    shard_for_mission,
    worker_seed,
)
from repro.compute import blas_budget, blas_threads

TASK = "roadside_hazards"
BASE_SEED = 7

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="sharded serving tests need the fork start method")
START_METHODS = [method for method in ("fork", "spawn")
                 if method in multiprocessing.get_all_start_methods()]


# ----------------------------------------------------------------------
# Worker factories (module level so they pickle under any start method)
# ----------------------------------------------------------------------
def build_quantized_detector(task: str) -> TaskDetector:
    """Deterministic quantized detector — same recipe in the parent
    (reference) and inside the worker, so outputs can be compared
    bit-for-bit across the process boundary."""
    from repro.quant import quantize_vit

    config = ViTConfig.student(num_classes(), attribute_head_spec())
    model = VisionTransformer(config, rng=np.random.default_rng(3))
    model.eval()
    calibration = np.random.default_rng(0).random(
        (8, 3, 32, 32)).astype(np.float32)
    quantized = quantize_vit(model, calibration)
    kg = SimulatedLLM().generate_for_task(get_task(task))
    return TaskDetector(quantized, matcher=GraphMatcher(kg),
                        score_threshold=0.0)


class DetectorSession:
    """Engine-facing session: just the batch entry point."""

    def __init__(self, detector: TaskDetector) -> None:
        self._detector = detector

    def detect_batch(self, scenes, stride=None):
        return self._detector.detect_batch(scenes, stride=stride)


class QuantizedSessionFactory:
    """Builds the quantized detector inside the worker process."""

    def __call__(self, mission: str):
        task = mission.split(":", 1)[0]
        return DetectorSession(build_quantized_detector(task))


class CascadeSessionFactory:
    """Router-only cascade session over the quantized fast path."""

    def __call__(self, mission: str):
        task = mission.split(":", 1)[0]
        return CascadeSession(
            None, CascadeRouter(build_quantized_detector(task)))


class SlowEchoSession:
    """Model-free session for lifecycle tests: sleeps, returns empties."""

    def __init__(self, delay_s: float) -> None:
        self.delay_s = delay_s

    def detect_batch(self, scenes, stride=None):
        if self.delay_s:
            time.sleep(self.delay_s)
        return [[] for _ in scenes]


class SlowEchoSessionFactory:
    def __init__(self, delay_s: float = 0.0) -> None:
        self.delay_s = delay_s

    def __call__(self, mission: str):
        return SlowEchoSession(self.delay_s)


def mission_for_shard(target: int, num_shards: int,
                      task: str = TASK) -> str:
    """A mission name whose affinity hash lands on ``target``."""
    index = 0
    while True:
        name = f"{task}:m{index}"
        if shard_for_mission(name, num_shards) == target:
            return name
        index += 1


def echo_router(delay_s: float = 0.0, *, engine: EngineConfig = None,
                **overrides) -> ShardRouter:
    config = ShardConfig(
        num_shards=overrides.pop("num_shards", 2),
        engine=engine or EngineConfig(max_batch=2, flush_ms=2.0,
                                      workers=1, queue_size=8),
        start_method="fork",
        **overrides)
    return ShardRouter(SlowEchoSessionFactory(delay_s), config)


def fetch_json(url: str):
    with urllib.request.urlopen(url, timeout=10) as resp:
        return json.loads(resp.read())


def canonical(doc) -> str:
    return json.dumps(doc, sort_keys=True)


def assert_detections_bit_equal(reference, candidate):
    assert len(reference) == len(candidate)
    for ref_scene, cand_scene in zip(reference, candidate):
        assert len(ref_scene) == len(cand_scene)
        for ref, cand in zip(ref_scene, cand_scene):
            assert tuple(ref.bbox) == tuple(cand.bbox)
            assert ref.score == cand.score
            assert ref.objectness == cand.objectness
            assert ref.task_score == cand.task_score
            assert ref.class_id == cand.class_id


@pytest.fixture(scope="module")
def scenes():
    return list(SceneGenerator(SceneConfig(grid=2),
                               seed=11).generate_batch(4))


@pytest.fixture(scope="module")
def reference_detector():
    return build_quantized_detector(TASK)


# ----------------------------------------------------------------------
# Pure routing / seeding functions
# ----------------------------------------------------------------------
class TestRoutingFunctions:
    def test_shard_for_mission_deterministic_and_in_range(self):
        for n in (1, 2, 3, 8):
            for mission in ("a", "b", TASK, f"{TASK}:cold1"):
                index = shard_for_mission(mission, n)
                assert 0 <= index < n
                assert index == shard_for_mission(mission, n)

    def test_shard_for_mission_spreads(self):
        hit = {shard_for_mission(f"mission-{i}", 4) for i in range(64)}
        assert hit == set(range(4))

    def test_shard_for_mission_validates(self):
        with pytest.raises(ValueError):
            shard_for_mission("x", 0)

    def test_worker_seed_deterministic(self):
        assert worker_seed(7, 0, 123) == worker_seed(7, 0, 123)

    def test_worker_seed_distinct_per_input(self):
        base = worker_seed(7, 0, 50)
        assert base != worker_seed(8, 0, 50)
        assert base != worker_seed(7, 1, 50)
        assert base != worker_seed(7, 0, 51)
        assert len({worker_seed(7, s, 1000 + s) for s in range(8)}) == 8

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShardConfig(num_shards=0)
        with pytest.raises(ValueError):
            ShardConfig(queue_size=0)
        with pytest.raises(ValueError):
            ShardConfig(max_inflight_per_tenant=0)


# ----------------------------------------------------------------------
# Result exactness and cross-process metrics over real detectors
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def quantized_router():
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("needs fork start method")
    config = ShardConfig(
        num_shards=2,
        engine=EngineConfig(max_batch=4, flush_ms=2.0, workers=1,
                            queue_size=8),
        queue_size=8,
        metrics=True,
        base_seed=BASE_SEED,
        start_method="fork")
    router = ShardRouter(QuantizedSessionFactory(), config)
    yield router
    router.close()


@fork_only
class TestShardedResults:
    def test_bit_equal_to_sequential(self, quantized_router, scenes,
                                     reference_detector):
        # The reference runs here at this process's own BLAS pool size,
        # the shards at their budget: the thread count is not a result.
        reference = [reference_detector.detect(scene) for scene in scenes]
        results = quantized_router.detect_many(scenes, TASK)
        assert any(len(dets) > 0 for dets in reference)
        assert_detections_bit_equal(reference, results)

    def test_rng_reseeded_per_worker(self, quantized_router):
        info = quantized_router.shard_info()
        probes = [quantized_router.probe("rng", shard)
                  for shard in range(2)]
        for shard, (meta, probe) in enumerate(zip(info, probes)):
            expected = worker_seed(BASE_SEED, shard, meta["pid"])
            assert meta["seed"] == expected
            assert probe["seed"] == expected
            assert probe["pid"] == meta["pid"]
        # Forked children would share the parent's RNG state without the
        # per-process reseed: the streams must have diverged.
        assert probes[0]["samples"] != probes[1]["samples"]

    def test_shard_metrics_endpoints_live(self, quantized_router):
        urls = quantized_router.shard_metrics_urls()
        assert len(urls) == 2
        assert len(set(urls)) == 2
        for url in urls:
            assert int(url.rsplit(":", 1)[1]) > 0
            assert fetch_json(url + "/healthz")["status"] == "ok"
            doc = fetch_json(url + "/snapshot")
            assert doc["schema"] == "repro.obs.merge/1"

    def test_front_end_snapshot_bit_identical_to_merge(
            self, quantized_router, scenes):
        before = quantized_router.aggregate_snapshot()
        before_fp = before["counters"].get(
            "engine.scenes", {"value_fp": 0})["value_fp"]
        quantized_router.detect_many(scenes, TASK)

        shard_docs = [fetch_json(url + "/snapshot")
                      for url in quantized_router.shard_metrics_urls()]
        front = quantized_router.serve_metrics()
        try:
            front_doc = fetch_json(front.url + "/snapshot")
        finally:
            front.stop()

        # The satellite property: the aggregation endpoint adds nothing
        # of its own — its document is bit-identical to merging the
        # per-shard documents out of band, whichever transport fetched
        # them.
        assert canonical(front_doc) == canonical(merge_snapshots(shard_docs))
        assert canonical(front_doc) == canonical(
            quantized_router.aggregate_snapshot())
        # Merged totals account for exactly the scenes just served.
        delta = front_doc["counters"]["engine.scenes"]["value_fp"] - before_fp
        assert delta == len(scenes) * FP_SCALE
        # Satellite: workers pre-register the reject counter so the
        # merged document carries an explicit zero, never a fallback.
        assert front_doc["counters"]["engine.rejected"]["value_fp"] == 0


@fork_only
class TestCascadeThroughShards:
    def test_decisions_and_results_bit_equal_fast_path(
            self, scenes, reference_detector):
        config = ShardConfig(
            num_shards=2,
            engine=EngineConfig(max_batch=4, flush_ms=2.0, workers=1,
                                queue_size=8),
            base_seed=BASE_SEED,
            start_method="fork")
        with ShardRouter(CascadeSessionFactory(), config) as router:
            results = router.detect_many(scenes, TASK)
            primary = router.shard_for(TASK)
            decisions = router.probe("decisions", primary)[TASK]

        reference_session = CascadeSession(
            None, CascadeRouter(reference_detector))
        ref_results, ref_decisions = reference_session.route_batch(scenes)

        # With no specialist the cascade is the fast path; the shard
        # worker's shed/fast decisions must reproduce the in-process
        # ones bit-for-bit (routes and margins), and the detections are
        # exactly the fast detector's output.
        assert_detections_bit_equal(ref_results, results)
        assert len(decisions) == len(ref_decisions) == len(scenes)
        assert {d["route"] for d in decisions} == {FAST_PATH}
        assert (sorted(d["margin"] for d in decisions)
                == sorted(d.margin for d in ref_decisions))


# ----------------------------------------------------------------------
# Lifecycle: affinity, drain, shedding, fairness, close
# ----------------------------------------------------------------------
@fork_only
class TestLifecycle:
    def test_affinity_warms_only_the_primary_shard(self, scenes):
        with echo_router() as router:
            mission = mission_for_shard(0, 2)
            router.detect_many(scenes[:2], mission)
            assert mission in router.probe("queue_depth", 0)
            assert mission not in router.probe("queue_depth", 1)

    def test_graceful_drain_finishes_rejects_and_reroutes(self, scenes):
        from repro.serve.shard import _ShardJob

        with echo_router(0.2) as router:
            mission = mission_for_shard(0, 2)
            first = [router.submit(scenes[i % len(scenes)], mission)
                     for i in range(4)]

            router.drain_shard(0)
            deadline = time.monotonic() + 30.0
            while "states=[d" not in repr(router):
                assert time.monotonic() < deadline, "drain never announced"
                time.sleep(0.01)

            # Simulate the dispatch/drain race: a job that left the
            # front-end before the draining announcement arrived.  The
            # worker must reject it (engine.rejected) and the router
            # must reroute it to a live shard instead of dropping it.
            handle = router._handles[0]
            raced = _ShardJob(1_000_000, mission, scenes[0], None, None,
                              0, None)
            with handle.lock:
                handle.pending[raced.job_id] = raced
            assert handle.send(("job", raced.job_id, mission, scenes[0],
                                None, None))

            # New submits route around the draining shard.
            later = [router.submit(scenes[i % len(scenes)], mission)
                     for i in range(4)]

            # Nothing is dropped: every future resolves with a result.
            for future in first + [raced] + later:
                if isinstance(future, _ShardJob):
                    assert future.future.result(timeout=60.0) == []
                else:
                    assert future.result(timeout=60.0) == []

            router.close()
            docs = router.shard_snapshots()
            merged = merge_snapshots(docs)
            # All 9 scenes executed exactly once somewhere (reroute is
            # not re-execution), and the drained worker counted at
            # least the raced rejection.
            assert (merged["counters"]["engine.scenes"]["value_fp"]
                    == 9 * FP_SCALE)
            assert (merged["counters"]["engine.rejected"]["value_fp"]
                    >= 1 * FP_SCALE)
            assert (docs[0]["counters"]["engine.rejected"]["value_fp"]
                    >= 1 * FP_SCALE)
            # The post-drain traffic landed on the surviving shard.
            assert (docs[1]["counters"]["engine.scenes"]["value_fp"]
                    >= 4 * FP_SCALE)

    def test_queue_backpressure_sheds_nonblocking_submits(self):
        registry = get_registry()
        shed_before = registry.counters.get("shard.rejected")
        shed_before = shed_before.value if shed_before else 0
        # One shard, depth-1 queues everywhere, slow batches, and fat
        # payloads so the pipe buffer fills: backpressure must surface
        # as ShardRejected on a non-blocking submit, not as loss.
        payload = np.zeros(100_000, dtype=np.uint8)
        engine = EngineConfig(max_batch=1, flush_ms=1.0, workers=1,
                              queue_size=1)
        accepted, shed = [], False
        with echo_router(0.5, engine=engine, num_shards=1,
                         queue_size=1) as router:
            for _ in range(20):
                try:
                    accepted.append(
                        router.submit(payload, TASK, block=False))
                except ShardRejected:
                    shed = True
                    break
            assert shed, "bounded queues never pushed back"
            for future in accepted:
                assert future.result(timeout=60.0) == []
        assert registry.counters["shard.rejected"].value == shed_before + 1

    def test_tenant_fairness_cap(self, scenes):
        registry = get_registry()
        tenant_shed = registry.counters.get("shard.shed.tenant")
        tenant_shed = tenant_shed.value if tenant_shed else 0
        with echo_router(0.3, max_inflight_per_tenant=1) as router:
            hot = router.submit(scenes[0], TASK, tenant="hot")
            with pytest.raises(ShardRejected):
                router.submit(scenes[1], TASK, tenant="hot")
            # Another tenant is unaffected by the hot tenant's cap.
            cold = router.submit(scenes[1], TASK, tenant="cold")
            assert hot.result(timeout=30.0) == []
            assert cold.result(timeout=30.0) == []
            # The slot releases on completion, not on shed.
            again = router.submit(scenes[2], TASK, tenant="hot")
            assert again.result(timeout=30.0) == []
        assert (registry.counters["shard.shed.tenant"].value
                == tenant_shed + 1)

    def test_close_is_idempotent_and_submit_after_close_raises(
            self, scenes):
        router = echo_router()
        router.close()
        router.close()
        assert router.closed
        with pytest.raises(ShardClosed):
            router.submit(scenes[0], TASK)


# A front-end in its own process: starts a 2-shard router, prints the
# worker pids, and waits to be killed.
FRONT_END_SCRIPT = """
import json, sys, time
from repro.serve import ShardConfig, ShardRouter, TaskSessionFactory
router = ShardRouter(TaskSessionFactory(),
                     ShardConfig(num_shards=2, start_method=sys.argv[1]))
print(json.dumps([info["pid"] for info in router.shard_info()]), flush=True)
time.sleep(600)
"""


def process_gone(pid: int) -> bool:
    """Exited: no such process, or a zombie nobody has reaped yet."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            state = stat.read().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return True
    return state in ("Z", "X")


@pytest.mark.skipif(not os.path.isdir("/proc"), reason="needs procfs")
@pytest.mark.parametrize("method", START_METHODS)
def test_workers_exit_when_front_end_is_killed(method):
    import repro

    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    front = subprocess.Popen(
        [sys.executable, "-c", FRONT_END_SCRIPT, method],
        stdout=subprocess.PIPE, env=env, text=True)
    pids = []
    try:
        ready, _, _ = select.select([front.stdout], [], [], 120.0)
        assert ready, "front-end never reported its workers"
        pids = json.loads(front.stdout.readline())
        assert len(pids) == 2
        front.kill()
        front.wait()
        deadline = time.monotonic() + 5.0
        while (not all(process_gone(pid) for pid in pids)
               and time.monotonic() < deadline):
            time.sleep(0.05)
        assert [pid for pid in pids if not process_gone(pid)] == []
    finally:
        front.kill()
        front.wait()
        front.stdout.close()
        for pid in pids:
            if not process_gone(pid):
                os.kill(pid, signal.SIGKILL)


# ----------------------------------------------------------------------
# BLAS thread budget
# ----------------------------------------------------------------------
def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


class TestBlasBudget:
    def test_budget_splits_usable_cpus(self):
        cpus = usable_cpus()
        assert blas_budget(1) == cpus
        assert blas_budget(cpus) == 1
        assert blas_budget(cpus + 1) == 1

    @pytest.mark.parametrize("method", START_METHODS)
    def test_handshake_reports_budget_front_end_untouched(self, method):
        front = blas_threads()
        assert front, "no OpenBLAS library found in this process"
        router = ShardRouter(TaskSessionFactory(), ShardConfig(
            num_shards=2, start_method=method))
        try:
            assert blas_threads() == front
            infos = router.shard_info()
        finally:
            router.close()
        budget = max(1, usable_cpus() // 2)
        for info in infos:
            assert info["blas_threads"] == {name: budget for name in front}
        assert blas_threads() == front

    @fork_only
    def test_more_shards_than_cpus_get_one_thread(self):
        shards = usable_cpus() + 1
        with echo_router(num_shards=shards) as router:
            infos = router.shard_info()
        assert len(infos) == shards
        for info in infos:
            assert info["blas_threads"]
            assert set(info["blas_threads"].values()) == {1}


# ----------------------------------------------------------------------
# MetricsServer: ephemeral ports and aggregation endpoints
# ----------------------------------------------------------------------
class TestMetricsServer:
    def test_port_zero_binds_ephemeral_and_reports_actual(self):
        registry = Registry("shard-test")
        registry.count("requests", 2)
        with MetricsServer(registry, port=0) as server:
            assert server.port > 0
            assert server.url.endswith(f":{server.port}")
            doc = fetch_json(server.url + "/snapshot")
            assert doc["counters"]["requests"]["value_fp"] == 2 * FP_SCALE

    def test_two_ephemeral_servers_never_collide(self):
        registry = Registry("shard-test")
        with MetricsServer(registry, port=0) as a:
            with MetricsServer(registry, port=0) as b:
                assert a.port != b.port

    def test_snapshot_fn_serves_the_aggregated_document(self):
        left, right = Registry("left"), Registry("right")
        left.count("events", 1)
        right.count("events", 3)
        right.timer("stage").record(0.25)

        def aggregate():
            return merge_snapshots([mergeable_snapshot(left),
                                    mergeable_snapshot(right)])

        with MetricsServer(snapshot_fn=aggregate, port=0) as server:
            doc = fetch_json(server.url + "/snapshot")
            assert doc["counters"]["events"]["value_fp"] == 4 * FP_SCALE
            assert canonical(doc) == canonical(
                json.loads(json.dumps(aggregate())))
            with urllib.request.urlopen(server.url + "/metrics",
                                        timeout=10) as resp:
                text = resp.read().decode()
            assert 'repro_events_total{name="events"} 4' in text
            assert 'stage="stage"' in text


# ----------------------------------------------------------------------
# repro obs top --url a --url b
# ----------------------------------------------------------------------
class TestObsTopMultiUrl:
    def test_parser_accepts_repeated_urls(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(
            ["obs", "top", "--url", "http://h1:1", "--url", "http://h2:2"])
        assert args.url == ["http://h1:1", "http://h2:2"]

    def test_merged_totals_bit_match_single_process_run(self):
        def record(registry, timers, counters, dists):
            for name, values in timers.items():
                timer = registry.timer(name)
                for value in values:
                    timer.record(value)
            for name, amount in counters.items():
                registry.count(name, amount)
            for name, values in dists.items():
                for value in values:
                    registry.observe(name, value)

        # One workload, split across two "processes" vs run in one.
        half_a = (
            {"detect.batch": [0.25, 0.5], "engine.queue_wait": [0.125]},
            {"engine.scenes": 5, "shard.submitted": 3},
            {"engine.batch_size": [2.0, 4.0]})
        half_b = (
            {"detect.batch": [1.5], "engine.queue_wait": [0.0625, 0.75]},
            {"engine.scenes": 7, "engine.rejected": 2},
            {"engine.batch_size": [8.0]})

        registry_a, registry_b = Registry("a"), Registry("b")
        record(registry_a, *half_a)
        record(registry_b, *half_b)
        single = Registry("single")
        record(single, *half_a)
        record(single, *half_b)

        from repro.cli import _fetch_merged_snapshot

        with MetricsServer(registry_a, port=0) as server_a:
            with MetricsServer(registry_b, port=0) as server_b:
                merged = _fetch_merged_snapshot([server_a.url,
                                                 server_b.url])

        expected = json.loads(json.dumps(mergeable_snapshot(single)))
        assert canonical(merged) == canonical(expected)
        assert merged["counters"]["engine.scenes"]["value_fp"] == \
            12 * FP_SCALE

    def test_single_url_is_an_identity(self):
        registry = Registry("solo")
        registry.count("events", 9)
        registry.timer("stage").record(0.5)

        from repro.cli import _fetch_merged_snapshot

        with MetricsServer(registry, port=0) as server:
            merged = _fetch_merged_snapshot([server.url])
        expected = json.loads(json.dumps(mergeable_snapshot(registry)))
        assert canonical(merged) == canonical(expected)
