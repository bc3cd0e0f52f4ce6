"""The process-wide compute budget and the quantized forward pool.

Properties pinned here:

* parallel chunk forwards change no bit: ``detect_batch`` on the pool is
  bit-identical to per-scene ``detect`` and to a one-worker run, at
  every stride and chunk count;
* each ``QuantizedLinear`` keeps one scratch set per thread, sized to the
  largest forward that thread ran;
* the pool exists only when a call has several chunks and the budget is
  above one core; while it exists OpenBLAS runs one thread, and a
  forked child (a shard worker included) never inherits it;
* pool-thread spans hang under the caller's ``detect.batch_total``.

Budgets are forced by patching :func:`repro.compute.usable_cpus`, so the
two-worker paths run on any host.
"""

from __future__ import annotations

import math
import multiprocessing
import sys
import threading

import numpy as np
import pytest

import repro.compute as compute
from repro.data import SceneConfig, SceneGenerator
from repro.detect.pipeline import _BATCH_FORWARD_CHUNK
from repro.obs import Registry, get_registry, install_registry
from repro.obs.context import request_context
from repro.serve import ShardConfig, ShardRouter

from test_serve_shard import QuantizedSessionFactory, build_quantized_detector

TASK = "roadside_hazards"

fork_only = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="needs the fork start method")


@pytest.fixture()
def budget(monkeypatch):
    """``set(cpus)``: run this process as if it had ``cpus`` CPUs.

    Stops any pool before and after, so each test starts and leaves the
    process with no pool and its OpenBLAS counts as they were.
    """
    compute.release_forward_pool()

    def set_cpus(cpus: int) -> None:
        compute.release_forward_pool()
        monkeypatch.setattr(compute, "usable_cpus", lambda: cpus)

    yield set_cpus
    compute.release_forward_pool()


@pytest.fixture(scope="module")
def detector():
    return build_quantized_detector(TASK)


def grid3_scenes(count: int, seed: int = 5):
    return list(SceneGenerator(SceneConfig(grid=3),
                               seed=seed).generate_batch(count))


def assert_detections_identical(left, right) -> None:
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.bbox, a.score, a.objectness, a.task_score, a.class_id) == \
            (b.bbox, b.score, b.objectness, b.task_score, b.class_id)
        assert a.attribute_probs.keys() == b.attribute_probs.keys()
        for family in a.attribute_probs:
            np.testing.assert_array_equal(a.attribute_probs[family],
                                          b.attribute_probs[family])


def expected_chunks(total: int, workers: int, batch_size: int) -> int:
    cap = max(batch_size, _BATCH_FORWARD_CHUNK // workers)
    return 1 if total <= cap else math.ceil(total / cap)


def windows_per_scene(stride: int) -> int:
    cfg = SceneConfig(grid=3)
    return ((cfg.grid * cfg.cell_size - cfg.cell_size) // stride + 1) ** 2


# (stride, scenes) pairs giving 1, 2 and 3 chunks at two workers over
# grid-3 scenes (81, 49, 25 and 9 windows per scene).
CASES = [(8, 1), (8, 2), (8, 4),
         (10, 1), (10, 3), (10, 6),
         (16, 1), (16, 6), (16, 11),
         (32, 1), (32, 15), (32, 29)]


class TestParallelForwardExact:
    def test_cases_cover_one_two_and_odd_chunk_counts(self, detector):
        for stride in (8, 10, 16, 32):
            counts = {expected_chunks(scenes * windows_per_scene(stride), 2,
                                      detector.batch_size)
                      for s, scenes in CASES if s == stride}
            assert counts == {1, 2, 3}, (stride, counts)

    @pytest.mark.parametrize("stride,num_scenes", CASES)
    def test_batch_equals_per_scene_and_one_worker(self, detector, budget,
                                                   stride, num_scenes):
        scenes = grid3_scenes(num_scenes, seed=stride + num_scenes)
        budget(1)
        single = detector.detect_batch(scenes, stride=stride)
        assert not compute.budget_info()["forward_pool"]

        budget(2)
        forwards = get_registry().timer("detect.model_forward")
        before = forwards.calls
        parallel = detector.detect_batch(scenes, stride=stride)
        chunks = expected_chunks(num_scenes * windows_per_scene(stride), 2,
                                 detector.batch_size)
        assert forwards.calls - before == chunks
        assert compute.budget_info()["forward_pool"] == (chunks > 1)
        per_scene = [detector.detect(scene, stride=stride)
                     for scene in scenes]
        for got, one_worker, alone in zip(parallel, single, per_scene):
            assert_detections_identical(got, one_worker)
            assert_detections_identical(got, alone)


    def test_concurrent_callers_on_an_oversubscribed_pool(self, detector,
                                                          budget):
        """Four chunk threads on this host's cores, three callers sharing
        the pool, a short switch interval: every result is still the
        sequential one."""
        batches = [grid3_scenes(4, seed=20 + i) for i in range(3)]
        budget(1)
        expected = [detector.detect_batch(b, stride=8) for b in batches]
        budget(4)
        results = {}
        errors = []

        def run(index: int) -> None:
            try:
                for _ in range(3):
                    results[index] = detector.detect_batch(
                        batches[index], stride=8)
                    for got, want in zip(results[index], expected[index]):
                        assert_detections_identical(got, want)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(i,))
                       for i in range(len(batches))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert sorted(results) == [0, 1, 2]
        assert compute.budget_info()["forward_workers"] == 4


class TestScratchPerThread:
    def test_one_set_per_thread_sized_to_largest(self, detector):
        """Forwards of 64, 242 and 57 windows (1088, 4114 and 969 hidden
        rows) on two threads: every layer keeps one set per thread,
        grown to that thread's largest forward and kept there."""
        model = detector.model
        tokens = model.config.num_tokens
        images = np.random.default_rng(4).random(
            (242, 3, 32, 32)).astype(np.float32)
        sizes = (64, 242, 57)
        reference = {size: model(images[:size])["class_logits"]
                     for size in sizes}
        seen = {}
        errors = []

        def run(name: str) -> None:
            try:
                for size in sizes:
                    out = model(images[:size])["class_logits"]
                    np.testing.assert_array_equal(out, reference[size])
                seen[name] = {
                    site: (layer._scratch.rows,
                           {key: buf for key, buf in
                            layer._scratch.buffers.items() if buf is not None})
                    for site, layer in model.layers.items()}
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        threads = [threading.Thread(target=run, args=(f"t{i}",))
                   for i in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
            assert not thread.is_alive()
        assert not errors, errors
        assert set(seen) == {"t0", "t1"}
        for site in model.layers:
            if site == "patch_proj":
                rows = 242 * (tokens - 1)      # one row per patch
            elif site.startswith("block"):
                rows = 242 * tokens            # patches + CLS
            else:
                rows = 242                     # heads read CLS only
            first, second = seen["t0"][site], seen["t1"][site]
            for found, buffers in (first, second):
                assert found == rows, site
                assert buffers["acc"].shape[0] == rows
                assert buffers["out"].shape[0] == rows
            for key, buf in first[1].items():
                assert not np.shares_memory(buf, second[1][key]), (site, key)


class TestBudget:
    def test_single_chunk_forward_leaves_blas_counts(self, detector, budget):
        budget(2)
        front = compute.blas_threads()
        detector.detect_batch(grid3_scenes(2), stride=None)  # 18 windows
        assert compute.blas_threads() == front
        assert not compute.budget_info()["forward_pool"]

    def test_pool_pins_blas_to_one_and_release_restores(self, detector,
                                                        budget):
        budget(2)
        front = compute.blas_threads()
        assert front, "no OpenBLAS library found in this process"
        detector.detect_batch(grid3_scenes(2), stride=8)  # 162 windows
        info = compute.budget_info()
        assert info["forward_pool"] and info["forward_workers"] == 2
        assert set(info["blas_threads"].values()) == {1}
        compute.release_forward_pool()
        assert compute.blas_threads() == front

    def test_budget_one_never_starts_a_pool(self, detector, budget):
        budget(1)
        detector.detect_batch(grid3_scenes(4), stride=8)  # 324 windows
        assert not compute.budget_info()["forward_pool"]


def _child_forward(conn, scenes) -> None:
    before = compute.budget_info()["forward_pool"]
    result = build_quantized_detector(TASK).detect_batch(scenes, stride=8)
    conn.send((before, result))
    conn.close()


@fork_only
class TestForkSafety:
    def test_forked_child_starts_without_the_pool(self, detector, budget):
        """A child forked while the parent's pool exists gets a working
        fresh pool, not the parent's thread-less one."""
        budget(2)
        scenes = grid3_scenes(4)
        expected = detector.detect_batch(scenes, stride=8)
        assert compute.budget_info()["forward_pool"]
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_child_forward, args=(send, scenes))
        child.start()
        send.close()
        try:
            assert recv.poll(120), "forked child never answered"
            had_pool, result = recv.recv()
        finally:
            child.join(10)
            if child.is_alive():
                child.kill()
        assert had_pool is False
        for got, want in zip(result, expected):
            assert_detections_identical(got, want)

    def test_router_after_multi_chunk_batch(self, detector, budget):
        budget(2)
        scenes = grid3_scenes(6, seed=9)
        expected = detector.detect_batch(scenes, stride=8)
        assert compute.budget_info()["forward_pool"]
        router = ShardRouter(QuantizedSessionFactory(), ShardConfig(
            num_shards=2, start_method="fork"))
        try:
            futures = [router.submit(scene, f"{TASK}:{i % 2}", stride=8)
                       for i, scene in enumerate(scenes)]
            results = [future.result(timeout=120) for future in futures]
            infos = router.shard_info()
            probes = [router.probe("budget", shard)
                      for shard in range(router.num_shards)]
        finally:
            router.close()
        for got, want in zip(results, expected):
            assert_detections_identical(got, want)
        for info in infos:
            assert info["forward_workers"] == 1
        for probe in probes:
            assert probe["forward_workers"] == 1
            assert probe["forward_pool"] is False
            assert set(probe["blas_threads"].values()) == {1}


class TestTraceParentage:
    def test_pool_forward_spans_hang_under_batch_total(self, detector,
                                                       budget):
        budget(2)
        scenes = list(SceneGenerator(SceneConfig(grid=6),
                                     seed=3).generate_batch(8))
        detector.detect_batch(scenes[:2], stride=16)  # start the pool
        registry = Registry("trace-parentage")
        previous = install_registry(registry)
        try:
            with request_context(name="request") as ctx:
                detector.detect_batch(scenes, stride=16)
        finally:
            install_registry(previous)
        spans = {span.span_id: span for span in registry.spans}
        main = threading.get_ident()
        forwards = [s for s in spans.values()
                    if s.name.startswith("quant.forward")
                    or s.name == "detect.model_forward"]
        assert any(s.tid != main for s in forwards), "pool never used"
        assert sum(s.name == "quant.forward" for s in forwards) == 8

        def ancestors(span):
            names = []
            while span.parent_id is not None:
                span = spans[span.parent_id]
                names.append(span.name)
            return names

        for span in forwards:
            assert "detect.batch_total" in ancestors(span), span.name
            assert span.trace_id == ctx.trace_id
