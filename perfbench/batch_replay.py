"""``batch_replay``: closed-loop strided batch detection on the quantized
generalist.

``MissionSession.detect_batch`` over batches of grid-6 scenes scanned
with stride = cell_size / 2 (121 overlapping windows per scene), one
batch call at a time, batches rotating across all eight tasks.  The
pipeline has no specialists, so every session runs the quantized
configuration: a GEMM-bound forward at large batch, window extraction
through the strided gather, and NMS that actually suppresses.
"""

from __future__ import annotations

import statistics
import time
from typing import Any, Dict, List

import numpy as np

from harness import (
    Tracer,
    detections_identical,
    forward_cost_model,
    latency_summary,
    layer_metrics,
    local_snapshot,
    peak_rss_mb,
    unobserved,
)


class BatchReplay:
    name = "batch_replay"

    def __init__(self, cfg: Dict[str, Any], seed: int) -> None:
        from repro.data import SceneConfig, SceneGenerator, task_names

        self.cfg = cfg
        self.tasks = task_names()
        scene_cfg = SceneConfig(grid=cfg["grid"])
        self.stride = scene_cfg.cell_size // 2
        self.windows_per_scene = ((scene_cfg.image_size - scene_cfg.cell_size)
                                  // self.stride + 1) ** 2
        rng = np.random.default_rng(seed)
        size = cfg["batch_scenes"]
        self.batches: List[List[Any]] = []
        for index in range(cfg["batches"]):
            generator = SceneGenerator(
                scene_cfg, seed=int(rng.integers(2 ** 31)))
            self.batches.append(generator.generate_batch(size))
        self.batch_tasks = [self.tasks[i % len(self.tasks)]
                            for i in range(len(self.batches))]

    # -- system under test ---------------------------------------------
    def setup(self) -> Dict[str, Any]:
        """Artifact load, pipeline and the eight sessions, first call."""
        from repro.core import ArtifactBuilder, ITaskPipeline, TaskSpec
        from repro.data import get_task

        builder = ArtifactBuilder(seed=0, verbose=False)
        pipeline = ITaskPipeline(builder.quantized(),
                                 session_capacity=len(self.tasks))
        sessions = {name: pipeline.session(
            TaskSpec.from_definition(get_task(name))) for name in self.tasks}
        sessions[self.batch_tasks[0]].detect_batch(
            self.batches[0], stride=self.stride)
        return {"pipeline": pipeline, "sessions": sessions}

    def teardown(self, handle: Dict[str, Any]) -> None:
        handle.clear()

    def install_wrappers(self, tracer: Tracer) -> List[str]:
        return []

    def prepare(self, handle: Dict[str, Any]) -> None:
        """References (per-scene ``detect``) and warm-up, untimed."""
        sessions = handle["sessions"]
        for name, session in sessions.items():
            if session.decision.kind != "quantized":
                raise RuntimeError(
                    f"{name}: expected the quantized configuration, "
                    f"got {session.decision.kind}")
        if not hasattr(self, "references"):
            self.references = [
                [sessions[task].detect(scene, stride=self.stride)
                 for scene in batch]
                for task, batch in zip(self.batch_tasks, self.batches)]
        for task, batch in zip(self.batch_tasks, self.batches):
            sessions[task].detect_batch(batch, stride=self.stride)
        self.cost = forward_cost_model(
            handle["pipeline"].quantized_configuration.model)

    # -- measurement ---------------------------------------------------
    def measure(self, handle: Dict[str, Any], seconds: float,
                tracer: Tracer | None) -> Dict[str, Any]:
        from repro.cascade import scene_cell_accuracy
        from repro.data import get_task

        sessions = handle["sessions"]
        definitions = {name: get_task(name) for name in self.tasks}
        latencies: List[float] = []
        accuracies: List[float] = []
        scenes = wrong = calls = 0
        before = local_snapshot()
        deadline = time.perf_counter() + seconds
        index = 0
        while time.perf_counter() < deadline:
            slot = index % len(self.batches)
            task, batch = self.batch_tasks[slot], self.batches[slot]
            session = sessions[task]
            if tracer is not None:
                tracer.set_request(index)
                start = time.perf_counter()
                with tracer.span("session.detect_batch"):
                    results = session.detect_batch(batch, stride=self.stride)
            else:
                start = time.perf_counter()
                results = session.detect_batch(batch, stride=self.stride)
            latencies.append(time.perf_counter() - start)
            with unobserved(tracer):
                for scene, got, ref in zip(batch, results,
                                           self.references[slot]):
                    if not detections_identical(got, ref):
                        wrong += 1
                    accuracies.append(scene_cell_accuracy(
                        scene, got, definitions[task]))
            scenes += len(batch)
            calls += 1
            index += 1
        delta = local_snapshot() - before
        summary = latency_summary(latencies)
        return {
            "attempted": scenes,
            "failed": wrong,
            "wrong": wrong,
            "latency": summary,
            "end_to_end": {
                # Scenes per second at the median batch call: robust to
                # the host's slow phases, which a total-time mean is not.
                "rate_per_s": (len(self.batches[0])
                               / statistics.median(latencies)),
                "task_acc": float(np.mean(accuracies)),
                "peak_rss_mb": peak_rss_mb(),
            },
            "per_layer": layer_metrics(delta, self.cost, calls),
            "details": {"call_ms_quantiles": [
                1e3 * q for q in statistics.quantiles(latencies, n=20)],
                        "batch_calls": calls, "scenes": scenes,
                        "windows_per_scene": self.windows_per_scene},
        }
