"""``stream_cams``: closed-loop multi-camera gated streaming.

Four :class:`repro.stream.SceneSequence` cameras (grid 8, 64 cells
each) are stepped round-robin, one frame at a time, through
``session.stream(TrackerConfig(delta_gate=True))`` on the quantized
session.  Three cameras move at a low motion rate and one at full
motion, where the delta gate is pure overhead.  Frames are rendered
from the seed before each timed update; only ``update`` is timed.

Oracle: every camera also feeds a full-recompute tracker
(``delta_gate=False``) the same frame, outside the timed call, and the
two active-track lists must agree field by field on every frame.
"""

from __future__ import annotations

import dataclasses
import statistics
import time
from typing import Any, Dict, List, Tuple

import numpy as np

from harness import (
    Tracer,
    forward_cost_model,
    latency_summary,
    layer_metrics,
    local_snapshot,
    peak_rss_mb,
    ratio,
    unobserved,
)


def _tracks_key(tracks) -> List[Tuple]:
    return sorted(dataclasses.astuple(t) for t in tracks)


class StreamCams:
    name = "stream_cams"

    def __init__(self, cfg: Dict[str, Any], seed: int) -> None:
        self.cfg = cfg
        self.seed = seed
        rng = np.random.default_rng(seed)
        # One sequence seed per camera and pass, fixed before timing.
        self.camera_seeds = [int(s) for s in rng.integers(2 ** 31, size=64)]
        self.passes = 0

    # -- system under test ---------------------------------------------
    def setup(self) -> Dict[str, Any]:
        """Artifact load, pipeline, sessions, one cold gated update."""
        from repro.core import ArtifactBuilder, ITaskPipeline, TaskSpec
        from repro.data import get_task
        from repro.stream import TrackerConfig

        builder = ArtifactBuilder(seed=0, verbose=False)
        pipeline = ITaskPipeline(builder.quantized())
        sessions = [pipeline.session(TaskSpec.from_definition(get_task(name)))
                    for name in self._camera_tasks()]
        first = self._sequence(0, warm=True).step().scene
        sessions[0].stream(TrackerConfig(delta_gate=True)).update(first)
        return {"pipeline": pipeline, "sessions": sessions}

    def teardown(self, handle: Dict[str, Any]) -> None:
        handle.clear()

    def install_wrappers(self, tracer: Tracer) -> List[str]:
        return []

    def _camera_tasks(self) -> List[str]:
        return [cam["task"] for cam in self.cfg["cameras"]]

    def _sequence(self, camera: int, warm: bool = False):
        from repro.data import SceneConfig
        from repro.stream import SceneSequence, SequenceConfig

        cam = self.cfg["cameras"][camera]
        config = SequenceConfig(scene=SceneConfig(grid=self.cfg["grid"]),
                                motion_rate=cam["motion_rate"])
        # Each measured pass streams fresh sequences; warm-up uses its own.
        slot = 2 * (self.passes * len(self.cfg["cameras"]) + camera) + int(warm)
        return SceneSequence(config, seed=self.camera_seeds[slot % 64])

    def prepare(self, handle: Dict[str, Any]) -> None:
        """Warm every camera's shapes on throwaway streams, untimed."""
        from repro.stream import TrackerConfig

        for camera, session in enumerate(handle["sessions"]):
            sequence = self._sequence(camera, warm=True)
            tracker = session.stream(TrackerConfig(delta_gate=True))
            for _ in range(self.cfg["warm_frames"]):
                tracker.update(sequence.step().scene)
        self.cost = forward_cost_model(
            handle["pipeline"].quantized_configuration.model)

    # -- measurement ---------------------------------------------------
    def measure(self, handle: Dict[str, Any], seconds: float,
                tracer: Tracer | None) -> Dict[str, Any]:
        from repro.stream import TrackerConfig

        cameras = self.cfg["cameras"]
        sessions = handle["sessions"]
        sequences = [self._sequence(c) for c in range(len(cameras))]
        self.passes += 1
        gated = [s.stream(TrackerConfig(delta_gate=True)) for s in sessions]
        full = [s.stream(TrackerConfig(delta_gate=False)) for s in sessions]
        labels = ["stream.update.full_motion" if cam["motion_rate"] >= 1.0
                  else "stream.update.low_motion" for cam in cameras]
        relevant_tasks = [s.spec.definition for s in sessions]

        # The first frames of each stream fill the gate's cache; they are
        # checked by the oracle like every other frame but not timed.
        lead_in = lead_wrong = 0
        for camera in range(len(cameras)):
            for _ in range(self.cfg["lead_in_frames"]):
                scene = sequences[camera].step().scene
                got = _tracks_key(gated[camera].update(scene))
                with unobserved(tracer):
                    want = _tracks_key(full[camera].update(scene))
                lead_in += 1
                lead_wrong += got != want

        latencies: List[float] = []
        rounds: List[float] = []
        by_class: Dict[str, List[float]] = {label: [] for label in labels}
        accuracies: List[float] = []
        frames = wrong = 0
        before = local_snapshot()
        stats_before = [(d.gate_stats.skipped, d.gate_stats.recomputed)
                        for d in gated]
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            round_s = 0.0
            for camera in range(len(cameras)):
                state = sequences[camera].step()
                detector = gated[camera]
                if tracer is not None:
                    tracer.set_request(frames)
                    start = time.perf_counter()
                    with tracer.span(labels[camera]):
                        got = detector.update(state.scene)
                else:
                    start = time.perf_counter()
                    got = detector.update(state.scene)
                elapsed = time.perf_counter() - start
                round_s += elapsed
                latencies.append(elapsed)
                by_class[labels[camera]].append(elapsed)
                got_key = _tracks_key(got)
                with unobserved(tracer):
                    want = full[camera].update(state.scene)
                if got_key != _tracks_key(want):
                    wrong += 1
                accuracies.append(self._accuracy(
                    state.scene, got, relevant_tasks[camera]))
                frames += 1
            rounds.append(round_s)
        delta = local_snapshot() - before
        skipped = sum(d.gate_stats.skipped - b[0]
                      for d, b in zip(gated, stats_before))
        recomputed = sum(d.gate_stats.recomputed - b[1]
                         for d, b in zip(gated, stats_before))
        summary = latency_summary(latencies)
        per_layer = layer_metrics(delta, self.cost, frames)
        for label, values in by_class.items():
            per_layer[label.replace("stream.update.", "stream.update_ms.")] = (
                1e3 * float(np.mean(values)) if values else 0.0)
        per_layer["stream.gate_hit_rate"] = ratio(skipped, skipped + recomputed)
        per_layer["stream.cells_recomputed"] = float(recomputed)
        per_layer["stream.gate_ms"] = delta.mean_ms("stream.gate")
        wrong += lead_wrong
        return {
            "attempted": frames + lead_in,
            "failed": wrong,
            "wrong": wrong,
            "latency": summary,
            "end_to_end": {
                # Frames per second at the median round (one frame from
                # every camera): robust to the host's slow phases.
                "rate_per_s": len(cameras) / statistics.median(rounds),
                "task_acc": float(np.mean(accuracies)),
                "peak_rss_mb": peak_rss_mb(),
            },
            "per_layer": per_layer,
            "details": {"round_ms_quantiles": [
                1e3 * q for q in statistics.quantiles(rounds, n=20)],
                        "frames": frames,
                        "frames_per_class": {k: len(v)
                                             for k, v in by_class.items()},
                        "cells_skipped": skipped,
                        "cells_recomputed": recomputed},
        }

    @staticmethod
    def _accuracy(scene, tracks, task) -> float:
        """Share of cells whose tracked state matches task relevance."""
        tracked = {t.cell for t in tracks}
        relevant = {obj.cell for obj in scene.objects
                    if task.matches(obj.profile)}
        cells = scene.grid * scene.grid
        return 1.0 - len(tracked ^ relevant) / cells
