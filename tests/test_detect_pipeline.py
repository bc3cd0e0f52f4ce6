"""Detection pipeline: adapters, scanning, task conditioning."""

import numpy as np
import pytest

from repro.data import SceneConfig, SceneGenerator, get_task
from repro.data.datasets import background_class_id, num_classes
from repro.data.scenes import Scene
from repro.detect import TaskDetector, predict_windows, task_accuracy
from repro.detect.pipeline import gather_windows
from repro.fuzz.reference import ReferenceDetector, windows_loop
from repro.kg import GraphMatcher, SimulatedLLM
from repro.quant import quantize_vit


@pytest.fixture(scope="module")
def scene():
    return SceneGenerator(SceneConfig(), seed=21).generate()


class TestPredictWindows:
    def test_float_model_contract(self, student_vit):
        windows = np.random.default_rng(0).random((5, 3, 32, 32)).astype(np.float32)
        out = predict_windows(student_vit, windows)
        assert out["class_probs"].shape == (5, num_classes())
        np.testing.assert_allclose(out["class_probs"].sum(axis=-1), 1.0, rtol=1e-4)
        for family, probs in out["attribute_probs"].items():
            np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-4)

    def test_quantized_model_contract(self, student_vit):
        rng = np.random.default_rng(1)
        calibration = rng.random((16, 3, 32, 32)).astype(np.float32)
        q = quantize_vit(student_vit, calibration)
        out = predict_windows(q, calibration[:4])
        assert out["class_probs"].shape == (4, num_classes())

    def test_batching_consistent(self, student_vit):
        windows = np.random.default_rng(2).random((10, 3, 32, 32)).astype(np.float32)
        small = predict_windows(student_vit, windows, batch_size=3)
        large = predict_windows(student_vit, windows, batch_size=64)
        np.testing.assert_allclose(small["class_probs"], large["class_probs"],
                                   atol=1e-5)

    def test_zero_windows_float_model(self, student_vit):
        """Regression: an empty batch used to crash on np.concatenate([])."""
        out = predict_windows(student_vit, np.zeros((0, 3, 32, 32), np.float32))
        assert out["class_probs"].shape == (0, num_classes())
        reference = predict_windows(
            student_vit,
            np.random.default_rng(3).random((2, 3, 32, 32)).astype(np.float32))
        for family, probs in reference["attribute_probs"].items():
            assert out["attribute_probs"][family].shape == (0, probs.shape[1])
        assert ("task_probs" in out) == ("task_probs" in reference)

    def test_zero_windows_quantized_model(self, student_vit):
        rng = np.random.default_rng(4)
        calibration = rng.random((8, 3, 32, 32)).astype(np.float32)
        q = quantize_vit(student_vit, calibration)
        out = predict_windows(q, np.zeros((0, 3, 32, 32), np.float32))
        assert out["class_probs"].shape == (0, num_classes())


class TestTaskDetector:
    def test_grid_window_count(self, student_vit, scene):
        windows, boxes = gather_windows([scene])
        assert windows.shape[0] == scene.grid ** 2 == len(boxes)

    def test_sliding_stride(self, student_vit, scene):
        windows, _ = gather_windows([scene], stride=16)
        expected = ((scene.size - scene.cell_size) // 16 + 1) ** 2
        assert windows.shape[0] == expected

    def test_threshold_zero_fires_everywhere(self, student_vit, scene):
        detector = TaskDetector(student_vit, score_threshold=0.0)
        detections = detector.detect(scene)
        assert len(detections) == scene.grid ** 2

    def test_threshold_one_fires_nowhere(self, student_vit, scene):
        detector = TaskDetector(student_vit, score_threshold=1.0)
        assert detector.detect(scene) == []

    def test_detections_sorted_and_bounded(self, student_vit, scene):
        detector = TaskDetector(student_vit, score_threshold=0.0)
        detections = detector.detect(scene)
        scores = [d.score for d in detections]
        assert scores == sorted(scores, reverse=True)
        for d in detections:
            assert 0.0 <= d.score <= 1.0
            assert 0.0 <= d.objectness <= 1.0
            assert 0.0 <= d.task_score <= 1.0

    def test_matcher_changes_scores(self, student_vit, scene):
        task = get_task("stop_control")
        kg = SimulatedLLM().generate_for_task(task)
        plain = TaskDetector(student_vit, matcher=None, score_threshold=0.0)
        tasked = TaskDetector(student_vit, matcher=GraphMatcher(kg),
                              score_threshold=0.0)
        plain_scores = {d.bbox: d.score for d in plain.detect(scene)}
        task_scores = {d.bbox: d.score for d in tasked.detect(scene)}
        # task conditioning can only lower the combined score
        for bbox, score in task_scores.items():
            assert score <= plain_scores[bbox] + 1e-9

    def test_score_threshold_validation(self, student_vit):
        with pytest.raises(ValueError):
            TaskDetector(student_vit, score_threshold=1.5)

    def test_scene_smaller_than_window_yields_no_detections(self, student_vit):
        """Regression: a scene below one cell used to crash np.stack([])."""
        tiny = Scene(image=np.zeros((3, 16, 16), dtype=np.float32),
                     objects=[], grid=1, cell_size=32)
        for detector_cls in (TaskDetector, ReferenceDetector):
            detector = detector_cls(student_vit, score_threshold=0.0)
            windows, boxes = detector._gather([tiny])
            assert windows.shape == (0, 3, 32, 32)
            assert boxes == []
            assert detector.detect(tiny) == []

    def test_windows_vectorized_matches_loop(self, student_vit, scene):
        for stride in (None, 16, 24):
            vec_windows, vec_boxes = gather_windows([scene], stride=stride)
            loop_windows, loop_boxes = windows_loop([scene], stride=stride)
            assert vec_boxes == loop_boxes
            np.testing.assert_array_equal(vec_windows, loop_windows)

    def test_detect_vectorized_matches_reference(self, student_vit, scene):
        task = get_task("stop_control")
        matcher = GraphMatcher(SimulatedLLM().generate_for_task(task))
        for stride in (None, 16):
            results = []
            for detector_cls in (TaskDetector, ReferenceDetector):
                detector = detector_cls(student_vit, matcher=matcher,
                                        score_threshold=0.0)
                results.append(detector.detect(scene, stride=stride))
            vec, ref = results
            assert [d.bbox for d in vec] == [d.bbox for d in ref]
            np.testing.assert_allclose([d.score for d in vec],
                                       [d.score for d in ref], rtol=1e-12)

    def test_float_detect_equals_one_scene_batch(self, student_vit):
        """detect is detect_batch of one scene: same forward chunks, so
        detections and signals agree bit for bit on the float model."""
        task = get_task("stop_control")
        matcher = GraphMatcher(SimulatedLLM().generate_for_task(task))
        detector = TaskDetector(student_vit, matcher=matcher,
                                score_threshold=0.0)
        for grid, stride, windows in ((6, 8, 441), (12, None, 144)):
            scene = SceneGenerator(SceneConfig(grid=grid), seed=grid).generate()
            single, single_signals = detector.detect_with_signals(
                scene, stride=stride)
            [batch], [batch_signals] = detector.detect_batch_with_signals(
                [scene], stride=stride)
            assert single_signals.num_windows == windows
            assert single_signals == batch_signals
            _assert_same_detections(single, batch)

    def test_mixed_shape_batch_has_no_nested_detect_total(self, student_vit):
        """Scenes that cannot share a forward run through the core one
        at a time, inside detect.batch_total and without detect.total."""
        from repro.obs import Registry, install_registry

        scenes = [SceneGenerator(SceneConfig(grid=grid), seed=grid).generate()
                  for grid in (3, 4, 3)]
        detector = TaskDetector(student_vit, score_threshold=0.0)
        expected = [detector.detect_with_signals(scene) for scene in scenes]
        registry = Registry("mixed-batch")
        previous = install_registry(registry)
        try:
            results, signals = detector.detect_batch_with_signals(scenes)
        finally:
            install_registry(previous)
        names = [span.name for span in registry.spans]
        assert names.count("detect.batch_total") == 1
        assert "detect.total" not in names
        for (detections, scene_signals), got, got_signals in zip(
                expected, results, signals):
            assert scene_signals == got_signals
            _assert_same_detections(detections, got)

    def test_task_accuracy_range(self, student_vit):
        task = get_task("roadside_hazards")
        scenes = SceneGenerator(SceneConfig(), seed=5).generate_batch(3)
        detector = TaskDetector(student_vit, score_threshold=0.5)
        acc = task_accuracy(detector, scenes, task)
        assert 0.0 <= acc <= 1.0
        acc_hard = task_accuracy(detector, scenes, task, object_cells_only=True)
        assert 0.0 <= acc_hard <= 1.0


def _assert_same_detections(left, right):
    assert len(left) == len(right)
    for a, b in zip(left, right):
        assert (a.bbox, a.score, a.objectness, a.task_score, a.class_id) == (
            b.bbox, b.score, b.objectness, b.task_score, b.class_id)
        assert a.attribute_probs.keys() == b.attribute_probs.keys()
        for family in a.attribute_probs:
            np.testing.assert_array_equal(a.attribute_probs[family],
                                          b.attribute_probs[family])
