"""Window scanning and task-conditioned detection.

Both model configurations plug in through one adapter,
:func:`predict_windows`, which normalizes the float ViT
(:class:`repro.nn.VisionTransformer`) and the integer one
(:class:`repro.quant.QuantizedVisionTransformer`) to the same output
contract: softmaxed class probabilities and per-family attribute
distributions as plain numpy arrays.

:class:`TaskDetector` then scans a scene's windows, computes

    score(window) = P(object) · kg_match(attribute distributions)

and emits :class:`Detection` records above threshold, after NMS.

The quantized configuration's forwards run on the exact BLAS-backed
integer kernels (:class:`~repro.quant.QuantizedLinear`): bit-identical
to the int64 reference arithmetic, and exactly batch-invariant — so
fused multi-scene forwards through :meth:`TaskDetector.detect_batch`
reproduce per-scene results bit for bit.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.compute import compute_budget, forward_pool
from repro.data.datasets import background_class_id
from repro.data.scenes import Scene
from repro.detect.boxes import nms, nms_reference
from repro.kg.matcher import GraphMatcher
from repro.nn import VisionTransformer
from repro.obs import get_registry
from repro.obs.context import current_context, use_context
from repro.quant.vit import QuantizedVisionTransformer
from repro.tensor import Tensor, no_grad

ModelLike = Union[VisionTransformer, QuantizedVisionTransformer]


def _attr_deadline(span) -> None:
    """Stamp the request's remaining deadline budget onto a span.

    A detect running under a deadline-bearing request context records
    how much budget was left when inference *started*, so traces show
    whether a deadline miss was spent queueing or computing.
    """
    ctx = current_context()
    if ctx is not None and ctx.deadline_s is not None:
        span.set_attr(deadline_remaining_s=round(ctx.remaining_s(), 6))

# Fused multi-scene forwards run bigger chunks than single-scene detect:
# per-chunk Python/dispatch overhead amortizes across the whole batch.
# 256 is the measured sweet spot for the student ViT on one CPU core;
# much larger chunks start thrashing cache in the attention GEMMs.  With
# a forward pool of W threads the cap is 256 // W windows per chunk, so
# the rows in flight per process stay the same.
_BATCH_FORWARD_CHUNK = 256


def _softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def _empty_predictions(model: ModelLike) -> Dict[str, np.ndarray]:
    """Well-formed zero-row outputs matching the model's head shapes."""
    cfg = model.config
    result: Dict[str, np.ndarray] = {
        "class_probs": np.zeros((0, cfg.num_classes), dtype=np.float32),
        "attribute_probs": {
            family: np.zeros((0, cardinality), dtype=np.float32)
            for family, cardinality in cfg.attribute_heads
        },
    }
    if cfg.with_task_head:
        result["task_probs"] = np.zeros(0, dtype=np.float32)
    return result


_ChunkOutput = Tuple[np.ndarray, Dict[str, np.ndarray], Optional[np.ndarray]]


def _forward_chunk(model: ModelLike, chunk: np.ndarray) -> _ChunkOutput:
    """One chunk's forward: softmaxed class, attribute and task outputs."""
    with get_registry().time("detect.model_forward"):
        if isinstance(model, QuantizedVisionTransformer):
            out = model(chunk)
            class_logits = out["class_logits"]
            attrs = out["attributes"]
            task_logits = out.get("task_logits")
        else:
            with no_grad():
                out = model(Tensor(chunk))
            class_logits = out["class_logits"].data
            attrs = {k: v.data for k, v in out["attributes"].items()}
            task_logits = out["task_logits"].data if "task_logits" in out else None
    return (_softmax_np(class_logits),
            {family: _softmax_np(logits) for family, logits in attrs.items()},
            None if task_logits is None else _softmax_np(task_logits))


def _forward_chunks_parallel(pool, model: ModelLike,
                             chunks: List[np.ndarray]) -> List[_ChunkOutput]:
    """Chunks on the forward pool, results in submission order.

    Each pool thread adopts the caller's open span and request context,
    so its ``detect.model_forward``/``quant.forward*`` spans hang under
    the caller's span with the caller's trace id.
    """
    obs = get_registry()
    parent = obs.current_span()
    ctx = current_context()

    def run(chunk: np.ndarray) -> _ChunkOutput:
        with use_context(ctx), obs.adopt(parent):
            return _forward_chunk(model, chunk)

    futures = [pool.submit(run, chunk) for chunk in chunks]
    return [future.result() for future in futures]


def predict_windows(model: ModelLike, windows: np.ndarray,
                    batch_size: int = 64) -> Dict[str, np.ndarray]:
    """Run a model configuration over ``(N, 3, S, S)`` windows.

    Returns ``{"class_probs": (N, C), "attribute_probs": {family: (N, V)}}``.
    An empty batch (``N == 0``) yields zero-row arrays of the right widths
    instead of crashing on an empty concatenate.

    The quantized configuration's chunks run on the process's forward
    pool (:func:`repro.compute.forward_pool`) when there is more than
    one chunk and the compute budget is above one core.  Its results are
    exact and row-local, so the thread a chunk runs on cannot change a
    bit.  Float forwards stay sequential: their results move by ulps
    with BLAS threading.
    """
    if windows.shape[0] == 0:
        return _empty_predictions(model)
    get_registry().count("detect.windows_scored", windows.shape[0])
    chunks = [np.asarray(windows[start:start + batch_size], dtype=np.float32)
              for start in range(0, windows.shape[0], batch_size)]
    pool = (forward_pool() if len(chunks) > 1
            and isinstance(model, QuantizedVisionTransformer) else None)
    if pool is None:
        parts = [_forward_chunk(model, chunk) for chunk in chunks]
    else:
        parts = _forward_chunks_parallel(pool, model, chunks)
    result: Dict[str, np.ndarray] = {
        "class_probs": np.concatenate([part[0] for part in parts], axis=0),
        "attribute_probs": {
            family: np.concatenate([part[1][family] for part in parts], axis=0)
            for family in parts[0][1]
        },
    }
    if parts[0][2] is not None:
        # probability the window is relevant to the specialist's task
        result["task_probs"] = np.concatenate(
            [part[2] for part in parts], axis=0)[:, 1]
    return result


def score_predictions(
    predictions: Dict[str, np.ndarray],
    matcher: Optional[GraphMatcher] = None,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Turn :func:`predict_windows` output into per-window scores.

    Returns ``(objectness, task_scores, combined)``.  The task score
    comes from the specialist's distilled task head when present,
    otherwise from the knowledge-graph matcher; with neither, detection
    degrades to plain objectness (the data-only baseline).  This is the
    single scoring rule shared by :class:`TaskDetector` and the
    streaming tracker.
    """
    objectness = 1.0 - predictions["class_probs"][:, background_class_id()]
    if "task_probs" in predictions:
        # Task-specific configuration: the distilled task head IS the
        # knowledge graph's decision, baked into the specialist.
        task_scores = predictions["task_probs"]
    elif matcher is not None:
        task_scores = matcher.match_distributions(
            predictions["attribute_probs"]).score
    else:
        task_scores = np.ones_like(objectness)
    return objectness, task_scores, objectness * task_scores


def score_windows(model: ModelLike, windows: np.ndarray,
                  matcher: Optional[GraphMatcher] = None,
                  batch_size: int = 64) -> np.ndarray:
    """Combined per-window scores in one call (the streaming reuse hook).

    :func:`predict_windows` + :func:`score_predictions` fused for callers
    that only need the combined score vector — notably the delta-gated
    streaming tier, which forwards just the windows whose pixels changed
    and splices cached scores in for the rest.  Scores are a pure
    function of ``(window pixels, matcher state)``, which is what makes
    that cache-and-splice exact.
    """
    predictions = predict_windows(model, windows, batch_size=batch_size)
    _, _, combined = score_predictions(predictions, matcher)
    return combined


def confidence_margin(combined: np.ndarray, score_threshold: float) -> float:
    """Distance of the closest window score to the decision threshold.

    The margin is the per-scene confidence signal the cascade router
    keys on: a small margin means at least one window sat right at the
    emit/suppress boundary, where the quantized configuration and the
    task-specific specialist are most likely to disagree.  A scene with
    no windows has nothing near the boundary and scores ``inf``
    (maximally confident).  Pure function of one scene's combined
    scores, so it is identical across :meth:`TaskDetector.detect`,
    :meth:`TaskDetector.detect_batch`, and the serving engine.
    """
    if combined.size == 0:
        return float("inf")
    return float(np.abs(combined - score_threshold).min())


@dataclasses.dataclass(frozen=True)
class SceneSignals:
    """Per-scene confidence signals emitted alongside detections.

    ``margin`` is :func:`confidence_margin`; ``max_combined`` is the best
    window's combined score (0.0 for a windowless scene).  Both are
    computed from the same scored windows the emitted detections came
    from — no extra forward pass.
    """

    margin: float
    max_combined: float
    num_windows: int
    num_detections: int


@dataclasses.dataclass
class Detection:
    """One task-relevant detection in a scene."""

    bbox: Tuple[int, int, int, int]
    score: float
    objectness: float
    task_score: float
    class_id: int
    attribute_probs: Dict[str, np.ndarray]

    def __repr__(self) -> str:
        return (
            f"Detection(bbox={self.bbox}, score={self.score:.3f}, "
            f"class={self.class_id})"
        )


class TaskDetector:
    """Task-oriented detector: model configuration + KG matcher.

    Parameters
    ----------
    model:
        Either model configuration (float distilled ViT or quantized ViT).
    matcher:
        Knowledge-graph matcher for the active task; ``None`` degrades to
        plain object detection (objectness only) — the data-only baseline.
    score_threshold:
        Minimum combined score to emit a detection.
    nms_iou:
        IoU threshold for the final NMS pass (grid windows never overlap,
        but sliding-window mode produces duplicates).
    vectorized:
        When True (default), window extraction uses a batched
        stride-tricks gather and NMS the batched-IoU implementation.
        When False, both fall back to the readable per-cell / O(N²)
        reference loops — the seed implementation, kept as an oracle for
        tests and as the baseline in ``bench_e10_pipeline_latency``.
    """

    def __init__(
        self,
        model: ModelLike,
        matcher: Optional[GraphMatcher] = None,
        score_threshold: float = 0.35,
        nms_iou: float = 0.5,
        batch_size: int = 64,
        vectorized: bool = True,
    ) -> None:
        if not 0.0 <= score_threshold <= 1.0:
            raise ValueError("score_threshold must be in [0, 1]")
        self.model = model
        self.matcher = matcher
        self.score_threshold = score_threshold
        self.nms_iou = nms_iou
        self.batch_size = batch_size
        self.vectorized = vectorized

    # ------------------------------------------------------------------
    def _windows(self, scene: Scene,
                 stride: Optional[int] = None) -> Tuple[np.ndarray, List[Tuple[int, int, int, int]]]:
        with get_registry().time("detect.window_build"):
            if self.vectorized:
                return self._windows_vectorized(scene, stride=stride)
            return self._windows_loop(scene, stride=stride)

    @staticmethod
    def _window_starts(scene: Scene, stride: Optional[int]) -> Tuple[int, np.ndarray]:
        size = scene.cell_size
        stride = stride or size
        limit = scene.size - size
        starts = np.arange(0, limit + 1, stride) if limit >= 0 else np.empty(0, int)
        return size, starts

    def _windows_loop(self, scene: Scene,
                      stride: Optional[int] = None) -> Tuple[np.ndarray, List[Tuple[int, int, int, int]]]:
        """Reference one-crop-per-cell extraction (seed implementation)."""
        size, starts = self._window_starts(scene, stride)
        boxes: List[Tuple[int, int, int, int]] = []
        crops: List[np.ndarray] = []
        for y0 in starts:
            for x0 in starts:
                bbox = (int(x0), int(y0), int(x0) + size, int(y0) + size)
                boxes.append(bbox)
                crops.append(scene.crop(bbox))
        if not crops:
            channels = scene.image.shape[0]
            return np.zeros((0, channels, size, size), dtype=scene.image.dtype), []
        return np.stack(crops), boxes

    @staticmethod
    def _grid_aligned(scene: Scene, size: int, stride: Optional[int]) -> bool:
        """Windows tile the scene exactly (stride == window == cell)."""
        return (stride or size) == size and scene.size % size == 0

    def _windows_vectorized(self, scene: Scene,
                            stride: Optional[int] = None) -> Tuple[np.ndarray, List[Tuple[int, int, int, int]]]:
        """Batched extraction: one strided gather builds the whole batch."""
        size, starts = self._window_starts(scene, stride)
        channels = scene.image.shape[0]
        if starts.size == 0:
            # Scene smaller than one window: no valid placements.
            return np.zeros((0, channels, size, size), dtype=scene.image.dtype), []
        if self._grid_aligned(scene, size, stride):
            # Non-overlapping tiling: a pure reshape/transpose copy, far
            # cheaper than the general strided gather below.
            n = scene.size // size
            windows = scene.image.reshape(channels, n, size, n, size)
            windows = windows.transpose(1, 3, 0, 2, 4).reshape(
                -1, channels, size, size)
        else:
            view = np.lib.stride_tricks.sliding_window_view(
                scene.image, (size, size), axis=(1, 2))
            # (C, ny, nx, S, S) -> (ny, nx, C, S, S) -> (N, C, S, S)
            windows = view[:, starts[:, None], starts[None, :]]
            windows = windows.transpose(1, 2, 0, 3, 4).reshape(
                -1, channels, size, size)
        boxes = [
            (int(x0), int(y0), int(x0) + size, int(y0) + size)
            for y0 in starts for x0 in starts
        ]
        return windows, boxes

    def _windows_all(
        self, scenes: Sequence[Scene], stride: Optional[int] = None,
    ) -> Tuple[np.ndarray, List[List[Tuple[int, int, int, int]]]]:
        """All scenes' windows as one ``(N, C, S, S)`` batch.

        Requires homogeneous scenes (same image shape and cell size —
        :meth:`detect_batch` checks).  The vectorized path stacks the
        images and runs a single strided gather, so the fused batch is
        element-identical to per-scene extraction.
        """
        with get_registry().time("detect.window_build"):
            first = scenes[0]
            size, starts = self._window_starts(first, stride)
            channels = first.image.shape[0]
            if starts.size == 0:
                empty = np.zeros((0, channels, size, size),
                                 dtype=first.image.dtype)
                return empty, [[] for _ in scenes]
            if not self.vectorized:
                parts: List[np.ndarray] = []
                boxes_per_scene: List[List[Tuple[int, int, int, int]]] = []
                for scene in scenes:
                    windows, boxes = self._windows_loop(scene, stride=stride)
                    parts.append(windows)
                    boxes_per_scene.append(boxes)
                return np.concatenate(parts, axis=0), boxes_per_scene
            if self._grid_aligned(first, size, stride):
                # Non-overlapping tiling: strided copies straight into the
                # fused batch, one per scene — no intermediate stack, and
                # an order of magnitude cheaper than the general gather.
                n = first.size // size
                windows = np.empty(
                    (len(scenes) * n * n, channels, size, size),
                    dtype=first.image.dtype)
                dest = windows.reshape(len(scenes), n, n, channels, size, size)
                for i, scene in enumerate(scenes):
                    dest[i] = scene.image.reshape(
                        channels, n, size, n, size).transpose(1, 3, 0, 2, 4)
            else:
                images = np.stack([scene.image for scene in scenes])
                view = np.lib.stride_tricks.sliding_window_view(
                    images, (size, size), axis=(2, 3))
                # (B, C, ny, nx, S, S) -> (B, ny, nx, C, S, S) -> (N, C, S, S)
                windows = view[:, :, starts[:, None], starts[None, :]]
                windows = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
                    -1, channels, size, size)
            boxes = [
                (int(x0), int(y0), int(x0) + size, int(y0) + size)
                for y0 in starts for x0 in starts
            ]
            return windows, [list(boxes) for _ in scenes]

    # ------------------------------------------------------------------
    def _emit(
        self,
        boxes: Sequence[Tuple[int, int, int, int]],
        class_probs: np.ndarray,
        attribute_probs: Dict[str, np.ndarray],
        objectness: np.ndarray,
        task_scores: np.ndarray,
        combined: np.ndarray,
    ) -> List[Detection]:
        """Threshold + NMS for one scene's scored windows."""
        candidates = [
            Detection(
                bbox=boxes[i],
                score=float(combined[i]),
                objectness=float(objectness[i]),
                task_score=float(task_scores[i]),
                class_id=int(class_probs[i].argmax()),
                attribute_probs={
                    family: probs[i] for family, probs in attribute_probs.items()
                },
            )
            for i in np.flatnonzero(combined >= self.score_threshold)
        ]
        if not candidates:
            return []
        nms_fn = nms if self.vectorized else nms_reference
        with get_registry().span("detect.nms", candidates=len(candidates)):
            keep = nms_fn([d.bbox for d in candidates],
                          [d.score for d in candidates],
                          iou_threshold=self.nms_iou)
        return [candidates[i] for i in keep]

    @staticmethod
    def _signals(combined: np.ndarray, score_threshold: float,
                 num_detections: int) -> SceneSignals:
        return SceneSignals(
            margin=confidence_margin(combined, score_threshold),
            max_combined=float(combined.max()) if combined.size else 0.0,
            num_windows=int(combined.size),
            num_detections=num_detections,
        )

    def detect(self, scene: Scene, stride: Optional[int] = None) -> List[Detection]:
        return self.detect_with_signals(scene, stride=stride)[0]

    def detect_with_signals(
        self, scene: Scene, stride: Optional[int] = None,
    ) -> Tuple[List[Detection], SceneSignals]:
        """:meth:`detect` plus the scene's :class:`SceneSignals`.

        The signals come from the same scored windows as the detections;
        ``detect`` is exactly this with the signals dropped.
        """
        obs = get_registry()
        task_name = self.matcher.kg.task_name if self.matcher is not None else None
        with obs.span("detect.total", task=task_name, grid=scene.grid,
                      vectorized=self.vectorized) as span:
            _attr_deadline(span)
            windows, boxes = self._windows(scene, stride=stride)
            span.set_attr(windows=len(boxes))
            predictions = predict_windows(self.model, windows,
                                          batch_size=self.batch_size)
            with obs.time("detect.kg_match"):
                objectness, task_scores, combined = score_predictions(
                    predictions, self.matcher)
            detections = self._emit(
                boxes, predictions["class_probs"],
                predictions["attribute_probs"],
                objectness, task_scores, combined)
            span.set_attr(detections=len(detections))
            return detections, self._signals(
                combined, self.score_threshold, len(detections))

    def detect_batch(self, scenes: Sequence[Scene],
                     stride: Optional[int] = None) -> List[List[Detection]]:
        return self.detect_batch_with_signals(scenes, stride=stride)[0]

    def detect_batch_with_signals(
        self, scenes: Sequence[Scene], stride: Optional[int] = None,
    ) -> Tuple[List[List[Detection]], List[SceneSignals]]:
        """Batch-first detection: one fused model forward across scenes.

        Windows from every scene are concatenated into a single forward
        pass and a single knowledge-graph match, then split back for
        per-scene threshold + NMS.  Results arrive in input order, one
        detection list per scene.

        Determinism: window extraction, matching, threshold, and NMS are
        all row-wise, and the quantized (integer) configuration's forward
        is exactly order- and batch-invariant — so with it, detect_batch
        is bit-identical to per-scene :meth:`detect`.  Float models agree
        on boxes and keep order, with scores equal to within one or two
        ulps (BLAS GEMM tiling varies with batch size on the narrow
        attribute heads).

        Scenes with different image shapes or cell sizes cannot share a
        forward; those fall back to per-scene detection (still under the
        ``detect.batch_total`` span).
        """
        scenes = list(scenes)
        obs = get_registry()
        task_name = self.matcher.kg.task_name if self.matcher is not None else None
        if not scenes:
            return [], []
        with obs.span("detect.batch_total", task=task_name,
                      scenes=len(scenes), vectorized=self.vectorized) as span:
            _attr_deadline(span)
            if len({(s.image.shape, s.cell_size) for s in scenes}) > 1:
                span.set_attr(fused=False)
                pairs = [self.detect_with_signals(scene, stride=stride)
                         for scene in scenes]
                return [p[0] for p in pairs], [p[1] for p in pairs]
            windows, boxes_per_scene = self._windows_all(scenes, stride=stride)
            counts = [len(boxes) for boxes in boxes_per_scene]
            total = int(windows.shape[0])
            span.set_attr(windows=total, fused=True)
            # Larger forward chunks amortize per-call overhead across the
            # batch; even-sized chunks avoid a slow ragged tail.  Per-scene
            # batch_size still applies when it is bigger.
            cap = _BATCH_FORWARD_CHUNK
            if isinstance(self.model, QuantizedVisionTransformer):
                cap //= compute_budget()
            chunk = max(self.batch_size, cap)
            if total > chunk:
                pieces = -(-total // chunk)
                chunk = -(-total // pieces)
            predictions = predict_windows(self.model, windows, batch_size=chunk)
            class_probs = predictions["class_probs"]
            attribute_probs = predictions["attribute_probs"]
            with obs.time("detect.kg_match"):
                objectness = 1.0 - class_probs[:, background_class_id()]
                if "task_probs" in predictions:
                    task_scores = predictions["task_probs"]
                elif self.matcher is not None:
                    # Row-wise scoring: one match over the concatenated
                    # batch equals per-scene matching (see match_batch,
                    # which adds the per-scene result split when needed).
                    task_scores = self.matcher.match_distributions(
                        attribute_probs).score
                else:
                    task_scores = np.ones_like(objectness)
                combined = objectness * task_scores
            results: List[List[Detection]] = []
            signals: List[SceneSignals] = []
            emitted = 0
            start = 0
            # One vectorized threshold pass; scenes without a candidate
            # skip slicing and emission entirely.
            passed = combined >= self.score_threshold
            for boxes, n in zip(boxes_per_scene, counts):
                rows = slice(start, start + n)
                if not passed[rows].any():
                    results.append([])
                    signals.append(self._signals(
                        combined[rows], self.score_threshold, 0))
                    start += n
                    continue
                detections = self._emit(
                    boxes, class_probs[rows],
                    {f: p[rows] for f, p in attribute_probs.items()},
                    objectness[rows], task_scores[rows], combined[rows])
                results.append(detections)
                signals.append(self._signals(
                    combined[rows], self.score_threshold, len(detections)))
                emitted += len(detections)
                start += n
            span.set_attr(detections=emitted)
            return results, signals
