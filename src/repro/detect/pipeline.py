"""Window scanning and task-conditioned detection.

Both model configurations plug in through one adapter,
:func:`predict_windows`, which normalizes the float ViT
(:class:`repro.nn.VisionTransformer`) and the integer one
(:class:`repro.quant.QuantizedVisionTransformer`) to the same output
contract: softmaxed class probabilities and per-family attribute
distributions as plain numpy arrays.

:class:`TaskDetector` has one scoring core.  :func:`gather_windows`
cuts a list of same-shaped scenes into one window batch, one
:func:`predict_windows` forward and one :func:`score_predictions` pass
compute

    score(window) = P(object) · kg_match(attribute distributions)

and the scores are split per scene for threshold, NMS and
:class:`SceneSignals`.  ``detect`` is ``detect_batch`` of one scene, and
the streaming tracker reuses the same gather and scoring rule.  The
per-crop extraction loop and the O(N²) NMS live in
:mod:`repro.fuzz.reference`, as the reference the oracles, the tests and
the E10 benchmark compare this core against.

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
from repro.detect.boxes import nms
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


def gather_windows(
    scenes: Sequence[Scene], stride: Optional[int] = None,
) -> Tuple[np.ndarray, List[Tuple[int, int, int, int]]]:
    """All scenes' windows as one ``(N, C, S, S)`` batch, plus their boxes.

    Windows are ``cell_size`` squares placed every ``stride`` pixels
    (default: one per cell), in scene order and row-major within a
    scene.  The scenes must share image shape and cell size, so one box
    list describes every scene's windows.  Each scene is copied once out
    of a strided view of its image straight into the fused batch.  A
    scene smaller than one window yields a zero-row batch.
    """
    first = scenes[0]
    size = first.cell_size
    step = stride or size
    channels = first.image.shape[0]
    starts = range(0, first.size - size + 1, step)
    windows = np.empty(
        (len(scenes), len(starts), len(starts), channels, size, size),
        dtype=first.image.dtype)
    if starts:
        for i, scene in enumerate(scenes):
            view = np.lib.stride_tricks.sliding_window_view(
                scene.image, (size, size), axis=(1, 2))[:, ::step, ::step]
            # (C, ny, nx, S, S) -> (ny, nx, C, S, S)
            windows[i] = view.transpose(1, 2, 0, 3, 4)
    boxes = [(x0, y0, x0 + size, y0 + size) for y0 in starts for x0 in starts]
    return windows.reshape(-1, channels, size, size), boxes


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
    batch_size:
        Smallest forward chunk; fused batches run bigger chunks (see
        ``_BATCH_FORWARD_CHUNK``).
    """

    # Window extraction; the reference detector in repro.fuzz swaps in
    # its per-crop loop here and its O(N²) NMS in _suppress.
    _gather = staticmethod(gather_windows)

    def __init__(
        self,
        model: ModelLike,
        matcher: Optional[GraphMatcher] = None,
        score_threshold: float = 0.35,
        nms_iou: float = 0.5,
        batch_size: int = 64,
    ) -> None:
        if not 0.0 <= score_threshold <= 1.0:
            raise ValueError("score_threshold must be in [0, 1]")
        self.model = model
        self.matcher = matcher
        self.score_threshold = score_threshold
        self.nms_iou = nms_iou
        self.batch_size = batch_size

    def _suppress(self, boxes: Sequence[Tuple[int, int, int, int]],
                  scores: Sequence[float]) -> List[int]:
        # Looked up at call time, so a wrapped module-level nms sees it.
        return nms(boxes, scores, iou_threshold=self.nms_iou)

    # ------------------------------------------------------------------
    def _detect_scenes(
        self, scenes: Sequence[Scene], stride: Optional[int],
    ) -> Tuple[List[List[Detection]], List[SceneSignals]]:
        """The scoring core: one gather, one forward, one scoring pass.

        ``scenes`` share image shape and cell size.  Their windows run
        through :func:`predict_windows` in chunks of at least
        ``_BATCH_FORWARD_CHUNK`` windows (divided by the compute budget
        for the quantized configuration) and are scored once by
        :func:`score_predictions`; the scores are then split per scene
        for threshold, NMS and :class:`SceneSignals`.
        """
        obs = get_registry()
        with obs.time("detect.window_build"):
            windows, boxes = self._gather(scenes, stride)
        total = int(windows.shape[0])
        # Larger forward chunks amortize per-call overhead across the
        # batch; even-sized chunks avoid a slow ragged tail.  batch_size
        # still applies when it is bigger.
        cap = _BATCH_FORWARD_CHUNK
        if isinstance(self.model, QuantizedVisionTransformer):
            cap //= compute_budget()
        chunk = max(self.batch_size, cap)
        if total > chunk:
            pieces = -(-total // chunk)
            chunk = -(-total // pieces)
        predictions = predict_windows(self.model, windows, batch_size=chunk)
        with obs.time("detect.kg_match"):
            objectness, task_scores, combined = score_predictions(
                predictions, self.matcher)
        class_probs = predictions["class_probs"]
        attribute_probs = predictions["attribute_probs"]
        n = len(boxes)
        # One vectorized threshold pass; scenes without a candidate skip
        # emission entirely.
        passed = combined >= self.score_threshold
        results: List[List[Detection]] = []
        signals: List[SceneSignals] = []
        for index in range(len(scenes)):
            first = index * n
            hits = np.flatnonzero(passed[first:first + n])
            detections: List[Detection] = []
            if hits.size:
                candidates = [
                    Detection(
                        bbox=boxes[hit],
                        score=float(combined[row]),
                        objectness=float(objectness[row]),
                        task_score=float(task_scores[row]),
                        class_id=int(class_probs[row].argmax()),
                        attribute_probs={family: probs[row] for family, probs
                                         in attribute_probs.items()},
                    )
                    for hit, row in zip(hits, hits + first)
                ]
                with obs.span("detect.nms", candidates=len(candidates)):
                    keep = self._suppress([d.bbox for d in candidates],
                                          [d.score for d in candidates])
                detections = [candidates[i] for i in keep]
            scene_scores = combined[first:first + n]
            results.append(detections)
            signals.append(SceneSignals(
                margin=confidence_margin(scene_scores, self.score_threshold),
                max_combined=float(scene_scores.max()) if n else 0.0,
                num_windows=n,
                num_detections=len(detections),
            ))
        return results, signals

    def detect(self, scene: Scene, stride: Optional[int] = None) -> List[Detection]:
        return self.detect_with_signals(scene, stride=stride)[0]

    def detect_with_signals(
        self, scene: Scene, stride: Optional[int] = None,
    ) -> Tuple[List[Detection], SceneSignals]:
        """:meth:`detect` plus the scene's :class:`SceneSignals`.

        Exactly :meth:`detect_batch_with_signals` of ``[scene]`` (same
        core, same forward chunks), recorded as one ``detect.total``
        span.  ``detect`` is this with the signals dropped.
        """
        task_name = self.matcher.kg.task_name if self.matcher is not None else None
        with get_registry().span("detect.total", task=task_name,
                                 grid=scene.grid) as span:
            _attr_deadline(span)
            [detections], [signals] = self._detect_scenes([scene], stride)
            span.set_attr(windows=signals.num_windows,
                          detections=signals.num_detections)
            return detections, signals

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
        attribute heads); a one-scene batch is bit-identical to
        :meth:`detect` on either configuration.

        Scenes with different image shapes or cell sizes cannot share a
        forward; those run through the core one scene at a time, all
        under the one ``detect.batch_total`` span.
        """
        scenes = list(scenes)
        if not scenes:
            return [], []
        task_name = self.matcher.kg.task_name if self.matcher is not None else None
        with get_registry().span("detect.batch_total", task=task_name,
                                 scenes=len(scenes)) as span:
            _attr_deadline(span)
            fused = len({(s.image.shape, s.cell_size) for s in scenes}) == 1
            results: List[List[Detection]] = []
            signals: List[SceneSignals] = []
            for group in [scenes] if fused else [[s] for s in scenes]:
                group_results, group_signals = self._detect_scenes(group, stride)
                results += group_results
                signals += group_signals
            span.set_attr(windows=sum(s.num_windows for s in signals),
                          detections=sum(s.num_detections for s in signals),
                          fused=fused)
            return results, signals
