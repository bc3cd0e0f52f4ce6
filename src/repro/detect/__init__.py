"""Detection pipeline: proposals, scoring, NMS, and metrics.

Scenes are scanned window-by-window; each window gets class/attribute
predictions from a model configuration, and the knowledge-graph matcher
turns attribute distributions into task-relevance scores.  Metrics cover
both classic detection quality (precision/recall/AP) and the paper's
task-accuracy measure.
"""

from repro.detect.boxes import box_iou, box_area, clip_box, nms
from repro.detect.pipeline import (
    Detection,
    SceneSignals,
    TaskDetector,
    confidence_margin,
    predict_windows,
    score_predictions,
)
from repro.detect.metrics import (
    DetectionMetrics,
    match_detections,
    precision_recall_curve,
    average_precision,
    evaluate_task_detection,
    task_accuracy,
    window_task_accuracy,
)

__all__ = [
    "box_iou",
    "box_area",
    "clip_box",
    "nms",
    "Detection",
    "SceneSignals",
    "TaskDetector",
    "confidence_margin",
    "predict_windows",
    "score_predictions",
    "DetectionMetrics",
    "match_detections",
    "precision_recall_curve",
    "average_precision",
    "evaluate_task_detection",
    "task_accuracy",
    "window_task_accuracy",
]
