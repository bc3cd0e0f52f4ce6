"""Reference window extraction and NMS: the readable loops.

:class:`~repro.detect.TaskDetector` gathers windows with one strided
copy per scene and suppresses with a batched-IoU NMS.  The loops below
are the seed implementations of those two steps, kept as the oracle
they are checked against: :class:`ReferenceDetector` is the production
detector with only these two steps swapped, so it shares the forward
chunking and the scoring rule, and a disagreement can only come from
extraction or NMS.  The ``static_paths`` oracle, the tests and the E10
benchmark compare against it.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.data.scenes import Scene
from repro.detect.boxes import Box, _descending_order, _validate_nms_args, box_iou
from repro.detect.pipeline import TaskDetector


def windows_loop(
    scenes: Sequence[Scene], stride: Optional[int] = None,
) -> Tuple[np.ndarray, List[Tuple[int, int, int, int]]]:
    """One crop per window, stacked: the contract of
    :func:`repro.detect.pipeline.gather_windows`, written as a loop."""
    first = scenes[0]
    size = first.cell_size
    starts = range(0, first.size - size + 1, stride or size)
    boxes = [(x0, y0, x0 + size, y0 + size) for y0 in starts for x0 in starts]
    crops = [scene.crop(bbox) for scene in scenes for bbox in boxes]
    if not crops:
        channels = first.image.shape[0]
        return np.zeros((0, channels, size, size), dtype=first.image.dtype), boxes
    return np.stack(crops), boxes


def nms_reference(boxes: Sequence[Box], scores: Sequence[float],
                  iou_threshold: float = 0.5) -> List[int]:
    """Greedy non-maximum suppression — readable O(N²) loop version.

    The reference for :func:`repro.detect.nms`: the test suite asserts
    the vectorized implementation returns identical keep lists on random
    inputs.  Returns the indices of kept boxes, in descending score
    order.  The classic invariants hold: kept boxes are mutually below
    the IoU threshold, and every suppressed box overlaps some
    higher-scoring kept box at or above it.
    """
    _validate_nms_args(boxes, scores, iou_threshold)
    order = _descending_order(scores)
    kept: List[int] = []
    suppressed = np.zeros(len(boxes), dtype=bool)
    for idx in order:
        if suppressed[idx]:
            continue
        kept.append(int(idx))
        for other in order:
            if other == idx or suppressed[other]:
                continue
            if box_iou(boxes[idx], boxes[other]) >= iou_threshold:
                suppressed[other] = True
    return kept


class ReferenceDetector(TaskDetector):
    """:class:`TaskDetector` with the loop extraction and the loop NMS."""

    _gather = staticmethod(windows_loop)

    def _suppress(self, boxes, scores) -> List[int]:
        return nms_reference(boxes, scores, iou_threshold=self.nms_iou)
