"""Streaming detector: temporal smoothing + hysteresis over frames.

Single-frame detections flicker: sensor noise makes a borderline window
cross the threshold one frame and miss the next.  The streaming detector
keeps an exponential moving average of the combined score per grid cell
and applies hysteresis — a track turns *on* above ``on_threshold`` and
only turns *off* below the lower ``off_threshold``.  Tracks carry stable
ids across frames.

Incremental detection (``TrackerConfig.delta_gate``) makes per-frame
cost scale with *scene change* instead of scene size: each cell's pixels
are fingerprinted (crc32 + byte length + pixel sum) and, when the
fingerprint matches the previous scoring of that cell, the cached raw
score is reused without a model forward or a matcher pass.  Identical
pixels through a deterministic model + matcher produce identical scores,
so gated EMA/hysteresis state is *bit-equal* to full recompute on the
quantized configuration (whose exact kernels are batch-invariant) and
ulp-equal on the float one.  Two staleness escapes are closed
explicitly: cached matcher results are keyed on the knowledge graph's
``version`` (a KG edit invalidates every cached cell), and
``refresh_every`` forces a periodic full re-score.  The optional
``motion_threshold`` adds *tracker-prior carryover*: a cell whose pixels
moved, but by less than the threshold, keeps its cached score as long as
it holds an active track — approximate by design, with drift bounded by
``refresh_every``.
"""

from __future__ import annotations

import dataclasses
import zlib
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.data.scenes import Scene
from repro.detect.pipeline import ModelLike, gather_windows, score_windows
from repro.kg.matcher import GraphMatcher
from repro.obs import get_registry

if TYPE_CHECKING:
    from repro.serve.session import MissionSession


@dataclasses.dataclass(frozen=True)
class TrackerConfig:
    smoothing: float = 0.6        # EMA weight on the previous score
    on_threshold: float = 0.4
    off_threshold: float = 0.25
    max_missed_frames: int = 3    # drop a track after this many off frames
    delta_gate: bool = False      # reuse cached scores for unchanged cells
    motion_threshold: float = 0.0  # carryover: mean-abs delta counted as static
    refresh_every: int = 0        # force a full re-score every N frames (0=off)

    def __post_init__(self) -> None:
        if not 0.0 <= self.smoothing < 1.0:
            raise ValueError("smoothing must be in [0, 1)")
        if not 0.0 <= self.off_threshold <= self.on_threshold <= 1.0:
            raise ValueError("need 0 <= off_threshold <= on_threshold <= 1")
        if self.motion_threshold < 0.0:
            raise ValueError("motion_threshold must be >= 0")
        if self.refresh_every < 0:
            raise ValueError("refresh_every must be >= 0")


@dataclasses.dataclass
class Track:
    """A task-relevant object persisted across frames."""

    track_id: int
    cell: Tuple[int, int]
    first_frame: int
    last_frame: int
    score: float
    active: bool = True
    missed: int = 0


@dataclasses.dataclass
class GateStats:
    """One detector's running view of delta-gate effectiveness."""

    frames: int = 0       # gated frames processed
    skipped: int = 0      # cells reused from cache (incl. carried)
    recomputed: int = 0   # cells sent through the model forward
    carried: int = 0      # reuses granted by tracker-prior carryover

    @property
    def hit_rate(self) -> float:
        total = self.skipped + self.recomputed
        return self.skipped / total if total else 0.0


def _window_fingerprint(window: np.ndarray) -> Tuple[int, int, float]:
    """Cheap order-sensitive fingerprint of one cell's pixels.

    crc32 over the raw bytes, the byte length, and the float pixel sum.
    Two windows with equal fingerprints are treated as identical; a
    simultaneous crc32 *and* sum collision on same-length buffers is the
    only way a changed cell could slip through, and ``refresh_every``
    bounds even that astronomically unlikely case.
    """
    buffer = np.ascontiguousarray(window)
    return zlib.crc32(buffer.tobytes()), buffer.nbytes, float(buffer.sum())


@dataclasses.dataclass
class _CellCache:
    """Last computed raw score for one cell (the delta-gate reuse unit).

    ``score`` keeps the numpy scalar exactly as the scoring pass
    produced it — converting to a python float would change the dtype
    the EMA arithmetic sees and break bit-equality with full recompute.
    ``window`` (reference pixels for the carryover delta) is retained
    only when ``motion_threshold`` is active.
    """

    fingerprint: Tuple[int, int, float]
    score: Any
    kg_version: int
    window: Optional[np.ndarray] = None


class StreamingDetector:
    """Stateful per-cell detector over a frame stream."""

    def __init__(self, model: ModelLike, matcher: Optional[GraphMatcher],
                 config: TrackerConfig = TrackerConfig(),
                 batch_size: int = 64) -> None:
        self.model = model
        self.matcher = matcher
        self.config = config
        self.batch_size = batch_size
        self._ema: Dict[Tuple[int, int], float] = {}
        self._tracks: Dict[Tuple[int, int], Track] = {}
        self._history: List[Track] = []
        self._next_track_id = 0
        self._frame = -1
        self._score_cache: Dict[Tuple[int, int], _CellCache] = {}
        self.gate_stats = GateStats()

    # ------------------------------------------------------------------
    @classmethod
    def from_session(cls, session: "MissionSession",
                     config: TrackerConfig = TrackerConfig(),
                     batch_size: int = 64) -> "StreamingDetector":
        """Build a tracker on a prepared mission session's model + matcher."""
        detector = session.detector
        return cls(detector.model, detector.matcher, config=config,
                   batch_size=batch_size)

    # ------------------------------------------------------------------
    @staticmethod
    def _cells_and_windows(scene: Scene) -> Tuple[List[Tuple[int, int]], np.ndarray]:
        """The scene's ``(row, col)`` cells and their windows, row-major.

        The detector's own gather; a zero-cell scene (degenerate grid)
        yields a well-formed zero-row batch.
        """
        windows, boxes = gather_windows([scene])
        size = scene.cell_size
        return [(y0 // size, x0 // size) for x0, y0, _, _ in boxes], windows

    def _score_frames(
        self, scenes: Sequence[Scene],
    ) -> List[Dict[Tuple[int, int], float]]:
        """Raw ``{cell: score}`` of each frame from one fused forward.

        The ungated scorer: the windows of every frame run through a
        single :func:`score_windows` call (the same scoring rule as
        :class:`TaskDetector`), then split back per frame.  An ungated
        :meth:`update` is the one-frame case.
        """
        frames = [self._cells_and_windows(scene) for scene in scenes]
        # Zero-cell frames contribute zero-row parts; dropping them keeps
        # the concatenate well-formed even when frame shapes differ only
        # through degenerate grids (an all-empty chunk scores nothing).
        parts = ([windows for _, windows in frames if windows.shape[0]]
                 or [frames[0][1]])
        windows = parts[0] if len(parts) == 1 else np.concatenate(parts)
        combined = score_windows(self.model, windows, self.matcher,
                                 batch_size=self.batch_size)
        raws: List[Dict[Tuple[int, int], float]] = []
        start = 0
        for cells, _ in frames:
            raws.append(dict(zip(cells, combined[start:start + len(cells)])))
            start += len(cells)
        return raws

    def _matcher_version(self) -> int:
        """KG edit counter the cached matcher results are keyed on."""
        return self.matcher.kg.version if self.matcher is not None else -1

    def _gated_scores(self, scene: Scene) -> Dict[Tuple[int, int], float]:
        """Raw cell scores with frame-delta gating (see module docstring).

        Returns the same ``{cell: score}`` map ``_score_frames`` would,
        in the same cell order (track birth order depends on it), but
        only sends changed cells through the model; unchanged cells
        reuse the cached score of their last scoring pass — so gated
        cells still count as *observed* in :meth:`_advance`, which is
        the correctness contract: reuse replaces the forward, never the
        observation.
        """
        cfg = self.config
        registry = get_registry()
        cells, windows = self._cells_and_windows(scene)
        frame = self._frame + 1  # the index _advance will stamp
        refresh = cfg.refresh_every > 0 and frame % cfg.refresh_every == 0
        kg_version = self._matcher_version()
        scores: List[Any] = [None] * len(cells)
        compute: List[int] = []
        carried = 0
        with registry.time("stream.gate"):
            fingerprints = [_window_fingerprint(w) for w in windows]
            for index, cell in enumerate(cells):
                entry = self._score_cache.get(cell)
                if (refresh or entry is None
                        or entry.kg_version != kg_version):
                    compute.append(index)
                    continue
                if entry.fingerprint == fingerprints[index]:
                    scores[index] = entry.score
                    continue
                track = self._tracks.get(cell)
                if (cfg.motion_threshold > 0.0 and entry.window is not None
                        and track is not None and track.active
                        and float(np.abs(windows[index] - entry.window).mean())
                        <= cfg.motion_threshold):
                    # Tracker-prior carryover: sub-threshold motion on a
                    # confirmed track keeps the cached score alive.  The
                    # reference pixels stay at the last *computed* frame,
                    # so drift is bounded by refresh_every, not unbounded
                    # by a random walk of tiny deltas.
                    scores[index] = entry.score
                    carried += 1
                    continue
                compute.append(index)
        if compute:
            fresh = score_windows(self.model, windows[compute], self.matcher,
                                  batch_size=self.batch_size)
            keep_pixels = cfg.motion_threshold > 0.0
            for slot, index in enumerate(compute):
                scores[index] = fresh[slot]
                self._score_cache[cells[index]] = _CellCache(
                    fingerprint=fingerprints[index], score=fresh[slot],
                    kg_version=kg_version,
                    window=np.array(windows[index]) if keep_pixels else None)
        reused = len(cells) - len(compute)
        stats = self.gate_stats
        stats.frames += 1
        stats.skipped += reused
        stats.recomputed += len(compute)
        stats.carried += carried
        registry.count("stream.cells.skipped", reused)
        registry.count("stream.cells.recomputed", len(compute))
        if cells:
            registry.observe("stream.delta_gate.hit_rate",
                             reused / len(cells))
        return dict(zip(cells, scores))

    # ------------------------------------------------------------------
    def update(self, scene: Scene) -> List[Track]:
        """Process one frame; returns the currently active tracks."""
        with get_registry().span("stream.update"):
            if self.config.delta_gate:
                raw = self._gated_scores(scene)
            else:
                [raw] = self._score_frames([scene])
            return self._advance(raw)

    def update_many(self, scenes: Sequence[Scene]) -> List[List[Track]]:
        """Process a chunk of frames with one fused model forward.

        The windows of every frame in the chunk are scored in a single
        batched forward (the replay/offline-analysis fast path); the
        temporal EMA + hysteresis state then advances frame by frame in
        order, exactly as repeated :meth:`update` calls would.  Returns
        each frame's active-track snapshot.

        With the delta gate enabled the chunk cannot be fused — whether
        a window is re-scored depends on the cache state the previous
        frame left behind — so the chunk falls back to sequential
        :meth:`update` calls; the gate itself already removes most
        forwards.
        """
        scenes = list(scenes)
        if not scenes:
            return []
        if self.config.delta_gate:
            return [[dataclasses.replace(t) for t in self.update(scene)]
                    for scene in scenes]
        # Deep-copy each snapshot: tracks are mutable and advance in
        # place on later frames, so sharing the Track objects would
        # silently rewrite frame 0's scores to frame k's.
        return [[dataclasses.replace(t) for t in self._advance(raw)]
                for raw in self._score_frames(scenes)]

    def _advance(self, raw: Dict[Tuple[int, int], float]) -> List[Track]:
        """Advance one frame of EMA + hysteresis from raw cell scores.

        Cells absent from ``raw`` (shrinking grids, degenerate frames,
        gated windows) are *unobserved*: their EMA decays toward zero —
        an unobserved cell is evidence of nothing, not of persistence —
        their tracks count the frame as missed, and stale smoothed
        scores never give birth to new tracks.
        """
        self._frame += 1
        cfg = self.config
        for cell, score in raw.items():
            previous = self._ema.get(cell, score)
            self._ema[cell] = cfg.smoothing * previous + (1 - cfg.smoothing) * float(score)
        for cell in self._ema:
            if cell not in raw:
                # EMA update with an implicit zero observation.
                self._ema[cell] *= cfg.smoothing

        for cell, smoothed in self._ema.items():
            observed = cell in raw
            track = self._tracks.get(cell)
            if track is None or not track.active:
                if observed and smoothed >= cfg.on_threshold:
                    track = Track(track_id=self._next_track_id, cell=cell,
                                  first_frame=self._frame,
                                  last_frame=self._frame, score=smoothed)
                    self._next_track_id += 1
                    self._tracks[cell] = track
                    self._history.append(track)
                continue
            # active track: hysteresis
            track.score = smoothed
            if observed and smoothed >= cfg.off_threshold:
                track.last_frame = self._frame
                track.missed = 0
            else:
                track.missed += 1
                if track.missed > cfg.max_missed_frames:
                    track.active = False
        return self.active_tracks()

    def active_tracks(self) -> List[Track]:
        return [t for t in self._tracks.values() if t.active]

    @property
    def all_tracks(self) -> List[Track]:
        return list(self._history)

    def reset(self) -> None:
        self._ema.clear()
        self._tracks.clear()
        self._history.clear()
        self._next_track_id = 0
        self._frame = -1
        self._score_cache.clear()
        self.gate_stats = GateStats()
