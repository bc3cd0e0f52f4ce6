"""Quantized-inference benchmark workloads (E12).

Shared by ``benchmarks/bench_e12_quant_inference.py`` (which persists
telemetry and gates CI) and the ``repro quant bench`` CLI subcommand.
Three workloads cover the integer stack bottom-up:

* :func:`run_kernel_latency` — per-site GEMM latency of the exact
  BLAS-backed :meth:`~repro.quant.QuantizedLinear.forward_integer`
  against the int64 :meth:`forward_integer_reference`, asserting the
  outputs are **bit-identical** before anything is timed;
* :func:`run_forward_latency` — the whole quantized network end to end
  (patch projection → blocks → heads) at serving batch size, BLAS
  kernels vs the int64 reference model (:func:`reference_model`), gated
  on bit-identical outputs — the ≥5x acceptance measurement;
* :func:`run_e2e_forward` — quantized scenes/sec through the full
  detect path (``TaskDetector.detect_batch`` over a scene stream,
  window extraction and NMS included), again gated on bit-identical
  detections;
* :func:`repro.serve.bench.compare_engine_configurations` — float
  specialist vs quantized engine throughput (re-exported here for the
  benchmark's third table).

Timing rounds are round-robined across modes so single-core machine
drift cancels out of every reported speedup; the model-level workloads
additionally time each mode in steady state (see
:func:`_steady_state_rounds`) rather than on the other mode's evicted
cache.
"""

from __future__ import annotations

import copy
import time
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data import SceneConfig, SceneGenerator, attribute_head_spec
from repro.data.datasets import num_classes
from repro.nn import VisionTransformer, ViTConfig
from repro.quant.linear import QuantizedLinear
from repro.quant.qparams import QuantSpec
from repro.quant.vit import (
    ProjFn, QuantizedVisionTransformer, _traced_proj, quantize_vit,
)
from repro.serve.bench import _interleaved_rounds, compare_engine_configurations

__all__ = [
    "build_quantized_student",
    "run_kernel_latency",
    "run_forward_latency",
    "run_e2e_forward",
    "compare_engine_configurations",
    "reference_model",
]


def _reference_projection(layer: QuantizedLinear) -> ProjFn:
    def apply(x: np.ndarray) -> np.ndarray:
        flat = x.reshape(-1, x.shape[-1])
        y = layer.forward_integer_reference(layer.quantize_input(flat))
        return y.reshape(*x.shape[:-1], layer.out_features)

    return apply


def reference_model(
        quantized: QuantizedVisionTransformer) -> QuantizedVisionTransformer:
    """The same quantized network on the int64 reference kernels.

    Shares ``quantized``'s parameters; only the projection table
    differs, with every site running
    :meth:`~repro.quant.QuantizedLinear.forward_integer_reference` — the
    oracle the BLAS kernels must match bit for bit.  Sites still record
    their ``quant.forward.<site>`` spans.
    """
    reference = QuantizedVisionTransformer(model=quantized.model,
                                           layers=quantized.layers)
    reference._projections = {
        site: _traced_proj(site, _reference_projection(layer))
        for site, layer in quantized.layers.items()
    }
    return reference


def build_quantized_student(
    weight_bits: int = 8,
    act_bits: int = 8,
    calibration_images: int = 32,
    seed: int = 0,
) -> QuantizedVisionTransformer:
    """Fresh student ViT, post-training quantized at the given widths.

    Weights are untrained (timing does not depend on values), so the
    workload is stateless — no artifact cache involved.
    """
    config = ViTConfig.student(num_classes(), attribute_head_spec())
    model = VisionTransformer(config, rng=np.random.default_rng(seed))
    calibration = np.random.default_rng(seed + 1).random(
        (calibration_images, config.in_channels,
         config.image_size, config.image_size)).astype(np.float32)
    return quantize_vit(
        model, calibration,
        weight_spec=QuantSpec(bits=weight_bits, symmetric=True,
                              per_channel=True, axis=0),
        act_spec=QuantSpec(bits=act_bits, symmetric=False),
    )


def run_kernel_latency(
    rows_per_gemm: int = 4096,
    repeats: int = 5,
    weight_bits: int = 8,
    act_bits: int = 8,
    seed: int = 0,
    sites: Optional[List[str]] = None,
) -> List[Dict]:
    """Per-site GEMM latency: BLAS fast path vs int64 reference.

    Every site of the quantized student is fed the same pre-quantized
    activation codes; both kernels must agree **bit for bit** (asserted)
    before they are timed with interleaved rounds.  Returns one row per
    site with shapes, the GEMM dtype the exactness bound selected, both
    latencies, and the speedup.
    """
    quantized = build_quantized_student(weight_bits, act_bits, seed=seed)
    rng = np.random.default_rng(seed + 2)
    rows: List[Dict] = []
    for site, layer in quantized.layers.items():
        if sites is not None and site not in sites:
            continue
        x = rng.standard_normal(
            (rows_per_gemm, layer.in_features)).astype(np.float32)
        x_q = layer.quantize_input(x)

        fast = layer.forward_integer(x_q)
        reference = layer.forward_integer_reference(x_q)
        assert fast.dtype == reference.dtype == np.float32
        if not np.array_equal(fast, reference):
            raise AssertionError(
                f"{site}: BLAS kernel diverged from int64 reference")

        samples = _interleaved_rounds(repeats, [
            lambda layer=layer, x_q=x_q: layer.forward_integer(x_q),
            lambda layer=layer, x_q=x_q: layer.forward_integer_reference(x_q),
        ])
        fast_s, ref_s = min(samples[0]), min(samples[1])
        rows.append({
            "site": site,
            "m": rows_per_gemm,
            "k": layer.in_features,
            "n": layer.out_features,
            "gemm_dtype": np.dtype(layer._gemm_dtype).name,
            "fast_ms": fast_s * 1e3,
            "reference_ms": ref_s * 1e3,
            "speedup": ref_s / fast_s,
        })
    return rows


def _steady_state_rounds(repeats: int, tasks, inner: int = 2):
    """Per-task steady-state samples, with task blocks round-robined.

    Like :func:`repro.serve.bench._interleaved_rounds` (alternation keeps
    per-round ratios immune to machine drift), but each round re-enters a
    task's cache regime with one untimed call before timing ``inner``
    back-to-back calls.  Strict call-by-call alternation would time every
    mode on the *other* mode's evicted cache — a regime no deployment
    runs in, and one that understates the fast path (its working set fits
    where the int64 reference's cannot).
    """
    samples: List[List[float]] = [[] for _ in tasks]
    for _ in range(repeats):
        for i, fn in enumerate(tasks):
            fn()
            start = time.perf_counter()
            for _ in range(inner):
                fn()
            samples[i].append((time.perf_counter() - start) / inner)
    return samples


def _outputs_equal(left, right) -> bool:
    if isinstance(left, dict):
        return set(left) == set(right) and all(
            _outputs_equal(left[key], right[key]) for key in left)
    return np.array_equal(np.asarray(left), np.asarray(right))


def run_forward_latency(
    batch_images: int = 256,
    repeats: int = 5,
    weight_bits: int = 8,
    act_bits: int = 8,
    seed: int = 11,
) -> Tuple[List[Dict], float]:
    """End-to-end quantized network forward, BLAS kernels vs reference.

    One fused batch of ``batch_images`` images through the *whole*
    quantized model — patch projection, both transformer blocks, and
    every head — once on the exact BLAS kernels and once on the int64
    reference model (:func:`reference_model`).  Every output head
    (logits, attributes, CLS embedding) must match **bit for bit**
    (asserted before timing).
    Returns (rows, speedup) with the drift-cancelled fast-over-reference
    speedup (each mode's best steady-state round, rounds interleaved) —
    the number the E12 acceptance gate checks.
    """
    quantized = build_quantized_student(weight_bits, act_bits, seed=seed)
    config = quantized.model.config
    images = np.random.default_rng(seed + 1).random(
        (batch_images, config.in_channels,
         config.image_size, config.image_size)).astype(np.float32)

    reference = reference_model(quantized)
    fast_out = quantized(images)
    ref_out = reference(images)
    if not _outputs_equal(fast_out, ref_out):
        raise AssertionError(
            "BLAS forward diverged from the int64 reference")

    def run_fast() -> None:
        quantized(images)

    def run_reference() -> None:
        reference(images)

    samples = _steady_state_rounds(repeats, [run_fast, run_reference])
    fast_rounds, ref_rounds = samples
    # Min over interleaved rounds for each mode (the same estimator
    # run_kernel_latency uses): the least-noise steady-state latency,
    # with round-robined rounds exposing both modes to the same drift.
    speedup = min(ref_rounds) / min(fast_rounds)
    images_per_s = batch_images / min(fast_rounds)
    rows = [
        {"mode": "blas_fast", "batch_images": batch_images,
         "images_per_s": images_per_s,
         "ms_per_batch": min(fast_rounds) * 1e3,
         "speedup_vs_reference": speedup},
        {"mode": "int64_reference", "batch_images": batch_images,
         "images_per_s": batch_images / min(ref_rounds),
         "ms_per_batch": min(ref_rounds) * 1e3,
         "speedup_vs_reference": 1.0},
    ]
    return rows, speedup


def _detections_equal(left, right) -> bool:
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        for da, db in zip(a, b):
            if da.bbox != db.bbox or da.score != db.score \
                    or da.class_id != db.class_id:
                return False
    return True


def run_e2e_forward(
    num_scenes: int = 32,
    grid: int = 3,
    repeats: int = 3,
    weight_bits: int = 8,
    act_bits: int = 8,
    seed: int = 7,
) -> Tuple[List[Dict], float]:
    """End-to-end quantized detection throughput, BLAS vs reference.

    Streams ``num_scenes`` scenes through the quantized serving pipeline
    (``MissionSession.detect_batch`` — fused multi-scene forwards) twice:
    once on the exact BLAS kernels, once with the detector's model swapped
    for its int64 reference model (:func:`reference_model`).  Detections
    must match **bit for bit** (bbox, score, class — asserted
    before timing).  Returns (rows, speedup): one row per execution mode
    with scenes/sec, and the drift-cancelled fast-over-reference speedup
    (each mode's best steady-state round, rounds interleaved).
    """
    from repro.serve.bench import build_workload

    if (weight_bits, act_bits) == (8, 8):
        pipeline, spec, scenes = build_workload(num_scenes, grid, seed,
                                                configuration="quantized")
        detector = pipeline.session(spec).detector
    else:
        # Non-default widths: drive the detector directly (the serving
        # workload pins w8a8, the deployment default).
        from repro.detect.pipeline import TaskDetector

        quantized = build_quantized_student(weight_bits, act_bits, seed=seed)
        detector = TaskDetector(model=quantized, matcher=None)
        scenes = list(SceneGenerator(SceneConfig(grid=grid),
                                     seed=seed).generate_batch(num_scenes))
    reference_detector = copy.copy(detector)
    reference_detector.model = reference_model(detector.model)

    def detect():
        return detector.detect_batch(scenes)

    def run_reference():
        return reference_detector.detect_batch(scenes)

    if not _detections_equal(detect(), run_reference()):
        raise AssertionError(
            "BLAS detect path diverged from the int64 reference")

    samples = _steady_state_rounds(repeats, [detect, run_reference])
    fast_rounds, ref_rounds = samples
    speedup = min(ref_rounds) / min(fast_rounds)
    rows = [
        {"mode": "blas_fast", "scenes": num_scenes,
         "scenes_per_s": num_scenes / min(fast_rounds),
         "ms_per_scene": min(fast_rounds) / num_scenes * 1e3,
         "speedup_vs_reference": speedup},
        {"mode": "int64_reference", "scenes": num_scenes,
         "scenes_per_s": num_scenes / min(ref_rounds),
         "ms_per_scene": min(ref_rounds) / num_scenes * 1e3,
         "speedup_vs_reference": 1.0},
    ]
    return rows, speedup
