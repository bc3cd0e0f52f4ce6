"""E12 — Quantized inference: exact BLAS integer kernels vs int64 reference.

The quantized configuration is the paper's resource-constrained
deployment target, and the seed executed it through numpy's naive int64
matmul — an order of magnitude slower than the float path it was meant
to undercut.  This benchmark measures the rebuilt integer stack
bottom-up:

* ``kernels`` — per-site GEMM latency of the exact BLAS-backed
  ``forward_integer`` vs the int64 ``forward_integer_reference``;
* ``forward`` — the whole quantized network end to end (patch
  projection → blocks → heads) at serving batch size — **the
  acceptance gate**: full mode exits non-zero below ``SPEEDUP_TARGET``;
* ``detect`` — scenes/sec through the full detect path (window
  extraction and NMS included), fast vs the int64 reference model;
* ``engine`` — float-specialist vs quantized micro-batching engines on
  the E11 harness (the quantized configuration must stay within
  ``ENGINE_RATIO_TARGET`` of float at batch >= 8).

Every timed workload asserts **bit-identical outputs** between the BLAS
kernels and the int64 reference before any clock starts — the speedup
is free, not bought with accuracy.  Timing rounds are interleaved and
speedups are medians of per-round ratios, so single-core machine drift
cancels (see :mod:`repro.serve.bench`).

Run standalone:

    PYTHONPATH=src python benchmarks/bench_e12_quant_inference.py
    PYTHONPATH=src python benchmarks/bench_e12_quant_inference.py --smoke

``--smoke`` shrinks every workload (CI-friendly) while keeping
``quant.forward.*`` stage *shares* stable for the CI regression gate
(``repro obs compare --metric share``).  Both modes persist telemetry —
manifest (with the process's BLAS thread counts and forward-pool
threads), span tree, and all four result tables — to
``BENCH_e12_quant_inference.json``.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from benchmarks.common import finalize_benchmark, print_table
from repro.compute import blas_threads, compute_budget
from repro.obs import get_registry
from repro.quant.bench import (
    compare_engine_configurations,
    run_e2e_forward,
    run_forward_latency,
    run_kernel_latency,
)

SPEEDUP_TARGET = 5.0
ENGINE_RATIO_TARGET = 2.0


def run_experiment(smoke: bool = False):
    """All four workloads; returns (tables dict, forward speedup)."""
    registry = get_registry()
    registry.reset()  # isolate this run's spans for the share gate
    if smoke:
        kernel_rows = run_kernel_latency(rows_per_gemm=1024, repeats=2)
        forward_rows, forward_speedup = run_forward_latency(
            batch_images=64, repeats=2)
        detect_rows, _ = run_e2e_forward(num_scenes=12, repeats=2)
        engine_rows = compare_engine_configurations(num_scenes=16, repeats=2)
    else:
        kernel_rows = run_kernel_latency()
        forward_rows, forward_speedup = run_forward_latency()
        detect_rows, _ = run_e2e_forward(num_scenes=32, repeats=3)
        engine_rows = compare_engine_configurations()
    tables = {
        "kernels": kernel_rows,
        "forward": forward_rows,
        "detect": detect_rows,
        "engine": engine_rows,
    }
    return tables, forward_speedup


def quantized_engine_ratio(engine_rows) -> float:
    """Float-over-quantized scenes/sec ratio (small is good)."""
    ratios = [row["ratio_vs_float"] for row in engine_rows
              if row["configuration"] == "quantized"]
    return max(ratios) if ratios else float("inf")


def _print_results(tables) -> None:
    print_table("E12: per-site kernel latency (BLAS vs int64)",
                tables["kernels"])
    print_table("E12: end-to-end quantized forward (acceptance gate)",
                tables["forward"])
    print_table("E12: detect-path throughput (fast vs reference)",
                tables["detect"])
    print_table("E12: engine throughput (float vs quantized)",
                tables["engine"])
    print()
    print(get_registry().report("E12 quantized inference"))


def test_e12_quant_inference(benchmark):
    tables, forward_speedup = benchmark.pedantic(
        run_experiment, kwargs={"smoke": True}, rounds=1, iterations=1)
    _print_results(tables)
    # Bit-identity is asserted inside every workload before timing; here
    # only sanity-check the measurements exist and point the right way.
    assert all(row["speedup"] > 1.0 for row in tables["kernels"])
    assert forward_speedup > 1.0
    assert quantized_engine_ratio(tables["engine"]) < float("inf")


def main():
    smoke = "--smoke" in sys.argv[1:]
    tables, forward_speedup = run_experiment(smoke=smoke)
    _print_results(tables)
    finalize_benchmark("e12_quant_inference", manifest_extra={
        "blas_threads": blas_threads(),
        "forward_workers": compute_budget(),
    }, **tables)
    failed = False
    if not smoke and forward_speedup < SPEEDUP_TARGET:
        print(f"WARNING: end-to-end quantized forward speedup "
              f"{forward_speedup:.2f}x below the {SPEEDUP_TARGET:.1f}x target")
        failed = True
    ratio = quantized_engine_ratio(tables["engine"])
    if not smoke and ratio > ENGINE_RATIO_TARGET:
        print(f"WARNING: quantized engine is {ratio:.2f}x slower than the "
              f"float configuration (target: within "
              f"{ENGINE_RATIO_TARGET:.1f}x)")
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
