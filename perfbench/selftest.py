"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 3]

Checks, each printed as PASS/FAIL (exit code 1 on any FAIL):

1. the oracle trips on a deliberately wrong detection: a one-ulp score
   change on ``batch_replay``, a dropped track on ``stream_cams``, and
   both comparison rules (bit-exact and float tolerance) directly;
2. an injected per-window delay wrapped around the public
   ``GraphMatcher.match_distributions`` moves that layer's metric
   (``kg.match_us_per_window``) and the predicted end-to-end metric
   (``rate_per_s``) on ``batch_replay``, which exercises it at large
   batch, and leaves ``stream_cams`` at low motion, which scores only a
   few changed cells per frame, within the metric's bound.

Clean and delayed passes alternate on one set-up, and medians decide.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import os
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import harness  # noqa: E402
from batch_replay import BatchReplay  # noqa: E402
from stream_cams import StreamCams  # noqa: E402

RESULTS = []

# Clean/delayed pass pairs per workload, and the matcher delay injected
# per scored window.
PAIRS = 3
DELAY_US = 80.0


def report(name: str, ok: bool, detail: str) -> None:
    RESULTS.append(ok)
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}", flush=True)


def bound(metric: str) -> float:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        contract = json.load(handle)
    return next(m["bound"] for m in contract["end_to_end"]
                if m["name"] == metric)


def small_batch_cfg(config):
    cfg = dict(config["workloads"]["batch_replay"])
    cfg["batches"] = 4
    return cfg


def low_motion_cfg(config):
    cfg = dict(config["workloads"]["stream_cams"])
    cfg["cameras"] = [cam for cam in cfg["cameras"]
                      if cam["motion_rate"] < 1.0]
    return cfg


# ----------------------------------------------------------------------
# 1. the oracle trips
# ----------------------------------------------------------------------
def check_comparators() -> None:
    import numpy as np

    from repro.detect.pipeline import Detection

    det = Detection(bbox=(0, 0, 32, 32), score=0.5, objectness=0.9,
                    task_score=0.55, class_id=1, attribute_probs={})
    nudged = dataclasses.replace(det, score=float(np.nextafter(0.5, 1.0)))
    far = dataclasses.replace(det, score=0.501)
    report("oracle.bit_exact", not harness.detections_identical([det], [nudged])
           and harness.detections_identical([det], [det]),
           "a one-ulp score change is a mismatch")
    report("oracle.float_tolerance",
           harness.detections_close([det], [nudged], threshold=0.35)
           and not harness.detections_close([det], [far], threshold=0.35),
           f"within {harness.FLOAT_SCORE_ATOL:g} passes, 1e-3 fails")


def check_batch_oracle(config, seconds: float) -> None:
    import numpy as np

    workload = BatchReplay(small_batch_cfg(config), seed=11)
    handle = workload.setup()
    try:
        workload.prepare(handle)
        clean = workload.measure(handle, seconds, None)
        session = handle["sessions"][workload.batch_tasks[0]]
        original = session.detect_batch

        def corrupted(scenes, stride=None):
            results = original(scenes, stride=stride)
            for detections in results:
                if detections:
                    first = detections[0]
                    detections[0] = dataclasses.replace(
                        first, score=float(np.nextafter(first.score, 2.0)))
                    break
            return results

        session.detect_batch = corrupted
        broken = workload.measure(handle, seconds, None)
    finally:
        workload.teardown(handle)
    report("oracle.batch_replay", clean["wrong"] == 0 and broken["wrong"] > 0,
           f"clean wrong={clean['wrong']}, one-ulp corruption "
           f"wrong={broken['wrong']} of {broken['attempted']}")


def check_stream_oracle(config, seconds: float) -> None:
    from repro.stream import StreamingDetector

    workload = StreamCams(low_motion_cfg(config), seed=11)
    handle = workload.setup()
    original = StreamingDetector.update

    def dropping(self, scene):
        tracks = original(self, scene)
        return tracks[1:] if self.config.delta_gate else tracks

    try:
        workload.prepare(handle)
        clean = workload.measure(handle, seconds, None)
        StreamingDetector.update = dropping
        try:
            broken = workload.measure(handle, seconds, None)
        finally:
            StreamingDetector.update = original
    finally:
        workload.teardown(handle)
    report("oracle.stream_cams", clean["wrong"] == 0 and broken["wrong"] > 0,
           f"clean wrong={clean['wrong']}, dropped-track "
           f"wrong={broken['wrong']} of {broken['attempted']}")


# ----------------------------------------------------------------------
# 2. an injected delay moves what the prediction table says it moves
# ----------------------------------------------------------------------
class MatchDelay:
    """Busy-wait ``us_per_row`` per scored window inside the matcher."""

    def __init__(self, us_per_row: float) -> None:
        from repro.kg import GraphMatcher

        self.owner = GraphMatcher
        self.original = GraphMatcher.__dict__["match_distributions"]
        self.us_per_row = us_per_row

    def __enter__(self):
        original, per_row = self.original, self.us_per_row * 1e-6

        def delayed(matcher, attribute_probs, *args, **kwargs):
            rows = len(next(iter(attribute_probs.values())))
            until = time.perf_counter() + per_row * rows
            result = original(matcher, attribute_probs, *args, **kwargs)
            while time.perf_counter() < until:
                pass
            return result

        self.owner.match_distributions = delayed
        return self

    def __exit__(self, *exc):
        self.owner.match_distributions = self.original


def alternate(workload, handle, seconds: float):
    """Clean and delayed untraced passes, alternating; medians of each."""
    clean, delayed = [], []
    for _ in range(PAIRS):
        clean.append(workload.measure(handle, seconds, None))
        with MatchDelay(DELAY_US):
            delayed.append(workload.measure(handle, seconds, None))
    return clean, delayed


def traced_match_us(workload, handle, seconds: float,
                    delay_us: float | None) -> float:
    """One traced pass; the delay, if any, sits under the tracer's
    wrapper, so the span covers it as it would cover a slower matcher."""
    with contextlib.ExitStack() as stack:
        if delay_us is not None:
            stack.enter_context(MatchDelay(delay_us))
        tracer = harness.Tracer()
        harness.install_layer_wrappers(tracer)
        try:
            result = workload.measure(handle, seconds, tracer)
        finally:
            tracer.restore()
    return result["per_layer"]["kg.match_us_per_window"]


def check_injected_delay(config, seconds: float) -> None:
    rate_bound = bound("rate_per_s")

    batch = BatchReplay(config["workloads"]["batch_replay"], seed=12)
    handle = batch.setup()
    try:
        batch.prepare(handle)
        clean, delayed = alternate(batch, handle, seconds)
        base_us = traced_match_us(batch, handle, seconds, None)
        slow_us = traced_match_us(batch, handle, seconds, DELAY_US)
    finally:
        batch.teardown(handle)
    before = statistics.median(r["end_to_end"]["rate_per_s"] for r in clean)
    after = statistics.median(r["end_to_end"]["rate_per_s"] for r in delayed)
    report("delay.kg_layer_metric", slow_us - base_us >= 0.8 * DELAY_US,
           f"kg.match_us_per_window {base_us:.2f} -> {slow_us:.2f} us "
           f"(+{DELAY_US:g} us injected)")
    report("delay.batch_replay_rate", after < before * (1 - rate_bound),
           f"rate_per_s {before:.2f} -> {after:.2f} "
           f"({100 * (after / before - 1):+.1f}%, bound {rate_bound:.0%})")

    stream = StreamCams(low_motion_cfg(config), seed=12)
    handle = stream.setup()
    try:
        stream.prepare(handle)
        clean, delayed = alternate(stream, handle, seconds)
    finally:
        stream.teardown(handle)
    before = statistics.median(r["end_to_end"]["rate_per_s"] for r in clean)
    after = statistics.median(r["end_to_end"]["rate_per_s"] for r in delayed)
    report("delay.stream_cams_low_motion", after >= before * (1 - rate_bound),
           f"rate_per_s {before:.2f} -> {after:.2f} "
           f"({100 * (after / before - 1):+.1f}%, within {rate_bound:.0%})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, default=3.0,
                        help="length of each measured pass")
    args = parser.parse_args(argv)
    config = harness.load_config()
    check_comparators()
    check_batch_oracle(config, args.seconds)
    check_stream_oracle(config, args.seconds)
    check_injected_delay(config, args.seconds)
    failed = RESULTS.count(False)
    print(f"{len(RESULTS) - failed}/{len(RESULTS)} checks passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
