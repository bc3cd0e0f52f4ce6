"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload {serve_open,stream_cams,batch_replay}
                             --seed N --seconds S --trace {0,1}

Run from the repository root.  The program is imported from ``src/``;
its trained artifacts come from ``.artifacts/``.  Each run

1. generates its inputs and schedules from ``--seed`` before timing;
2. sets the system under test up several times and reports the median
   as ``setup_s`` (the last set-up is kept);
3. computes the correctness references and warms up, outside timing;
4. measures for ``--seconds`` seconds, checking every output;
5. prints a summary, the run manifest, and as its last line one JSON
   object ``{"correct", "attempted", "failed", "metrics"}``.

Shared hosts drift in speed, by up to 2x over an hour on the 2-CPU
host this was tuned on.  Every pass therefore also times a fixed kernel
that touches nothing of the program (:func:`harness.host_kernel_ms`)
just before and after measuring, and the manifest records it, so a
reader can tell a slow host from a slow program.  The metrics are
reported as measured, not scaled by it: the kernel's slowdown does not
match every workload's.

With ``--trace 0`` the metrics are the end-to-end ones and no wrapper is
installed.  With ``--trace 1`` the run measures an untraced pass and a
traced pass of ``S / 2`` seconds each, on separate set-ups, and reports
the per-layer metrics plus ``trace.overhead_pct``, the traced pass's
median latency over the untraced pass's.  Spans are kept in memory and
written to ``.perfbench/trace-<workload>-s<seed>.json`` at the end; the
full result with its manifest goes to ``.perfbench/result-*.json``.

The exit code is 0 when every output was correct, 1 on any mismatch or
failed request, 2 when the program cannot be found or run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import signal
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

WORKLOADS = ("serve_open", "stream_cams", "batch_replay")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _load_workload(name, cfg, seed):
    from batch_replay import BatchReplay
    from serve_open import ServeOpen
    from stream_cams import StreamCams

    classes = {"serve_open": ServeOpen, "stream_cams": StreamCams,
               "batch_replay": BatchReplay}
    return classes[name](cfg, seed)


def _timed_setups(workload, repeats):
    """Set up ``repeats`` times; keep the last handle, time every one."""
    times = []
    handle = None
    for _ in range(repeats):
        if handle is not None:
            workload.teardown(handle)
        gc.collect()
        start = time.perf_counter()
        handle = workload.setup()
        times.append(time.perf_counter() - start)
    return handle, times


def _measured_pass(workload, handle, seconds, tracer):
    from harness import host_kernel_ms, unobserved

    try:
        if tracer is None:
            workload.prepare(handle)
        else:
            with unobserved(tracer):
                workload.prepare(handle)
        gc.collect()
        gc.freeze()
        try:
            before = host_kernel_ms()
            result = workload.measure(handle, seconds, tracer)
            result["host_kernel_ms"] = [before, host_kernel_ms()]
            return result
        finally:
            gc.unfreeze()
    finally:
        workload.teardown(handle)


def run(args) -> int:
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: program source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import harness

    config = harness.load_config()
    cfg = config["workloads"][args.workload]
    workload = _load_workload(args.workload, cfg, args.seed)
    repeats = config["setup_repeats"]
    run_manifest = harness.manifest(args.workload, args.seed, args.seconds,
                                    bool(args.trace))

    if not args.trace:
        handle, setups = _timed_setups(workload, repeats)
        result = _measured_pass(workload, handle, args.seconds, None)
        metrics = dict(result["end_to_end"])
        metrics["setup_s"] = statistics.median(setups)
        run_manifest["host_kernel_ms"] = result["host_kernel_ms"]
        passes = [result]
    else:
        half = args.seconds / 2.0
        handle, setups = _timed_setups(workload, repeats)
        plain = _measured_pass(workload, handle, half, None)
        tracer = harness.Tracer()
        missing = harness.install_layer_wrappers(tracer)
        missing += workload.install_wrappers(tracer)
        try:
            handle, _ = _timed_setups(workload, 1)
            traced = _measured_pass(workload, handle, half, tracer)
        finally:
            tracer.restore()
        tracer.write(os.path.join(
            harness.OUT_DIR, f"trace-{args.workload}-s{args.seed}.json"))
        metrics = dict(traced["per_layer"])
        metrics["trace.overhead_pct"] = 100.0 * (
            traced["latency"]["p50_ms"] / plain["latency"]["p50_ms"] - 1.0)
        # End-to-end latency as the untraced pass saw it.
        metrics["latency.p50_ms"] = plain["latency"]["p50_ms"]
        metrics["latency.tail_ms"] = plain["latency"]["tail_ms"]
        metrics["latency.fail_frac"] = plain["failed"] / plain["attempted"]
        run_manifest["host_kernel_ms"] = (plain["host_kernel_ms"]
                                          + traced["host_kernel_ms"])
        run_manifest["missing_wrap_targets"] = missing
        run_manifest["spans_recorded"] = len(tracer.spans)
        passes = [plain, traced]
        result = traced

    run_manifest.update(result.get("manifest", {}))
    with open(os.path.join(ROOT, "BENCHMARK.json")) as contract_file:
        contract = json.load(contract_file)
    if args.trace:
        # A layer the workload never calls did no work: report zero and
        # name it, rather than leave the metric out.
        bypassed = [m["name"] for m in contract["per_layer"]
                    if m["name"] not in metrics]
        metrics.update({name: 0.0 for name in bypassed})
        run_manifest["bypassed_layer_metrics"] = bypassed
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    wrong = sum(p["wrong"] for p in passes)
    units = {m["name"]: m["unit"]
             for m in contract["end_to_end"] + contract["per_layer"]}
    line = {
        "correct": wrong == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }
    record = {"manifest": run_manifest, "setup_s_all": setups,
              "latency": result["latency"], "details": result["details"],
              "passes": [{k: v for k, v in p.items() if k != "details"}
                         for p in passes],
              "result": line}
    harness.write_json(os.path.join(
        harness.OUT_DIR,
        f"result-{args.workload}-s{args.seed}-t{args.trace}.json"), record)
    print(f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: attempted={attempted} failed={failed} "
          f"wrong={wrong}")
    for name, value in sorted(metrics.items()):
        print(f"  {name:<44} {value:>14.6g} {units[name]}")
    latency = result["latency"]
    print(f"  {'p50_ms':<44} {latency['p50_ms']:>14.6g} ms")
    print(f"  {'tail_ms':<44} {latency['tail_ms']:>14.6g} ms "
          f"(p{latency['tail_pct']:.2f} of {latency['samples']} samples)")
    print(f"  {'fail_frac':<44} {failed / attempted:>14.6g} ratio")
    for sample in result["details"].get("memory_mb", ()):
        shards = " + ".join(f"{mb:.1f}" for mb in sample["shards_mb"])
        print(f"  memory (Pss): front-end {sample['front_end_mb']:.1f} MiB"
              f" + shards {shards} MiB = {sample['total_mb']:.1f} MiB")
    print("manifest " + json.dumps(run_manifest, sort_keys=True, default=str))
    print(json.dumps(line, sort_keys=True))
    return 0 if (wrong == 0 and failed == 0) else 1


def _terminate(signum, _frame) -> None:
    # Unwind through the finally blocks, so the shards are closed.
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    try:
        return run(args)
    except Exception:  # report, never print a result line
        traceback.print_exc()
        return 2


if __name__ == "__main__":
    sys.exit(main())
