#!/usr/bin/env python3
"""Outside-in dispatch benchmark for the lottery-scheduling simulator.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The script builds the library and the
benchmark binary from source into .bench_build/perfbench, then runs the
binary twice on the given seed, each in its own process with a private
metrics registry:

  untraced  a timed set-up, a warm-up, then S seconds of host-timed
            simulated steps with more timed set-ups between them: the
            end-to-end metrics, taken from the window's fastest
            sub-windows and its fastest set-up.
  traced    the same simulation up to the window's fixed checkpoint, with
            every call into the scheduler, the thread bodies and the
            timeseries sampler timed from outside: the per-layer metrics.

Both runs check their outputs; the two runs' per-thread digests must be
identical. The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics; the metrics are BENCHMARK.json's
end_to_end metrics with --trace 0 and its per_layer metrics with --trace 1.
The exit code is nonzero when the build fails, a run fails or a check fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")

BUILD_TIMEOUT_S = 840
# Both runs of the binary together, after the build.
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no library sources under src/ in " + ROOT)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B",
                      BUILD_DIR, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] +
                     generator)
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            done = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr,
                                  stderr=sys.stderr,
                                  timeout=deadline - time.monotonic())
        except subprocess.TimeoutExpired:
            raise BenchError("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))


def run_binary(args, deadline):
    cmd = [BINARY] + args
    try:
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError("failed (exit %d): %s" %
                         (done.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def unit_of(name, units):
    if name in units:
        return units[name]
    for suffix, unit in (("_ns", "ns"), ("_ms", "ms"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return ""


def print_metrics(title, values, units, listed):
    print(title)
    for name, value in values.items():
        extra = "" if name in listed else "  (printed only)"
        print("  %-44s %16.6g %s%s" % (name, value, unit_of(name, units),
                                       extra))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    opts = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if opts.workload not in [w["name"] for w in spec["workloads"]]:
        raise BenchError("unknown workload " + opts.workload)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}

    build()

    deadline = time.monotonic() + RUN_TIMEOUT_S
    common = ["--workload=" + opts.workload, "--seed=%d" % opts.seed,
              "--seconds=%r" % opts.seconds]
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans = os.path.join(SPANS_DIR, opts.workload + ".csv")
    plain = run_binary(common, deadline)
    traced = run_binary(common + ["--traced", "--spans=" + spans], deadline)

    layers = dict(traced["layers"])
    layers["trace.overhead_pct"] = 100.0 * (
        traced["checkpoint_host_s"] / plain["checkpoint_host_s"] - 1.0)

    checks = [
        ("sim_digest identical in the untraced and traced run",
         plain["sim_digest"] == traced["sim_digest"]),
        ("CPU conserved (untraced)", plain["checks"]["conservation"]),
        ("CPU conserved (traced)", traced["checks"]["conservation"]),
        ("workload mechanisms exercised (untraced)",
         plain["checks"]["liveness"]),
        ("workload mechanisms exercised (traced)",
         traced["checks"]["liveness"]),
        ("share_err_pct inside the binomial envelope",
         plain["checks"]["share_envelope"]),
    ]
    failed = [name for name, ok in checks if not ok]

    cfg = plain["config"]
    print("perfbench %s seed=%d: %d CPU(s), %s backend, %g ms quantum, "
          "%d threads, batch window %d" %
          (opts.workload, opts.seed, cfg["cpus"], cfg["backend"],
           cfg["quantum_ms"], cfg["threads"], cfg["batch_window"]))
    print("  set-up x%d, warm-up %g sim-s, steps of %g sim-ms, checkpoint "
          "%g sim-s into the window" %
          (cfg["setup_reps"], cfg["warmup_s"], cfg["step_ms"],
           cfg["checkpoint_s"]))
    print("  untraced window: %d dispatches in %d steps, %.3f s host; "
          "timings from the fastest %d of %d sub-windows (%d steps)" %
          (plain["window_dispatches"], plain["window_steps"],
           plain["window_host_s"], plain["fastest_sub_windows"],
           plain["sub_windows"], plain["fastest_steps"]))
    print("  sim_digest %s (untraced) %s (traced)" %
          (plain["sim_digest"], traced["sim_digest"]))
    print("  share_err_pct %.4f %% (binomial envelope %.4f %%, %d class "
          "dispatches)" % (plain["share_err_pct"],
                           plain["share_envelope_pct"],
                           plain["share_dispatches"]))
    print_metrics("end-to-end (untraced run):", plain["end_to_end"],
                  end_to_end, end_to_end)
    print_metrics("per-layer (traced run):", layers, per_layer, per_layer)
    wall = traced["checkpoint_host_s"]
    shares = ["%s %.2f%%" % (layer, layers[layer + ".self_pct"])
              for layer in ("sched", "body", "ts", "kernel")]
    print("  self time: %s = %.2f%% of the traced window's %.3f s host "
          "(kernel is the remainder)" %
          (" + ".join(shares),
           sum(layers[l + ".self_pct"] for l in ("sched", "body", "ts",
                                                  "kernel")), wall))
    print("  spans: %d kept, %d not kept, written to %s" %
          (traced["spans_kept"], traced["spans_dropped"],
           os.path.relpath(spans, ROOT)))
    for name, ok in checks:
        print("  check %-52s %s" % (name, "ok" if ok else "FAILED"))
    for note in plain["notes"] + traced["notes"]:
        print("  note: " + note)
    print("failed_checks %d of %d" % (len(failed), len(checks)))

    chosen, values = ((end_to_end, plain["end_to_end"]) if opts.trace == 0
                      else (per_layer, layers))
    metrics = {}
    for name, unit in chosen.items():
        if name not in values:
            raise BenchError("the run reported no metric " + name)
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": not failed, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(2)
