#!/usr/bin/env python3
"""Checks that two builds reproduce the same figures.

    python3 .github/check_fig_identity.py PARENT_BUILD CHANGE_BUILD

PARENT_BUILD and CHANGE_BUILD are CMake build directories (the ones holding
bench/fig4_relative_rate and friends). The script runs, from both builds:

  * every figure bench and the seeded ablation benches at --seed=42, with
    the --seconds that CI passes wherever CI sets one, comparing stdout and
    the --json report byte for byte. fig5, fig7 and fig11 (the benches
    that accept --trace) also write their structured trace, compared byte
    for byte too; fig11's interleaves the mutex's acquire and grant events
    with the currency and transfer events they cause. The lines dropped
    from stdout before comparing are "Wrote JSON report to PATH" and
    "(structured trace written to PATH, ...)", whose paths differ between
    the runs;
  * the nine examples/, comparing stdout byte for byte (they are the only
    in-kernel runs of the page cache and of the multi-resource disk path);
  * bench_smp --seed=42 --seconds=20 (the only bench that runs the SMP
    balancer's migrant lottery and its crossbar veto), comparing its
    --json report with every key containing "_ns" dropped and its
    --timeseries file byte for byte. Its stdout prints host-ns columns and
    is not compared.

Exits 0 when everything matches. Exits 1 at the first run whose outputs
differ (or that fails to run in either build), naming it and printing the
start of the difference. A change meant to alter only speed must pass this
against its parent commit.
"""

import difflib
import json
import os
import subprocess
import sys
import tempfile

SEED = 42

# (bench, extra flags): CI's --seconds where CI sets one, else the default.
BENCHES = [
    ("fig4_relative_rate", ["--seconds=10"]),
    ("fig5_fairness_over_time", ["--seconds=60"]),
    ("fig6_montecarlo", []),
    ("fig7_query_rates", ["--seconds=60"]),
    ("fig8_video_rates", []),
    ("fig9_load_insulation", ["--seconds=60"]),
    ("fig11_mutex_waiting", ["--seconds=30"]),
    ("fig_compensation", []),
    ("fig_db_disk", []),
    ("fig_inverse_lottery", []),
    ("fig_io_bandwidth", []),
    ("fig_qos", []),
    ("bench_sensitivity", []),
    ("bench_stride_ablation", []),
    ("bench_responsiveness", []),
]

EXAMPLES = [
    "adaptive_rendering",
    "client_server",
    "currency_isolation",
    "lotteryctl",
    "memory_pressure",
    "multi_resource",
    "priority_inversion",
    "quickstart",
    "scheduler_shootout",
]

# The benches that accept --trace=PATH (an etrace binary file).
TRACED = {"fig5_fairness_over_time", "fig7_query_rates",
          "fig11_mutex_waiting"}

SMP_FLAGS = ["--seconds=20"]

DROPPED_PREFIXES = ("Wrote JSON report to ", "(structured trace written to ")


def start(build, subdir, name, args):
    binary = os.path.join(build, subdir, name)
    if not os.access(binary, os.X_OK):
        raise FileNotFoundError(binary)
    return subprocess.Popen([binary] + args, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True)


def finish(proc):
    out, err = proc.communicate()
    kept = [line for line in out.splitlines(keepends=True)
            if not line.startswith(DROPPED_PREFIXES)]
    return proc.returncode, "".join(kept), err


def run_pair(label, builds, subdir, name, make_args):
    """Runs one binary from both builds at once (each is single-threaded).

    make_args(side) gives the arguments for side "parent" or "change".
    Returns the two stdouts, or None after printing why the pair failed.
    """
    try:
        procs = [start(build, subdir, name, make_args(side))
                 for side, build in builds]
    except FileNotFoundError as missing:
        print("FAIL %s: no binary %s" % (label, missing))
        return None
    (p_code, p_out, p_err), (c_code, c_out, c_err) = map(finish, procs)
    if p_code != 0 or c_code != 0:
        print("FAIL %s: exit %d (parent) / %d (change)" %
              (label, p_code, c_code))
        sys.stdout.write(p_err[-2000:] + c_err[-2000:])
        return None
    return p_out, c_out


def read(path, mode="r"):
    with open(path, mode) as f:
        return f.read()


def without_ns(node):
    """Drops every key containing "_ns" (host time), at any depth."""
    if isinstance(node, dict):
        return {k: without_ns(v) for k, v in node.items() if "_ns" not in k}
    if isinstance(node, list):
        return [without_ns(v) for v in node]
    return node


def same(label, what, parent, change):
    if parent == change:
        return True
    print("FAIL %s: %s differs" % (label, what))
    if isinstance(parent, bytes):
        first = next((i for i, (p, c) in enumerate(zip(parent, change))
                      if p != c), min(len(parent), len(change)))
        print("  first differing byte at offset %d (sizes %d / %d)" %
              (first, len(parent), len(change)))
        return False
    diff = difflib.unified_diff(parent.splitlines(keepends=True),
                                change.splitlines(keepends=True),
                                "parent " + what, "change " + what)
    for line in list(diff)[:40]:
        # The timeseries file is one long line; show only its start.
        print(line.rstrip("\n")[:200])
    return False


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    builds = [("parent", argv[1]), ("change", argv[2])]
    with tempfile.TemporaryDirectory() as tmp:
        def out(side, name):
            return os.path.join(tmp, side + "_" + name)

        for bench, flags in BENCHES:
            traced = bench in TRACED
            outs = run_pair(bench, builds, "bench", bench, lambda side: (
                ["--seed=%d" % SEED] + flags +
                ["--json=" + out(side, bench + ".json")] +
                (["--trace=" + out(side, bench + ".trace")] if traced
                 else [])))
            if outs is None or not same(bench, "stdout", *outs):
                return 1
            if not same(bench, "--json report",
                        read(out("parent", bench + ".json")),
                        read(out("change", bench + ".json"))):
                return 1
            if traced and not same(
                    bench, "--trace file",
                    read(out("parent", bench + ".trace"), "rb"),
                    read(out("change", bench + ".trace"), "rb")):
                return 1
            print("ok   %s %s%s" % (bench, " ".join(flags),
                                    " (+ trace)" if traced else ""))

        for example in EXAMPLES:
            outs = run_pair(example, builds, "examples", example,
                            lambda side: [])
            if outs is None or not same(example, "stdout", *outs):
                return 1
            print("ok   examples/%s" % example)

        outs = run_pair("bench_smp", builds, "bench", "bench_smp",
                        lambda side: (
                            ["--seed=%d" % SEED] + SMP_FLAGS +
                            ["--json=" + out(side, "smp.json"),
                             "--timeseries=" + out(side, "smp_ts.json")]))
        if outs is None:
            return 1
        def smp_report(side):
            report = json.loads(read(out(side, "smp.json")))
            return json.dumps(without_ns(report), indent=1)

        if not same("bench_smp", "--json report without _ns keys",
                    smp_report("parent"), smp_report("change")):
            return 1
        if not same("bench_smp", "--timeseries file",
                    read(out("parent", "smp_ts.json")),
                    read(out("change", "smp_ts.json"))):
            return 1
        print("ok   bench_smp %s (stdout skipped: host ns)" %
              " ".join(SMP_FLAGS))
    print("all %d benches (%d traces), %d examples and bench_smp "
          "identical" % (len(BENCHES), len(TRACED), len(EXAMPLES)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
