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
  * tracectl record --seed=42 --backend=tree --snapshots and
    tracectl record --seed=42 --backend=list, comparing the trace files
    byte for byte (the tree leg is the only cross-build run of a
    tree-backend trace; its stdout names the output path and is not
    compared);
  * bench_smp --seed=42 --seconds=20 (the only bench that runs the SMP
    balancer's migrant lottery and prices its migrations on the crossbar;
    no identity run vetoes a steal), comparing its --json report with
    every key containing "_ns" dropped and its --timeseries file byte for
    byte. Its stdout prints host-ns columns and is not compared;
  * faultctl --seed=7 --threads=12 --horizon-us=400000 with one plan that
    arms all eight fault classes, on the list, tree, stride and smp
    (--cpus=2 and --cpus=8) backends, comparing stdout byte for byte.
    These are the only runs of the fault paths that schedule kernel events
    (delayed unblocks, RPC drop notices, chaos ticks, revocation restores,
    disk-timeout backoff); stdout carries the run's trace_hash, an FNV
    hash of its dispatch log, and its per-class injection counts. The
    8-CPU leg's balancer builds dozens of crossbar circuits, so some of
    its cell slots match several outputs at once.

That is 32 runs in all. Every run is made and compared, also after one
differs. Each run whose outputs differ (or that fails to run in either
build) is named with the start of its difference as it is found, and
listed again at the end. Exits 0 when everything matches and 1 when any
run differs. A change meant to alter only speed must pass this against its
parent commit; a change that alters one output on purpose shows here that
it alters no other.
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

# tracectl record legs: (name, flags). Each writes one etrace file.
TRACECTL = [
    ("tree_snapshots", ["--backend=tree", "--snapshots"]),
    ("list", ["--backend=list"]),
]

SMP_FLAGS = ["--seconds=20"]

# faultctl legs, each run with FAULT_FLAGS and FAULT_PLAN. Every class
# fires on list, tree and smp; stride has no economy to revoke from, so
# seven fire there.
FAULTCTL = [
    ["--backend=list"],
    ["--backend=tree"],
    ["--backend=stride"],
    ["--backend=smp", "--cpus=2"],
    ["--backend=smp", "--cpus=8"],
]
FAULT_FLAGS = ["--seed=7", "--threads=12", "--horizon-us=400000"]
FAULT_PLAN = ("crash:ppm=3000;spurious-wake:p=0.2;"
              "delayed-unblock:p=0.1,delay_us=1500;"
              "rpc-drop:p=0.1,delay_us=800;rpc-dup:p=0.1;rpc-reorder:p=0.2;"
              "disk-timeout:p=0.2,delay_us=500,retries=3;revoke:p=0.2")

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
    differing = []

    def check(label, outs, compares, ok_line):
        """Records `label` as differing unless it ran and every compare holds.

        compares is a list of (what, read_parent, read_change) thunks, read
        only once both builds ran; all of them are compared and reported.
        """
        if outs is None:
            differing.append(label)
            return
        results = [same(label, what, parent(), change())
                   for what, parent, change in compares]
        if all(results):
            print("ok   " + ok_line)
        else:
            differing.append(label)

    with tempfile.TemporaryDirectory() as tmp:
        def out(side, name):
            return os.path.join(tmp, side + "_" + name)

        def file_pair(name, mode="r"):
            return (lambda: read(out("parent", name), mode),
                    lambda: read(out("change", name), mode))

        for bench, flags in BENCHES:
            traced = bench in TRACED
            outs = run_pair(bench, builds, "bench", bench, lambda side: (
                ["--seed=%d" % SEED] + flags +
                ["--json=" + out(side, bench + ".json")] +
                (["--trace=" + out(side, bench + ".trace")] if traced
                 else [])))
            compares = [("stdout", lambda: outs[0], lambda: outs[1]),
                        ("--json report",) + file_pair(bench + ".json")]
            if traced:
                compares.append(("--trace file",) +
                                file_pair(bench + ".trace", "rb"))
            check(bench, outs, compares, "%s %s%s" % (
                bench, " ".join(flags), " (+ trace)" if traced else ""))

        for example in EXAMPLES:
            outs = run_pair(example, builds, "examples", example,
                            lambda side: [])
            check(example, outs,
                  [("stdout", lambda: outs[0], lambda: outs[1])],
                  "examples/" + example)

        for name, flags in TRACECTL:
            label = "tracectl record " + " ".join(flags)
            trace = name + ".etrace"
            outs = run_pair(label, builds, os.path.join("tools", "tracectl"),
                            "tracectl", lambda side: (
                                ["record", "--seed=%d" % SEED] + flags +
                                ["--out=" + out(side, trace)]))
            check(label, outs, [("trace file",) + file_pair(trace, "rb")],
                  label)

        outs = run_pair("bench_smp", builds, "bench", "bench_smp",
                        lambda side: (
                            ["--seed=%d" % SEED] + SMP_FLAGS +
                            ["--json=" + out(side, "smp.json"),
                             "--timeseries=" + out(side, "smp_ts.json")]))

        def smp_report(side):
            report = json.loads(read(out(side, "smp.json")))
            return json.dumps(without_ns(report), indent=1)

        check("bench_smp", outs,
              [("--json report without _ns keys",
                lambda: smp_report("parent"), lambda: smp_report("change")),
               ("--timeseries file",) + file_pair("smp_ts.json")],
              "bench_smp %s (stdout skipped: host ns)" % " ".join(SMP_FLAGS))

        for flags in FAULTCTL:
            label = "faultctl " + " ".join(flags)
            outs = run_pair(label, builds, os.path.join("tools", "faultctl"),
                            "faultctl", lambda side: (
                                FAULT_FLAGS + flags +
                                ["--plan=" + FAULT_PLAN]))
            check(label, outs,
                  [("stdout", lambda: outs[0], lambda: outs[1])],
                  label + " (all fault classes armed)")
    runs = len(BENCHES) + len(EXAMPLES) + len(TRACECTL) + 1 + len(FAULTCTL)
    if differing:
        print("%d of %d runs differ: %s" %
              (len(differing), runs, ", ".join(differing)))
        return 1
    print("all %d benches (%d traces), %d examples, %d tracectl traces, "
          "bench_smp and %d faultctl runs identical" %
          (len(BENCHES), len(TRACED), len(EXAMPLES), len(TRACECTL),
           len(FAULTCTL)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
