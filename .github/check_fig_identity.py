#!/usr/bin/env python3
"""Checks that two builds reproduce the same figures.

    python3 .github/check_fig_identity.py PARENT_BUILD CHANGE_BUILD

PARENT_BUILD and CHANGE_BUILD are CMake build directories (the ones holding
bench/fig4_relative_rate and friends). The script runs every figure bench
and the seeded ablation benches from both at --seed=42, with the --seconds
that CI passes wherever CI sets one, and compares each pair's stdout and
--json report byte for byte. The one line dropped before comparing is
"Wrote JSON report to PATH", whose path differs between the two runs.

Exits 0 when every bench matches. Exits 1 at the first bench whose outputs
differ (or that fails to run in either build), naming it and printing the
start of the difference. A change meant to alter only speed must pass this
against its parent commit.
"""

import difflib
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

DROPPED_PREFIX = "Wrote JSON report to "


def start(build, bench, flags, json_path):
    binary = os.path.join(build, "bench", bench)
    if not os.access(binary, os.X_OK):
        raise FileNotFoundError(binary)
    cmd = [binary, "--seed=%d" % SEED] + flags + ["--json=" + json_path]
    return subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)


def finish(proc):
    out, err = proc.communicate()
    kept = [line for line in out.splitlines(keepends=True)
            if not line.startswith(DROPPED_PREFIX)]
    return proc.returncode, "".join(kept), err


def read(path):
    with open(path) as f:
        return f.read()


def show_diff(label, parent, change):
    diff = difflib.unified_diff(parent.splitlines(keepends=True),
                                change.splitlines(keepends=True),
                                "parent " + label, "change " + label)
    sys.stdout.writelines(list(diff)[:40])


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    parent_build, change_build = argv[1], argv[2]
    with tempfile.TemporaryDirectory() as tmp:
        for bench, flags in BENCHES:
            parent_json = os.path.join(tmp, "parent_" + bench + ".json")
            change_json = os.path.join(tmp, "change_" + bench + ".json")
            try:
                # Both builds run at once; each bench is single-threaded.
                procs = (start(parent_build, bench, flags, parent_json),
                         start(change_build, bench, flags, change_json))
            except FileNotFoundError as missing:
                print("FAIL %s: no binary %s" % (bench, missing))
                return 1
            (p_code, p_out, p_err), (c_code, c_out, c_err) = map(finish, procs)
            if p_code != 0 or c_code != 0:
                print("FAIL %s: exit %d (parent) / %d (change)" %
                      (bench, p_code, c_code))
                sys.stdout.write(p_err[-2000:] + c_err[-2000:])
                return 1
            if p_out != c_out:
                print("FAIL %s: stdout differs" % bench)
                show_diff("stdout", p_out, c_out)
                return 1
            p_report, c_report = read(parent_json), read(change_json)
            if p_report != c_report:
                print("FAIL %s: --json report differs" % bench)
                show_diff("json", p_report, c_report)
                return 1
            print("ok   %s %s" % (bench, " ".join(flags)))
    print("all %d benches identical" % len(BENCHES))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
