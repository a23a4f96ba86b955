#!/usr/bin/env python3
"""Checks that perfbench's simulations still produce their recorded digests.

    python3 .github/check_perfbench_digests.py PERFBENCH_BINARY

PERFBENCH_BINARY is the standalone perfbench build
(cmake -S perfbench -B .bench_build/perfbench, then cmake --build).
.github/perfbench_digests.json lists the (workload, seed, sim_digest) runs.
Each run goes to the workload's fixed checkpoint however short --seconds
is, so the script runs every one at --seconds=0.001 (SECONDS) and gets the
digest of a 20 s measurement in a few seconds.

For each run the script checks that the binary exits 0, that every entry
of its "checks" object is true, and that its "sim_digest" equals the
recorded one. Every run is made, also after one fails; the failures are
listed at the end. Exits 0 when all runs match and 1 otherwise. A change
that alters a simulation on purpose records the new digests in the file.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIGESTS = os.path.join(ROOT, ".github", "perfbench_digests.json")
SECONDS = "0.001"
RUN_TIMEOUT_S = 300


def check_run(binary, run):
    """Returns a list of problems with one run; empty when it matches."""
    cmd = [binary, "--workload=" + run["workload"],
           "--seed=" + str(run["seed"]), "--seconds=" + SECONDS]
    try:
        done = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return ["timed out after %d s" % RUN_TIMEOUT_S]
    if done.returncode != 0:
        return ["exit code %d: %s" % (done.returncode, done.stderr.strip())]
    lines = done.stdout.strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, ValueError):
        return ["last stdout line is not JSON"]
    problems = []
    failed = sorted(k for k, ok in report.get("checks", {}).items() if not ok)
    if not report.get("checks"):
        problems.append("no checks reported")
    if failed:
        problems.append("checks failed: " + ", ".join(failed))
    digest = report.get("sim_digest")
    if digest != run["sim_digest"]:
        problems.append("sim_digest %s, recorded %s" %
                        (digest, run["sim_digest"]))
    return problems


def main(argv):
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    binary = argv[1]
    with open(DIGESTS) as f:
        spec = json.load(f)
    failures = []
    for run in spec["runs"]:
        name = "%s seed %s" % (run["workload"], run["seed"])
        problems = check_run(binary, run)
        print("%-20s %s" % (name, "; ".join(problems) or "ok"), flush=True)
        if problems:
            failures.append(name)
    if failures:
        print("%d of %d runs differ: %s" %
              (len(failures), len(spec["runs"]), ", ".join(failures)))
        return 1
    print("all %d runs match" % len(spec["runs"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
