#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload corpus-sim --seed 1 --seconds 15 --trace 0

The first run configures and builds perfbench/ (the project's libraries plus
the benchmark binary) into $CARGO_TARGET_DIR/perfbench, or
.bench_build/perfbench when that variable is unset; later runs rebuild only
what changed. The last line of standard output is the run's JSON result; the
build log and the binary's diagnostics go to standard error. The exit code is
0 only when a result was printed.

perfbench/README.md documents the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("corpus-sim", "corpus-model", "serve-mixed")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no project sources next to perfbench/; run from a full checkout")
    for tool in ("cmake", "c++"):
        if shutil.which(tool) is None:
            fail(tool + " not found")
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    return os.path.join(build_dir, "perfbench")


def declared_metrics(measured, args):
    """The metrics BENCHMARK.json declares for this mode, in its order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    out = {}
    for m in bench["per_layer" if args.trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None:
            if not args.trace:
                fail("%s did not measure %s" % (args.workload, m["name"]))
            got = {"value": 0, "unit": m["unit"]}  # a layer this workload bypasses
        if got["unit"] != m["unit"]:
            fail("%s is in %s, BENCHMARK.json says %s" % (m["name"], got["unit"], m["unit"]))
        out[m["name"]] = got
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-reference", action="store_true",
                    help="rewrite this seed's reference digest instead of checking it "
                         "(only for a deliberate change of predictions)")
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)

    work_dir = os.path.join(build_dir, "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference-dir", os.path.join(HERE, "reference"),
           # Relative, so the daemon's Unix socket path stays short.
           "--work-dir", os.path.relpath(work_dir)]
    if args.trace:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, "%s-seed%d.json" % (args.workload, args.seed))]
    if args.write_reference:
        cmd.append("--write-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (args.workload, RUN_TIMEOUT_S))
    if proc.returncode != 0:
        fail("%s exited with code %d" % (args.workload, proc.returncode))
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        fail("no result line from %s" % args.workload)
    print("perfbench: measured " + json.dumps(result["metrics"]), file=sys.stderr)
    result["metrics"] = declared_metrics(result["metrics"], args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
