#!/usr/bin/env python3
"""Build and run one perfbench workload from the root of a Portal checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (and the portal library from this checkout's sources)
with CMake into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench),
then runs the binary with the workload's OpenMP thread count. The binary's
stdout is passed through, except its last line, the JSON result: that is
checked against BENCHMARK.json, the one list of metric names and units, and
printed last. With --trace 0 it must hold exactly the end_to_end metrics;
with --trace 1 only per_layer metrics, and a layer the workload bypasses
(so the binary does not measure it) is printed as 0. Exits non-zero, without
a result line, when the sources are missing, the build fails, the run fails
its correctness or validity checks, or its metrics do not match.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

WORKLOADS = ("batch-knn", "batch-kde", "serve-live", "serve-ann")

# OpenMP threads per workload. batch-*: the parallel solves' team (the binary
# drops to 1 for its 1-thread solves). serve-*: 1, because the service
# workers, the generator and (serve-live) the background merger fill the
# thread budget, and publish -- the graph build in serve-ann -- then times
# at one thread.
OMP_THREADS = {"batch-knn": 2, "batch-kde": 2, "serve-live": 1, "serve-ann": 1}

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(message):
    print("perfbench/run.py: " + message, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    os.makedirs(build_dir, exist_ok=True)
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        steps = [
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            ["cmake", "--build", build_dir, "--target", "perfbench", "-j", jobs],
        ]
        for cmd in steps:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S, check=False)
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-4000:])
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def checked_result(line, trace):
    """The binary's JSON result, with its metrics checked against
    BENCHMARK.json and bypassed per-layer metrics filled in as 0."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    result = json.loads(line)
    metrics = result["metrics"]
    for name, m in metrics.items():
        if units.get(name) != m["unit"]:
            fail("metric %s [%s] is not in BENCHMARK.json's %s list"
                 % (name, m["unit"], "per_layer" if trace else "end_to_end"))
    missing = [name for name in units if name not in metrics]
    if missing and not trace:
        fail("end-to-end metrics not reported: " + ", ".join(missing))
    result["metrics"] = {name: metrics.get(name, {"value": 0, "unit": units[name]})
                         for name in units}
    return result


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    for needed in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt")):
        if not os.path.isfile(os.path.join(root, needed)):
            fail("run from the root of a Portal checkout (missing %s)" % needed)

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(root, os.path.join(root, target, "perfbench"))

    env = dict(os.environ)
    env["OMP_NUM_THREADS"] = str(OMP_THREADS[args.workload])
    env.pop("PORTAL_TRACE", None)  # tracing is the binary's --trace alone
    env.pop("PORTAL_JIT_CACHE_DIR", None)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    with subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            fail("the run exceeded %d s" % RUN_TIMEOUT_S)
    lines = out.splitlines()
    if proc.returncode != 0:
        # The binary printed no result line; never let a partial one stand last.
        sys.stdout.write(out)
        print("perfbench/run.py: run failed with exit code %d" % proc.returncode,
              file=sys.stderr)
        sys.exit(1)
    if not lines:
        fail("the run printed no result")
    result = checked_result(lines[-1], args.trace)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
