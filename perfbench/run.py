#!/usr/bin/env python3
"""Session benchmark for the GUM engine (see perfbench/README.md).

Builds perfbench_driver from the checkout's sources, runs one workload in a
closed loop and prints, as the last stdout line, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list; with
--trace 1 they are its per_layer list.

  python3 perfbench/run.py --workload road-sssp --seed 3 --seconds 20 --trace 0
  python3 perfbench/run.py --self-check
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170
# Counts the self-check requires to repeat exactly for one seed.
DETERMINISTIC = ["sim_ms_per_query", "core.supersteps",
                 "solver.solves_per_query", "async.batches_per_query"]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds the driver; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found under {ROOT}/src")
    bdir = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", bdir,
              "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + generator,
             ["cmake", "--build", bdir, "-j", jobs]]
    if os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps = steps[1:]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench_driver")


def run_driver(binary, workload, seed, trace, seconds=None, queries=None,
               echo=True):
    """Runs the driver once; returns its detail JSON (its last line)."""
    cmd = [binary, f"--workload={workload}", f"--seed={seed}",
           f"--trace={trace}"]
    if seconds is not None:
        cmd.append(f"--seconds={seconds}")
    if queries is not None:
        cmd.append(f"--queries={queries}")
    if trace:
        cmd.append("--trace-out=" + os.path.join(build_dir(), "traces"))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"driver exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"driver exited with {proc.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    try:
        return json.loads(lines[-1])
    except ValueError:
        fail("driver did not end with a JSON line")


def result_line(spec, detail, trace):
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    missing = []
    for item in wanted:
        name = item["name"]
        value = detail["metrics"].get(name)
        if value is None or name in detail["missing"]:
            missing.append(name)
            continue
        metrics[name] = {"value": value, "unit": item["unit"]}
        print(f"  {name:36s} {value:>16.6g} {item['unit']}")
    for name in missing:
        print(f"  {name:36s} {'missing':>16s}")
    env = detail["env"]
    print(f"  env: nproc {env['nproc']}, host threads {env['host_threads']}, "
          f"pinned CPUs {env['pinned_cpus']}, {env['devices']} vGPUs, "
          f"{env['build_type']}, {env['compiler']}")
    return {"correct": detail["failed"] == 0,
            "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": metrics}


def self_check(spec, binary, seed):
    """Same seed twice agrees exactly; another seed changes the inputs."""
    ok = True
    for item in spec["workloads"]:
        w = item["name"]
        a = run_driver(binary, w, seed, 1, queries=12, echo=False)
        b = run_driver(binary, w, seed, 1, queries=12, echo=False)
        c = run_driver(binary, w, seed + 1, 0, queries=1, echo=False)
        checks = [(f"{k} repeats", a["metrics"][k] == b["metrics"][k])
                  for k in DETERMINISTIC]
        checks.append(("failed_frac == 0",
                       a["metrics"]["failed_frac"] == 0
                       and b["metrics"]["failed_frac"] == 0))
        checks.append((f"seed {seed + 1} changes the inputs",
                       a["inputs"] != c["inputs"]))
        for label, passed in checks:
            print(f"{w:11s} {'ok  ' if passed else 'FAIL'} {label}")
            ok = ok and passed
    return ok


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=names)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="determinism and seed checks on every workload")
    args = ap.parse_args()

    binary = build()
    if args.self_check:
        sys.exit(0 if self_check(spec, binary, args.seed) else 1)
    if args.workload is None:
        ap.error("--workload is required")
    detail = run_driver(binary, args.workload, args.seed, args.trace,
                        seconds=args.seconds)
    print(json.dumps(result_line(spec, detail, args.trace)))


if __name__ == "__main__":
    main()
