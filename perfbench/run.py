#!/usr/bin/env python3
"""Run one benchmark workload (or all of them) and print its metrics.

    python3 perfbench/run.py --workload <name|all> --seed <n> \
        --seconds <s> --trace <0|1>

Run from the root of a checkout. The script builds the runner
(perfbench/CMakeLists.txt, which compiles the program's sources under
src/) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
then runs it. Scratch files (socket, .mtx/.cbm, traces) go to
.bench_run/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. With --trace 0 the metrics are
BENCHMARK.json's end_to_end list, with --trace 1 its per_layer list; the
script refuses to print a result whose metric names differ from those.
A seed listed in perfbench/expected.json also has its output digest
checked against the pinned value.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUNNER_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def lanes():
    """Parallel build jobs: the cores this process may use."""
    return len(os.sched_getaffinity(0))


def build():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    # Keep the compiler's temporary files inside the checkout too.
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir],
        ["cmake", "--build", build_dir, "-j", str(lanes())],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench_runner")


def run_workload(runner, spec, workload, seed, seconds, trace):
    expected = spec["expected"].get(workload, {}).get(str(seed), "")
    cmd = [runner, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           # Relative to ROOT: the daemon's Unix socket lives here, and
           # socket paths are limited to about 100 characters.
           "--run-dir", ".bench_run"]
    if expected:
        cmd += ["--expect-digest", expected]
    try:
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: runner exceeded {RUNNER_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"{workload}: runner exited with {done.returncode}")
    lines = done.stdout.rstrip("\n").split("\n")
    result = json.loads(lines[-1])
    wanted = spec["per_layer" if trace else "end_to_end"]
    if list(result["metrics"]) != wanted:
        fail(f"{workload}: runner metrics {list(result['metrics'])} "
             f"differ from BENCHMARK.json's {wanted}")
    return lines[:-1], result


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    with open(os.path.join(HERE, "expected.json")) as f:
        expected = json.load(f)
    return {
        "workloads": [w["name"] for w in bench["workloads"]],
        "end_to_end": [m["name"] for m in bench["end_to_end"]],
        "per_layer": [m["name"] for m in bench["per_layer"]],
        "expected": expected["digests"],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = load_spec()
    names = spec["workloads"] if args.workload == "all" else [args.workload]
    for name in names:
        if name not in spec["workloads"]:
            fail(f"unknown workload '{name}'")
    runner = build()

    results = {}
    for name in names:
        summary, results[name] = run_workload(
            runner, spec, name, args.seed, args.seconds, args.trace)
        print("\n".join(summary), flush=True)
    if len(names) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{w}/{m}": v for w, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
