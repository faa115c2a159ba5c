#!/usr/bin/env python3
"""Build and run the smbcard end-to-end benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload zipf_ingest --seed 1 --seconds 20 --trace 0

The first run configures and builds perfbench/ (which compiles the
library sources of this checkout) into $CARGO_TARGET_DIR, or .bench_build
when that is unset; later runs only rebuild what changed. The driver's
output is passed through: a context line (environment, inputs, sample
counts) and, last, the result object. This wrapper also checks that the
printed metrics are exactly the ones BENCHMARK.json declares, so the
declaration and the driver cannot drift apart.
"""

import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt"))
            and os.path.isfile(os.path.join(root, "src", "CMakeLists.txt"))):
        fail(f"no smbcard sources next to {os.path.join(root, 'perfbench')}")
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        declared = json.load(f)
    if args.workload not in {w["name"] for w in declared["workloads"]}:
        fail(f"unknown workload {args.workload}")

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(root, target, "perfbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", os.path.join(root, "perfbench"), "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr, env=env)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs],
                   check=True, stdout=sys.stderr, env=env)

    trace_out = os.path.join(
        build_dir, f"spans-{args.workload}-seed{args.seed}.json")
    try:
        run = subprocess.run(
            [os.path.join(build_dir, "perfbench"),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", os.path.join(build_dir, "work"),
             "--trace-out", trace_out],
            cwd=root, env=env, stdout=subprocess.PIPE, text=True,
            timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")

    lines = run.stdout.strip().splitlines()
    if not lines:
        fail(f"driver printed nothing (exit {run.returncode})")
    result = json.loads(lines[-1])
    expected = declared["per_layer" if args.trace else "end_to_end"]
    want = {m["name"]: m["unit"] for m in expected}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if want != got:
        fail("printed metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, units "
             f"{sorted(n for n in set(want) & set(got) if want[n] != got[n])}")
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
