#!/usr/bin/env python3
"""Build and run the kafkasim benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree. The first call configures and builds
perfbench/ (the simulator libraries from src/ plus the benchmark program)
under .bench_build/ (or $CARGO_TARGET_DIR); later calls only rebuild what
changed. The program's stdout is passed through; its last line is the
result JSON. The metric names it prints are checked against
BENCHMARK.json. Disclosure files and the traced run's Chrome trace land in
<build dir>/perfbench-out/.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(msg, code=2):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(code)


def build_base():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build(base):
    build_dir = os.path.join(base, "perfbench")
    log_path = os.path.join(base, "perfbench-build.log")
    os.makedirs(build_dir, exist_ok=True)
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"] + gen)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                  "-j", jobs])
    # The build records the git SHA of the tree; keep git from looking for a
    # repository above the source tree.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    with open(log_path, "w") as log:
        for cmd in steps:
            rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env).returncode
            if rc != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail(f"build step failed: {' '.join(cmd)}", 1)
    return os.path.join(build_dir, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", help="workload seed (default: the reference "
                   "seed 0xBE7C4)")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", choices=["0", "1"], default="0")
    p.add_argument("--references",
                   default=os.path.join(HERE, "references.txt"),
                   help="reference digests checked at the default seed")
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no kafkasim sources under {ROOT}/src")
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}")

    base = build_base()
    binary = build(base)
    out_dir = os.path.join(base, "perfbench-out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [binary, "--workload", args.workload, "--seconds",
           repr(args.seconds), "--trace", args.trace,
           "--references", args.references, "--out", out_dir]
    if args.seed is not None:
        cmd += ["--seed", args.seed]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=3 * args.seconds + 150)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 1)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"benchmark exited with {proc.returncode}", 1)

    result = json.loads(lines[-1])
    listed = spec["per_layer" if args.trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in listed}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail(f"printed metrics differ from BENCHMARK.json: "
             f"missing {sorted(set(want) - set(got))}, "
             f"extra {sorted(set(got) - set(want))}, "
             f"unit mismatches "
             f"{sorted(k for k in got if k in want and got[k] != want[k])}",
             1)
    sys.stdout.write(proc.stdout)


if __name__ == "__main__":
    main()
