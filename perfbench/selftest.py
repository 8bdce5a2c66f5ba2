#!/usr/bin/env python3
"""Self-test of the benchmark itself. Run from the root of a source tree:

    python3 perfbench/selftest.py

It checks that
  * both modes print exactly the metrics BENCHMARK.json lists, as finite
    numbers, with a well-formed result line and the outputs verified;
  * the traced run's op spans cover at least 95% of job_s;
  * attempted and failed count distinct outputs, so a longer run of the
    same seed gives the same counts;
  * corrupting one reference digest makes the run fail an op (failed > 0,
    failed_frac > 0, correct false), so the output checks have teeth;
  * without the sources (only BENCHMARK.json and perfbench/) run.py exits
    non-zero and prints no result.
Everything it writes stays under the benchmark's build directory.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import run  # noqa: E402

WORKLOAD = "full_load_stream"


def bench(extra, cwd=ROOT, seconds=1):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", WORKLOAD, "--seconds", str(seconds)] + extra
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, text=True,
                          timeout=900)


def result_of(proc):
    if proc.returncode != 0:
        sys.exit(f"selftest: run failed ({proc.returncode}):\n{proc.stdout}")
    r = json.loads(proc.stdout.splitlines()[-1])
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        sys.exit(f"selftest: bad result keys {sorted(r)}")
    return r


def check(cond, what):
    if not cond:
        sys.exit(f"selftest: FAILED: {what}")
    print(f"selftest: ok: {what}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    out_dir = os.path.join(run.build_base(), "perfbench-out")

    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        r = result_of(bench(["--trace", trace]))
        names = {m["name"] for m in spec[section]}
        check(set(r["metrics"]) == names,
              f"trace {trace} prints exactly the {section} metrics")
        check(all(isinstance(v["value"], (int, float)) and
                  math.isfinite(v["value"]) for v in r["metrics"].values()),
              f"trace {trace} values are finite numbers")
        check(r["correct"] and r["failed"] == 0 and r["attempted"] >= 1,
              f"trace {trace} outputs match the references")
        if trace == "1":
            cov = r["metrics"]["trace.span_coverage"]["value"]
            check(cov >= 0.95, f"op spans cover {cov:.3f} of job_s")

    short, longer = (result_of(bench(["--trace", "0", "--seed", "5"],
                                     seconds=secs))
                     for secs in (1, 3))
    check((short["attempted"], short["failed"]) ==
          (longer["attempted"], longer["failed"]),
          "attempted and failed do not depend on the run length")

    refs = os.path.join(HERE, "references.txt")
    corrupt = os.path.join(out_dir, "corrupt-references.txt")
    with open(refs) as f:
        lines = f.read().splitlines()
    for i, line in enumerate(lines):
        parts = line.split()
        if len(parts) == 3 and parts[0] == WORKLOAD:
            flipped = "%016x" % (int(parts[2], 16) ^ 1)
            lines[i] = " ".join(parts[:2] + [flipped])
            break
    with open(corrupt, "w") as f:
        f.write("\n".join(lines) + "\n")
    r = result_of(bench(["--trace", "1", "--references", corrupt]))
    check(r["failed"] > 0 and not r["correct"] and
          r["metrics"]["failed_frac"]["value"] > 0,
          "a corrupted reference digest fails an op")

    bare = os.path.join(out_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = bench(["--trace", "0"], cwd=bare)
    last = proc.stdout.splitlines()[-1] if proc.stdout.strip() else ""
    check(proc.returncode != 0 and not last.startswith("{"),
          "without sources run.py fails and prints no result")
    shutil.rmtree(bare, ignore_errors=True)
    print("selftest: all checks passed")


if __name__ == "__main__":
    main()
