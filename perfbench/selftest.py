#!/usr/bin/env python3
"""Self-test of the benchmark; run it from the repository root:

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all of them by default) it checks that

  * a short run prints every end-to-end metric of BENCHMARK.json by name
    with its unit, and reports exactly those metrics, with those units,
    in its last line;
  * two traced runs with one seed do the same, with the per-layer
    metrics, and give identical `*.calls` counts and
    `laurent.series_built`;
  * every run is correct;

and, once, that the benchmark exits with a non-zero code and prints no
result in a directory holding only BENCHMARK.json and perfbench/.
Exits 1 on the first failed check.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join("perfbench", "run.py")
SEED = 7


def fail(msg):
    print("selftest FAILED: %s" % msg)
    sys.exit(1)


def bench(workload, trace, cwd="."):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=600)
    if proc.returncode != 0:
        fail("%s trace=%d exited %d: %s" % (workload, trace, proc.returncode,
                                          proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_printed(workload, wanted, report, result):
    units = {m["name"]: m["unit"] for m in wanted}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != units:
        fail("%s reports %s, BENCHMARK.json names %s"
             % (workload, sorted(got.items()), sorted(units.items())))
    printed = {}
    for line in report:
        parts = line.split()
        if len(parts) == 3:
            printed[parts[0]] = parts[2]
    for name, unit in units.items():
        if printed.get(name) != unit:
            fail("%s did not print %s with unit %s" % (workload, name, unit))
    if not result["correct"] or result["failed"]:
        fail("%s run was not correct: %s" % (workload, "\n".join(report)))


def exact_counts(workload, first, second):
    names = [k for k in first["metrics"]
             if k.endswith(".calls") or k == "laurent.series_built"]
    for k in names:
        a, b = first["metrics"][k]["value"], second["metrics"][k]["value"]
        if a != b:
            fail("%s: %s differs between traced runs: %s vs %s"
                 % (workload, k, a, b))
    return len(names)


def refuses_without_library():
    scratch = os.path.join(".perfbench_out", "selftest-bare")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    try:
        shutil.copy("BENCHMARK.json", scratch)
        shutil.copytree(HERE, os.path.join(scratch, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, RUN, "--workload", "check-suite", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, cwd=scratch, timeout=180)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("a tree without the library must fail without a result, got "
             "exit %d and %r" % (proc.returncode, proc.stdout[-500:]))


def main(argv):
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    workloads = argv or [w["name"] for w in spec["workloads"]]
    refuses_without_library()
    for workload in workloads:
        report, result = bench(workload, 0)
        check_printed(workload, spec["end_to_end"], report, result)
        traced = [bench(workload, 1) for _ in range(2)]
        for report, result in traced:
            check_printed(workload, spec["per_layer"], report, result)
        n = exact_counts(workload, traced[0][1], traced[1][1])
        print("selftest %s: metrics printed with units, %d counts repeat "
              "exactly" % (workload, n))
    print("selftest passed")


if __name__ == "__main__":
    main(sys.argv[1:])
