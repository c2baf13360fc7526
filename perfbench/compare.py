#!/usr/bin/env python3
"""Compare result files of two commits, one workload at a time:

    python3 perfbench/compare.py BASE.json ... --vs CHANGE.json ...

Result files are the records run.py writes to .perfbench_out/; copy them
aside between the runs of the two commits. For every metric it prints the
median and quartiles of each side and the change of the medians; an
end-to-end metric whose change is worse than its BENCHMARK.json bound is
marked WORSE. A comparison is refused as invalid (exit 1) when the files
come from different machines or Python versions, or mix workloads or
trace modes, because such timings are not comparable.
"""

import argparse
import json
import statistics
import sys


def load(paths):
    out = []
    for p in paths:
        with open(p) as fh:
            out.append(json.load(fh))
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], statistics.median(values), q[2]


def main(argv=None):
    parser = argparse.ArgumentParser(prog="perfbench/compare.py")
    parser.add_argument("base", nargs="+")
    parser.add_argument("--vs", nargs="+", required=True, dest="change")
    args = parser.parse_args(argv)
    base, change = load(args.base), load(args.change)
    runs = base + change
    keys = {(json.dumps(r["machine"], sort_keys=True), r["workload"],
             r["trace"]) for r in runs}
    if len(keys) != 1:
        print("INVALID: the results come from different machines, "
              "workloads or trace modes:")
        for k in sorted(keys):
            print("  %s" % (k,))
        return 1
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    better = {m["name"]: m["better"] for m in spec["per_layer"]}
    better.update({k: m["better"] for k, m in bounds.items()})
    print("%s, %d base run(s), %d change run(s)"
          % (runs[0]["workload"], len(base), len(change)))
    for name in sorted(base[0]["metrics"]):
        a = quartiles([r["metrics"][name]["value"] for r in base])
        b = quartiles([r["metrics"][name]["value"] for r in change])
        delta = (b[1] - a[1]) / a[1] if a[1] else float("nan")
        worse = delta if better.get(name) == "lower" else -delta
        flag = ""
        if name in bounds and worse > bounds[name]["bound"]:
            flag = "WORSE"
        print("%-36s base %12.5g [%.5g, %.5g]  change %12.5g [%.5g, %.5g]"
              "  %+.1f%% %s" % (name, a[1], a[0], a[2], b[1], b[0], b[2],
                                100 * delta, flag))
    return 0


if __name__ == "__main__":
    sys.exit(main())
