#!/usr/bin/env python3
"""The periodjet benchmark: run one seeded workload and check its outputs.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--record-golden]

Run it from the repository root; the library is imported from ./src.

With --trace 0 the job cycle repeats, one job at a time, until S seconds
have passed (whole cycles only, so every run has the same job mix), and
the end-to-end metrics of BENCHMARK.json are reported. With --trace 1 the
cycle runs three times, set-up included: a warm-up, an untraced pass and
a traced pass, and the per-layer metrics are reported instead; no
end-to-end number comes from a traced run.

Outputs are checked outside the timed region: every repeat of a job must
give the same bytes as its first run, each result must agree with the
other prescription (see workloads.py), and at the default seed the first
cycle must match the digests in golden.json. The last line of stdout is
one JSON object {"correct", "attempted", "failed", "metrics"}; the lines
before it print every metric with its unit and list each failed job with
its input. A fuller record, with the machine it ran on, is written to
.perfbench_out/. Exit code 0 when the run completed (whether or not its
outputs were correct), 2 when it could not start.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
IMPORT_PROBES = 5  # fresh-process imports before the timed phase
SETUP_REPEATS = 5  # in-process set-ups; setup_s takes their median
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, 'src'); "
                "t = time.perf_counter(); import periodjet.cli; "
                "print(time.perf_counter() - t)")


def fail_to_start(msg):
    print("perfbench: %s" % msg, file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def cpu_seconds():
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return total


def machine():
    """What a timing depends on; results from different machines are not
    comparable (compare.py refuses them)."""
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(), "cpu_model": cpu,
            "system": platform.system(), "release": platform.release()}


def source_state():
    """Git commit when the tree is a git checkout, and always a digest of
    the library sources."""
    commit = "unknown"
    if os.path.exists(".git"):  # never look above the tree for a repository
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    src = os.path.join("src", "periodjet")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return {"git_commit": commit, "source_sha256": h.hexdigest()}


def import_seconds():
    """Time to import periodjet.cli in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                         capture_output=True, text=True, timeout=60,
                         check=True).stdout
    return float(out)


def timed_setup(w, repeats):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        w.setup()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class JobError(object):
    def __init__(self, exc):
        self.reason = "raised %s: %s" % (type(exc).__name__, exc)


def run_cycle(w, run, records, tracer=None):
    """Run each job of the cycle once; appends (job, raw result, wall s,
    CPU s of self and children) to records."""
    clock = time.perf_counter
    for i in range(len(w.jobs)):
        if tracer is not None:
            tracer.job = i
        c0, t0 = cpu_seconds(), clock()
        try:
            raw = run(i)
        except Exception as exc:  # a job that raises is a failed job
            raw = JobError(exc)
        records.append((i, raw, clock() - t0, cpu_seconds() - c0))
    if tracer is not None:
        tracer.job = -1


def verify(w, records, golden):
    """Check every record; returns (failures, first-cycle texts). A
    failure is {"job", "runs", "reason", "input"}; `runs` counts the
    records of that job that failed."""
    first, reasons = {}, {}
    for i, raw, _, _ in records:
        if isinstance(raw, JobError):
            reasons.setdefault(i, raw.reason)
            continue
        text = w.canon(i, raw)
        if i not in first:
            first[i] = text
            try:
                why = w.check(i, text)
            except Exception as exc:
                why = "unreadable output: %s: %s" % (type(exc).__name__, exc)
            if why:
                reasons[i] = why
        elif text != first[i]:
            reasons.setdefault(i, "output differs from this job's first run")
    try:
        for i, why in w.oracle(first).items():
            reasons.setdefault(i, why)
    except Exception as exc:
        for i in first:
            reasons.setdefault(i, "oracle raised %s: %s"
                               % (type(exc).__name__, traceback.format_exc(
                                   limit=1).strip()))
    if golden is not None:
        for i, want in enumerate(golden["jobs"]):
            got = digest(first.get(i, ""))
            if got != want:
                reasons.setdefault(i, "output bytes differ from golden.json")
    counts = {}
    for i, _, _, _ in records:
        if i in reasons:
            counts[i] = counts.get(i, 0) + 1
    failures = [{"job": i, "runs": counts[i], "reason": reasons[i],
                 "input": w.jobs[i]} for i in sorted(reasons)]
    return failures, first


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def end_to_end(w, name, seconds, import_times):
    """Whole cycles until `seconds` have passed, with one more import probe
    after each cycle, so that the import time in setup_s is a median over
    the whole run rather than over one moment of it.

    Every timed job is one sample: job_p50_ms is the median latency over
    all of them and cpu_ms_per_job their mean CPU time. Whole cycles hold
    each job equally often, so neither figure drifts with the number of
    cycles that fit in `seconds`. jobs_per_s needs the verdicts and is
    added by finish_end_to_end.
    """
    records = []
    start = time.perf_counter()
    while True:
        run_cycle(w, w.run, records)
        import_times.append(import_seconds())
        if time.perf_counter() - start >= seconds:
            break
    n = len(w.jobs)
    if name == "cli-oneshot":  # the largest child; the client is not the load
        rss_kib = max(raw[3] for _, raw, _, _ in records
                      if not isinstance(raw, JobError))
    else:
        rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies = [t for _, _, t, _ in records]
    metrics = {
        "job_p50_ms": statistics.median(latencies) * 1000,
        "cpu_ms_per_job": sum(c for _, _, _, c in records) * 1000
        / len(records),
        "peak_rss_mb": rss_kib / 1024,
    }
    extra = {"job_samples": len(records), "cycles": len(records) // n,
             "timed_wall_s": sum(latencies),
             "job_wall_ms": [[t * 1000 for j, _, t, _ in records if j == i]
                             for i in range(n)]}
    if len(latencies) >= 100:  # ten samples beyond the percentile at least
        extra["job_p90_ms"] = statistics.quantiles(latencies, n=10)[8] * 1000
    return records, metrics, extra


def finish_end_to_end(records, failures, metrics):
    """jobs_per_s: verified jobs over the summed wall time of all timed
    jobs; the import probes between cycles are not part of it."""
    failed_jobs = {f["job"] for f in failures}
    verified = sum(1 for i, _, _, _ in records if i not in failed_jobs)
    metrics["jobs_per_s"] = verified / sum(t for _, _, t, _ in records)


def traced(w, import_s):
    from layertrace import Tracer
    untraced_records = []
    w.setup()  # a first pass warms the interpreter; it is checked, not timed
    run_cycle(w, w.run_inprocess, untraced_records)
    t0 = time.perf_counter()
    w.setup()
    run_cycle(w, w.run_inprocess, untraced_records)
    untraced_wall = time.perf_counter() - t0

    tracer = Tracer()
    records = []
    tracer.install()
    try:
        t0 = time.perf_counter()
        w.setup()
        run_cycle(w, w.run_inprocess, records, tracer)
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics()
    metrics["cli.import_ms"] = import_s * 1000
    metrics["trace.overhead_ratio"] = traced_wall / untraced_wall
    extra = {"spans": len(tracer.spans), "untraced_wall_s": untraced_wall,
             "traced_wall_s": traced_wall}
    return untraced_records + records, metrics, extra, tracer


def main(argv=None):
    root = os.getcwd()
    bench_path = os.path.join(root, "BENCHMARK.json")
    if not os.path.isfile(bench_path):
        fail_to_start("run from the repository root: no BENCHMARK.json here")
    if not os.path.isfile(os.path.join(root, "src", "periodjet", "cli.py")):
        fail_to_start("no library sources under ./src/periodjet")
    bench = load_json(bench_path)
    params = load_json(os.path.join(HERE, "workloads.json"))

    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True,
                        choices=[wl["name"] for wl in bench["workloads"]])
    parser.add_argument("--seed", type=int, default=params["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="store this run's first-cycle digests as the "
                             "golden outputs (default seed only)")
    args = parser.parse_args(argv)
    if args.record_golden and args.seed != params["default_seed"]:
        parser.error("--record-golden needs the default seed")

    os.environ.pop("PERIODJET_PRECISION", None)  # outputs follow the seed only
    sys.path.insert(0, os.path.join(root, "src"))
    import periodjet
    if not os.path.abspath(periodjet.__file__).startswith(
            os.path.join(root, "src")):
        fail_to_start("periodjet imported from %s, not ./src"
                      % periodjet.__file__)

    os.makedirs(OUT_DIR, exist_ok=True)
    workdir = os.path.join(OUT_DIR, "work-%d" % os.getpid())
    os.makedirs(workdir)
    try:
        return bench_run(args, bench, params, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def bench_run(args, bench, params, workdir):
    import workloads
    name = args.workload
    w = workloads.make(name, params, args.seed, workdir)
    import_times = [import_seconds() for _ in range(IMPORT_PROBES)]

    tracer = None
    if args.trace:
        records, metrics, extra, tracer = traced(
            w, statistics.median(import_times))
        wanted = bench["per_layer"]
    else:
        generate_s = timed_setup(w, SETUP_REPEATS)
        records, metrics, extra = end_to_end(w, name, args.seconds,
                                             import_times)
        metrics["setup_s"] = statistics.median(import_times) + generate_s
        extra["import_probes"] = len(import_times)
        wanted = bench["end_to_end"]

    golden_path = os.path.join(HERE, "golden.json")
    golden_all = load_json(golden_path) if os.path.isfile(golden_path) else {}
    golden = None
    if args.seed == params["default_seed"] and not args.record_golden:
        golden = golden_all.get(name)
    failures, first = verify(w, records, golden)
    failed = sum(f["runs"] for f in failures)
    if not args.trace:
        finish_end_to_end(records, failures, metrics)
    attempted = len(records)
    extra["failed_ratio"] = failed / attempted
    extra["first_cycle_sha256"] = digest(
        "".join(first.get(i, "") for i in range(len(w.jobs))))

    if args.record_golden:
        if failures:
            fail_to_start("not recording golden outputs of a failing run")
        golden_all[name] = {"seed": args.seed,
                            "digest": extra["first_cycle_sha256"],
                            "jobs": [digest(first[i])
                                     for i in range(len(w.jobs))]}
        with open(golden_path, "w") as fh:
            json.dump(golden_all, fh, indent=1, sort_keys=True)
            fh.write("\n")

    units = {m["name"]: m["unit"] for m in wanted}
    result = {
        "workload": name, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "jobs_per_cycle": len(w.jobs),
        "machine": machine(), "source": source_state(),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
        "extra": extra, "failures": failures,
    }
    tag = "%s-seed%d-trace%d" % (name, args.seed, args.trace)
    with open(os.path.join(OUT_DIR, tag + ".json"), "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    if tracer is not None:
        tracer.write_spans(os.path.join(OUT_DIR, tag + "-spans.jsonl"))

    for k in units:
        print("%-40s %16.6f %s" % (k, metrics[k], units[k]))
    print("%-40s %16.6f %s" % ("failed_ratio", extra["failed_ratio"],
                               "ratio"))
    if "job_p90_ms" in extra:
        print("%-40s %16.6f %s" % ("job_p90_ms", extra["job_p90_ms"], "ms"))
    print("%-40s %16d %s" % ("job_samples", attempted, "count"))
    for f in failures:
        print("FAILED job %d (%d runs): %s; input: %s"
              % (f["job"], f["runs"], f["reason"], json.dumps(f["input"])))
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
