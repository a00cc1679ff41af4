#!/usr/bin/env python3
"""Repeat-and-compare tool for the cqbench benchmark.

Runs each named workload several times, one seed per run, and prints for
every metric the median, the quartiles, the quartile spread as a share of
the median and the coefficient of variation, next to the metric's bound in
BENCHMARK.json. The results are saved with a record of the host (CPU count
and model, compiler, build type and flags, whether engine metrics are
compiled in). With --baseline it compares the new medians with a saved
result, and refuses when the two hosts differ or either build is not
optimized.

  python3 cqbench/compare.py --workload cacq_inline --runs 10
  python3 cqbench/compare.py --workload windowed --runs 10 --out .bench_build/new \\
      --baseline .bench_build/cqbench-compare/windowed-trace0.json
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Host fields that must match before two results may be compared.
HOST_KEYS = ("nproc", "cpu_model", "compiler", "optimized", "metrics",
             "build_type", "cxx_flags")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def cmake_cache(key):
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    path = os.path.join(ROOT, base, "cqbench", "CMakeCache.txt")
    try:
        with open(path) as f:
            for line in f:
                if line.startswith(key + ":"):
                    return line.split("=", 1)[1].strip()
    except OSError:
        pass
    return ""


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError("run failed: %s (exit %d)"
                           % (" ".join(cmd), proc.returncode))
    host, steal = {}, None
    for line in lines:
        m = re.match(r"# host (\{.*\})$", line)
        if m:
            host = json.loads(m.group(1))
        m = re.match(r"# host steal ([0-9.]+)%", line)
        if m:
            steal = float(m.group(1))
    return json.loads(lines[-1]), host, steal


def host_record(binary_host):
    build_type = cmake_cache("CMAKE_BUILD_TYPE")
    flags = cmake_cache("CMAKE_CXX_FLAGS_" + build_type.upper()) \
        if build_type else ""
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": binary_host.get("compiler", "unknown"),
        "optimized": binary_host.get("optimized", False),
        "metrics": binary_host.get("metrics", "unknown"),
        "build_type": build_type,
        "cxx_flags": flags,
    }


def summarize(values):
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        cv = statistics.stdev(values) / statistics.mean(values) \
            if statistics.mean(values) else 0.0
    else:
        q1 = q3 = med
        cv = 0.0
    spread = (q3 - q1) / abs(med) if med else 0.0
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "cv": cv,
            "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(ROOT, ".bench_build",
                                                  "cqbench-compare"),
                    help="directory for <workload>-trace<n>.json results")
    ap.add_argument("--baseline", default=None)
    args = ap.parse_args()

    spec = load_spec()
    seconds = spec["run_seconds"]
    key = "end_to_end" if args.trace == 0 else "per_layer"
    bounds = {m["name"]: m for m in spec[key]}
    status = 0
    for workload in args.workload:
        metrics, host, failed, steals = {}, None, 0, []
        for i in range(args.runs):
            seed = args.seed0 + i
            result, binary_host, steal = run_once(workload, seed, seconds,
                                                  args.trace)
            host = host or host_record(binary_host)
            if not result["correct"] or result["failed"]:
                failed += 1
            for name, m in result["metrics"].items():
                metrics.setdefault(name, []).append(m["value"])
            if steal is not None:
                steals.append(steal)
            print("  %s seed %d done" % (workload, seed), file=sys.stderr)
        if not host["optimized"]:
            print("refusing: %s was measured on an unoptimized build"
                  % workload)
            return 2
        summary = {name: summarize(v) for name, v in metrics.items()}
        print("\n%s: %d runs, %d with failures; host %s"
              % (workload, args.runs, failed, json.dumps(host)))
        if steals:
            # Time the hypervisor gave other guests: runs on a contended
            # host spread wider than the benchmark itself does.
            print("host steal per run (%% of CPU time): %s"
                  % " ".join("%.2f" % s for s in steals))
        print("%-40s %12s %12s %12s %8s %7s %6s" %
              ("metric", "median", "q1", "q3", "spread", "cv", "bound"))
        for name, s in summary.items():
            b = bounds.get(name, {}).get("bound")
            flag = ""
            if b is not None:
                flag = "ok" if s["spread"] <= b / 3 else (
                    "within" if s["spread"] <= b else "TOO WIDE")
            print("%-40s %12.4g %12.4g %12.4g %7.1f%% %6.1f%% %6s %s" %
                  (name, s["median"], s["q1"], s["q3"], 100 * s["spread"],
                   100 * s["cv"], "-" if b is None else "%.2f" % b, flag))
        record = {"workload": workload, "trace": args.trace,
                  "seconds": seconds, "seeds": [args.seed0, args.runs],
                  "host": host, "failed_runs": failed, "steal_pct": steals,
                  "metrics": summary}
        os.makedirs(args.out, exist_ok=True)
        out = os.path.join(args.out, "%s-trace%d.json" % (workload, args.trace))
        with open(out, "w") as f:
            json.dump(record, f, indent=1)
        print("saved %s" % out)
        if failed:
            status = 1

        if args.baseline:
            with open(args.baseline) as f:
                base = json.load(f)
            for k, v in (("workload", workload), ("trace", args.trace),
                         ("seconds", seconds)):
                if base.get(k) != v:
                    print("refusing: baseline has %s %s, this run %s"
                          % (k, base.get(k), v))
                    return 2
            diff = [k for k in HOST_KEYS if base["host"].get(k) != host.get(k)]
            if diff or not base["host"].get("optimized"):
                print("refusing to compare unlike hosts or builds: %s"
                      % (", ".join(diff) or "baseline unoptimized"))
                return 2
            print("\nagainst %s:" % args.baseline)
            for name, s in summary.items():
                if name not in base["metrics"] or name not in bounds:
                    continue
                old = base["metrics"][name]
                b = bounds[name].get("bound")
                worse = (s["median"] - old["median"]) / abs(old["median"]) \
                    if old["median"] else 0.0
                if bounds[name]["better"] == "higher":
                    worse = -worse
                verdict = "better" if worse < 0 else "same"
                if b is not None:
                    if max(s["spread"], old["spread"]) > b:
                        verdict = "unresolved (spread wider than bound)"
                    elif worse > b:
                        verdict = "REGRESSION"
                        status = 1
                print("  %-40s %12.4g -> %12.4g  worse by %+6.1f%%  %s" %
                      (name, old["median"], s["median"], 100 * worse, verdict))
    return status


if __name__ == "__main__":
    sys.exit(main())
