#!/usr/bin/env python3
"""Steadiness proof: run one workload K times and judge each metric.

    python3 perfbench/steady.py --workload bulk_fold --runs 10 \
        [--seed0 100] [--sets 2] [--seconds S] [--trace 0|1]

Runs perfbench/run.py K times per set, each with another seed (seed0,
seed0+1, ...; every set reuses the same seeds), and prints for every
metric its median, quartiles (statistics.quantiles(values, n=4)), min
and max. For end-to-end metrics it prints the quartile spread as a share
of the median against the metric's bound from BENCHMARK.json:

  steady      spread <= bound/3
  in-bound    spread <= bound
  UNRESOLVED  spread >  bound: a change to this metric on this workload
              cannot be told from run-to-run noise

With --sets 2 it also checks that the second set's median is not worse
than the first's by more than the bound. Per-layer counts (unit "count") must repeat exactly
in every run; a count that does not is reported as VARIES.
Exit status is 1 when any run fails or any judgement above fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    last = p.stdout.rstrip("\n").split("\n")[-1] if p.stdout else ""
    if p.returncode != 0 or not last.startswith("{"):
        sys.stderr.write(p.stdout[-2000:] + p.stderr[-2000:])
        return None
    return json.loads(last)


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "min": min(values),
            "max": max(values),
            "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=100)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()
    if a.runs < 2:
        ap.error("--runs must be at least 2")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = a.seconds or spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    ok = True
    medians = []
    for s in range(a.sets):
        values = {}
        units = {}
        for k in range(a.runs):
            seed = a.seed0 + k
            res = one_run(a.workload, seed, seconds, a.trace)
            if res is None or not res["correct"] or res["failed"]:
                print("set %d run %d (seed %d): FAILED" % (s + 1, k + 1, seed))
                ok = False
                continue
            print("set %d run %d (seed %d): %d ops ok; %s" %
                  (s + 1, k + 1, seed, res["attempted"],
                   " ".join("%s=%.4g" % (n, m["value"])
                            for n, m in res["metrics"].items() if n in e2e)),
                  flush=True)
            for name, m in res["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        print("\nset %d: %s, %d runs of %d s%s" %
              (s + 1, a.workload, a.runs, seconds,
               ", traced" if a.trace else ""))
        print("%-32s %-6s %12s %12s %12s %12s %12s %8s %6s  %s" %
              ("metric", "unit", "median", "q1", "q3", "min", "max",
               "spread", "bound", "verdict"))
        set_medians = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            st = summarize(vals)
            set_medians[name] = st["median"]
            verdict, bound = "", ""
            if name in e2e:
                b = e2e[name]["bound"]
                bound = "%.3f" % b
                if st["spread"] <= b / 3:
                    verdict = "steady"
                elif st["spread"] <= b:
                    verdict = "in-bound"
                else:
                    verdict = "UNRESOLVED"
                    ok = False
            elif units[name] == "count" and st["min"] != st["max"]:
                verdict = "VARIES"
                ok = False
            print("%-32s %-6s %12.6g %12.6g %12.6g %12.6g %12.6g %8.4f "
                  "%6s  %s" % (name, units[name], st["median"], st["q1"],
                               st["q3"], st["min"], st["max"], st["spread"],
                               bound, verdict))
        medians.append(set_medians)
    for s in range(1, len(medians)):
        print("\nset %d vs set 1 (median shift, worse = positive):" % (s + 1))
        for name, m in e2e.items():
            if name not in medians[0] or name not in medians[s]:
                continue
            a0, a1 = medians[0][name], medians[s][name]
            worse = (a1 - a0) / a0 if m["better"] == "lower" else (a0 - a1) / a0
            flag = "ok" if worse <= m["bound"] else "WORSE THAN BOUND"
            ok = ok and worse <= m["bound"]
            print("  %-24s %+8.4f  (bound %.3f) %s" %
                  (name, worse, m["bound"], flag))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
