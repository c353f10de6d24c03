#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload cold_synth|bulk_fold|serve_mix \
        --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout of the repository. The first run
configures and builds perfbench/ (the library sources under src/ plus
the perfbench program in perfbench/src/) in RelWithDebInfo under
$CARGO_TARGET_DIR, or .bench_build/ when that is unset; later runs only
re-check the build.

--trace 0 prints every end-to-end metric of BENCHMARK.json; every
workload measures all of them. --trace 1 runs the workload twice,
untraced and then traced, and prints every per-layer metric plus
trace.overhead, the traced run's cost over the untraced one on the
end-to-end metrics. A per-layer count, ratio or share of a layer the
workload does not measure reads 0; a missing time is an error. The
traced run's spans are written as Chrome trace-event JSON under
<build>/traces/ and checked here.

The last line of standard output is the result object; the exit status
is non-zero, with no result line, when the build or the run fails, and
non-zero with "correct": false when an output differed from the
interpreter.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cold_synth", "bulk_fold", "serve_mix")
# Every invocation must end within 180 s; the build is not counted.
RUN_TIMEOUT_S = 170
# Units of time: a metric in one of these is always measured, never
# filled in.
TIME_UNITS = ("s", "ms", "us", "ns")


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no GRASSP sources under %s/src" % ROOT)
    os.makedirs(bdir, exist_ok=True)
    log_path = os.path.join(bdir, "build.log")
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                               cwd=ROOT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed: %s (log: %s)" % (" ".join(cmd), log_path))
    return os.path.join(bdir, "perfbench")


def run_binary(exe, args, timeout):
    """Runs the perfbench program and echoes its report.

    Returns (exit status, the final JSON object or None)."""
    proc = subprocess.Popen([exe] + args, cwd=ROOT, stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("workload timed out after %d s" % timeout)
    lines = out.rstrip("\n").split("\n")
    result = None
    if lines and lines[-1].startswith("{"):
        result = json.loads(lines.pop())
    for line in lines:
        print(line)
    return proc.returncode, result


def check_chrome_trace(path):
    """A valid trace-event file with nested spans; returns (spans, nested)."""
    with open(path) as f:
        doc = json.load(f)
    events = doc["traceEvents"]
    ids = set()
    for e in events:
        for key in ("name", "cat", "ph", "ts", "dur", "pid", "tid", "args"):
            if key not in e:
                fail("trace event without %r: %r" % (key, e))
        ids.add(e["args"]["span"])
    nested = sum(1 for e in events if e["args"]["parent"] in ids)
    if nested == 0:
        fail("trace %s has no nested spans" % path)
    return len(events), nested


def overhead(spec, untraced, traced):
    """Geomean over the timed end-to-end metrics of traced cost /
    untraced cost - 1."""
    logs = []
    for m in spec["end_to_end"]:
        name = m["name"]
        if name == "setup_s":
            continue
        a, b = untraced[name]["value"], traced[name]["value"]
        logs.append(math.log(b / a if m["better"] == "lower" else a / b))
    return math.exp(sum(logs) / len(logs)) - 1


def select(metrics, wanted):
    """The metrics named in `wanted` (BENCHMARK.json entries), in order.
    A missing time, or any missing end-to-end metric, is an error."""
    out = {}
    for m in wanted:
        name = m["name"]
        if name in metrics:
            out[name] = metrics[name]
        elif "bound" in m or m["unit"] in TIME_UNITS:
            fail("workload did not measure %s" % name)
        else:
            out[name] = {"value": 0, "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    spec = load_spec()
    bdir = build_dir()
    exe = build(bdir)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--seconds", str(a.seconds)]

    if a.trace == 0:
        rc, result = run_binary(exe, common + ["--trace", "0"],
                                RUN_TIMEOUT_S)
        wanted = spec["end_to_end"]
    else:
        trace_dir = os.path.join(bdir, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        trace_out = os.path.join(trace_dir,
                                 "%s-%d.json" % (a.workload, a.seed))
        half = RUN_TIMEOUT_S // 2
        print("== untraced run (the overhead baseline)")
        rc, base = run_binary(exe, common + ["--trace", "0"], half)
        if rc != 0 or base is None:
            sys.exit(rc or 1)
        print("== traced run")
        rc, result = run_binary(exe, common + ["--trace", "1",
                                               "--trace-out", trace_out],
                                half)
        if result is not None and rc == 0:
            spans, nested = check_chrome_trace(trace_out)
            print("trace: %s holds %d spans, %d nested" %
                  (trace_out, spans, nested))
            ovh = overhead(spec, select(base["metrics"], spec["end_to_end"]),
                           select(result["metrics"], spec["end_to_end"]))
            print("trace: overhead %+.2f%% over the untraced run" %
                  (ovh * 100))
            result["metrics"]["trace.overhead"] = {"value": ovh,
                                                   "unit": "share"}
        wanted = spec["per_layer"]

    if result is None:
        sys.exit(rc or 1)
    result["metrics"] = select(result["metrics"], wanted)
    print(json.dumps(result))
    sys.stdout.flush()
    sys.exit(rc)


if __name__ == "__main__":
    main()
