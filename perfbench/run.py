#!/usr/bin/env python3
"""Build and run the InstantCheck benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload check|explore|serve|fleet \
        --seed N --seconds S --trace 0|1 [--plant-wrong-expectation]

Builds perfbench/ (the repository's libraries, the real `icheck`
binary and the perfbench binary) with CMake into $CARGO_TARGET_DIR
(default .bench_build), runs one workload in a fresh work directory and
prints two lines: a provenance record, then the result object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer metrics of BENCHMARK.json.
Exits 1 without a result when the build or the run fails, and 1 after
printing the result when a correctness gate failed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("check", "explore", "serve", "fleet")
RUN_TIMEOUT_S = 170


def die(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and build; returns the directory holding the binaries."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no InstantCheck sources next to perfbench/ (src/ is missing)")
    log_path = os.path.join(build_dir, "build.log")
    os.makedirs(build_dir, exist_ok=True)
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    jobs = str(len(os.sched_getaffinity(0)))
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir] + generator,
        ["cmake", "--build", build_dir, "-j", jobs],
    ]
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.call(step, stdout=log, stderr=log) != 0:
                with open(log_path) as failed:
                    sys.stderr.write(failed.read()[-4000:])
                die("build failed: " + " ".join(step))
    return build_dir


def cpu_ticks():
    """(steal ticks, total ticks) from the aggregate /proc/stat line."""
    with open("/proc/stat") as stat:
        fields = [int(x) for x in stat.readline().split()[1:]]
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def loadavg():
    with open("/proc/loadavg") as f:
        return [float(x) for x in f.read().split()[:3]]


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None  # not a git checkout (never a parent's repository)
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        return out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over the sources the benchmark builds (the checkout the
    benchmark runs in is not always a git repository)."""
    digest = hashlib.sha256()
    roots = [os.path.join(ROOT, "src"), HERE,
             os.path.join(ROOT, "tools", "icheck.cpp")]
    paths = []
    for root in roots:
        if os.path.isfile(root):
            paths.append(root)
        for base, dirs, files in os.walk(root):
            dirs[:] = sorted(d for d in dirs if d != "__pycache__")
            paths.extend(os.path.join(base, f) for f in files)
    for path in sorted(paths):
        digest.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return digest.hexdigest()[:16]


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--plant-wrong-expectation", action="store_true",
                        help="flip lu's expected verdict (check "
                             "workload); the run must then fail")
    args = parser.parse_args()

    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
        "perfbench")
    bin_dir = build(build_dir)
    names = expected_metrics(args.trace)

    work = os.path.join(build_dir, "work",
                        "%s-%d-%d-%d" % (args.workload, args.seed,
                                         args.trace, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    steal0, total0 = cpu_ticks()
    load0 = loadavg()
    command = [os.path.join(bin_dir, "perfbench"), args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace),
               "--icheck", os.path.join(bin_dir, "icheck"),
               # Relative paths keep the Unix socket names short.
               "--workdir", "."]
    if args.plant_wrong_expectation:
        command.append("--plant-wrong-expectation")
    started = time.monotonic()
    # perfbench and the daemons it spawns share a new process group, so
    # whatever happens to perfbench, nothing it started outlives the run.
    proc = subprocess.Popen(command, cwd=work, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)

    def terminate(signum, frame):
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        sys.exit(1)

    signal.signal(signal.SIGTERM, terminate)
    signal.signal(signal.SIGINT, terminate)
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout, stderr = "", ""
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    elapsed = time.monotonic() - started
    steal1, total1 = cpu_ticks()
    sys.stderr.write(stderr[-4000:])
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        die("perfbench failed (exit %s) after %.0f s"
            % (proc.returncode, elapsed))
    raw = json.loads(lines[-1])

    trace_file = None
    if args.trace:
        trace_file = os.path.join(
            build_dir, "traces", "%s-seed%d.json" % (args.workload,
                                                      args.seed))
        os.makedirs(os.path.dirname(trace_file), exist_ok=True)
        shutil.copyfile(os.path.join(work, "trace.json"), trace_file)
    shutil.rmtree(work, ignore_errors=True)

    missing = [n for n in names if n not in raw["metrics"]]
    if missing:
        die("perfbench did not report " + ", ".join(missing))
    metrics = {n: raw["metrics"][n] for n in names}

    provenance = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "steal_ticks": steal1 - steal0,
        "steal_share": (steal1 - steal0) / max(1, total1 - total0),
        "loadavg_start": load0,
        "loadavg_end": loadavg(),
        "wall_s": elapsed,
        "details": raw["details"],
        "failures": raw["failures"],
        "trace_file": trace_file,
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"correct": raw["correct"],
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))
    return 0 if raw["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
