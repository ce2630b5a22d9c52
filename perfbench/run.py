#!/usr/bin/env python3
"""Build and run one perfbench workload.

    python3 perfbench/run.py --workload paper_report|pod_whatif|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The benchmark is built from source
into .bench_build/ (or $CARGO_TARGET_DIR when set) on first use. The
last line of standard output is the JSON result. Exact counts and the
answer digest are recorded per (binary, workload, seed, seconds) under
the build directory, and a later run of the same binary and seed that
reads different ones fails: a moved count is an error, never noise.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def build(out):
    """Configure once, then build; the build's output goes to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no mlpsim sources next to the benchmark; nothing to build")
        return None
    cfg = os.path.join(out, "perfbench")
    if not os.path.isfile(os.path.join(cfg, "CMakeCache.txt")):
        rc = subprocess.call(
            ["cmake", "-S", HERE, "-B", cfg, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=sys.stderr)
        if rc != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    rc = subprocess.call(["cmake", "--build", cfg, "-j", jobs],
                         stdout=sys.stderr)
    exe = os.path.join(cfg, "perfbench")
    return exe if rc == 0 and os.path.isfile(exe) else None


def file_digest(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()[:16]


def check_repeat(out, exe, args, record):
    """Compare this run's counts and digest with the first run's."""
    d = os.path.join(out, "repeat", file_digest(exe))
    os.makedirs(d, exist_ok=True)
    path = os.path.join(
        d, "%s-seed%d-%gs.json" % (args.workload, args.seed, args.seconds))
    if not os.path.exists(path):
        with open(path, "w") as f:
            json.dump(record, f, sort_keys=True)
        return None
    with open(path) as f:
        first = json.load(f)
    if first == record:
        return None
    moved = sorted(k for k in set(first["counts"]) | set(record["counts"])
                   if first["counts"].get(k) != record["counts"].get(k))
    if first["digest"] != record["digest"]:
        moved.append("answer digest")
    return "exact repeat check: %s moved since the first run of this " \
           "seed" % ", ".join(moved)


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    out = build_dir()
    os.makedirs(out, exist_ok=True)
    exe = build(out)
    if exe is None:
        log("build failed")
        return 3

    workdir = os.path.join(out, "run-%d" % os.getpid())
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "%g" % args.seconds, "--trace", str(args.trace),
           "--workdir", workdir]
    if args.trace:
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("run timed out after %d s" % RUN_TIMEOUT_S)
        return 4
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        log("the benchmark printed no result (exit %d)" % proc.returncode)
        return proc.returncode or 5
    result = json.loads(lines[-1])

    record = None
    for line in lines:
        if line.startswith("# repeat "):
            record = json.loads(line[len("# repeat "):])
    problem = "no repeat record" if record is None else \
        check_repeat(out, exe, args, record)
    if problem:
        lines.insert(-1, "# FAILED: " + problem)
        result["correct"] = False
        result["failed"] += 1

    for line in lines[:-1]:
        print(line)
    print(json.dumps(result, separators=(",", ":")))
    return 0 if result["correct"] and proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
