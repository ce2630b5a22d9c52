#!/usr/bin/env python3
"""Run each perfbench workload N times and report how steady it is.

    python3 perfbench/steadiness.py [--runs 10] [--seed 1] [--sets 1]
        [--workloads paper_report,pod_whatif] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Run k of a set uses seed `--seed + k`.
For every metric it prints the median, the quartiles (as
statistics.quantiles(values, n=4) gives them) and the spread, the
distance between the quartiles as a share of the median. With
--trace 0 each spread is compared with the metric's bound in
BENCHMARK.json: "ok" below a third of the bound, "within" below the
bound. With --sets 2 it also compares the second set's median with the
first. The first lines record the host: nproc, CPU model and build type.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "%g" % seconds,
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    host = next((l for l in lines if l.startswith("# host:")), None)
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        raise SystemExit("%s seed %d failed (exit %d)" %
                         (workload, seed, proc.returncode))
    return json.loads(lines[-1]), host


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med if med else float("inf")
    return med, q1, q3, spread


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--sets", type=int, default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    bounds = {m["name"]: m.get("bound") for m in
              bench["per_layer" if args.trace else "end_to_end"]}

    host_printed = False
    verdict = True
    for workload in args.workloads.split(","):
        medians = []
        for s in range(args.sets):
            values = {}
            for k in range(args.runs):
                result, host = run_once(workload, args.seed + k,
                                        args.seconds, args.trace)
                if not host_printed:
                    print(host)
                    host_printed = True
                for name, m in result["metrics"].items():
                    values.setdefault(name, []).append(m["value"])
            print("\n%s, set %d: %d runs, seeds %d..%d, %g s each" %
                  (workload, s + 1, args.runs, args.seed,
                   args.seed + args.runs - 1, args.seconds))
            print("%-34s %12s %12s %12s %8s %6s  %s" %
                  ("metric", "median", "q1", "q3", "spread", "bound",
                   "verdict"))
            set_medians = {}
            for name in sorted(values):
                med, q1, q3, spread = summarize(values[name])
                set_medians[name] = med
                bound = bounds.get(name)
                if bound is None:
                    v = ""
                elif name == "setup_s":
                    v = "(spread not gated)"
                elif spread <= bound / 3:
                    v = "ok"
                elif spread <= bound:
                    v = "within bound"
                else:
                    v = "TOO NOISY"
                    verdict = False
                print("%-34s %12.6g %12.6g %12.6g %8.4f %6s  %s" %
                      (name, med, q1, q3, spread,
                       "" if bound is None else "%g" % bound, v))
            medians.append(set_medians)
        for s in range(1, len(medians)):
            print("\n%s: set %d median against set 1" % (workload, s + 1))
            for name, med in sorted(medians[s].items()):
                base = medians[0][name]
                bound = bounds.get(name)
                if bound is None or not base:
                    continue
                # "lower is better" unless the metric says otherwise.
                better = next((m.get("better", "lower") for m in
                               bench["end_to_end"] if m["name"] == name),
                              "lower")
                worse = (med - base) / base if better == "lower" \
                    else (base - med) / base
                ok = worse <= bound
                verdict &= ok
                print("%-34s %+8.4f of set 1 (bound %g) %s" %
                      (name, worse, bound, "ok" if ok else "WORSE"))
    print("\nsteady" if verdict else "\nNOT steady")
    return 0 if verdict else 1


if __name__ == "__main__":
    sys.exit(main())
