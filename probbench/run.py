#!/usr/bin/env python3
"""probbench: the probdb benchmark (see probbench/README.md).

Run from the root of a checkout:

  python3 probbench/run.py --workload W --seed N --seconds S --trace 0|1
      One run: builds probdb and the runner with dune, generates the seeded
      inputs under .bench_build/probbench/, measures, checks every answer and
      prints a report whose last line is the JSON result.

  python3 probbench/run.py --workload W --steady RUNS [--seed N --seconds S]
      Steadiness: RUNS runs on seeds N, N+1, ...; prints each end-to-end
      metric's median, quartiles and spread (IQR / median) against its bound;
      each run's full report goes to .bench_build/probbench/W-SEED/report.txt.

  python3 probbench/run.py --self-test
      Checks that a seed fixes the schedule and request stream: the same seed
      gives the same digest, a different seed a different one.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

WORKLOADS = ["serve_mixed_overload", "batch_grounded"]
RUN_TIMEOUT_S = 170


def die(msg):
    print("probbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            die("run from the root of a probdb checkout (%s is missing)" % needed)
    # no shared dune cache: the build reads and writes only the checkout
    proc = subprocess.run(
        ["dune", "build", "--root", ".", "./bin/probdb.exe", "./probbench/pb.exe"],
        stdout=sys.stderr,
        env=dict(os.environ, DUNE_CACHE="disabled"),
    )
    if proc.returncode != 0:
        die("build failed")
    return (
        os.path.join("_build", "default", "probbench", "pb.exe"),
        os.path.abspath(os.path.join("_build", "default", "bin", "probdb.exe")),
    )


def run_once(exe, probdb, workload, seed, seconds, trace, echo=True):
    work = os.path.join(".bench_build", "probbench", "%s-%d" % (workload, seed))
    cmd = [exe, "run", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--probdb", probdb, "--work", work]
    # its own process group, so a timeout also stops the server it started
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("%s seed %d did not finish in %d s" % (workload, seed, RUN_TIMEOUT_S))
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(out)
        die("%s seed %d failed (exit %d)" % (workload, seed, proc.returncode))
    if echo:
        sys.stdout.write(out)
        sys.stdout.flush()
    else:
        with open(os.path.join(work, "report.txt"), "w") as f:
            f.write(out)
    return json.loads(lines[-1])


def bounds():
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCHMARK.json")
    with open(path) as f:
        return {m["name"]: m for m in json.load(f)["end_to_end"]}


def steady(exe, probdb, workload, runs, seed, seconds):
    values = {}
    for i in range(runs):
        start = time.time()
        res = run_once(exe, probdb, workload, seed + i, seconds, 0, echo=False)
        ok = "correct" if res["correct"] else "NOT CORRECT"
        print("run %d seed %d: %s, %d attempted, %d failed, %.0f s" %
              (i + 1, seed + i, ok, res["attempted"], res["failed"], time.time() - start), flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    spec = bounds()
    print("%-16s %12s %12s %12s %8s %8s" % ("metric", "median", "q1", "q3", "spread", "bound"))
    for name, vs in values.items():
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        bound = spec[name]["bound"]
        flag = "" if spread <= bound / 3 else ("  above bound/3" if spread <= bound else "  ABOVE BOUND")
        print("%-16s %12.6g %12.6g %12.6g %8.3f %8.3f%s" % (name, med, q1, q3, spread, bound, flag))
        print("%-16s %s" % ("", " ".join("%.4g" % v for v in vs)))


def self_test(exe):
    failed = False
    for w in WORKLOADS:
        def digest(seed):
            out = subprocess.run([exe, "digest", "--workload", w, "--seed", str(seed),
                                  "--seconds", "15"], stdout=subprocess.PIPE, text=True, check=True)
            return out.stdout.strip()
        a, b, c = digest(7), digest(7), digest(8)
        same, differ = a == b, a != c
        print("%-22s same seed -> same stream: %s; other seed -> other stream: %s" % (w, same, differ))
        failed |= not (same and differ)
    if failed:
        die("self-test failed")
    print("self-test: OK")


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", type=int, metavar="RUNS")
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    exe, probdb = build()
    if args.self_test:
        self_test(exe)
    elif args.workload is None:
        die("--workload is required")
    elif args.steady:
        steady(exe, probdb, args.workload, args.steady, args.seed, args.seconds)
    else:
        run_once(exe, probdb, args.workload, args.seed, args.seconds, args.trace)


if __name__ == "__main__":
    main()
