#!/usr/bin/env python3
"""Build and run the perfbench benchmark.

One run:
    python3 perfbench/run.py --workload table2 --seed 1 --seconds 50 --trace 0

builds perfbench/perfbench.exe with dune (build output goes to stderr),
runs it, adds the process's peak resident set size as `peak_rss_mb` to
the untraced result and prints the result JSON as the last stdout line.

Steadiness self-check:
    python3 perfbench/run.py --steady --runs 10 --repeats 5 --seconds 50

runs every workload with seeds 1..runs (the spread a regression gate
sees across seeds) and again `repeats` times at seed 1 (run-to-run
noise alone), and prints, per end-to-end metric, the seeded runs'
median and quartiles, both quartile spreads as a share of their median,
the metric's bound in BENCHMARK.json and a verdict on the larger
spread, then every run's value. Metrics that must be deterministic at a
fixed seed (the speedup geomeans) fail if the repeats disagree.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RUN_TIMEOUT_S = 170


def build():
    # No shared dune cache: the build reads and writes only the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ROOT, "./perfbench/perfbench.exe"],
            cwd=ROOT,
            env=env,
            stdout=sys.stderr,
            stderr=sys.stderr,
        )
    except FileNotFoundError:
        print("perfbench: dune not found", file=sys.stderr)
        return False
    return r.returncode == 0 and os.path.exists(EXE)


def run_once(workload, seed, seconds, trace):
    """Run the executable; returns (info lines, result dict) or None."""
    args = [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.Popen(args, cwd=ROOT, stdout=subprocess.PIPE)
    chunks = []
    reader = threading.Thread(target=lambda: chunks.append(proc.stdout.read()))
    reader.start()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        if time.monotonic() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            print("perfbench: run timed out", file=sys.stderr)
            status = -1
            break
        time.sleep(0.05)
    proc.returncode = status
    reader.join()
    if status != 0:
        return None
    lines = b"".join(chunks).decode().splitlines()
    if not lines:
        return None
    result = json.loads(lines[-1])
    if not trace:
        # ru_maxrss is in KiB on Linux.
        result["metrics"]["peak_rss_mb"] = {
            "value": usage.ru_maxrss / 1024.0, "unit": "MB"}
    return lines[:-1], result


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


# End-to-end metrics that are a pure function of the seed.
DETERMINISTIC = ("search.speedup_geomean", "search.staged_speedup_geomean")


def spread(xs):
    """Quartile spread as a share of the median, as the gate takes it."""
    q1, med, q3 = statistics.quantiles(xs, n=4)
    return (q3 - q1) / med if med else float("inf"), q1, med, q3


def collect(name, seeds, seconds):
    values = {}
    ok = True
    for seed in seeds:
        out = run_once(name, seed, seconds, 0)
        if out is None or not out[1]["correct"]:
            print(f"{name} seed {seed}: run failed", file=sys.stderr)
            ok = False
            continue
        for metric, v in out[1]["metrics"].items():
            values.setdefault(metric, []).append(v["value"])
        print(f"{name} seed {seed}: done", file=sys.stderr, flush=True)
    return ok, values


def steady(runs, repeats, seconds, workloads):
    bench = spec()
    names = workloads or [w["name"] for w in bench["workloads"]]
    ok = True
    for name in names:
        ok_s, seeded = collect(name, range(1, runs + 1), seconds)
        ok_f, fixed = collect(name, [1] * repeats, seconds)
        ok = ok and ok_s and ok_f
        print(f"\n{name} ({runs} seeds, {repeats} repeats of seed 1)")
        print(f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'seeds':>7} {'repeat':>7} {'bound':>6}  verdict")
        for m in bench["end_to_end"]:
            xs, ys = seeded.get(m["name"], []), fixed.get(m["name"], [])
            if len(xs) < 2:
                print(f"{m['name']:32} missing")
                ok = False
                continue
            s_seed, q1, med, q3 = spread(xs)
            s_rep = spread(ys)[0] if len(ys) >= 2 else 0.0
            worst, bound = max(s_seed, s_rep), m["bound"]
            if m["name"] in DETERMINISTIC and len(set(ys)) > 1:
                verdict = "NOT DETERMINISTIC"
                ok = False
            elif worst <= bound / 3:
                verdict = "steady"
            elif worst <= bound:
                verdict = "within bound"
            else:
                verdict = "TOO NOISY"
                ok = False
            print(f"{m['name']:32} {med:12.5g} {q1:12.5g} {q3:12.5g} "
                  f"{s_seed:7.3f} {s_rep:7.3f} {bound:6.2f}  {verdict}")
            print("    seeds  " + " ".join(f"{x:.5g}" for x in xs))
            if ys:
                print("    repeat " + " ".join(f"{y:.5g}" for y in ys))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--steady", action="store_true")
    ap.add_argument("--runs", type=int, default=10,
                    help="seeds 1..runs per workload for --steady")
    ap.add_argument("--repeats", type=int, default=5,
                    help="repeats of seed 1 per workload for --steady")
    ap.add_argument("--workloads", default="",
                    help="comma-separated subset for --steady")
    a = ap.parse_args()
    if not a.steady and (a.workload is None or a.seed is None):
        ap.error("--workload and --seed are required")
    if not build():
        return 1
    if a.steady:
        chosen = [w for w in a.workloads.split(",") if w]
        return 0 if steady(a.runs, a.repeats, a.seconds, chosen) else 1
    out = run_once(a.workload, a.seed, a.seconds, a.trace)
    if out is None:
        return 1
    info, result = out
    for line in info:
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
