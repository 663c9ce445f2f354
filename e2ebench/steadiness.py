#!/usr/bin/env python3
"""Steadiness check: two sets of benchmark runs of one build.

Builds the benchmark once, then runs every workload ten times per set,
each run with its own seed, for two sets, at BENCHMARK.json's run length.
For every end-to-end metric of every workload it prints each set's median
and quartiles, the spread (interquartile distance over the median) and
whether the two sets agree within the metric's bound from BENCHMARK.json:

  * each set's spread is within the bound, and
  * the two sets' medians differ by at most the bound, as a share of the
    first.

Run from the repository root:

  python3 e2ebench/steadiness.py                          # every workload
  python3 e2ebench/steadiness.py --workloads fig9-text

Exits 0 when every metric agrees, 1 otherwise. The raw results are kept in
.e2ebench_out/steadiness.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUNS = 10
SETS = 2
FIRST_SEED = 2001


def build():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build"))
    subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "e2ebench", "Cargo.toml")],
        check=True, env=env)
    return os.path.join(env["CARGO_TARGET_DIR"], "release", "e2ebench")


def run_once(binary, workload, seed, seconds):
    start = time.monotonic()
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    wall = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    result["wall_s"] = wall
    return result


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else float("inf")}


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    args = ap.parse_args()

    binary = build()
    workloads = args.workloads.split(",")
    results = {}
    seed = FIRST_SEED
    for s in range(SETS):
        for w in workloads:
            for _ in range(RUNS):
                r = run_once(binary, w, seed, bench["run_seconds"])
                results.setdefault(w, [[] for _ in range(SETS)])[s].append(r)
                print(f"set {s + 1} {w} seed {seed}: {r['wall_s']:.1f} s, "
                      f"attempted {r['attempted']} failed {r['failed']} correct {r['correct']}",
                      file=sys.stderr, flush=True)
                seed += 1

    os.makedirs(os.path.join(ROOT, ".e2ebench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".e2ebench_out", "steadiness.json"), "w") as f:
        json.dump(results, f, indent=1)

    ok = True
    print(f"{'workload':<12} {'metric':<16} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}  verdict")
    for w in workloads:
        sets = results[w]
        for s_runs in sets:
            if not all(r["correct"] for r in s_runs):
                ok = False
                print(f"{w}: a run reported correct=false")
        shares = {r["failed"] / r["attempted"] for s_runs in sets for r in s_runs}
        if len(shares) > 1:
            ok = False
            print(f"{w}: failed share differs between runs: {sorted(shares)}")
        for m in bench["end_to_end"]:
            name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
            stats = [summarize([r["metrics"][name]["value"] for r in s_runs]) for s_runs in sets]
            verdicts = []
            for i, st in enumerate(stats):
                if st["spread"] > bound:
                    verdicts.append(f"set {i + 1} spread > bound")
                elif st["spread"] > bound / 3:
                    verdicts.append(f"set {i + 1} spread > bound/3 (warning)")
            a, b = stats[0]["median"], stats[1]["median"]
            shift = abs(b - a) / a
            if shift > bound:
                worse = (b > a) == lower
                verdicts.append(f"medians differ by {shift:.3f} (second {'worse' if worse else 'better'})")
            failing = [v for v in verdicts if "warning" not in v]
            ok = ok and not failing
            for i, st in enumerate(stats):
                verdict = ("; ".join(verdicts) or "agree") if i == SETS - 1 else ""
                print(f"{w:<12} {name:<16} {i + 1:>3} {st['median']:>12.5g} {st['q1']:>12.5g} "
                      f"{st['q3']:>12.5g} {st['spread']:>7.4f} {bound:>6}  {verdict}")
    print("steady: every metric agrees within its bound" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
