#!/usr/bin/env python3
"""Steadiness check for the gateway benchmark: are its figures reproducible
within the bounds BENCHMARK.json declares?

    python3 perfbench/steadiness.py [--seeds 10] [--gap 60]

Runs every workload of BENCHMARK.json once per seed (1, 2, ...), as a set;
then, after --gap seconds, runs the same seeds again as a second set. For
every end-to-end metric and workload it prints the spread of each set
(interquartile range over the median, as statistics.quantiles(values, n=4)
gives the quartiles) and how much the second set's median is worse than the
first's, next to the metric's bound. A worsening above the bound fails, and
so does a spread above it, except setup_s's: the benchmark's acceptance
rule gates set-up time on its drift between sets only, since a set-up's
file I/O rides the page cache of the moment. A spread above a third of the
bound is flagged as noisy. Each run's metrics and input fingerprint go to
stderr as it ends. Exits 1 when anything fails.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: correctness gate failed")
    fingerprint = next((l for l in lines if l.startswith("fingerprint ")), "")
    return {k: v["value"] for k, v in result["metrics"].items()}, fingerprint


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(first, second, better):
    """Share by which the second median is worse than the first."""
    m1, m2 = statistics.median(first), statistics.median(second)
    return (m2 - m1) / m1 if better == "lower" else (m1 - m2) / m1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--gap", type=float, default=60.0,
                    help="seconds to wait between the two sets")
    args = ap.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    seeds = list(range(1, args.seeds + 1))

    sets = []
    for i in range(2):
        if i > 0:
            time.sleep(args.gap)
        values = {}
        for w in workloads:
            for seed in seeds:
                t0 = time.monotonic()
                metrics, fingerprint = run_once(w, seed, bench["run_seconds"])
                print(f"set {i + 1} {w} seed {seed}: "
                      f"{time.monotonic() - t0:.1f} s {json.dumps(metrics)} "
                      f"{fingerprint}", file=sys.stderr, flush=True)
                for name, v in metrics.items():
                    values.setdefault(w, {}).setdefault(name, []).append(v)
        sets.append(values)

    failed = False
    print(f"{'workload':14} {'metric':20} {'median1':>10} {'spread1':>8} "
          f"{'median2':>10} {'spread2':>8} {'worse':>7} {'bound':>6}  verdict")
    for w in workloads:
        for m in bench["end_to_end"]:
            name, bound = m["name"], m["bound"]
            runs = [s[w][name] for s in sets]
            spreads = [spread(v) for v in runs]
            worse = worse_by(runs[0], runs[1], m["better"])
            fail = worse > bound or (name != "setup_s" and max(spreads) > bound)
            noisy = name != "setup_s" and max(spreads) > bound / 3
            failed = failed or fail
            cols = [f"{statistics.median(runs[0]):10.4g}", f"{spreads[0]:8.3f}",
                    f"{statistics.median(runs[1]):10.4g}", f"{spreads[1]:8.3f}",
                    f"{worse:+7.3f}"]
            verdict = "FAIL" if fail else ("noisy" if noisy else "ok")
            print(f"{w:14} {name:20} {' '.join(cols)} {bound:6.3f}  {verdict}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
