#!/usr/bin/env python3
"""Build and run the gateway benchmark (perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the receiver
libraries from src/) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload in one process. --seed
defaults to fingerprints.json's default_seed and --seconds to
BENCHMARK.json's run_seconds.

The seed draws the receiver noise. The nodes and their traffic (population,
arrivals, payloads, offsets) come from fingerprints.json's traffic_seed,
because a capture holds too few packets for its figures to stay within the
bounds from one traffic draw to the next. The held-out seed is the
exception: it draws the traffic as well, so a claim re-checked on it meets
nodes, arrivals and collisions that no tuning saw. The last line
of stdout is the result JSON; the lines before it carry the run context and
the input fingerprint check. Exits non-zero, without a result, when the
build fails, and with a result whose "correct" is false when a correctness
gate fails.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures once, then builds the benchmark binary; returns its path."""
    if not any((out / f).exists() for f in ("build.ninja", "Makefile")):
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out)]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(out), "--target", "tnb_perfbench",
                    "-j", jobs], check=True, stdout=sys.stderr)
    return out / "tnb_perfbench"


def revision():
    """The git revision when there is one, plus a digest of src/ that
    identifies the program in a plain (non-git) checkout too."""
    try:
        rev = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                             cwd=ROOT, capture_output=True, text=True,
                             check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rev = "none"
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*")):
        if p.is_file():
            h.update(str(p.relative_to(ROOT)).encode())
            h.update(p.read_bytes())
    return f"git:{rev},src:{h.hexdigest()[:12]}"


def check_fingerprint(ref, workload, seed, lines):
    """Compares the capture/truth checksums against fingerprints.json for
    the seeds recorded there; a mismatch means the workload itself changed,
    so its figures are not comparable with earlier runs."""
    want = ref["workloads"].get(workload, {}).get(str(seed))
    got = next((l for l in lines if l.startswith("fingerprint ")), None)
    if want is None or got is None:
        return "fingerprint unrecorded for this seed"
    fields = dict(f.split("=", 1) for f in got.split()[1:])
    same = (fields.get("capture") == want["capture"] and
            fields.get("truth") == want["truth"])
    return ("fingerprint ok" if same else
            f"fingerprint CHANGED WORKLOAD: expected capture={want['capture']}"
            f" truth={want['truth']}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", choices=["0", "1"], default="0")
    args = ap.parse_args()

    ref = json.loads((BENCH_DIR / "fingerprints.json").read_text())
    seed = ref["default_seed"] if args.seed is None else args.seed
    traffic_seed = seed if seed == ref["held_out_seed"] else ref["traffic_seed"]
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]
    try:
        binary = build(build_dir())
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    # The program's defaults: no FFT backend override, no job-count override.
    env = {k: v for k, v in os.environ.items()
           if k not in ("TNB_FFT_BACKEND", "TNB_JOBS")}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(seed),
           "--traffic-seed", str(traffic_seed), "--seconds", str(seconds),
           "--trace", args.trace,
           "--scratch", str(build_dir() / "scratch"),
           "--revision", revision()]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: no result (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    for line in lines[:-1]:
        print(line)
    print(check_fingerprint(ref, args.workload, seed, lines))
    print(lines[-1], flush=True)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
