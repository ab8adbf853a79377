#!/usr/bin/env python3
"""MANETKit benchmark: builds the driver from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload olsr-mobile50 --seed 1234 \
        --seconds 30 --trace 0

The driver is compiled from src/ into .bench_build/perfbench (Release-type
build with debug info; a Debug or sanitizer build refuses to report). The
workload runs in its own single-threaded process. The last stdout line is
the result object {"correct", "attempted", "failed", "metrics"}; the line
before it records provenance (host CPU, nproc, compiler, build type, source
revision, workload, seed, host-speed calibration). --trace 0 reports the
end-to-end metrics, --trace 1 the per-layer breakdown. perfbench/METRICS.md
defines them.
"""
import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BUILD_TYPE = "RelWithDebInfo"
WORKLOADS = ("olsr-mobile50", "dymo-dense150", "adapt-churn50")
DEFAULT_SEED = 1234   # used when --seed is omitted
HELDOUT_SEED = 7      # reserved for confirming a claimed gain; never tune on it
RUN_TIMEOUT_S = 170


def build():
    if not (ROOT / "src" / "testbed" / "world.hpp").is_file():
        raise SystemExit(f"perfbench: no MANETKit sources under {ROOT / 'src'}")
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: build step failed: {' '.join(cmd)}")
    return BUILD / "mk_perfbench"


def cpu_model():
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def source_revision():
    """The git commit when run in a clone, else a digest of the sources."""
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")) + sorted(HERE.rglob("*")):
        if path.is_file() and path.suffix in (".cpp", ".hpp", ".py", ".txt"):
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    exe = build()
    cmd = [str(exe), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: workload exceeded {RUN_TIMEOUT_S}s")
    if done.returncode != 0:
        raise SystemExit(f"perfbench: driver exited with {done.returncode}")
    lines = [l for l in done.stdout.splitlines() if l.strip()]
    if len(lines) < 2:
        raise SystemExit("perfbench: driver printed no result")
    built = json.loads(lines[-2])["provenance"]
    result = json.loads(lines[-1])

    if not built["optimized"] or built["sanitized"] or \
            built["build_type"] not in ("Release", "RelWithDebInfo"):
        raise SystemExit(f"perfbench: refusing to report from build {built}")
    names = expected_metrics(args.trace)
    if sorted(result["metrics"]) != sorted(names):
        missing = sorted(set(names) ^ set(result["metrics"]))
        raise SystemExit(f"perfbench: metric set mismatch: {missing}")

    provenance = dict(built)
    provenance.update({
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "revision": source_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    })
    print(json.dumps({"provenance": provenance}))
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
