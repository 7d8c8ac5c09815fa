#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload bt_crawl --seed 7 --seconds 10 --trace 0

Builds perfbench_driver from the repository's sources (a CMake package of its
own, perfbench/CMakeLists.txt) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the workload in a process of its own. The
figure hash the driver reports is checked against perfbench/expected.json
(and, for netalyzr_battery, the session fingerprint too). The last line of
stdout is one JSON object: {"correct", "attempted", "failed", "metrics"};
the metrics are BENCHMARK.json's end_to_end ones with --trace 0 and its
per_layer ones with --trace 1. Every run also writes a record (metrics,
hashes, nproc, workers, connections, build type, CGN_OBS state) under
<build dir>/runs/, and a traced run its span report under <build dir>/traces/.

Exit codes: 0 correct; 1 wrong output or failed operations; 2 bad usage or a
checkout without the sources; 3 build failure; 4 the driver crashed.
"""
import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
DRIVER_TIMEOUT_S = 170


def fail(code, message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_root():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build_driver(build_dir):
    """Configures once, then rebuilds incrementally; returns the binary."""
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    # One build at a time per build directory.
    with open(build_dir / ".lock", "w") as lock, open(log_path, "w") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                configure += ["-G", "Ninja"]
            steps.append(configure)
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench_driver", "-j", jobs])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                fail(3, f"build failed (log: {log_path})")
    return build_dir / "perfbench_driver"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest worlds, no expected-hash check (self-tests)")
    args = ap.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(2, f"no sources at {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(2, f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    out = build_root()
    driver = build_driver(out / "perfbench")
    (out / "runs").mkdir(exist_ok=True)
    (out / "traces").mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    cmd = [str(driver), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    if args.trace:
        cmd += ["--trace-out", str(out / "traces" / f"{tag}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=DRIVER_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(4, f"driver timed out after {DRIVER_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(4, f"driver exited with {proc.returncode}")
    run = json.loads(lines[-1])

    # Correctness: figure hash (and session fingerprint) against the
    # recorded values for this seed's campaign variant.
    failed = run["failed"]
    mismatches = []
    if not args.tiny:
        expected = json.loads((BENCH_DIR / "expected.json").read_text())
        exp = expected[args.workload]
        variant = str(args.seed % exp["variants"])
        for key in ("figure_hash", "fingerprint"):
            want = exp.get(key)
            if isinstance(want, dict):
                want = want.get(variant)
            if want is not None and run[key] != want:
                mismatches.append(f"{key} {run[key]} != expected {want}")
    failed += len(mismatches)
    if run["inconsistent_iterations"]:
        mismatches.append(
            f"{run['inconsistent_iterations']} iterations disagreed")

    missing = [m["name"] for m in wanted if m["name"] not in run["metrics"]]
    if missing:
        fail(4, f"driver did not report {', '.join(missing)}")
    metrics = {m["name"]: {"value": run["metrics"][m["name"]],
                           "unit": m["unit"]} for m in wanted}
    attempted = max(1, run["attempted"])
    correct = failed == 0 and not mismatches

    env = run["env"]
    scrape = run["scrape"]
    print(f"perfbench: {args.workload} seed={args.seed} "
          f"trace={args.trace} iterations={run['iterations']} "
          f"setups={run['setups']}")
    print(f"env: nproc={env['nproc']} workers={env['workers']} "
          f"connections={env['connections']} build_type={env['build_type']} "
          f"cgn_obs={'on' if env['cgn_obs'] else 'off'}")
    for name, m in metrics.items():
        print(f"  {name:40s} {m['value']:>16.6g} {m['unit']}")
    if scrape["samples"]:
        print(f"scrape: {scrape['samples']} samples at "
              f"{scrape['rate_hz']:g}/s; percentiles are medians over "
              f"{scrape['windows']} windows of {scrape['window_s']:g} s (10 "
              f"samples beyond each p95); generator late by at most "
              f"{scrape['late_ms_max']:.3f} ms")
    print(f"failed_frac: {failed}/{attempted} = {failed / attempted:.6g}")
    print(f"figure_hash={run['figure_hash']} fingerprint={run['fingerprint']}"
          + ("" if not mismatches else " MISMATCH: " + "; ".join(mismatches)))

    record = dict(run, seconds=args.seconds, correct=correct, failed=failed,
                  failed_frac=failed / attempted, mismatches=mismatches,
                  metrics=metrics)
    (out / "runs" / f"{tag}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
