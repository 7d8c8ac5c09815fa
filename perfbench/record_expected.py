#!/usr/bin/env python3
"""Record the figure hashes perfbench/run.py checks, into expected.json.

    python3 perfbench/record_expected.py [--workload NAME]

Run this only when a change is meant to move figures. The campaign
workloads have one hash per campaign variant (seed mod 16); the
observatory_push stream does not depend on the seed.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

VARIANTS = 16
PER_VARIANT = {"bt_crawl", "netalyzr_battery"}


def hashes(driver, workload, seed):
    # Shortest run: the warm-up iteration plus one measured iteration.
    out = subprocess.run(
        [str(driver), "--workload", workload, "--seed", str(seed),
         "--seconds", "0.001", "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, cwd=run.ROOT)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if result["failed"] or result["inconsistent_iterations"]:
        sys.exit(f"{workload} seed {seed}: {result['failed']} failures")
    return result["figure_hash"], result["fingerprint"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    driver = run.build_driver(run.build_root() / "perfbench")
    path = run.BENCH_DIR / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    workloads = args.workload or [
        w["name"] for w in json.loads(
            (run.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for w in workloads:
        if w in PER_VARIANT:
            figs, fps = {}, {}
            for v in range(VARIANTS):
                figs[str(v)], fps[str(v)] = hashes(driver, w, v)
            entry = {"variants": VARIANTS, "figure_hash": figs}
            if any(fp != "0" * 16 for fp in fps.values()):
                entry["fingerprint"] = fps
        else:
            entry = {"variants": 1, "figure_hash": hashes(driver, w, 0)[0]}
        expected[w] = entry
        print(f"recorded {w}", file=sys.stderr)
    path.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
