#!/usr/bin/env python3
"""bench_compare.py must keep accepting baselines recorded before a
counter was retired.

The committed baselines still carry the supervisor's deadline counters
(obs counter "super.deadline_aborts", "super" block key
"deadline_aborts"), which fresh bench runs no longer emit. This test
schema-checks both committed baselines and gates a fresh-shaped copy of
each (those keys stripped, every number unchanged) against the legacy
file, in both directions. Every run must exit 0.

Usage: bench_compare_legacy_test.py REPO_ROOT SCRATCH_DIR
"""

import copy
import json
import os
import subprocess
import sys

LEGACY_COUNTERS = ("super.deadline_aborts",)
LEGACY_SUPER_KEYS = ("deadline_aborts",)


def strip_legacy(doc):
    fresh = copy.deepcopy(doc)
    counters = fresh.get("obs", {}).get("metrics", {}).get("counters", {})
    for name in LEGACY_COUNTERS:
        counters.pop(name, None)
    for key in LEGACY_SUPER_KEYS:
        fresh.get("super", {}).pop(key, None)
    return fresh


def run(compare, *args):
    proc = subprocess.run([sys.executable, compare, *args],
                          capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"bench_compare {' '.join(args)} exited "
                         f"{proc.returncode}")


def main(argv):
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    root, scratch = argv[1], argv[2]
    os.makedirs(scratch, exist_ok=True)
    compare = os.path.join(root, "scripts", "bench_compare.py")
    for name in ("perf_micro.json", "scale_sweep.json"):
        legacy = os.path.join(root, "bench", "baselines", name)
        with open(legacy) as f:
            doc = json.load(f)
        fresh = os.path.join(scratch, "fresh_" + name)
        with open(fresh, "w") as f:
            json.dump(strip_legacy(doc), f)
        run(compare, "--schema-check", legacy, fresh)
        run(compare, legacy, fresh)
        run(compare, fresh, legacy)
        print(f"ok   {name}: legacy and fresh-shaped baselines gate cleanly")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
