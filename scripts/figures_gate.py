#!/usr/bin/env python3
"""Figure gate: every figure bench must reproduce the committed figures.

    python3 scripts/figures_gate.py check  [--build build]
    python3 scripts/figures_gate.py record [--build build]

Runs the 18 figure/table benches and the 3 ablations at
CGN_BENCH_SCALE=0.1, CGN_BENCH_SEED=42, once at CGN_THREADS=1 and once at
CGN_THREADS=4, with every other CGN_* variable cleared. Each run's
`figures` object (from its BENCH_<name>.json) must equal the one stored
in bench/baselines/figures.json; `check` prints every differing
`bench.key` and exits 1. `record` requires the two worker counts to agree
and then rewrites the baseline. Re-record only in a change that is meant
to move figures, and name every bench whose figures moved in CHANGES.md.
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE = ROOT / "bench" / "baselines" / "figures.json"
SCALE = "0.1"
SEED = "42"
THREADS = (1, 4)
BENCHES = (
    "bench_fig01_survey",
    "bench_fig03_leak_graphs",
    "bench_fig04_clusters",
    "bench_fig05_netalyzr_candidates",
    "bench_fig06_regions",
    "bench_fig07_internal_space",
    "bench_fig08_port_allocation",
    "bench_fig09_strategy_mix",
    "bench_fig11_nat_distance",
    "bench_fig12_timeouts",
    "bench_fig13_stun_types",
    "bench_fig14_transition",
    "bench_tab02_crawl_summary",
    "bench_tab03_leakage",
    "bench_tab04_addresses",
    "bench_tab05_coverage",
    "bench_tab06_port_strategies",
    "bench_tab07_ttl_detection",
    "bench_ablation_detection",
    "bench_ablation_faults",
    "bench_ablation_recovery",
)


def conservation(counters):
    """None when the sim.net.* counters add up, else a line saying how."""
    net = {k[len("sim.net."):]: v for k, v in counters.items()
           if k.startswith("sim.net.")}
    dropped = sum(v for k, v in net.items() if k.startswith("dropped."))
    lhs = net.get("sent", 0) + net.get("duplicated", 0)
    rhs = net.get("delivered", 0) + dropped
    if lhs == rhs:
        return None
    return (f"sent {net.get('sent', 0)} + duplicated "
            f"{net.get('duplicated', 0)} = {lhs}, but delivered "
            f"{net.get('delivered', 0)} + dropped {dropped} = {rhs}")


def run_bench(build, binary, threads):
    """Runs one bench; returns {bench name: (figures, conservation)} from
    its JSON output, where conservation is None or what failed."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("CGN_")}
    with tempfile.TemporaryDirectory(prefix="figures_gate.") as out:
        env.update(CGN_BENCH_SCALE=SCALE, CGN_BENCH_SEED=SEED,
                   CGN_THREADS=str(threads), CGN_BENCH_JSON_DIR=out)
        exe = Path(build).resolve() / "bench" / binary
        proc = subprocess.run([str(exe)], env=env, cwd=out,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            sys.exit(f"figures_gate: {binary} at {threads} workers exited "
                     f"{proc.returncode}\n{proc.stderr}")
        figures = {}
        for path in sorted(Path(out).glob("BENCH_*.json")):
            record = json.loads(path.read_text())
            counters = record["obs"]["metrics"]["counters"]
            figures[record["bench"]] = (record["figures"],
                                        conservation(counters))
        if not figures:
            sys.exit(f"figures_gate: {binary} wrote no BENCH_*.json")
        return figures


def run_all(build, threads):
    """({bench name: figures}, [lines naming each bench whose packet
    counters do not add up]) over every bench."""
    merged = {}
    for binary in BENCHES:
        merged.update(run_bench(build, binary, threads))
    leaks = [f"{bench}: {why}" for bench, (_, why) in sorted(merged.items())
             if why is not None]
    return {bench: figures for bench, (figures, _) in merged.items()}, leaks


def diff(expected, got):
    """Lines naming every bench.key whose value differs."""
    lines = []
    for bench in sorted(expected.keys() | got.keys()):
        if bench not in got:
            lines.append(f"{bench}: missing from this run")
            continue
        if bench not in expected:
            lines.append(f"{bench}: not in the baseline")
            continue
        want, have = expected[bench], got[bench]
        for key in sorted(want.keys() | have.keys()):
            if want.get(key) != have.get(key):
                lines.append(f"{bench}.{key}: baseline {want.get(key)!r}, "
                             f"got {have.get(key)!r}")
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("mode", choices=("check", "record"))
    ap.add_argument("--build", default=str(ROOT / "build"),
                    help="CMake build tree holding bench/ (default: build)")
    args = ap.parse_args()

    runs = {}
    leaked = False
    for t in THREADS:
        runs[t], leaks = run_all(args.build, t)
        if leaks:
            leaked = True
            print(f"packets unaccounted for at {t} workers:")
            print("\n".join("  " + line for line in leaks))
        else:
            print(f"ok   {len(runs[t])} benches at {t} workers conserve "
                  "packets")
    if args.mode == "record":
        if leaked:
            return 1
        first = runs[THREADS[0]]
        for t in THREADS[1:]:
            lines = diff(first, runs[t])
            if lines:
                print(f"figures differ between {THREADS[0]} and {t} workers:")
                print("\n".join("  " + line for line in lines))
                return 1
        BASELINE.write_text(json.dumps(
            {"scale": float(SCALE), "seed": int(SEED), "figures": first},
            indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(first)} benches into "
              f"{BASELINE.relative_to(ROOT)}")
        return 0

    expected = json.loads(BASELINE.read_text())["figures"]
    failed = False
    for t, got in runs.items():
        lines = diff(expected, got)
        if lines:
            failed = True
            print(f"figures at {t} workers differ from the baseline:")
            print("\n".join("  " + line for line in lines))
        else:
            print(f"ok   {len(got)} benches at {t} workers match the baseline")
    return 1 if failed or leaked else 0


if __name__ == "__main__":
    sys.exit(main())
