#!/usr/bin/env python3
"""Self-tests of the benchmark, on tiny worlds, in well under a minute.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json keeps to its schema and that perfbench/layers.json
maps every per-layer metric; then runs every workload untraced and traced on
a tiny world and checks that each named metric appears with its unit, that
nothing failed, and that observatory_push's open-loop scraper reports its
latency and lateness; and finally that run.py refuses, without printing a
result, in a directory that holds only BENCHMARK.json and perfbench/.
"""
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_spec(spec):
    check(set(spec) == {"command", "paths", "run_seconds", "workloads",
                        "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    check(isinstance(spec["run_seconds"], int)
          and 1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    check(2 <= len(spec["workloads"]) <= 8, "2..8 workloads")
    check(all(set(w) == {"name", "why"} and len(w["why"]) <= 200
              and "\n" not in w["why"] for w in spec["workloads"]),
          "workloads have a name and a one-line why")
    e2e, layers = spec["end_to_end"], spec["per_layer"]
    check(all(set(m) == {"name", "unit", "better", "bound"}
              and 0 < m["bound"] <= 0.25 for m in e2e),
          "end_to_end entries and bounds")
    check(any(m["name"] == "setup_s" and m["unit"] == "s"
              and m["better"] == "lower" for m in e2e), "setup_s present")
    check(all(set(m) == {"name", "unit", "better"} for m in layers),
          "per_layer entries")
    names = [m["name"] for m in spec["workloads"] + e2e + layers]
    check(all(NAME.match(n) for n in names) and len(names) == len(set(names)),
          "names are valid and unique")
    check(all(UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
              for m in e2e + layers), "units and directions")
    mapped = json.loads((BENCH_DIR / "layers.json").read_text())["layers"]
    check(set(mapped) == {m["name"] for m in layers},
          "layers.json maps exactly the per-layer metrics")


def run(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py"] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=cwd, timeout=600)
    return proc.returncode, proc.stdout


def check_workload(spec, workload, trace):
    tag = f"{workload} trace={trace}"
    code, out = run(["--workload", workload, "--seed", "3", "--seconds",
                     "1", "--trace", str(trace), "--tiny"])
    check(code == 0, f"{tag}: exit code 0 (got {code})")
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        check(False, f"{tag}: last line is JSON")
        return
    check(set(result) == {"correct", "attempted", "failed", "metrics"},
          f"{tag}: result keys")
    check(result["correct"] and result["failed"] == 0
          and result["attempted"] >= 1, f"{tag}: correct, failed_frac 0")
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    check(all(m["name"] in got and got[m["name"]]["unit"] == m["unit"]
              and isinstance(got[m["name"]]["value"], (int, float))
              for m in wanted), f"{tag}: every metric with its unit")
    if not trace:
        check(all(got[m["name"]]["value"] > 0 for m in wanted),
              f"{tag}: end-to-end metrics are positive")
    if workload == "observatory_push":
        check(any(l.startswith("scrape:") and "late by at most" in l
                  for l in lines), f"{tag}: scraper lateness printed")
        if trace:
            check(got["observatory.scrape_ms_p50"]["value"] > 0
                  and "observatory.scrape_late_ms_max" in got,
                  f"{tag}: scrape latency and lateness reported")


def check_refuses_without_sources():
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_build") as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(BENCH_DIR, Path(tmp) / "perfbench")
        code, out = run(["--workload", "bt_crawl", "--seed", "1",
                         "--seconds", "1", "--trace", "0"], cwd=tmp)
        check(code != 0 and not out.strip(),
              "refuses without sources and prints no result")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_workload(spec, w["name"], trace)
    (ROOT / ".bench_build").mkdir(exist_ok=True)
    check_refuses_without_sources()
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
