#!/usr/bin/env bash
# Bench smoke gate (scripts/check.sh bench; the ci.yml bench-smoke job):
#
#  1. bench_perf_micro, three runs at 1 worker -> median phase timings and
#     the fastest run's echo_roundtrip_ns compared against
#     bench/baselines/perf_micro.json via scripts/bench_compare.py (warn
#     >10%, fail >30%);
#  2. bench_perf_micro once at 4 workers -> its parallel_identical figure
#     asserts the 1/2/4-worker campaign fingerprints are byte-identical,
#     and the 1/2/4-worker campaign wall timings plus speedup/CPU
#     efficiency are summarized into <builddir>/bench-smoke/scaling.json
#     for upload alongside the raw BENCH_*.json artifacts;
#  3. bench_fig01_survey at 1 and 4 workers -> the JSON "figures" objects
#     must be byte-identical (thread count must never leak into results);
#  4. transition smoke: bench_fig14_transition at 1 and 4 workers -> the
#     fig14 figures must be byte-identical too, and the detect_acc_*
#     figures must pass the transition schema check in bench_compare.py.
#
# JSON artifacts land in <builddir>/bench-smoke/ for upload.
#
# Usage: scripts/bench_smoke.sh [builddir]   # default: build
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
BENCH="$BUILD/bench"
OUT="$BUILD/bench-smoke"
[[ -x "$BENCH/bench_perf_micro" ]] || {
  echo "bench_smoke: $BENCH/bench_perf_micro not built" >&2; exit 2; }
rm -rf "$OUT"
mkdir -p "$OUT"/run1 "$OUT"/run2 "$OUT"/run3 "$OUT"/t4 "$OUT"/fig01_t1 "$OUT"/fig01_t4 \
         "$OUT"/fig14_t1 "$OUT"/fig14_t4

echo "== bench-smoke: perf_micro x3 at 1 worker =="
for run in 1 2 3; do
  CGN_THREADS=1 CGN_BENCH_JSON_DIR="$OUT/run$run" \
    "$BENCH/bench_perf_micro" --benchmark_min_time=0.05 \
    > "$OUT/run$run/stdout.txt"
done

echo "== bench-smoke: perf_micro at 4 workers =="
CGN_THREADS=4 CGN_BENCH_JSON_DIR="$OUT/t4" \
  "$BENCH/bench_perf_micro" --benchmark_min_time=0.05 > "$OUT/t4/stdout.txt"

echo "== bench-smoke: fig01 figures at 1 vs 4 workers =="
CGN_THREADS=1 CGN_BENCH_JSON_DIR="$OUT/fig01_t1" \
  "$BENCH/bench_fig01_survey" --benchmark_min_time=0.05 \
  > "$OUT/fig01_t1/stdout.txt"
CGN_THREADS=4 CGN_BENCH_JSON_DIR="$OUT/fig01_t4" \
  "$BENCH/bench_fig01_survey" --benchmark_min_time=0.05 \
  > "$OUT/fig01_t4/stdout.txt"

echo "== bench-smoke: transition (fig14) figures at 1 vs 4 workers =="
CGN_THREADS=1 CGN_BENCH_JSON_DIR="$OUT/fig14_t1" \
  "$BENCH/bench_fig14_transition" --benchmark_min_time=0.05 \
  > "$OUT/fig14_t1/stdout.txt"
CGN_THREADS=4 CGN_BENCH_JSON_DIR="$OUT/fig14_t4" \
  "$BENCH/bench_fig14_transition" --benchmark_min_time=0.05 \
  > "$OUT/fig14_t4/stdout.txt"

python3 - "$OUT" <<'EOF'
import json, sys
out = sys.argv[1]

t4 = json.load(open(f"{out}/t4/BENCH_perf_micro.json"))
ident = t4["figures"].get("parallel_identical")
assert ident == 1, f"parallel_identical={ident}: worker fingerprints diverged"
print("ok   perf_micro@4 workers: campaign fingerprints byte-identical")

figs = t4["figures"]
scaling = {
    "hardware_cores": figs.get("hardware_cores"),
    "netalyzr_campaign_s_1t": figs.get("netalyzr_campaign_s_1t"),
    "netalyzr_campaign_s_2t": figs.get("netalyzr_campaign_s_2t"),
    "netalyzr_campaign_s_4t": figs.get("netalyzr_campaign_s_4t"),
    "netalyzr_speedup_4t": figs.get("netalyzr_speedup_4t"),
    "netalyzr_cpu_s_1t": figs.get("netalyzr_cpu_s_1t"),
    "netalyzr_cpu_s_4t": figs.get("netalyzr_cpu_s_4t"),
    "netalyzr_cpu_efficiency_4t": figs.get("netalyzr_cpu_efficiency_4t"),
}
with open(f"{out}/scaling.json", "w") as f:
    json.dump(scaling, f, indent=2, sort_keys=True)
    f.write("\n")
parts = ", ".join(f"{k.rsplit('_', 1)[-1]}={scaling[f'netalyzr_campaign_s_{k[-2:]}']}"
                  for k in ("s_1t", "s_2t", "s_4t")
                  if scaling.get(f"netalyzr_campaign_s_{k[-2:]}") is not None)
print(f"ok   scaling.json: campaign walls [{parts}] "
      f"speedup_4t={scaling['netalyzr_speedup_4t']} "
      f"cpu_efficiency_4t={scaling['netalyzr_cpu_efficiency_4t']} "
      f"cores={scaling['hardware_cores']}")

f1 = json.load(open(f"{out}/fig01_t1/BENCH_fig01_survey.json"))["figures"]
f4 = json.load(open(f"{out}/fig01_t4/BENCH_fig01_survey.json"))["figures"]
assert json.dumps(f1, sort_keys=True) == json.dumps(f4, sort_keys=True), \
    f"fig01 figures differ between 1 and 4 workers:\n{f1}\n{f4}"
print("ok   fig01 figures byte-identical at 1 vs 4 workers")

t1 = json.load(open(f"{out}/fig14_t1/BENCH_fig14_transition.json"))["figures"]
t4 = json.load(open(f"{out}/fig14_t4/BENCH_fig14_transition.json"))["figures"]
assert json.dumps(t1, sort_keys=True) == json.dumps(t4, sort_keys=True), \
    f"fig14 figures differ between 1 and 4 workers:\n{t1}\n{t4}"
assert t1.get("observed_sessions", 0) > 0, \
    "fig14 battery produced no transition sessions"
print("ok   fig14 transition figures byte-identical at 1 vs 4 workers "
      f"({t1['observed_sessions']:.0f} battery sessions, "
      f"{t1['scored_ases']:.0f} scored ASes)")
EOF

echo "== bench-smoke: transition schema check (detect_acc_* in [0,1]) =="
python3 scripts/bench_compare.py --schema-check \
  "$OUT"/fig14_t1/BENCH_fig14_transition.json \
  "$OUT"/fig14_t4/BENCH_fig14_transition.json

echo "== bench-smoke: regression gate vs bench/baselines/perf_micro.json =="
python3 scripts/bench_compare.py bench/baselines/perf_micro.json \
  "$OUT"/run1/BENCH_perf_micro.json \
  "$OUT"/run2/BENCH_perf_micro.json \
  "$OUT"/run3/BENCH_perf_micro.json

echo "== bench-smoke: green (artifacts in $OUT) =="
