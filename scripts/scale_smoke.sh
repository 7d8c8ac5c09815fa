#!/usr/bin/env bash
# Scale-sweep smoke gate (scripts/check.sh scale; the ci.yml scale-smoke job
# and the nightly workflow):
#
#  1. bench_scale_sweep over the requested scales (PR smoke sweeps 0.4 and
#     1; the nightly goes through 10), three times — each scale runs in its
#     own child process so peak RSS (/proc/self/status VmHWM) is per-scale;
#  2. each resulting BENCH_scale_sweep.json is schema-checked (every
#     scale_<tag>_rss_kib positive and paired with its ns_per_packet
#     sibling) and the three are gated against
#     bench/baselines/scale_sweep.json via scripts/bench_compare.py: the
#     median peak RSS and the minimum ns/packet of the sweeps; growth
#     beyond 10% warns, beyond 30% fails. Scales the run didn't sweep are
#     skipped, so the smoke subset still gates against the full committed
#     baseline.
#
# The JSON artifacts land in <builddir>/scale-smoke/run{1,2,3}/ for upload.
#
# Usage: scripts/scale_smoke.sh [builddir] [scales]
#        scripts/scale_smoke.sh                 # build, scales 0.4,1
#        scripts/scale_smoke.sh build 0.4,1,4,10   # nightly sweep
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SCALES="${2:-0.4,1}"
BENCH="$BUILD/bench"
OUT="$BUILD/scale-smoke"
[[ -x "$BENCH/bench_scale_sweep" ]] || {
  echo "scale_smoke: $BENCH/bench_scale_sweep not built" >&2; exit 2; }
rm -rf "$OUT"
mkdir -p "$OUT"

SWEEPS=()
for run in 1 2 3; do
  echo "== scale-smoke: bench_scale_sweep over scales $SCALES (run $run) =="
  mkdir -p "$OUT/run$run"
  CGN_SCALE_SWEEP_SCALES="$SCALES" CGN_BENCH_JSON_DIR="$OUT/run$run" \
    "$BENCH/bench_scale_sweep" | tee "$OUT/run$run/stdout.txt"
  SWEEPS+=("$OUT/run$run/BENCH_scale_sweep.json")
done

echo "== scale-smoke: schema check =="
python3 scripts/bench_compare.py --schema-check "${SWEEPS[@]}"

echo "== scale-smoke: gate vs bench/baselines/scale_sweep.json =="
python3 scripts/bench_compare.py bench/baselines/scale_sweep.json \
  "${SWEEPS[@]}"

echo "== scale-smoke: green (artifacts in $OUT) =="
