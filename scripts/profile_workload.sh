#!/usr/bin/env bash
# Flat CPU profile of one benchmark workload, for boxes without `perf`.
#
#   scripts/profile_workload.sh bt_crawl 3 10
#
# Builds perfbench_driver with -pg into its own build directory
# ($CARGO_TARGET_DIR/gprof, default .bench_build/gprof; the benchmark's own
# .bench_build/perfbench stays untouched), runs the workload once for the
# given number of seconds, and prints the gprof flat profile (top 40 rows)
# followed by the driver's own last line. gmon.out and the full report stay
# in the build directory.
#
# gprof records the main thread only. A workload that runs more than one
# par worker (the driver's last line says "workers":N) gets a profile of
# the calling lane's shards, not of the whole workload: its times and call
# counts undercount everything the pool threads ran. The script prints a
# warning under the profile when N > 1.
set -euo pipefail

if [[ $# -ne 3 ]]; then
  echo "usage: $0 <workload> <seed> <seconds>" >&2
  exit 2
fi
workload=$1 seed=$2 seconds=$3

root="$(cd "$(dirname "$0")/.." && pwd)"
target="${CARGO_TARGET_DIR:-.bench_build}"
[[ "$target" = /* ]] || target="$root/$target"
build="$target/gprof"
mkdir -p "$build"

if [[ ! -f "$build/CMakeCache.txt" ]]; then
  cmake -S "$root/perfbench" -B "$build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-pg" -DCMAKE_EXE_LINKER_FLAGS="-pg" >"$build/build.log"
fi
jobs=$(( $(nproc) < 4 ? $(nproc) : 4 ))
cmake --build "$build" --target perfbench_driver -j "$jobs" >>"$build/build.log"

# gmon.out lands in the working directory.
cd "$build"
rm -f gmon.out
"$build/perfbench_driver" --workload "$workload" --seed "$seed" \
  --seconds "$seconds" --trace 0 >driver.out
gprof -b -p "$build/perfbench_driver" gmon.out >flat_profile.txt
head -n 45 flat_profile.txt
echo "..."
last=$(tail -n 1 driver.out)
echo "driver: $last"
workers=$(grep -o '"workers":[0-9]*' <<<"$last" | cut -d: -f2 || true)
if [[ "${workers:-1}" -gt 1 ]]; then
  echo "warning: the workload ran $workers par workers; gprof profiled the" \
    "main thread only, so the times and call counts above cover one lane," \
    "not the whole workload"
fi
echo "full report: $build/flat_profile.txt"
