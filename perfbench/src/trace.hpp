// In-memory span recorder for the benchmark's traced runs.
//
// Spans wrap the benchmark's own calls into the library's public functions
// (nothing inside src/ is instrumented). Each span records its name, start,
// end, parent and the run id (one per measured iteration), plus the deltas
// of a fixed set of obs counters taken at its two boundaries, so that
// per-layer ratios are measured where the work happens. PhaseProfiler
// sub-phases are merged in as child spans after the call returns. Spans
// are kept in memory and written out once, at exit.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace perfbench {

struct SpanRecord {
  std::string name;
  int run_id = 0;
  int parent = -1;  ///< index into Tracer::spans(), -1 for a root span
  double start_s = 0.0;  ///< since the tracer was created
  double end_s = 0.0;
  /// Non-zero deltas of the traced counters across the span.
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  /// True for a PhaseProfiler sub-phase: its duration is exact, its start
  /// is placed right after the previous sibling (the profiler keeps no
  /// start times).
  bool from_profiler = false;
  double children_s = 0.0;  ///< time covered by direct child spans

  [[nodiscard]] double duration() const { return end_s - start_s; }
  [[nodiscard]] double self_s() const { return duration() - children_s; }
};

class Tracer {
 public:
  explicit Tracer(bool enabled);

  /// Iterations alternate traced and untraced when measuring overhead.
  void set_enabled(bool on) noexcept { enabled_ = on; }
  void set_run(int run_id) noexcept { run_ = run_id; }

  /// Opens a span under the innermost open one. Returns its index, or -1
  /// when tracing is off.
  int open(std::string_view name);
  void close(int index);

  /// Appends the PhaseProfiler's recorded sub-phases of `prefix` (paths
  /// "<prefix>/<phase>", or top-level phases when `prefix` is empty) as
  /// children of span `parent`, renamed through `renames` ({profiler
  /// phase, span name}); then resets the profiler.
  void merge_profiler(
      int parent, std::string_view prefix,
      const std::vector<std::pair<std::string_view, std::string_view>>&
          renames);

  /// Summed duration of every `name` span of run `run_id`.
  [[nodiscard]] double total_s(int run_id, std::string_view name) const;
  /// Summed self time (duration minus the time covered by child spans).
  [[nodiscard]] double self_s(int run_id, std::string_view name) const;
  /// Summed counter delta over every `name` span of run `run_id`.
  [[nodiscard]] std::uint64_t delta(int run_id, std::string_view name,
                                    std::string_view counter) const;

  /// The per-layer report: every span plus per-name totals (count, total
  /// and self seconds, counter deltas) over all runs, as one JSON object.
  void write_report(std::ostream& os) const;

 private:
  [[nodiscard]] double now_s() const;

  bool enabled_;
  int run_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  std::vector<SpanRecord> spans_;
  std::vector<int> stack_;
  /// Counter values when each open span started (parallel to stack_).
  std::vector<std::vector<std::uint64_t>> snapshots_;
};

/// RAII span; a no-op when the tracer is off.
class Span {
 public:
  Span(Tracer& tracer, std::string_view name)
      : tracer_(&tracer), index_(tracer.open(name)) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() { tracer_->close(index_); }

  [[nodiscard]] int index() const noexcept { return index_; }

 private:
  Tracer* tracer_;
  int index_;
};

}  // namespace perfbench
