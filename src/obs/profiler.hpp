// Wall-clock attribution for campaign phases.
//
// PhaseProfiler keeps a begin/end stack; nested phases accumulate under a
// slash-joined path ("campaign.crawl/walk"), so the export shows both the
// totals and where inside a phase the time went. ScopedPhase is the RAII
// entry point campaign drivers use.
#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace cgn::obs {

class PhaseProfiler {
 public:
  struct Phase {
    std::string path;  ///< slash-joined nesting path
    int depth = 0;
    std::uint64_t count = 0;  ///< times entered
    double wall_s = 0.0;      ///< accumulated wall-clock seconds
  };

  PhaseProfiler() = default;
  PhaseProfiler(const PhaseProfiler&) = delete;
  PhaseProfiler& operator=(const PhaseProfiler&) = delete;

  static PhaseProfiler& global();

  /// `name` must not contain '/'. Phases nest: a begin() inside an open
  /// phase records under "<outer>/<name>".
  void begin(std::string_view name);
  /// Closes the innermost open phase. Throws std::logic_error when no phase
  /// is open.
  void end();

  [[nodiscard]] int open_depth() const;

  /// All recorded phases in first-entered order.
  [[nodiscard]] std::vector<Phase> phases() const;

  /// Forgets recorded phases. Open phases survive (their frames are still
  /// on the stack) and re-record on end().
  void reset();

  /// JSON array: [{"phase":path,"depth":d,"count":n,"wall_s":s},...].
  /// Composable: no trailing newline.
  void export_json(std::ostream& os) const;

  /// Indented phase table rendered with report::Table.
  void print(std::ostream& os) const;

 private:
  struct Frame {
    std::string path;
    std::chrono::steady_clock::time_point start;
  };

  mutable std::mutex mu_;
  std::vector<Frame> stack_;
  std::vector<Phase> phases_;                          // insertion order
  std::unordered_map<std::string, std::size_t> index_;  // path -> phases_ idx
};

/// RAII phase: begin on construction, end on destruction.
class ScopedPhase {
 public:
  explicit ScopedPhase(std::string_view name,
                       PhaseProfiler& profiler = PhaseProfiler::global())
      : profiler_(&profiler) {
    profiler_->begin(name);
  }
  ScopedPhase(const ScopedPhase&) = delete;
  ScopedPhase& operator=(const ScopedPhase&) = delete;
  ~ScopedPhase() { profiler_->end(); }

 private:
  PhaseProfiler* profiler_;
};

}  // namespace cgn::obs
