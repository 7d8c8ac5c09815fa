// Open-loop HTTP scraper for the observatory's pull endpoints.
//
// One thread, one connection per request (the server speaks HTTP/1.0 with
// Connection: close). Request i is due at start + phase + i / rate and
// targets endpoint i mod N, whether or not earlier requests have finished:
// a stall shows up as lateness of the requests behind it. Latency is
// measured from the due time, so waiting in the generator counts; the
// generator's own lateness (send time minus due time) is reported too.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct ScrapeTarget {
  std::string label;  ///< metric suffix: "metrics", "figures", "health"
  std::string path;
};

struct ScrapeSample {
  double due_s = 0.0;       ///< due time, since the scraper started
  std::size_t target = 0;   ///< index into the target list
  double latency_ms = 0.0;  ///< from due time to the full response
};

struct ScrapeStats {
  std::vector<std::string> labels;  ///< per target
  std::vector<ScrapeSample> samples;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< connect/read errors and non-200 replies
  double late_ms_max = 0.0;  ///< worst send time minus due time

  /// Latencies of one target, or of all targets when `target` is npos.
  [[nodiscard]] std::vector<double> latencies(
      std::size_t target = static_cast<std::size_t>(-1)) const;
};

class OpenLoopScraper {
 public:
  /// Starts the generator thread immediately. `phase_s` offsets the first
  /// due time (seeded by the caller).
  OpenLoopScraper(std::uint16_t port, std::vector<ScrapeTarget> targets,
                  double rate_hz, double phase_s);
  ~OpenLoopScraper();

  OpenLoopScraper(const OpenLoopScraper&) = delete;
  OpenLoopScraper& operator=(const OpenLoopScraper&) = delete;

  /// Stops the generator and joins it; idempotent.
  void stop();
  /// Snapshot of everything recorded so far.
  [[nodiscard]] ScrapeStats stats() const;

 private:
  void loop();

  const std::uint16_t port_;
  const std::vector<ScrapeTarget> targets_;
  const double period_s_;
  const double phase_s_;

  mutable std::mutex mu_;
  std::condition_variable wake_;
  bool stopping_ = false;
  ScrapeStats stats_;
  std::thread thread_;  // last: started after every member above exists
};

}  // namespace perfbench
