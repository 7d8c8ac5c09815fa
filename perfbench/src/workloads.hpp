// The benchmark's workloads. Each drives the library through its public
// functions from this process; main.cpp times the calls and reports.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "scraper.hpp"
#include "trace.hpp"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/// What one measured iteration produced.
struct Iteration {
  int run_id = 0;
  bool traced = false;
  double setup_s = 0.0;  ///< 0 when the workload set up once, up front
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::uint64_t figure_hash = 0;
  std::uint64_t fingerprint = 0;  ///< netalyzr::fingerprint; 0 elsewhere
  std::uint64_t packets = 0;       ///< simulated packets sent
  std::uint64_t events = 0;        ///< stream events drained by ingest
  std::size_t workers = 1;        ///< par workers of the timed section
  std::uint64_t attempted = 0;    ///< shards, figure checks and frames
  std::uint64_t failed = 0;
  Metrics layers;                 ///< filled on traced iterations only
};

/// Sizing of one run. `tiny` shrinks every world for the self-tests.
struct WorkloadOptions {
  std::uint64_t seed = 42;
  bool tiny = false;
  std::size_t max_workers = 1;  ///< par workers for sharded campaigns
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Runs before the scraper starts. Workloads that set up once do it
  /// here, several times, appending each set-up time to `setup_s`.
  virtual void prepare(Tracer& tracer, std::vector<double>& setup_s) = 0;
  /// True when every iteration needs a fresh set-up (a fresh world).
  [[nodiscard]] virtual bool setup_per_iteration() const = 0;
  virtual void setup(Tracer& tracer) { (void)tracer; }
  /// The timed section. Fills the iteration's hashes, counts and, when
  /// traced, its per-layer metrics.
  virtual void run(Tracer& tracer, Iteration& it) = 0;
  /// Untimed: releases what the iteration built.
  virtual void teardown() {}
  /// Metrics known only at the end of the run (set-up medians, server
  /// counters); merged over the per-iteration medians.
  virtual void finish(Metrics& layers, Iteration& totals) {
    (void)layers, (void)totals;
  }

  /// The endpoint an open-loop scraper reads during the run; none when
  /// the workload serves nothing.
  [[nodiscard]] virtual std::uint16_t http_port() const { return 0; }
  [[nodiscard]] virtual std::vector<ScrapeTarget> scrape_targets() const {
    return {};
  }
  /// Connections the workload holds open at once (push plus scrape).
  [[nodiscard]] virtual std::size_t connections() const { return 0; }
};

/// User plus system CPU seconds of this process so far.
double process_cpu_s();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options);

/// Every per-layer metric name, in report order. A traced run prints all
/// of them; a layer a workload leaves idle reads 0.
const std::vector<std::string>& layer_metric_names();

}  // namespace perfbench
