// Shared scaffolding for the per-table/per-figure bench binaries.
//
// Every bench builds a synthetic Internet, runs the measurement campaign it
// needs (BitTorrent crawl and/or Netalyzr sessions), and prints the paper's
// rows/series next to the measured ones. CGN_BENCH_SCALE scales the AS
// universe (default 0.4 for quick runs; 1.0 reproduces the calibrated
// full-size world used in EXPERIMENTS.md), CGN_BENCH_SEED the world seed.
// CGN_THREADS=N shards the Netalyzr campaign and the crawler's ping sweep
// across N workers (default 1): wall clock drops, but figures, tables and
// merged obs totals are bit-identical for every N (see cgn::par).
#pragma once

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/bt_detector.hpp"
#include "analysis/coverage.hpp"
#include "analysis/figures.hpp"
#include "analysis/netalyzr_detector.hpp"
#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "par/thread_pool.hpp"
#include "report/report.hpp"
#include "scenario/campaign.hpp"
#include "scenario/env_config.hpp"
#include "scenario/internet.hpp"
#include "super/supervisor.hpp"

namespace cgn::bench {

// The CGN_* environment parsing lives in scenario/env_config.hpp so the
// observatory daemon reads the exact same knobs; these aliases keep the
// historical cgn::bench spellings working.
using scenario::env_double;
using scenario::env_u64;
using scenario::fault_plan_from_env;
using scenario::retry_policy_from_env;
using scenario::scaled_config;
using scenario::supervisor_config_from_env;

/// Lazily-run measurement campaign over one world.
class World {
 public:
  World() : internet_(scenario::build_internet(scaled_config())) {}

  [[nodiscard]] scenario::Internet& internet() { return *internet_; }

  /// BitTorrent phase + crawl (+ detection), run once on demand.
  const crawler::CrawlDataset& crawl_data() {
    ensure_crawl();
    return crawler_->dataset();
  }
  const analysis::BtDetectionResult& bt_result() {
    ensure_crawl();
    if (!bt_result_) {
      bt_result_ = std::make_unique<analysis::BtDetectionResult>(
          analysis::BtDetector().analyze(crawler_->dataset(),
                                         internet_->routes));
    }
    return *bt_result_;
  }

  /// Netalyzr campaign (+ detection), run once on demand.
  /// `transition_battery` additionally runs the Big-NAT IPv6-transition
  /// battery on every session (fig14); off by default so the classic
  /// benches' campaigns stay byte-identical.
  const std::vector<netalyzr::SessionResult>& sessions(
      double enum_fraction = 0.0, double stun_fraction = 0.0,
      bool transition_battery = false) {
    if (!sessions_run_) {
      scenario::NetalyzrCampaignConfig cfg;
      cfg.enum_fraction = enum_fraction;
      cfg.stun_fraction = stun_fraction;
      cfg.transition_battery = transition_battery;
      cfg.retry = retry_policy_from_env();
      cfg.supervise = supervisor_config_from_env("netalyzr");
      sessions_ = scenario::run_netalyzr_campaign(*internet_, cfg, &nz_report_);
      sessions_run_ = true;
    }
    return sessions_;
  }
  const analysis::NetalyzrDetectionResult& nz_result() {
    if (!nz_result_) {
      nz_result_ = std::make_unique<analysis::NetalyzrDetectionResult>(
          analysis::NetalyzrDetector().analyze(sessions(), internet_->routes));
    }
    return *nz_result_;
  }

  /// Combined §5 coverage (triggers both campaigns). Includes
  /// `measurement` fractions from the supervised campaigns, so a degraded
  /// (quarantined-shard) run is visible next to the Table 5 numbers.
  const analysis::CoverageResult& coverage() {
    if (!coverage_) {
      coverage_ = std::make_unique<analysis::CoverageResult>(
          analysis::combine_coverage(bt_result(), nz_result(),
                                     internet_->registry));
      analysis::note_supervision(*coverage_, &bt_report_, &nz_report_);
    }
    return *coverage_;
  }

  /// Supervision reports of the two campaigns (empty until each runs).
  [[nodiscard]] const super::CampaignReport& bt_report() const {
    return bt_report_;
  }
  [[nodiscard]] const super::CampaignReport& nz_report() const {
    return nz_report_;
  }

 private:
  void ensure_crawl() {
    if (!crawler_) {
      scenario::run_bittorrent_phase(*internet_);
      scenario::CrawlPhaseConfig cfg;
      cfg.crawl.retry = retry_policy_from_env();
      cfg.supervise = supervisor_config_from_env("crawl_ping");
      crawler_ = scenario::run_crawl_phase(*internet_, cfg, &bt_report_);
    }
  }

  std::unique_ptr<scenario::Internet> internet_;
  std::unique_ptr<crawler::DhtCrawler> crawler_;
  std::unique_ptr<analysis::BtDetectionResult> bt_result_;
  std::vector<netalyzr::SessionResult> sessions_;
  bool sessions_run_ = false;
  std::unique_ptr<analysis::NetalyzrDetectionResult> nz_result_;
  std::unique_ptr<analysis::CoverageResult> coverage_;
  super::CampaignReport bt_report_;
  super::CampaignReport nz_report_;
};

inline void print_header(const std::string& experiment,
                         const std::string& title) {
  std::cout << "\n=== " << experiment << ": " << title << " ===\n"
            << "    (scale=" << env_double("CGN_BENCH_SCALE", 0.4)
            << ", seed=" << env_u64("CGN_BENCH_SEED", 42)
            << "; paper values in [brackets]; expect shape, not absolutes)\n\n";
}

/// Headline numbers a bench reproduced, in insertion order. (The figure
/// computations themselves live in analysis/figures.hpp, shared with the
/// observatory's /figures endpoint.)
using analysis::Figures;

/// Ends a bench run: writes `BENCH_<name>.json` — the machine-readable run
/// record holding the reproduced figures, the per-phase wall-clock timings
/// and the full simulation metrics snapshot — and prints the phase table.
/// CGN_BENCH_JSON_DIR redirects the output file (default: cwd);
/// CGN_OBS_DASHBOARD=1 additionally prints the metrics dashboard. The JSON
/// schema is documented in README.md ("Observability").
inline void write_bench_json(const std::string& name, const Figures& figures) {
  const char* dir = std::getenv("CGN_BENCH_JSON_DIR");
  const std::string path =
      (dir && *dir ? std::string(dir) + "/" : std::string()) + "BENCH_" +
      name + ".json";
  std::ofstream os(path);
  os.precision(12);  // keep large counts out of scientific notation
  os << "{\"bench\":";
  obs::json_escape(os, name);
  os << ",\"scale\":" << env_double("CGN_BENCH_SCALE", 0.4)
     << ",\"seed\":" << env_u64("CGN_BENCH_SEED", 42)
     << ",\"threads\":" << par::configured_threads();
  // Provenance: which impairment scenario and retransmission policy were
  // active, so trajectories can tell clean runs from ablations.
  {
    const fault::FaultPlan plan = fault_plan_from_env();
    const fault::RetryPolicy retry = retry_policy_from_env();
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(plan.hash()));
    os << ",\"fault_plan_hash\":\"" << hex << '"'
       << ",\"fault_plan_active\":" << (plan.active() ? "true" : "false")
       << ",\"retry\":{\"attempts\":" << retry.attempts
       << ",\"base_backoff_s\":" << retry.base_backoff_s
       << ",\"backoff_factor\":" << retry.backoff_factor
       << ",\"jitter_fraction\":" << retry.jitter_fraction << '}';
  }
  os << ",\"figures\":";
  analysis::render_figures_json(os, figures);
  os << ",\"super\":{";
  // Supervision rollup: how much of the planned campaign actually ran.
  // All zeros (coverage 1.0) for unsupervised or failure-free runs.
  {
    const std::uint64_t planned =
        obs::counter("super.shards_planned").value();
    const std::uint64_t finished =
        obs::counter("super.shards_ok").value() +
        obs::counter("super.shards_retried").value() +
        obs::counter("super.shards_resumed").value();
    os << "\"shards_planned\":" << planned << ",\"shards_ok\":"
       << obs::counter("super.shards_ok").value() << ",\"shards_retried\":"
       << obs::counter("super.shards_retried").value()
       << ",\"shards_resumed\":"
       << obs::counter("super.shards_resumed").value()
       << ",\"shards_quarantined\":"
       << obs::counter("super.shards_quarantined").value()
       << ",\"retry_attempts\":"
       << obs::counter("super.retry_attempts").value() << ",\"coverage\":"
       << (planned == 0 ? 1.0
                        : static_cast<double>(finished) /
                              static_cast<double>(planned));
  }
  os << "},\"obs\":";
  obs::export_json(os);  // {"metrics":{...},"phases":[...]}
  os << "}\n";

  obs::PhaseProfiler::global().print(std::cout);
  const char* dash = std::getenv("CGN_OBS_DASHBOARD");
  if (dash && *dash && *dash != '0')
    obs::MetricsRegistry::global().print_dashboard(std::cout);
  if (os)
    std::cout << "\nwrote " << path << "\n";
  else
    std::cerr << "\nfailed to write " << path
              << " (is CGN_BENCH_JSON_DIR a writable directory?)\n";
}

}  // namespace cgn::bench
