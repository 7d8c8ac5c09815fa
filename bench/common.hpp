// Shared scaffolding for the per-table/per-figure bench binaries.
//
// Every bench builds a synthetic Internet, runs the measurement campaign it
// needs (BitTorrent crawl and/or Netalyzr sessions), and prints the paper's
// rows/series next to the measured ones. CGN_BENCH_SCALE scales the AS
// universe (default 0.4 for quick runs; 1.0 reproduces the calibrated
// full-size world used in EXPERIMENTS.md), CGN_BENCH_SEED the world seed.
// CGN_THREADS=N shards the Netalyzr campaign and the crawler's ping sweep
// across N workers (default 1): wall clock drops, but figures, tables and
// merged obs totals are bit-identical for every N (see cgn::par), except
// the pool's own par.* counters.
#pragma once

#include <algorithm>
#include <chrono>
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
#include "netalyzr/messages.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "par/thread_pool.hpp"
#include "report/report.hpp"
#include "scenario/campaign.hpp"
#include "scenario/env_config.hpp"
#include "scenario/internet.hpp"
#include "super/supervisor.hpp"

namespace cgn::bench {

/// Lazily-run measurement campaign over one world.
class World {
 public:
  World() : internet_(scenario::build_internet(scenario::scaled_config())) {}

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
      cfg.retry = scenario::retry_policy_from_env();
      cfg.supervise = scenario::supervisor_config_from_env("netalyzr");
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
  /// Netalyzr runs first, then BitTorrent: fork_rng() hands out substreams
  /// in call order, so this order is part of the figures.
  const analysis::CoverageResult& coverage() {
    if (!coverage_) {
      const analysis::NetalyzrDetectionResult& nz = nz_result();
      const analysis::BtDetectionResult& bt = bt_result();
      coverage_ = std::make_unique<analysis::CoverageResult>(
          analysis::combine_coverage(bt, nz, internet_->registry));
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
      cfg.crawl.retry = scenario::retry_policy_from_env();
      cfg.supervise = scenario::supervisor_config_from_env("crawl_ping");
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
            << "    (scale=" << scenario::bench_scale()
            << ", seed=" << scenario::bench_seed()
            << "; paper values in [brackets]; expect shape, not absolutes)\n\n";
}

/// A warmed NAT444 echo round trip, the hot-path timing bench_perf_micro
/// and bench_scale_sweep share.
struct EchoTiming {
  double ns = 0;        ///< best of 5 x 100k round trips; 0 without a line
  bool nat444 = false;  ///< the line is behind both a CPE NAT and a CGN
};

/// Times a TCP echo round trip exactly as NetalyzrClient::run_basic issues
/// it: from a line behind both a CPE NAT and its ISP's CGN (any line, in a
/// world without one) through the routed core to the Netalyzr echo server,
/// whose reply crosses both NATs back. 10k round trips warm the mappings
/// first; the best of five 100k-round-trip runs shaves scheduler and
/// frequency noise.
inline EchoTiming time_echo_roundtrip(scenario::Internet& internet) {
  EchoTiming out;
  const scenario::Subscriber* sub = nullptr;
  for (const auto& isp : internet.isps) {
    if (!isp.cgn) continue;
    const auto it = std::find_if(
        isp.subscribers.begin(), isp.subscribers.end(),
        [](const scenario::Subscriber& s) { return s.cpe && s.behind_cgn; });
    if (it != isp.subscribers.end()) {
      sub = &*it;
      out.nat444 = true;
      break;
    }
  }
  for (const auto& isp : internet.isps)
    if (!sub && !isp.subscribers.empty()) sub = &isp.subscribers.front();
  if (!sub) return out;

  const netcore::Endpoint dst = internet.servers.netalyzr->echo_endpoint();
  std::uint64_t tx = 0;
  auto ns_per_round_trip = [&](int n) {
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < n; ++i) {
      sim::Packet pkt = sim::Packet::tcp({sub->device_address, 40000}, dst);
      pkt.payload = netalyzr::NetalyzrMessage{netalyzr::EchoRequest{++tx}};
      (void)internet.net.send(std::move(pkt), sub->device);
    }
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::nano>(t1 - t0).count() / n;
  };
  (void)ns_per_round_trip(10'000);
  out.ns = ns_per_round_trip(100'000);
  for (int rep = 1; rep < 5; ++rep)
    out.ns = std::min(out.ns, ns_per_round_trip(100'000));
  return out;
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
  os << ",\"scale\":" << scenario::bench_scale()
     << ",\"seed\":" << scenario::bench_seed()
     << ",\"threads\":" << par::configured_threads();
  // Provenance: which impairment scenario and retransmission policy were
  // active, so trajectories can tell clean runs from ablations.
  {
    const fault::FaultPlan plan = scenario::fault_plan_from_env();
    const fault::RetryPolicy retry = scenario::retry_policy_from_env();
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(plan.hash()));
    os << ",\"fault_plan_hash\":\"" << hex << '"'
       << ",\"fault_plan_active\":" << (plan.active() ? "true" : "false")
       << ",\"retry\":{\"attempts\":" << retry.attempts
       << ",\"base_backoff_s\":" << retry.base_backoff_s << '}';
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
