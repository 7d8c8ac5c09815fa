// Ablation — campaign completion under worker crashes, with and without
// supervised retries.
//
// The paper's crawls ran for months and its Netalyzr corpus accumulated
// over years; at that horizon the measurement *infrastructure* fails more
// often than the network. This ablation injects shard-attempt crashes
// (fault::ShardFaults) into both campaign drivers and sweeps the crash
// rate against the supervisor's attempt budget. With one attempt a crashed
// shard is quarantined and its ASes go unmeasured — detection recall and
// measurement coverage degrade together; with a 3-attempt budget the
// supervisor re-runs crashed shards from their own substreams and recovers
// nearly all of the plan. A final "stormy" cell stacks crashes on top of
// packet loss/dup/deaf-peer faults to show the two fault layers compose.
#include <cstdio>
#include <iostream>
#include <set>

#include "bench/common.hpp"

namespace {

struct Cell {
  std::set<cgn::netcore::Asn> bt_positives;
  std::set<cgn::netcore::Asn> nz_positives;
  cgn::super::CampaignReport bt_report;
  cgn::super::CampaignReport nz_report;

  [[nodiscard]] double coverage() const {
    const std::size_t planned = bt_report.planned() + nz_report.planned();
    const std::size_t finished = bt_report.finished() + nz_report.finished();
    return planned == 0 ? 1.0
                        : static_cast<double>(finished) /
                              static_cast<double>(planned);
  }
  [[nodiscard]] std::size_t quarantined() const {
    return bt_report.count(cgn::super::ShardStatus::quarantined) +
           nz_report.count(cgn::super::ShardStatus::quarantined);
  }
  [[nodiscard]] std::size_t recovered() const {
    return bt_report.count(cgn::super::ShardStatus::recovered) +
           nz_report.count(cgn::super::ShardStatus::recovered);
  }
};

Cell run_cell(double crash_rate, int attempts, bool stormy) {
  using namespace cgn;
  scenario::InternetConfig cfg = scenario::scaled_config();
  cfg.fault_plan.shards.crash_rate = crash_rate;
  if (stormy) {
    cfg.fault_plan.link.loss_rate = 0.02;
    cfg.fault_plan.link.duplication_rate = 0.01;
    cfg.fault_plan.peers.unresponsive_fraction = 0.10;
  }

  auto internet = scenario::build_internet(cfg);
  scenario::run_bittorrent_phase(*internet);

  Cell cell;
  scenario::CrawlPhaseConfig crawl_cfg;
  crawl_cfg.supervise.max_attempts = attempts;
  auto crawler =
      scenario::run_crawl_phase(*internet, crawl_cfg, &cell.bt_report);
  auto bt = analysis::BtDetector().analyze(crawler->dataset(),
                                           internet->routes);

  scenario::NetalyzrCampaignConfig nz_cfg;
  nz_cfg.enum_fraction = 0.0;
  nz_cfg.stun_fraction = 0.0;
  nz_cfg.supervise.max_attempts = attempts;
  auto sessions =
      scenario::run_netalyzr_campaign(*internet, nz_cfg, &cell.nz_report);
  auto nz = analysis::NetalyzrDetector().analyze(sessions, internet->routes);

  for (const auto& [asn, v] : bt.per_as)
    if (v.cgn_positive) cell.bt_positives.insert(asn);
  for (const auto& [asn, v] : nz.per_as)
    if (!v.cellular && v.covered && v.cgn_positive)
      cell.nz_positives.insert(asn);
  return cell;
}

double recall(const std::set<cgn::netcore::Asn>& got,
              const std::set<cgn::netcore::Asn>& clean) {
  if (clean.empty()) return 1.0;
  std::size_t kept = 0;
  for (cgn::netcore::Asn asn : clean) kept += got.contains(asn) ? 1 : 0;
  return static_cast<double>(kept) / static_cast<double>(clean.size());
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", v);
  return buf;
}

}  // namespace

int main() {
  using namespace cgn;
  bench::print_header("Ablation", "worker crashes vs campaign completion");

  // Recall denominator: no crashes, single attempt — the exact
  // pre-supervision pipeline.
  const Cell clean = run_cell(0.0, 1, false);
  std::cout << "Clean run: " << clean.bt_positives.size()
            << " BT-positive ASes, " << clean.nz_positives.size()
            << " Netalyzr-positive ASes over "
            << clean.bt_report.planned() + clean.nz_report.planned()
            << " campaign shards (recall denominators).\n\n";

  bench::Figures figures;
  figures.emplace_back("clean_bt_positives",
                       static_cast<double>(clean.bt_positives.size()));
  figures.emplace_back("clean_nz_positives",
                       static_cast<double>(clean.nz_positives.size()));
  figures.emplace_back(
      "clean_shards",
      static_cast<double>(clean.bt_report.planned() +
                          clean.nz_report.planned()));

  std::cout << "(a) Crash-rate sweep, attempt budget 1 vs 3\n";
  report::Table table({"crash rate", "attempts", "coverage", "quarantined",
                       "recovered", "bt recall", "nz recall"});
  double coverage_50pct[2] = {0, 0};
  for (double crash : {0.10, 0.30, 0.50}) {
    for (int attempts : {1, 3}) {
      const Cell cell = run_cell(crash, attempts, false);
      const double bt_r = recall(cell.bt_positives, clean.bt_positives);
      const double nz_r = recall(cell.nz_positives, clean.nz_positives);
      table.add_row({fmt(crash), std::to_string(attempts),
                     fmt(cell.coverage()), std::to_string(cell.quarantined()),
                     std::to_string(cell.recovered()), fmt(bt_r), fmt(nz_r)});
      const std::string tag = "crash" +
                              std::to_string(static_cast<int>(crash * 100)) +
                              "_att" + std::to_string(attempts);
      figures.emplace_back("coverage_" + tag, cell.coverage());
      figures.emplace_back("quarantined_" + tag,
                           static_cast<double>(cell.quarantined()));
      figures.emplace_back("recovered_" + tag,
                           static_cast<double>(cell.recovered()));
      figures.emplace_back("bt_recall_" + tag, bt_r);
      figures.emplace_back("nz_recall_" + tag, nz_r);
      if (crash == 0.50) coverage_50pct[attempts == 3] = cell.coverage();
    }
  }
  table.print(std::cout);
  std::cout << "  [coverage = finished/planned shards across both campaigns;\n"
               "   a quarantined shard drops its ASes from the corpus, so\n"
               "   recall tracks coverage with 1 attempt and recovers with 3]\n\n";
  figures.emplace_back("retry_coverage_gain_at_50pct",
                       coverage_50pct[1] - coverage_50pct[0]);

  std::cout << "(b) Stormy cell: 30% crashes on top of loss/dup/deaf peers\n";
  report::Table storm_table(
      {"attempts", "coverage", "quarantined", "bt recall", "nz recall"});
  for (int attempts : {1, 3}) {
    const Cell cell = run_cell(0.30, attempts, true);
    const double bt_r = recall(cell.bt_positives, clean.bt_positives);
    const double nz_r = recall(cell.nz_positives, clean.nz_positives);
    storm_table.add_row({std::to_string(attempts), fmt(cell.coverage()),
                         std::to_string(cell.quarantined()), fmt(bt_r),
                         fmt(nz_r)});
    const std::string tag = "storm_att" + std::to_string(attempts);
    figures.emplace_back("coverage_" + tag, cell.coverage());
    figures.emplace_back("bt_recall_" + tag, bt_r);
    figures.emplace_back("nz_recall_" + tag, nz_r);
  }
  storm_table.print(std::cout);
  std::cout << "  [crash retries replay the same network-fault substreams, so\n"
               "   recovered shards measure the impaired network, not a\n"
               "   cleaner one: recall stays bounded by the storm itself]\n";

  bench::write_bench_json("ablation_recovery", figures);
  return 0;
}
