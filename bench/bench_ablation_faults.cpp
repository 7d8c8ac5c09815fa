// Ablation — measurement resilience under injected faults.
//
// The paper's pipelines ran on the live Internet, where probes vanish and
// middleboxes reboot; the published detection counts already embody the
// real tools' retransmission logic. This ablation quantifies that
// dependency in simulation: sweep per-hop loss (0/1/5/10%) with the
// retry/backoff policy off and on, plus a CGN restart-frequency sweep, and
// report each pipeline's detection recall against the clean run's positive
// set. The headline: at 5% loss the fire-once pipelines lose detections
// that the 3-attempt policy recovers.
#include <cstdio>
#include <iostream>
#include <set>

#include "bench/common.hpp"

namespace {

struct Cell {
  std::set<cgn::netcore::Asn> bt_positives;
  std::set<cgn::netcore::Asn> nz_positives;
  // Continuous probe-level measures: per-AS detection flips only at the
  // 5×5-rule margins, so at bench scale it can mask substantial probe
  // attrition. These two move smoothly with loss.
  std::size_t bt_responders = 0;  ///< bt_ping responders in the crawl dataset
  std::size_t nz_flows = 0;       ///< echo flows the Netalyzr server observed
  std::uint64_t restarts = 0;
};

Cell run_cell(double loss_rate, bool retries, double restart_period_s) {
  using namespace cgn;
  scenario::InternetConfig cfg = scenario::scaled_config();
  cfg.fault_plan.link.loss_rate = loss_rate;
  cfg.fault_plan.nat.restart_period_s = restart_period_s;

  obs::Counter& restart_counter = obs::counter("nat.fault_restarts");
  const std::uint64_t restarts_before = restart_counter.value();

  auto internet = scenario::build_internet(cfg);
  scenario::run_bittorrent_phase(*internet);

  scenario::CrawlPhaseConfig crawl_cfg;
  scenario::NetalyzrCampaignConfig nz_cfg;
  nz_cfg.enum_fraction = 0.0;
  nz_cfg.stun_fraction = 0.0;
  if (retries) {
    crawl_cfg.crawl.retry.attempts = 3;
    crawl_cfg.crawl.retry.base_backoff_s = 2.0;
    nz_cfg.retry = crawl_cfg.crawl.retry;
  }

  auto crawler = scenario::run_crawl_phase(*internet, crawl_cfg);
  auto bt = analysis::BtDetector().analyze(crawler->dataset(),
                                           internet->routes);
  auto sessions = scenario::run_netalyzr_campaign(*internet, nz_cfg);
  auto nz = analysis::NetalyzrDetector().analyze(sessions, internet->routes);

  Cell cell;
  for (const auto& [asn, v] : bt.per_as)
    if (v.cgn_positive) cell.bt_positives.insert(asn);
  for (const auto& [asn, v] : nz.per_as)
    if (!v.cellular && v.covered && v.cgn_positive)
      cell.nz_positives.insert(asn);
  cell.bt_responders = crawler->dataset().responding_peers();
  for (const auto& s : sessions) cell.nz_flows += s.tcp_flows.size();
  cell.restarts = restart_counter.value() - restarts_before;
  return cell;
}

double ratio(std::size_t got, std::size_t clean) {
  return clean == 0 ? 1.0
                    : static_cast<double>(got) / static_cast<double>(clean);
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
  bench::print_header("Ablation", "fault injection vs detection recall");

  // The recall denominator: what each pipeline detects on a clean network
  // with retries off (the exact pre-fault pipeline).
  const Cell clean = run_cell(0.0, false, 0.0);
  std::cout << "Clean run: " << clean.bt_positives.size()
            << " BT-positive ASes, " << clean.nz_positives.size()
            << " Netalyzr-positive ASes, " << clean.bt_responders
            << " bt_ping responders, " << clean.nz_flows
            << " echo flows (recall denominators).\n\n";

  bench::Figures figures;
  figures.emplace_back("clean_bt_positives",
                       static_cast<double>(clean.bt_positives.size()));
  figures.emplace_back("clean_nz_positives",
                       static_cast<double>(clean.nz_positives.size()));
  figures.emplace_back("clean_bt_responders",
                       static_cast<double>(clean.bt_responders));
  figures.emplace_back("clean_nz_flows",
                       static_cast<double>(clean.nz_flows));

  std::cout << "(a) Per-hop loss sweep, retries off vs on (3 attempts)\n";
  report::Table loss_table({"loss", "retries", "bt recall", "nz recall",
                            "bt responders", "nz flows"});
  const double losses[] = {0.0, 0.01, 0.05, 0.10};
  double bt_ping_5pct[2] = {0, 0};
  double nz_flow_5pct[2] = {0, 0};
  for (double loss : losses) {
    for (int retries = 0; retries <= 1; ++retries) {
      const Cell cell = run_cell(loss, retries != 0, 0.0);
      const double bt_r = recall(cell.bt_positives, clean.bt_positives);
      const double nz_r = recall(cell.nz_positives, clean.nz_positives);
      const double bt_ping_r = ratio(cell.bt_responders, clean.bt_responders);
      const double nz_flow_r = ratio(cell.nz_flows, clean.nz_flows);
      loss_table.add_row({fmt(loss), retries ? "on" : "off", fmt(bt_r),
                          fmt(nz_r), fmt(bt_ping_r), fmt(nz_flow_r)});
      const std::string tag = "loss" +
                              std::to_string(static_cast<int>(loss * 100)) +
                              "_retry" + std::to_string(retries);
      figures.emplace_back("bt_recall_" + tag, bt_r);
      figures.emplace_back("nz_recall_" + tag, nz_r);
      figures.emplace_back("bt_ping_recall_" + tag, bt_ping_r);
      figures.emplace_back("nz_flow_recall_" + tag, nz_flow_r);
      if (loss == 0.05) {
        bt_ping_5pct[retries] = bt_ping_r;
        nz_flow_5pct[retries] = nz_flow_r;
      }
    }
  }
  loss_table.print(std::cout);
  std::cout << "  [recall vs the clean run's positives; responders/flows are\n"
               "   the probe-level measures whose attrition the real tools'\n"
               "   retransmissions kept out of the paper's counts]\n\n";
  figures.emplace_back("bt_retry_gain_at_5pct",
                       bt_ping_5pct[1] - bt_ping_5pct[0]);
  figures.emplace_back("nz_retry_gain_at_5pct",
                       nz_flow_5pct[1] - nz_flow_5pct[0]);

  std::cout << "(b) CGN restart-frequency sweep (clean links, retries off)\n";
  report::Table restart_table(
      {"restart period", "restarts fired", "bt recall", "nz recall"});
  for (double period : {3600.0, 900.0, 300.0}) {
    const Cell cell = run_cell(0.0, false, period);
    const double bt_r = recall(cell.bt_positives, clean.bt_positives);
    const double nz_r = recall(cell.nz_positives, clean.nz_positives);
    restart_table.add_row({fmt(period) + " s",
                           std::to_string(cell.restarts), fmt(bt_r),
                           fmt(nz_r)});
    const std::string tag =
        "restart" + std::to_string(static_cast<int>(period));
    figures.emplace_back("bt_recall_" + tag, bt_r);
    figures.emplace_back("nz_recall_" + tag, nz_r);
    figures.emplace_back("restarts_fired_" + tag,
                         static_cast<double>(cell.restarts));
  }
  restart_table.print(std::cout);
  std::cout << "  [restarts flush translation state mid-campaign: mappings\n"
               "   re-form on fresh ports, stressing both detectors'\n"
               "   address/port-diversity signals]\n";

  bench::write_bench_json("ablation_faults", figures);
  return 0;
}
