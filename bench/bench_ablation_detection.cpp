// Ablation — sensitivity of both detection rules to their thresholds.
//
// The paper fixes two magic numbers and justifies them qualitatively: the
// BitTorrent rule needs >=5 public and >=5 internal IPs in the largest
// cluster ("to address possible misclassifications arising from dynamic
// addressing"), and the Netalyzr rule needs >=0.4*N unique /24s. This
// ablation sweeps both and reports detections and false positives against
// the generator's ground truth — the analysis the paper could not run,
// because the real Internet has no ground truth.
#include <iostream>

#include "bench/common.hpp"
#include "scenario/churn.hpp"

int main() {
  using namespace cgn;
  bench::print_header("Ablation", "detection-threshold sensitivity");

  // Custom pipeline: inject dynamic-addressing churn between swarm phases,
  // so households surface under several public addresses — the very
  // confounder the 5x5 rule guards against.
  auto internet_ptr = scenario::build_internet(scenario::scaled_config());
  auto& internet = *internet_ptr;
  scenario::run_bittorrent_phase(internet);
  scenario::ChurnConfig churn_cfg;
  churn_cfg.events = 2;
  churn_cfg.renumber_fraction = 0.35;
  auto churn = scenario::apply_renumbering_event(internet, churn_cfg);
  std::cout << "Applied " << churn.events_applied
            << " renumbering events: " << churn.lines_renumbered
            << " public lines changed address mid-campaign.\n\n";
  // Another short swarm phase so leaks re-form under the new addresses.
  scenario::BitTorrentPhaseConfig post;
  post.maintenance_rounds = 5;
  post.announce_rounds = 2;
  scenario::run_bittorrent_phase(internet, post);
  auto crawler = scenario::run_crawl_phase(internet);
  const auto& crawl = crawler->dataset();

  scenario::NetalyzrCampaignConfig nz_cfg;
  nz_cfg.enum_fraction = 0.0;
  nz_cfg.stun_fraction = 0.0;
  auto sessions = scenario::run_netalyzr_campaign(internet, nz_cfg);

  std::cout << "(a) BitTorrent cluster rule: require >= K public and >= K "
               "internal IPs\n";
  report::Table bt_table({"K", "positives", "true", "false",
                          "precision"});
  for (std::size_t k : {1u, 2u, 3u, 5u, 8u, 12u}) {
    analysis::BtDetectorConfig cfg;
    cfg.min_cluster_public_ips = k;
    cfg.min_cluster_internal_ips = k;
    auto result = analysis::BtDetector(cfg).analyze(crawl, internet.routes);
    std::size_t tp = 0, fp = 0;
    for (const auto& [asn, v] : result.per_as) {
      if (!v.cgn_positive) continue;
      (internet.truth_has_cgn(asn) ? tp : fp)++;
    }
    bt_table.add_row({std::to_string(k), std::to_string(tp + fp),
                      std::to_string(tp), std::to_string(fp),
                      tp + fp ? report::pct(static_cast<double>(tp) /
                                            static_cast<double>(tp + fp))
                              : "-"});
  }
  bt_table.print(std::cout);
  std::cout << "  [paper's choice: K=5 — the sweep shows where home-NAT\n"
               "   dynamics start polluting the positives]\n\n";

  std::cout << "(b) Netalyzr diversity rule: require >= f*N unique /24s\n";
  report::Table nz_table({"f", "positives", "true", "false", "precision"});
  for (double f : {0.05, 0.1, 0.2, 0.4, 0.6, 0.8}) {
    analysis::NetalyzrDetectorConfig cfg;
    cfg.slash24_diversity_factor = f;
    auto result =
        analysis::NetalyzrDetector(cfg).analyze(sessions,
                                                internet.routes);
    std::size_t tp = 0, fp = 0;
    for (const auto& [asn, v] : result.per_as) {
      if (v.cellular || !v.covered || !v.cgn_positive) continue;
      (internet.truth_has_cgn(asn) ? tp : fp)++;
    }
    nz_table.add_row({report::num(f, 2), std::to_string(tp + fp),
                      std::to_string(tp), std::to_string(fp),
                      tp + fp ? report::pct(static_cast<double>(tp) /
                                            static_cast<double>(tp + fp))
                              : "-"});
  }
  nz_table.print(std::cout);
  std::cout << "  [paper's choice: f=0.4]\n\n";

  std::cout << "(c) Netalyzr candidate-session floor: require N >= n "
               "candidates\n";
  report::Table n_table({"n", "positives", "true", "false", "precision"});
  for (std::size_t n : {3u, 5u, 10u, 15u, 25u}) {
    analysis::NetalyzrDetectorConfig cfg;
    cfg.min_candidate_sessions = n;
    auto result =
        analysis::NetalyzrDetector(cfg).analyze(sessions,
                                                internet.routes);
    std::size_t tp = 0, fp = 0;
    for (const auto& [asn, v] : result.per_as) {
      if (v.cellular || !v.covered || !v.cgn_positive) continue;
      (internet.truth_has_cgn(asn) ? tp : fp)++;
    }
    n_table.add_row({std::to_string(n), std::to_string(tp + fp),
                     std::to_string(tp), std::to_string(fp),
                     tp + fp ? report::pct(static_cast<double>(tp) /
                                           static_cast<double>(tp + fp))
                             : "-"});
  }
  n_table.print(std::cout);
  std::cout << "  [paper's choice: n=10]\n";

  bench::write_bench_json(
      "ablation_detection",
      {{"renumbering_events", static_cast<double>(churn.events_applied)},
       {"lines_renumbered", static_cast<double>(churn.lines_renumbered)},
       {"netalyzr_sessions", static_cast<double>(sessions.size())},
       {"observed_leaks", static_cast<double>(crawl.leaks().size())}});
  return 0;
}
