// End-to-end fault injection through the campaign drivers: impaired runs
// must stay thread-count invariant (faults fire identically for any worker
// count), deaf peers must depress bt_ping recall, and the retry/backoff
// policy must measurably recover detections under loss.
#include <gtest/gtest.h>

#include <memory>

#include "analysis/bt_detector.hpp"
#include "fault/fault.hpp"
#include "netalyzr/session.hpp"
#include "scenario/campaign.hpp"
#include "scenario/internet.hpp"

namespace cgn::scenario {
namespace {

InternetConfig tiny_config() {
  InternetConfig cfg;
  cfg.seed = 11;
  cfg.routed_ases = 240;
  cfg.pbl_eyeballs = 46;
  cfg.apnic_eyeballs = 50;
  cfg.cellular_ases = 8;
  cfg.nz_eyeball_coverage = 0.6;
  cfg.nz_sessions_lo = 6;
  cfg.nz_sessions_hi = 14;
  return cfg;
}

fault::FaultPlan stormy_plan() {
  fault::FaultPlan plan;
  plan.link.loss_rate = 0.02;
  plan.link.duplication_rate = 0.01;
  plan.peers.unresponsive_fraction = 0.10;
  plan.nat.restart_period_s = 900.0;
  return plan;
}

TEST(FaultCampaign, InjectorAttachedOnlyWhenPlanActive) {
  auto clean = build_internet(tiny_config());
  EXPECT_EQ(clean->net.fault_injector(), nullptr);

  InternetConfig cfg = tiny_config();
  cfg.fault_plan.link.loss_rate = 0.01;
  auto faulty = build_internet(cfg);
  ASSERT_NE(faulty->net.fault_injector(), nullptr);
  EXPECT_TRUE(faulty->net.fault_injector()->active());
}

TEST(FaultCampaign, DeafPeersAreMarkedAndDepressRecall) {
  InternetConfig cfg = tiny_config();
  cfg.fault_plan.peers.unresponsive_fraction = 0.5;
  auto internet = build_internet(cfg);
  ASSERT_GT(internet->net.fault_injector()->unresponsive_count(), 0u);

  run_bittorrent_phase(*internet);
  auto crawler = run_crawl_phase(*internet);
  const std::size_t faulted_responding =
      crawler->dataset().responding_peers();

  auto clean = build_internet(tiny_config());
  run_bittorrent_phase(*clean);
  auto clean_crawler = run_crawl_phase(*clean);
  ASSERT_GT(clean_crawler->dataset().responding_peers(), 0u);
  EXPECT_LT(faulted_responding, clean_crawler->dataset().responding_peers());
}

TEST(FaultCampaign, FaultedNetalyzrIsThreadCountInvariant) {
  auto run = [&](std::size_t threads) {
    InternetConfig cfg = tiny_config();
    cfg.fault_plan = stormy_plan();
    auto internet = build_internet(cfg);
    NetalyzrCampaignConfig nz;
    nz.enum_fraction = 0.5;
    nz.stun_fraction = 0.5;
    nz.threads = threads;
    nz.retry.attempts = 3;
    nz.retry.base_backoff_s = 2.0;
    const auto sessions = run_netalyzr_campaign(*internet, nz);
    return std::pair{netalyzr::fingerprint(sessions), sessions.size()};
  };
  const auto serial = run(1);
  ASSERT_GT(serial.second, 50u);
  const auto parallel = run(4);
  EXPECT_EQ(parallel.second, serial.second);
  EXPECT_EQ(parallel.first, serial.first)
      << "4 workers produced different sessions under an active fault plan";
}

TEST(FaultCampaign, FaultedCrawlSweepIsThreadCountInvariant) {
  auto run = [&](std::size_t threads) {
    InternetConfig cfg = tiny_config();
    cfg.fault_plan = stormy_plan();
    auto internet = build_internet(cfg);
    run_bittorrent_phase(*internet);
    CrawlPhaseConfig crawl;
    crawl.threads = threads;
    crawl.crawl.retry.attempts = 2;
    auto crawler = run_crawl_phase(*internet, crawl);
    struct Out {
      std::size_t learned, responding, responding_ips;
      std::uint64_t pings;
    } out{crawler->dataset().learned_peers(),
          crawler->dataset().responding_peers(),
          analysis::BtDetector()
              .analyze(crawler->dataset(), internet->routes)
              .summary.responding_unique_ips,
          crawler->stats().pings_sent};
    return out;
  };
  const auto serial = run(1);
  ASSERT_GT(serial.responding, 0u);
  const auto parallel = run(4);
  EXPECT_EQ(parallel.learned, serial.learned);
  EXPECT_EQ(parallel.responding, serial.responding);
  EXPECT_EQ(parallel.responding_ips, serial.responding_ips);
  EXPECT_EQ(parallel.pings, serial.pings);
}

TEST(FaultCampaign, RetriesRecoverPingRecallUnderLoss) {
  auto run = [&](int attempts) {
    InternetConfig cfg = tiny_config();
    cfg.fault_plan.link.loss_rate = 0.05;
    auto internet = build_internet(cfg);
    run_bittorrent_phase(*internet);
    CrawlPhaseConfig crawl;
    crawl.crawl.retry.attempts = attempts;
    auto crawler = run_crawl_phase(*internet, crawl);
    return crawler->dataset().responding_peers();
  };
  const std::size_t without = run(1);
  const std::size_t with = run(3);
  EXPECT_GT(with, without)
      << "3-attempt retry policy failed to recover responders at 5% loss";
}

}  // namespace
}  // namespace cgn::scenario
