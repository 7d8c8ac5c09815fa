// Thread-count invariance of the sharded campaign drivers: an N-worker run
// must produce bit-identical results and metric totals to the serial run of
// the same world (see cgn::par).
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "analysis/bt_detector.hpp"
#include "fault/fault.hpp"
#include "netalyzr/session.hpp"
#include "obs/metrics.hpp"
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

struct NetalyzrRun {
  std::uint64_t fingerprint = 0;
  std::uint64_t sessions = 0;
  std::uint64_t mappings_created = 0;
  double final_time = 0.0;
};

NetalyzrRun run_netalyzr(std::size_t threads, bool stormy = false) {
  InternetConfig icfg = tiny_config();
  if (stormy) {
    // Faults stress the scheduler: retries and restarts skew per-shard
    // runtimes, so the self-scheduling queue actually redistributes
    // ("steals") shards instead of degenerating to round-robin.
    icfg.fault_plan.link.loss_rate = 0.02;
    icfg.fault_plan.link.duplication_rate = 0.01;
    icfg.fault_plan.peers.unresponsive_fraction = 0.10;
    icfg.fault_plan.nat.restart_period_s = 900.0;
  }
  auto internet = build_internet(icfg);
  NetalyzrCampaignConfig cfg;
  cfg.enum_fraction = 0.5;
  cfg.stun_fraction = 0.5;
  cfg.threads = threads;
  obs::Counter& created = obs::counter("nat.mappings_created");
  const std::uint64_t before = created.value();
  const auto sessions = run_netalyzr_campaign(*internet, cfg);
  NetalyzrRun run;
  run.fingerprint = netalyzr::fingerprint(sessions);
  run.sessions = sessions.size();
  run.mappings_created = created.value() - before;
  run.final_time = internet->clock.now();
  return run;
}

TEST(CampaignParallel, NetalyzrResultsAreThreadCountInvariant) {
  const NetalyzrRun serial = run_netalyzr(1);
  ASSERT_GT(serial.sessions, 50u);

  for (std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const NetalyzrRun parallel = run_netalyzr(threads);
    EXPECT_EQ(parallel.sessions, serial.sessions) << threads << " workers";
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint)
        << threads << " workers produced different session results";
    EXPECT_EQ(parallel.mappings_created, serial.mappings_created)
        << threads << " workers";
    EXPECT_EQ(parallel.final_time, serial.final_time) << threads << " workers";
  }
}

TEST(CampaignParallel, StolenShardsStayDeterministicUnderFaults) {
  // A stormy fault plan makes shard runtimes uneven, so dynamic claiming
  // actually moves shards between workers — results must still be
  // bit-identical at 1/2/4/8 workers because every shard's randomness,
  // clock and fault substreams key off the shard id, never the worker.
  const NetalyzrRun serial = run_netalyzr(1, /*stormy=*/true);
  ASSERT_GT(serial.sessions, 50u);

  for (std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
    const NetalyzrRun parallel = run_netalyzr(threads, /*stormy=*/true);
    EXPECT_EQ(parallel.fingerprint, serial.fingerprint)
        << threads << " workers diverged under the stormy fault plan";
    EXPECT_EQ(parallel.sessions, serial.sessions) << threads << " workers";
    EXPECT_EQ(parallel.mappings_created, serial.mappings_created)
        << threads << " workers";
    EXPECT_EQ(parallel.final_time, serial.final_time) << threads << " workers";
  }
}

struct CrawlRun {
  std::size_t learned = 0;
  std::size_t queried = 0;
  std::size_t responding = 0;
  std::size_t responding_ips = 0;
  std::size_t leaks = 0;
  std::uint64_t pings_sent = 0;
};

CrawlRun run_crawl(std::size_t threads) {
  auto internet = build_internet(tiny_config());
  run_bittorrent_phase(*internet);
  CrawlPhaseConfig cfg;
  cfg.threads = threads;
  auto crawler = run_crawl_phase(*internet, cfg);
  CrawlRun run;
  run.learned = crawler->dataset().learned_peers();
  run.queried = crawler->dataset().queried_peers();
  run.responding = crawler->dataset().responding_peers();
  run.responding_ips = analysis::BtDetector()
                           .analyze(crawler->dataset(), internet->routes)
                           .summary.responding_unique_ips;
  run.leaks = crawler->dataset().leaks().size();
  run.pings_sent = crawler->stats().pings_sent;
  return run;
}

TEST(CampaignParallel, CrawlPingSweepIsThreadCountInvariant) {
  const CrawlRun serial = run_crawl(1);
  ASSERT_GT(serial.learned, 0u);
  ASSERT_GT(serial.responding, 0u);

  const CrawlRun parallel = run_crawl(4);
  EXPECT_EQ(parallel.learned, serial.learned);
  EXPECT_EQ(parallel.queried, serial.queried);
  EXPECT_EQ(parallel.responding, serial.responding);
  EXPECT_EQ(parallel.responding_ips, serial.responding_ips);
  EXPECT_EQ(parallel.leaks, serial.leaks);
  EXPECT_EQ(parallel.pings_sent, serial.pings_sent);
}

}  // namespace
}  // namespace cgn::scenario
