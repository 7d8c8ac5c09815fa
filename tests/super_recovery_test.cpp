// Kill → resume differential tests over the real campaign drivers: a
// campaign aborted mid-flight and resumed from its checkpoint must produce
// byte-identical results to an uninterrupted run, for any worker count,
// with or without an active fault plan. This is the CI `recovery` stage
// (scripts/check.sh runs ctest -R 'SuperRecovery').
#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "analysis/bt_detector.hpp"
#include "fault/fault.hpp"
#include "netalyzr/session.hpp"
#include "scenario/campaign.hpp"
#include "scenario/internet.hpp"
#include "super/supervisor.hpp"
#include "test_temp.hpp"

namespace cgn::scenario {
namespace {

using test::temp_path;

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

/// The storm every resilient pipeline must shrug off: packet faults plus
/// crashing campaign workers.
fault::FaultPlan stormy_crashy_plan() {
  fault::FaultPlan plan;
  plan.link.loss_rate = 0.02;
  plan.link.duplication_rate = 0.01;
  plan.peers.unresponsive_fraction = 0.10;
  plan.shards.crash_rate = 0.25;
  return plan;
}

struct NetalyzrRun {
  std::uint64_t fingerprint = 0;
  std::size_t sessions = 0;
  double final_time = 0.0;
  super::CampaignReport report;
};

NetalyzrRun run_netalyzr(const InternetConfig& world,
                         const super::SupervisorConfig& supervise,
                         std::size_t threads) {
  auto internet = build_internet(world);
  NetalyzrCampaignConfig cfg;
  cfg.enum_fraction = 0.5;
  cfg.stun_fraction = 0.5;
  cfg.threads = threads;
  cfg.supervise = supervise;
  NetalyzrRun run;
  const auto sessions = run_netalyzr_campaign(*internet, cfg, &run.report);
  run.fingerprint = netalyzr::fingerprint(sessions);
  run.sessions = sessions.size();
  run.final_time = internet->clock.now();
  return run;
}

void expect_kill_resume_identical(const InternetConfig& world,
                                  const super::SupervisorConfig& supervise,
                                  std::size_t threads,
                                  const std::string& tag) {
  const NetalyzrRun uninterrupted = run_netalyzr(world, supervise, threads);
  ASSERT_GT(uninterrupted.sessions, 50u);

  super::SupervisorConfig ckpt = supervise;
  ckpt.checkpoint_path = temp_path(tag + ".ckpt");

  // Kill the campaign once roughly half its shards have checkpointed;
  // "process death" is modelled by discarding the whole Internet.
  super::SupervisorConfig kill = ckpt;
  kill.abort_after_shards = uninterrupted.report.planned() / 2;
  ASSERT_GT(kill.abort_after_shards, 0u);
  EXPECT_THROW((void)run_netalyzr(world, kill, threads),
               super::CampaignAborted);

  // Resume on a freshly built world: checkpointed shards restore, the
  // rest run — and every figure matches the uninterrupted run exactly.
  const NetalyzrRun resumed = run_netalyzr(world, ckpt, threads);
  EXPECT_GE(resumed.report.count(super::ShardStatus::resumed), 1u);
  EXPECT_EQ(resumed.sessions, uninterrupted.sessions);
  EXPECT_EQ(resumed.fingerprint, uninterrupted.fingerprint)
      << tag << ": resumed campaign diverged from the uninterrupted run";
  EXPECT_EQ(resumed.final_time, uninterrupted.final_time);
}

TEST(SuperRecovery, NetalyzrKillResumeIsByteIdenticalSerial) {
  expect_kill_resume_identical(tiny_config(), {}, 1, "nz_serial");
}

TEST(SuperRecovery, NetalyzrKillResumeIsByteIdenticalFourWorkers) {
  expect_kill_resume_identical(tiny_config(), {}, 4, "nz_par");
}

TEST(SuperRecovery, KillResumeSurvivesAnActiveFaultPlan) {
  InternetConfig cfg = tiny_config();
  cfg.fault_plan = stormy_crashy_plan();
  super::SupervisorConfig supervise;
  supervise.max_attempts = 4;  // ride out injected worker crashes
  expect_kill_resume_identical(cfg, supervise, 1, "nz_storm_serial");
  expect_kill_resume_identical(cfg, supervise, 4, "nz_storm_par");
}

struct CrawlRun {
  std::size_t learned = 0;
  std::size_t responding = 0;
  std::size_t responding_ips = 0;
  std::uint64_t pings_sent = 0;
  double final_time = 0.0;
  super::CampaignReport report;
};

CrawlRun run_crawl(const InternetConfig& world,
                   const super::SupervisorConfig& supervise,
                   std::size_t threads) {
  auto internet = build_internet(world);
  run_bittorrent_phase(*internet);
  CrawlPhaseConfig cfg;
  cfg.threads = threads;
  cfg.supervise = supervise;
  CrawlRun run;
  auto crawler = run_crawl_phase(*internet, cfg, &run.report);
  run.learned = crawler->dataset().learned_peers();
  run.responding = crawler->dataset().responding_peers();
  run.responding_ips = analysis::BtDetector()
                           .analyze(crawler->dataset(), internet->routes)
                           .summary.responding_unique_ips;
  run.pings_sent = crawler->stats().pings_sent;
  run.final_time = internet->clock.now();
  return run;
}

TEST(SuperRecovery, CrawlPingSweepKillResumeIsByteIdentical) {
  const CrawlRun uninterrupted = run_crawl(tiny_config(), {}, 1);
  ASSERT_GT(uninterrupted.responding, 0u);

  super::SupervisorConfig ckpt;
  ckpt.checkpoint_path = temp_path("crawl.ckpt");
  super::SupervisorConfig kill = ckpt;
  kill.abort_after_shards = uninterrupted.report.planned() / 2;
  ASSERT_GT(kill.abort_after_shards, 0u);
  EXPECT_THROW((void)run_crawl(tiny_config(), kill, 1),
               super::CampaignAborted);

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    // Both worker counts resume from the same checkpoint file; records
    // keyed by shard make the restore order-independent.
    const CrawlRun resumed = run_crawl(tiny_config(), ckpt, threads);
    EXPECT_GE(resumed.report.count(super::ShardStatus::resumed), 1u);
    EXPECT_EQ(resumed.learned, uninterrupted.learned) << threads;
    EXPECT_EQ(resumed.responding, uninterrupted.responding) << threads;
    EXPECT_EQ(resumed.responding_ips, uninterrupted.responding_ips)
        << threads;
    EXPECT_EQ(resumed.pings_sent, uninterrupted.pings_sent) << threads;
    EXPECT_EQ(resumed.final_time, uninterrupted.final_time) << threads;
  }
}

TEST(SuperRecovery, QuarantineDegradesCoverageInsteadOfAborting) {
  InternetConfig cfg = tiny_config();
  cfg.fault_plan.shards.crash_rate = 0.6;

  auto run = [&](std::size_t threads) {
    return run_netalyzr(cfg, {}, threads);  // single attempt: no recovery
  };
  const NetalyzrRun serial = run(1);
  // Heavy crash rate with no retry budget: the campaign still completes,
  // with the lost shards reported rather than fatal.
  EXPECT_TRUE(serial.report.degraded());
  EXPECT_GT(serial.report.count(super::ShardStatus::quarantined), 0u);
  EXPECT_LT(serial.report.coverage(), 1.0);
  EXPECT_GT(serial.report.coverage(), 0.0);
  EXPECT_GT(serial.sessions, 0u);

  const NetalyzrRun parallel = run(4);
  EXPECT_EQ(parallel.fingerprint, serial.fingerprint);
  EXPECT_EQ(parallel.sessions, serial.sessions);
  for (std::size_t s = 0; s < serial.report.planned(); ++s)
    EXPECT_EQ(parallel.report.shards[s].status, serial.report.shards[s].status)
        << "shard " << s;
}

TEST(SuperRecovery, RetriesRecoverCrashedShardsDeterministically) {
  InternetConfig cfg = tiny_config();
  cfg.fault_plan.shards.crash_rate = 0.4;
  super::SupervisorConfig supervise;
  supervise.max_attempts = 6;

  const NetalyzrRun supervised = run_netalyzr(cfg, supervise, 1);
  EXPECT_GT(supervised.report.count(super::ShardStatus::recovered), 0u);
  EXPECT_FALSE(supervised.report.degraded());

  // A recovered campaign equals the one where nothing ever crashed: the
  // crash layer is orthogonal to the measurement itself. The no-crash
  // world keeps the same fault seed but an *inactive* plan.
  InternetConfig calm = tiny_config();
  const NetalyzrRun plain = run_netalyzr(calm, {}, 1);
  EXPECT_EQ(supervised.fingerprint, plain.fingerprint);
  EXPECT_EQ(supervised.sessions, plain.sessions);
  EXPECT_EQ(supervised.final_time, plain.final_time);
}

TEST(SuperRecovery, SupervisedCleanRunMatchesPlainRun) {
  const NetalyzrRun plain = run_netalyzr(tiny_config(), {}, 1);

  super::SupervisorConfig supervise;
  supervise.max_attempts = 3;
  supervise.checkpoint_path = temp_path("clean.ckpt");
  const NetalyzrRun supervised = run_netalyzr(tiny_config(), supervise, 1);

  EXPECT_EQ(supervised.fingerprint, plain.fingerprint);
  EXPECT_EQ(supervised.sessions, plain.sessions);
  EXPECT_EQ(supervised.final_time, plain.final_time);
  EXPECT_EQ(supervised.report.count(super::ShardStatus::completed),
            supervised.report.planned());
}

}  // namespace
}  // namespace cgn::scenario
