// Unit tests for cgn::super: wire encoding, checkpoint files, and the
// shard supervisor's retry/quarantine/resume semantics (with
// synthetic shard bodies — the end-to-end campaign coverage lives in
// super_recovery_test.cpp).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <vector>

#include "fault/fault.hpp"
#include "super/checkpoint.hpp"
#include "super/supervisor.hpp"
#include "super/wire.hpp"

namespace cgn::super {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + "cgn_super_" + name;
  std::remove(path.c_str());
  return path;
}

TEST(SuperWire, RoundTripsEveryFieldType) {
  wire::Writer w;
  w.u8(0xab);
  w.u16(0xbeef);
  w.u32(0xdeadbeef);
  w.u64(0x0123456789abcdefull);
  w.f64(-1234.5678901234);
  w.f64(0.1);  // not exactly representable: must round-trip via bit_cast
  w.boolean(true);
  w.boolean(false);
  w.str("hello");
  w.str("");

  wire::Reader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xab);
  EXPECT_EQ(r.u16(), 0xbeef);
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.f64(), -1234.5678901234);
  EXPECT_EQ(r.f64(), 0.1);
  EXPECT_TRUE(r.boolean());
  EXPECT_FALSE(r.boolean());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
}

TEST(SuperWire, TruncatedReadFailsSoftly) {
  wire::Writer w;
  w.u32(7);
  wire::Reader r(w.bytes());
  EXPECT_EQ(r.u32(), 7u);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u64(), 0u);  // overran: zero, never throws
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.done());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(r.str(), "");  // still failed, still soft
}

TEST(SuperWire, OversizedStringLengthDoesNotOverrun) {
  wire::Writer w;
  w.u32(1000);  // length prefix far beyond the buffer
  w.raw("xy", 2);
  wire::Reader r(w.bytes());
  EXPECT_EQ(r.str(), "");
  EXPECT_FALSE(r.ok());
}

CheckpointKey test_key() {
  CheckpointKey key;
  key.kind = "test";
  key.world_seed = 42;
  key.plan_hash = 0xfeed;
  key.shard_count = 8;
  key.payload_version = 1;
  return key;
}

TEST(SuperCheckpoint, RoundTripsRecordsAcrossReopen) {
  const std::string path = temp_path("roundtrip.ckpt");
  {
    CheckpointWriter writer;
    writer.open(path, test_key());
    ASSERT_TRUE(writer.is_open());
    writer.append(3, "three");
    writer.append(5, "five");
  }
  // Reopen with the same key: existing records survive, new ones append.
  {
    CheckpointWriter writer;
    writer.open(path, test_key());
    writer.append(1, "one");
    writer.append(3, "three-rewritten");  // last record wins
  }
  auto restored = load_checkpoint(path, test_key());
  ASSERT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored[1], "one");
  EXPECT_EQ(restored[3], "three-rewritten");
  EXPECT_EQ(restored[5], "five");
}

TEST(SuperCheckpoint, KeyMismatchLoadsNothingAndWriterStartsOver) {
  const std::string path = temp_path("mismatch.ckpt");
  {
    CheckpointWriter writer;
    writer.open(path, test_key());
    writer.append(0, "stale");
  }
  CheckpointKey other = test_key();
  other.world_seed = 43;
  EXPECT_TRUE(load_checkpoint(path, other).empty());

  // Opening with a different key truncates: the stale records are gone
  // even for the original key afterwards.
  {
    CheckpointWriter writer;
    writer.open(path, other);
    writer.append(2, "fresh");
  }
  EXPECT_TRUE(load_checkpoint(path, test_key()).empty());
  auto fresh = load_checkpoint(path, other);
  ASSERT_EQ(fresh.size(), 1u);
  EXPECT_EQ(fresh[2], "fresh");
}

TEST(SuperCheckpoint, CorruptTailKeepsTheValidPrefix) {
  const std::string path = temp_path("corrupt.ckpt");
  {
    CheckpointWriter writer;
    writer.open(path, test_key());
    writer.append(0, "alpha");
    writer.append(1, "beta");
  }
  // Simulate a kill mid-write: a partial record at the tail.
  {
    std::ofstream os(path, std::ios::binary | std::ios::app);
    os.write("\x07\x00\x00\x00garb", 8);
  }
  auto restored = load_checkpoint(path, test_key());
  ASSERT_EQ(restored.size(), 2u);
  EXPECT_EQ(restored[0], "alpha");
  EXPECT_EQ(restored[1], "beta");
}

TEST(SuperCheckpoint, MissingFileLoadsNothing) {
  EXPECT_TRUE(load_checkpoint(temp_path("absent.ckpt"), test_key()).empty());
}

TEST(SuperVisor, CleanRunCompletesEveryShard) {
  std::vector<int> ran(6, 0);
  ShardSupervisor supervisor({});
  const CampaignReport report =
      supervisor.run(ran.size(), [&](std::size_t s) { ran[s]++; }, nullptr, 2);
  EXPECT_EQ(report.count(ShardStatus::completed), 6u);
  EXPECT_EQ(report.finished(), 6u);
  EXPECT_FALSE(report.degraded());
  EXPECT_EQ(report.coverage(), 1.0);
  for (int n : ran) EXPECT_EQ(n, 1);
}

TEST(SuperVisor, RetryRecoversAFlakyShard) {
  std::vector<std::atomic<int>> attempts(4);
  SupervisorConfig cfg;
  cfg.max_attempts = 3;
  ShardSupervisor supervisor(cfg);
  const CampaignReport report = supervisor.run(
      attempts.size(),
      [&](std::size_t s) {
        if (s == 2 && attempts[s].fetch_add(1) < 2)
          throw std::runtime_error("flaky");
        if (s != 2) attempts[s].fetch_add(1);
      },
      nullptr, 1);
  EXPECT_EQ(report.shards[2].status, ShardStatus::recovered);
  EXPECT_EQ(report.shards[2].attempts, 3);
  EXPECT_EQ(report.count(ShardStatus::completed), 3u);
  EXPECT_FALSE(report.degraded());
}

TEST(SuperVisor, ExhaustedBudgetQuarantinesWithoutKillingTheCampaign) {
  SupervisorConfig cfg;
  cfg.max_attempts = 2;
  ShardSupervisor supervisor(cfg);
  std::vector<int> ran(5, 0);
  const CampaignReport report = supervisor.run(
      ran.size(),
      [&](std::size_t s) {
        ran[s]++;
        if (s == 1) throw std::runtime_error("dead shard");
      },
      nullptr, 2);
  EXPECT_EQ(report.shards[1].status, ShardStatus::quarantined);
  EXPECT_EQ(report.shards[1].attempts, 2);
  EXPECT_EQ(report.shards[1].error, "dead shard");
  EXPECT_TRUE(report.degraded());
  EXPECT_EQ(report.finished(), 4u);
  EXPECT_DOUBLE_EQ(report.coverage(), 0.8);
  EXPECT_EQ(ran[1], 2);  // budget spent
  for (std::size_t s = 0; s < ran.size(); ++s) {
    if (s != 1) {
      EXPECT_EQ(ran[s], 1) << "shard " << s;
    }
  }
}

TEST(SuperVisor, QuarantineOffRestoresAllOrNothing) {
  SupervisorConfig cfg;
  cfg.quarantine = false;
  ShardSupervisor supervisor(cfg);
  try {
    (void)supervisor.run(
        4,
        [&](std::size_t s) {
          if (s == 1 || s == 3)
            throw std::runtime_error("boom " + std::to_string(s));
        },
        nullptr, 1);
    FAIL() << "expected an aggregate error";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("2 of 4 shards failed"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 1"), std::string::npos) << what;
    EXPECT_NE(what.find("shard 3"), std::string::npos) << what;
  }
}

TEST(SuperVisor, InjectedCrashesAreThreadCountInvariant) {
  fault::FaultPlan plan;
  plan.shards.crash_rate = 0.5;
  const fault::FaultInjector injector(plan);

  auto run = [&](std::size_t threads) {
    SupervisorConfig cfg;
    cfg.max_attempts = 2;
    cfg.faults = &injector;
    cfg.salt = 7;
    ShardSupervisor supervisor(cfg);
    return supervisor.run(16, [](std::size_t) {}, nullptr, threads);
  };
  const CampaignReport serial = run(1);
  const CampaignReport parallel = run(4);

  // The crash pattern is a pure function of (plan seed, salt, shard,
  // attempt): both worker counts must classify every shard identically.
  std::size_t crashed_once = 0, quarantined = 0;
  for (std::size_t s = 0; s < serial.shards.size(); ++s) {
    EXPECT_EQ(serial.shards[s].status, parallel.shards[s].status)
        << "shard " << s;
    EXPECT_EQ(serial.shards[s].attempts, parallel.shards[s].attempts)
        << "shard " << s;
    crashed_once += serial.shards[s].status == ShardStatus::recovered;
    quarantined += serial.shards[s].status == ShardStatus::quarantined;
  }
  // With rate 0.5 over 16 shards the sweep must exercise every outcome.
  EXPECT_GT(crashed_once + quarantined, 0u);
  EXPECT_LT(quarantined, serial.shards.size());
}

TEST(SuperVisor, ShardCrashIsAPureFunction) {
  fault::FaultPlan plan;
  plan.shards.crash_rate = 0.4;
  const fault::FaultInjector a(plan);
  const fault::FaultInjector b(plan);
  bool any_crash = false, any_survive = false;
  for (std::uint64_t shard = 0; shard < 64; ++shard)
    for (int attempt = 1; attempt <= 3; ++attempt) {
      const bool crash = a.shard_crash(3, shard, attempt);
      EXPECT_EQ(crash, b.shard_crash(3, shard, attempt));
      EXPECT_EQ(crash, a.shard_crash(3, shard, attempt));  // repeatable
      any_crash |= crash;
      any_survive |= !crash;
    }
  EXPECT_TRUE(any_crash);
  EXPECT_TRUE(any_survive);
  // Distinct campaign salts see distinct crash patterns.
  bool differs = false;
  for (std::uint64_t shard = 0; shard < 64 && !differs; ++shard)
    differs = a.shard_crash(3, shard, 1) != a.shard_crash(4, shard, 1);
  EXPECT_TRUE(differs);
}

TEST(SuperVisor, AbortAfterShardsThrowsAndResumeCompletesTheRest) {
  const std::string path = temp_path("resume.ckpt");
  std::vector<std::uint64_t> values(6, 0);
  std::vector<int> executions(6, 0);

  ShardCodec codec;
  codec.encode = [&](std::size_t s) {
    wire::Writer w;
    w.u64(values[s]);
    return w.take();
  };
  codec.decode = [&](std::size_t s, std::string_view payload) {
    wire::Reader r(payload);
    const std::uint64_t v = r.u64();
    if (!r.done()) return false;
    values[s] = v;
    return true;
  };

  SupervisorConfig cfg;
  cfg.checkpoint_path = path;
  cfg.campaign_kind = "unit";
  cfg.world_seed = 99;
  auto shard_fn = [&](std::size_t s) {
    executions[s]++;
    values[s] = s * s + 1;
  };

  {
    SupervisorConfig kill = cfg;
    kill.abort_after_shards = 2;
    ShardSupervisor supervisor(kill);
    EXPECT_THROW((void)supervisor.run(6, shard_fn, &codec, 1),
                 CampaignAborted);
  }
  // Serial order: shards 0 and 1 finished and were checkpointed.
  EXPECT_EQ(executions[0], 1);
  EXPECT_EQ(executions[1], 1);
  EXPECT_EQ(executions[5], 0);

  std::fill(values.begin(), values.end(), 0);  // "process restart"
  ShardSupervisor supervisor(cfg);
  const CampaignReport report = supervisor.run(6, shard_fn, &codec, 1);
  EXPECT_EQ(report.count(ShardStatus::resumed), 2u);
  EXPECT_EQ(report.count(ShardStatus::completed), 4u);
  EXPECT_FALSE(report.degraded());
  for (std::size_t s = 0; s < values.size(); ++s)
    EXPECT_EQ(values[s], s * s + 1) << "shard " << s;
  // Resumed shards were restored, not re-run.
  EXPECT_EQ(executions[0], 1);
  EXPECT_EQ(executions[1], 1);
  EXPECT_EQ(executions[5], 1);
}

TEST(SuperVisor, RejectedPayloadFallsBackToARun) {
  const std::string path = temp_path("reject.ckpt");
  std::vector<int> ran(3, 0);
  ShardCodec codec;
  codec.encode = [](std::size_t) { return std::string("v1"); };
  codec.decode = [](std::size_t, std::string_view) {
    return false;  // schema changed under us: force re-runs
  };
  SupervisorConfig cfg;
  cfg.checkpoint_path = path;
  {
    ShardSupervisor supervisor(cfg);
    (void)supervisor.run(3, [&](std::size_t s) { ran[s]++; }, &codec, 1);
  }
  ShardSupervisor supervisor(cfg);
  const CampaignReport report =
      supervisor.run(3, [&](std::size_t s) { ran[s]++; }, &codec, 1);
  EXPECT_EQ(report.count(ShardStatus::resumed), 0u);
  EXPECT_EQ(report.count(ShardStatus::completed), 3u);
  for (int n : ran) EXPECT_EQ(n, 2);
}

TEST(SuperVisor, EmptyCampaignIsTriviallyComplete) {
  ShardSupervisor supervisor({});
  const CampaignReport report =
      supervisor.run(0, [](std::size_t) { FAIL(); }, nullptr, 4);
  EXPECT_EQ(report.planned(), 0u);
  EXPECT_EQ(report.coverage(), 1.0);
  EXPECT_FALSE(report.degraded());
}

}  // namespace
}  // namespace cgn::super
