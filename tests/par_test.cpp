// cgn::par — deterministic shard execution, RNG substreams, thread-scoped
// clocks and metric-slot isolation.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "sim/clock.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "test_metrics.hpp"

namespace cgn {
namespace {

TEST(RunShards, ExecutesEveryShardExactlyOnce) {
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    std::vector<std::atomic<int>> hits(23);
    par::run_shards(
        hits.size(), [&](std::size_t s) { hits[s].fetch_add(1); }, threads);
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(RunShards, ZeroShardsIsANoop) {
  par::run_shards(0, [](std::size_t) { FAIL(); }, 4);
}

TEST(RunShards, SingleWorkerRunsInlineOnTheCallingThread) {
  const auto caller = std::this_thread::get_id();
  par::run_shards(
      5, [&](std::size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); },
      1);
}

TEST(RunShards, DynamicAssignmentUsesValidDistinctSlots) {
  // Shards are claimed from a self-scheduling queue, so which worker runs
  // a shard is a scheduling accident — but every shard must observe a
  // valid metric slot in [0, workers] (caller lane 0 keeps slot 0, pool
  // worker w holds slot w+1), and a shard runs exactly once.
  constexpr std::size_t kWorkers = 4;
  std::vector<std::atomic<int>> hits(17);
  std::vector<std::size_t> slot_of(hits.size(), ~std::size_t{0});
  par::run_shards(
      hits.size(),
      [&](std::size_t s) {
        hits[s].fetch_add(1);
        slot_of[s] = obs::thread_slot();
      },
      kWorkers);
  for (std::size_t s = 0; s < hits.size(); ++s) {
    EXPECT_EQ(hits[s].load(), 1) << "shard " << s;
    EXPECT_LE(slot_of[s], kWorkers) << "shard " << s;
  }
}

TEST(RunShards, OversubscribedFewShardsManyWorkers) {
  // shard_count < workers: the pool caps its lanes at the shard count and
  // the surplus workers claim nothing.
  std::vector<std::atomic<int>> hits(3);
  par::run_shards(
      hits.size(), [&](std::size_t s) { hits[s].fetch_add(1); }, 16);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunShards, OversubscribedManyShardsFewWorkers) {
  // shard_count >> workers: the queue drains completely and exactly once
  // even when every worker loops through dozens of claims.
  std::vector<std::atomic<int>> hits(257);
  par::run_shards(
      hits.size(), [&](std::size_t s) { hits[s].fetch_add(1); }, 2);
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(RunShards, PersistentPoolIsReusedAcrossCampaigns) {
  // Back-to-back fan-outs at the same worker count must not spawn new
  // threads: the pool parks between jobs and wakes for the next one.
  par::run_shards(8, [](std::size_t) {}, 4);
  const std::size_t after_first = par::pool_thread_count();
  EXPECT_GE(after_first, 3u);  // workers - 1 pool lanes (caller is lane 0)
  for (int i = 0; i < 5; ++i) par::run_shards(8, [](std::size_t) {}, 4);
  EXPECT_EQ(par::pool_thread_count(), after_first);
  // A wider campaign may grow the pool; a narrower one never shrinks it.
  par::run_shards(8, [](std::size_t) {}, 2);
  EXPECT_EQ(par::pool_thread_count(), after_first);
}

TEST(RunShards, NestedFanOutRunsInline) {
  // run_shards from inside a pool worker must not deadlock waiting for
  // the (busy) pool: the nested call runs inline on the worker.
  std::vector<std::atomic<int>> inner_hits(6);
  par::run_shards(
      4,
      [&](std::size_t) {
        par::run_shards(
            inner_hits.size(),
            [&](std::size_t i) { inner_hits[i].fetch_add(1); }, 4);
      },
      4);
  for (auto& h : inner_hits) EXPECT_EQ(h.load(), 4);
}

TEST(ConfiguredThreads, ReadsAndClampsEnvironment) {
  ASSERT_EQ(unsetenv("CGN_THREADS"), 0);
  EXPECT_EQ(par::configured_threads(), 1u);
  ASSERT_EQ(setenv("CGN_THREADS", "4", 1), 0);
  EXPECT_EQ(par::configured_threads(), 4u);
  ASSERT_EQ(setenv("CGN_THREADS", "0", 1), 0);
  EXPECT_EQ(par::configured_threads(), 1u);
  ASSERT_EQ(setenv("CGN_THREADS", "9999", 1), 0);
  EXPECT_EQ(par::configured_threads(), obs::kMaxThreadSlots - 1);
  ASSERT_EQ(setenv("CGN_THREADS", "garbage", 1), 0);
  EXPECT_EQ(par::configured_threads(), 1u);
  // Trailing garbage must reject the whole value, not strtoul's prefix:
  // "4x" used to silently run 4 workers.
  ASSERT_EQ(setenv("CGN_THREADS", "4x", 1), 0);
  EXPECT_EQ(par::configured_threads(), 1u);
  ASSERT_EQ(setenv("CGN_THREADS", "-2", 1), 0);
  EXPECT_EQ(par::configured_threads(), 1u);
  ASSERT_EQ(setenv("CGN_THREADS", "+4", 1), 0);
  EXPECT_EQ(par::configured_threads(), 1u);
  ASSERT_EQ(setenv("CGN_THREADS", " 4", 1), 0);
  EXPECT_EQ(par::configured_threads(), 1u);
  ASSERT_EQ(unsetenv("CGN_THREADS"), 0);
}

TEST(RngFork, SubstreamDependsOnlyOnSeedAndShard) {
  // Deriving shard 5's stream must give the same values no matter how many
  // other shards were derived first (static fork consumes no state).
  auto first_draws = [](sim::Rng rng) {
    std::vector<std::uint64_t> out;
    for (int i = 0; i < 8; ++i) out.push_back(rng.uniform(0, ~0ull - 1));
    return out;
  };
  const auto direct = first_draws(sim::Rng::fork(99, 5));
  for (std::uint64_t other = 0; other < 10; ++other)
    (void)sim::Rng::fork(99, other);
  EXPECT_EQ(first_draws(sim::Rng::fork(99, 5)), direct);
  EXPECT_NE(first_draws(sim::Rng::fork(99, 6)), direct);
  EXPECT_NE(first_draws(sim::Rng::fork(100, 5)), direct);
}

TEST(ThreadClockScope, OverridesAndNests) {
  sim::Clock global;
  sim::Network net(global);
  global.advance(100);
  EXPECT_EQ(net.clock().now(), 100.0);
  {
    sim::Clock shard;
    shard.set(500);
    sim::ThreadClockScope outer(shard);
    EXPECT_EQ(net.clock().now(), 500.0);
    {
      sim::Clock inner_clock;
      inner_clock.set(900);
      sim::ThreadClockScope inner(inner_clock);
      EXPECT_EQ(net.clock().now(), 900.0);
    }
    EXPECT_EQ(net.clock().now(), 500.0);
  }
  EXPECT_EQ(net.clock().now(), 100.0);
  EXPECT_EQ(sim::ThreadClockScope::current(), nullptr);
}

TEST(ThreadClockScope, IsThreadLocal) {
  sim::Clock shard;
  shard.set(42);
  sim::ThreadClockScope scope(shard);
  std::thread([] {
    EXPECT_EQ(sim::ThreadClockScope::current(), nullptr);
  }).join();
}

TEST(MetricSlots, WorkerIncrementsMergeExactly) {
  CGN_SKIP_IF_METRICS_DISABLED();
  obs::Counter& c = obs::counter("par_test.merge_counter");
  const std::uint64_t before = c.value();
  par::run_shards(
      12, [&](std::size_t s) { c.inc(s + 1); }, 4);
  // 1 + 2 + ... + 12, regardless of which slot each increment landed in.
  EXPECT_EQ(c.value() - before, 78u);
}

}  // namespace
}  // namespace cgn
