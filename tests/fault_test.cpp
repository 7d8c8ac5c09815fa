// cgn::fault unit coverage: plan hashing, retry_loop semantics, substream
// determinism, and the sim::Network injection hooks (loss, duplication,
// unresponsive endpoints) including their hop-trace and stats accounting.
#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "fault/retry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/network.hpp"

namespace cgn::fault {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;

TEST(FaultPlan, DefaultPlanIsInactive) {
  FaultPlan plan;
  EXPECT_FALSE(plan.active());
}

TEST(FaultPlan, AnyImpairmentActivates) {
  FaultPlan plan;
  plan.link.loss_rate = 0.01;
  EXPECT_TRUE(plan.active());
  plan = {};
  plan.nat.restart_period_s = 600.0;
  EXPECT_TRUE(plan.active());
  plan = {};
  plan.peers.unresponsive_fraction = 0.5;
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlan, HashIsStableAndSensitive) {
  FaultPlan a;
  FaultPlan b;
  EXPECT_EQ(a.hash(), b.hash());
  b.link.loss_rate = 0.05;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(FaultPlan, DefaultHashMatchesRecordedBaselines) {
  // bench/baselines/*.json record this value as fault_plan_hash, and every
  // checkpoint key binds to it: describe() must keep rendering the default
  // plan byte for byte, removed fields included.
  EXPECT_EQ(FaultPlan{}.hash(), 0x1fd2b35dde680031ull);
}

TEST(FaultInjector, SubstreamDependsOnlyOnSaltAndShard) {
  FaultPlan plan;
  plan.link.loss_rate = 0.5;
  FaultInjector x(plan);
  FaultInjector y(plan);
  sim::Rng a = x.substream(kSaltPingSweep, 7);
  sim::Rng b = y.substream(kSaltPingSweep, 7);
  for (int i = 0; i < 64; ++i) EXPECT_EQ(a.engine()(), b.engine()());
  sim::Rng c = x.substream(kSaltPingSweep, 8);
  sim::Rng d = x.substream(kSaltNetalyzr, 7);
  bool differs_shard = false, differs_salt = false;
  sim::Rng e = x.substream(kSaltPingSweep, 7);
  for (int i = 0; i < 64; ++i) {
    const auto ref = e.engine()();
    differs_shard |= c.engine()() != ref;
    differs_salt |= d.engine()() != ref;
  }
  EXPECT_TRUE(differs_shard);
  EXPECT_TRUE(differs_salt);
}

TEST(FaultInjector, StreamScopeMakesDecisionsShardKeyed) {
  // Two injectors from the same plan must make identical drop decisions
  // under the same (salt, shard) scope — the thread-count-invariance
  // property the campaign shards rely on.
  FaultPlan plan;
  plan.link.loss_rate = 0.3;
  FaultInjector x(plan);
  FaultInjector y(plan);
  std::vector<bool> seq_x, seq_y;
  {
    StreamScope scope(&x, kSaltPingSweep, 3);
    for (int i = 0; i < 200; ++i) seq_x.push_back(x.drop_at_hop());
  }
  {
    StreamScope scope(&y, kSaltPingSweep, 3);
    for (int i = 0; i < 200; ++i) seq_y.push_back(y.drop_at_hop());
  }
  EXPECT_EQ(seq_x, seq_y);
}

TEST(FaultInjector, InactivePlanNeverFires) {
  FaultInjector inj(FaultPlan{});
  EXPECT_FALSE(inj.active());
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(inj.drop_at_hop());
    EXPECT_FALSE(inj.duplicate_delivery());
  }
}

TEST(FaultInjector, UnresponsiveIsPerEndpoint) {
  FaultInjector inj(FaultPlan{});
  inj.mark_unresponsive(42, 6881);
  EXPECT_TRUE(inj.unresponsive(42, 6881));
  EXPECT_FALSE(inj.unresponsive(42, 6882));
  EXPECT_FALSE(inj.unresponsive(43, 6881));
  EXPECT_EQ(inj.unresponsive_count(), 1u);
}

// --- RetryPolicy / retry_loop ---------------------------------------------

TEST(RetryPolicy, DefaultIsSingleAttempt) {
  RetryPolicy policy;
  EXPECT_FALSE(policy.enabled());
  int attempts = 0;
  sim::Clock clock;
  EXPECT_FALSE(retry_loop(policy, &clock, [&] {
    ++attempts;
    return false;
  }));
  EXPECT_EQ(attempts, 1);
  EXPECT_EQ(clock.now(), 0.0);  // no backoff on the last (only) attempt
}

TEST(RetryPolicy, BackoffScheduleIsExponential) {
  RetryPolicy policy;
  policy.attempts = 4;
  policy.base_backoff_s = 2.0;
  EXPECT_DOUBLE_EQ(policy.backoff_before(2), 2.0);
  EXPECT_DOUBLE_EQ(policy.backoff_before(3), 4.0);
  EXPECT_DOUBLE_EQ(policy.backoff_before(4), 8.0);
}

TEST(RetryPolicy, RetryLoopRunsBackoffOnScopedTimeline) {
  RetryPolicy policy;
  policy.attempts = 3;
  policy.base_backoff_s = 1.0;
  sim::Clock clock;
  clock.set(10.0);
  int attempts = 0;
  std::vector<double> seen;
  EXPECT_TRUE(retry_loop(policy, &clock, [&] {
    seen.push_back(clock.now());
    return ++attempts == 3;
  }));
  EXPECT_EQ(attempts, 3);
  // During the loop each attempt sees the backoff schedule (1 s before
  // attempt 2, 2 s before attempt 3)...
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_DOUBLE_EQ(seen[0], 10.0);
  EXPECT_DOUBLE_EQ(seen[1], 11.0);
  EXPECT_DOUBLE_EQ(seen[2], 13.0);
  // ...and afterwards the clock is back at the probe's start: concurrent
  // probes overlap their waits instead of serializing them.
  EXPECT_DOUBLE_EQ(clock.now(), 10.0);
}

TEST(RetryPolicy, RetryLoopExhaustsAfterBudget) {
  RetryPolicy policy;
  policy.attempts = 3;
  int attempts = 0;
  EXPECT_FALSE(retry_loop(policy, nullptr, [&] {
    ++attempts;
    return false;
  }));
  EXPECT_EQ(attempts, 3);
}

// --- sim::Network injection hooks (satellite: trace ring + drop counters) --

struct FaultyPair {
  sim::Clock clock;
  sim::Network net{clock};
  sim::NodeId a, b;
  Ipv4Address addr_a{16, 0, 0, 1};
  Ipv4Address addr_b{16, 0, 0, 2};
  int received_b = 0;

  FaultyPair() {
    sim::NodeId ra = net.add_router_chain(net.root(), 2, "a");
    sim::NodeId rb = net.add_router_chain(net.root(), 2, "b");
    a = net.add_node(ra, "host-a");
    b = net.add_node(rb, "host-b");
    net.register_address(addr_a, a, net.root());
    net.register_address(addr_b, b, net.root());
    net.set_receiver(a, [](sim::Network&, const sim::Packet&) {});
    net.set_receiver(b, [this](sim::Network&, const sim::Packet&) {
      ++received_b;
    });
  }

  sim::DeliveryResult ping() {
    return net.send(sim::Packet::udp({addr_a, 1000}, {addr_b, 2000}), a);
  }
};

TEST(NetworkFaults, CertainLossDropsWithFaultReason) {
  FaultyPair w;
  FaultPlan plan;
  plan.link.loss_rate = 1.0;
  FaultInjector inj(plan);
  w.net.set_fault_injector(&inj);

  obs::TraceRing ring(64);
  w.net.set_hop_trace(&ring);
  auto r = w.ping();
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.reason, sim::DropReason::fault_loss);
  EXPECT_EQ(r.hops, 1);  // lost entering the very first hop
  EXPECT_EQ(w.received_b, 0);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(w.net.stats().dropped_fault_loss, 1u);
    EXPECT_EQ(w.net.stats().dropped_other, 0u);
  }

  // The trace must record the injected fault as the drop reason, not a
  // generic drop: last event is `dropped` carrying DropReason::fault_loss.
  const auto events = ring.events();
  ASSERT_FALSE(events.empty());
  const auto& last = events.back();
  EXPECT_EQ(last.kind,
            static_cast<std::uint8_t>(sim::Network::TraceKind::dropped));
  EXPECT_EQ(last.code, static_cast<std::uint8_t>(sim::DropReason::fault_loss));
}

TEST(NetworkFaults, LossRateZeroDeliversEverything) {
  FaultyPair w;
  FaultPlan plan;
  plan.link.duplication_rate = 0.0;  // attached but fully benign
  FaultInjector inj(plan);
  w.net.set_fault_injector(&inj);
  for (int i = 0; i < 50; ++i) EXPECT_TRUE(w.ping().delivered);
  EXPECT_EQ(w.received_b, 50);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(w.net.stats().dropped_fault_loss, 0u);
    EXPECT_EQ(w.net.stats().duplicated, 0u);
  }
}

TEST(NetworkFaults, CertainDuplicationInvokesReceiverTwice) {
  FaultyPair w;
  FaultPlan plan;
  plan.link.duplication_rate = 1.0;
  FaultInjector inj(plan);
  w.net.set_fault_injector(&inj);
  obs::Counter& duplicated = obs::counter("sim.net.duplicated");
  const std::uint64_t duplicated_before = duplicated.value();
  auto r = w.ping();
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(w.received_b, 2);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(w.net.stats().delivered, 1u);
    EXPECT_EQ(w.net.stats().duplicated, 1u);
    EXPECT_EQ(duplicated.value() - duplicated_before, 1u);
  }
}

TEST(NetworkFaults, UnresponsiveEndpointDropsAtDelivery) {
  FaultyPair w;
  FaultPlan plan;
  FaultInjector inj(plan);
  inj.mark_unresponsive(w.b, 2000);
  w.net.set_fault_injector(&inj);

  obs::TraceRing ring(64);
  w.net.set_hop_trace(&ring);
  auto r = w.ping();
  EXPECT_FALSE(r.delivered);
  // Must surface as the injected fault, not as dropped_other.
  EXPECT_EQ(r.reason, sim::DropReason::fault_unresponsive);
  EXPECT_EQ(r.final_node, w.b);
  EXPECT_EQ(w.received_b, 0);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(w.net.stats().dropped_fault_unresponsive, 1u);
    EXPECT_EQ(w.net.stats().dropped_other, 0u);
  }
  const auto events = ring.events();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.back().code,
            static_cast<std::uint8_t>(sim::DropReason::fault_unresponsive));

  // Another port on the same node is unaffected.
  auto ok = w.net.send(
      sim::Packet::udp({w.addr_a, 1000}, {w.addr_b, 2001}), w.a);
  EXPECT_TRUE(ok.delivered);
}

TEST(NetworkFaults, PartialLossMatchesStatsAccounting) {
  FaultyPair w;
  FaultPlan plan;
  plan.link.loss_rate = 0.2;
  FaultInjector inj(plan);
  w.net.set_fault_injector(&inj);
  const int n = 500;
  int delivered = 0;
  for (int i = 0; i < n; ++i) delivered += w.ping().delivered ? 1 : 0;
  if (obs::kMetricsEnabled) {
    const sim::NetworkStats st = w.net.stats();
    EXPECT_EQ(st.sent, static_cast<std::uint64_t>(n));
    EXPECT_EQ(st.delivered, static_cast<std::uint64_t>(delivered));
    EXPECT_EQ(st.dropped_fault_loss,
              static_cast<std::uint64_t>(n - delivered));
  }
  // 6 hops per delivery, 20% per-hop loss: deliveries are well below n but
  // nonzero (p(survive) = 0.8^6 ~ 0.26).
  EXPECT_GT(delivered, 0);
  EXPECT_LT(delivered, n / 2);
}

TEST(NetworkFaults, DropReasonNamesCoverFaults) {
  EXPECT_EQ(sim::to_string(sim::DropReason::fault_loss), "fault_loss");
  EXPECT_EQ(sim::to_string(sim::DropReason::fault_unresponsive),
            "fault_unresponsive");
}

}  // namespace
}  // namespace cgn::fault
