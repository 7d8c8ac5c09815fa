// NatDevice fault behaviour: reset_state() (device reboot) must flush every
// piece of dynamic state while keeping configuration, and scheduled
// restarts must fire lazily at most once per period boundary.
#include <gtest/gtest.h>

#include "fault/fault.hpp"
#include "nat/nat_device.hpp"
#include "nat/nat_types.hpp"
#include "netcore/ipv4.hpp"
#include "sim/packet.hpp"
#include "sim/rng.hpp"

namespace cgn::nat {
namespace {

constexpr netcore::Endpoint kRemote{netcore::Ipv4Address(93, 184, 216, 34),
                                    80};

netcore::Ipv4Address subscriber_ip(std::uint32_t i) {
  return netcore::Ipv4Address(10, 0, static_cast<std::uint8_t>(i >> 8),
                              static_cast<std::uint8_t>(i & 0xff));
}

sim::Middlebox::Verdict outbound(NatDevice& nat, std::uint32_t sub,
                                 std::uint16_t port, sim::SimTime now) {
  sim::Packet pkt = sim::Packet::udp({subscriber_ip(sub), port}, kRemote);
  return nat.process_outbound(pkt, now);
}

TEST(NatReset, FlushesMappingsAndFiresExpiryHooks) {
  NatConfig cfg;
  NatDevice nat(cfg, {netcore::Ipv4Address(198, 51, 100, 1)}, sim::Rng(7));
  int expired_hooks = 0;
  nat.set_observer({}, [&](netcore::Protocol, const netcore::Endpoint&,
                           sim::SimTime, sim::SimTime) { ++expired_hooks; });

  for (std::uint32_t i = 0; i < 5; ++i)
    ASSERT_EQ(outbound(nat, i, 5000, 1.0), sim::Middlebox::Verdict::forward);
  ASSERT_EQ(nat.active_mappings(1.0), 5u);

  nat.reset_state(2.0);
  EXPECT_EQ(nat.active_mappings(2.0), 0u);
  EXPECT_EQ(expired_hooks, 5);
  EXPECT_EQ(nat.stats().restarts, 1u);
  EXPECT_EQ(nat.stats().restart_flushed_mappings, 5u);
  // Configuration survives the reboot and the pool accounting is clean:
  // the same subscribers translate again from an empty table.
  for (std::uint32_t i = 0; i < 5; ++i)
    ASSERT_EQ(outbound(nat, i, 5000, 3.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(nat.active_mappings(3.0), 5u);
  EXPECT_EQ(nat.stats().port_exhaustion_drops, 0u);
}

TEST(NatReset, FreedChunksAreImmediatelyReusable) {
  // 4 chunks of 64 ports: [1024, 1279]. Four subscribers exhaust the chunk
  // supply; after a reboot the chunk bookkeeping (subscriber_chunks_ +
  // chunks_taken_) must be empty, so four fresh subscribers fit again.
  NatConfig cfg;
  cfg.port_allocation = PortAllocation::chunk_random;
  cfg.chunk_size = 64;
  cfg.port_min = 1024;
  cfg.port_max = 1279;
  NatDevice nat(cfg, {netcore::Ipv4Address(198, 51, 100, 1)}, sim::Rng(7));

  for (std::uint32_t i = 0; i < 4; ++i)
    ASSERT_EQ(outbound(nat, i, 5000, 1.0), sim::Middlebox::Verdict::forward);
  ASSERT_TRUE(nat.subscriber_chunk(subscriber_ip(0)).has_value());
  ASSERT_NE(outbound(nat, 4, 5000, 1.0), sim::Middlebox::Verdict::forward);
  ASSERT_EQ(nat.stats().port_exhaustion_drops, 1u);

  nat.reset_state(2.0);
  EXPECT_FALSE(nat.subscriber_chunk(subscriber_ip(0)).has_value());
  for (std::uint32_t i = 10; i < 14; ++i)
    ASSERT_EQ(outbound(nat, i, 5000, 3.0), sim::Middlebox::Verdict::forward)
        << "chunk not reusable after reset for subscriber " << i;
  EXPECT_EQ(nat.stats().port_exhaustion_drops, 1u);  // no new exhaustion

  // Pool accounting stays consistent: each new subscriber's sticky chunk
  // record exists and the mapping count matches.
  for (std::uint32_t i = 10; i < 14; ++i)
    EXPECT_TRUE(nat.subscriber_chunk(subscriber_ip(i)).has_value());
  EXPECT_EQ(nat.active_mappings(3.0), 4u);
}

TEST(NatRestart, FiresLazilyOncePerBoundary) {
  NatConfig cfg;
  NatDevice nat(cfg, {netcore::Ipv4Address(198, 51, 100, 1)}, sim::Rng(7));
  fault::NatFaults faults;
  faults.restart_period_s = 100.0;
  nat.set_fault_profile(faults, 0.0);

  ASSERT_EQ(outbound(nat, 0, 5000, 10.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(nat.stats().restarts, 0u);  // first period not yet over

  // Four boundaries elapsed unobserved -> exactly one flush, not four.
  ASSERT_EQ(outbound(nat, 1, 5000, 450.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(nat.stats().restarts, 1u);
  EXPECT_EQ(nat.stats().restart_flushed_mappings, 1u);
  // The triggering packet still translates (mapping created post-flush).
  EXPECT_EQ(nat.active_mappings(450.0), 1u);

  // Same epoch: no further restart.
  ASSERT_EQ(outbound(nat, 2, 5000, 460.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(nat.stats().restarts, 1u);

  // Next boundary: one more.
  ASSERT_EQ(outbound(nat, 3, 5000, 560.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(nat.stats().restarts, 2u);
}

TEST(NatRestart, PhaseStaggersTheFirstBoundary) {
  NatConfig cfg;
  NatDevice nat(cfg, {netcore::Ipv4Address(198, 51, 100, 1)}, sim::Rng(7));
  fault::NatFaults faults;
  faults.restart_period_s = 100.0;
  nat.set_fault_profile(faults, 40.0);

  ASSERT_EQ(outbound(nat, 0, 5000, 139.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(nat.stats().restarts, 0u);  // first boundary is at phase+period
  ASSERT_EQ(outbound(nat, 1, 5000, 141.0), sim::Middlebox::Verdict::forward);
  EXPECT_EQ(nat.stats().restarts, 1u);
}

}  // namespace
}  // namespace cgn::nat
