// Property-style sweeps over the whole NAT configuration space: invariants
// that must hold for every (mapping type x port allocation x pooling)
// combination.
#include "nat/nat_device.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "obs/metrics.hpp"

namespace cgn::nat {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;
using netcore::Protocol;
using sim::Packet;

using NatCombo = std::tuple<MappingType, PortAllocation, Pooling>;

class NatInvariants : public ::testing::TestWithParam<NatCombo> {
 protected:
  NatConfig make_config() const {
    auto [mapping, alloc, pooling] = GetParam();
    NatConfig cfg;
    cfg.name = "sweep";
    cfg.mapping = mapping;
    cfg.port_allocation = alloc;
    cfg.pooling = pooling;
    cfg.chunk_size = 1024;
    cfg.udp_timeout_s = 100.0;
    return cfg;
  }
  std::vector<Ipv4Address> pool(int n = 4) const {
    std::vector<Ipv4Address> out;
    for (int i = 0; i < n; ++i) out.push_back(Ipv4Address(16, 1, 0, 10 + i));
    return out;
  }
};

TEST_P(NatInvariants, OutboundMapsIntoPool) {
  NatDevice nat(make_config(), pool(), sim::Rng(1));
  for (int i = 0; i < 40; ++i) {
    Packet p = Packet::udp({Ipv4Address(10, 0, 0, 1 + i % 8),
                            static_cast<std::uint16_t>(20000 + i)},
                           {Ipv4Address(16, 9, 9, 9),
                            static_cast<std::uint16_t>(80 + i)});
    ASSERT_EQ(nat.process_outbound(p, 0.0), sim::Middlebox::Verdict::forward);
    EXPECT_TRUE(nat.owns_external(p.src.address))
        << "translated source must come from the external pool";
    EXPECT_GE(p.src.port, nat.config().port_min);
  }
}

TEST_P(NatInvariants, ReplyRoundTripsToInternalSender) {
  NatDevice nat(make_config(), pool(), sim::Rng(2));
  Endpoint internal{Ipv4Address(10, 0, 0, 7), 31337};
  Endpoint remote{Ipv4Address(16, 9, 9, 9), 443};
  Packet out = Packet::udp(internal, remote);
  ASSERT_EQ(nat.process_outbound(out, 0.0), sim::Middlebox::Verdict::forward);
  Packet reply = Packet::udp(remote, out.src);
  ASSERT_EQ(nat.process_inbound(reply, 1.0), sim::Middlebox::Verdict::forward)
      << "the contacted remote must always be able to reply";
  EXPECT_EQ(reply.dst, internal);
}

TEST_P(NatInvariants, DistinctFlowsNeverShareExternalEndpoint) {
  NatDevice nat(make_config(), pool(), sim::Rng(3));
  std::set<std::pair<std::uint32_t, std::uint16_t>> seen;
  int created = 0;
  for (int i = 0; i < 60; ++i) {
    // Distinct internal endpoints (different hosts and ports).
    Packet p = Packet::udp({Ipv4Address(10, 0, 1, 1 + i % 50),
                            static_cast<std::uint16_t>(25000 + i)},
                           {Ipv4Address(16, 9, 9, 9), 80});
    if (nat.process_outbound(p, 0.0) != sim::Middlebox::Verdict::forward)
      continue;  // chunk exhaustion is allowed; sharing is not
    ++created;
    auto key = std::make_pair(p.src.address.value(), p.src.port);
    EXPECT_TRUE(seen.insert(key).second)
        << "two flows translated to the same external endpoint: "
        << p.src.to_string();
  }
  EXPECT_GT(created, 0);
}

TEST_P(NatInvariants, MappingSurvivesWithinTimeoutAndDiesAfter) {
  NatDevice nat(make_config(), pool(), sim::Rng(4));
  Endpoint internal{Ipv4Address(10, 0, 0, 9), 40000};
  Endpoint remote{Ipv4Address(16, 9, 9, 9), 80};
  Packet out = Packet::udp(internal, remote);
  ASSERT_EQ(nat.process_outbound(out, 0.0), sim::Middlebox::Verdict::forward);
  Endpoint ext = out.src;

  Packet in_live = Packet::udp(remote, ext);
  EXPECT_EQ(nat.process_inbound(in_live, 99.0),
            sim::Middlebox::Verdict::forward);
  nat.collect_garbage(99.0 + 100.0 + 1.0);
  Packet in_dead = Packet::udp(remote, ext);
  EXPECT_EQ(nat.process_inbound(in_dead, 99.0 + 100.0 + 1.0),
            sim::Middlebox::Verdict::drop_no_mapping);
}

TEST_P(NatInvariants, StrangersNeverReachNonFullConeMappings) {
  NatDevice nat(make_config(), pool(), sim::Rng(5));
  Packet out = Packet::udp({Ipv4Address(10, 0, 0, 3), 41000},
                           {Ipv4Address(16, 9, 9, 9), 80});
  ASSERT_EQ(nat.process_outbound(out, 0.0), sim::Middlebox::Verdict::forward);
  Packet stranger = Packet::udp({Ipv4Address(16, 8, 8, 8), 1234}, out.src);
  auto verdict = nat.process_inbound(stranger, 1.0);
  auto [mapping, alloc, pooling] = GetParam();
  if (mapping == MappingType::full_cone)
    EXPECT_EQ(verdict, sim::Middlebox::Verdict::forward);
  else
    EXPECT_EQ(verdict, sim::Middlebox::Verdict::drop_filtered);
}

TEST_P(NatInvariants, ConformantHairpinNeverExposesInternalSource) {
  NatConfig cfg = make_config();
  cfg.hairpinning = true;
  cfg.hairpin_preserve_source = false;
  NatDevice nat(cfg, pool(), sim::Rng(6));
  Packet a_out = Packet::udp({Ipv4Address(10, 0, 0, 1), 42000},
                             {Ipv4Address(16, 9, 9, 9), 80});
  ASSERT_EQ(nat.process_outbound(a_out, 0.0),
            sim::Middlebox::Verdict::forward);
  Packet hp = Packet::udp({Ipv4Address(10, 0, 0, 2), 43000}, a_out.src);
  auto verdict = nat.process_hairpin(hp, 1.0);
  if (verdict == sim::Middlebox::Verdict::forward) {
    EXPECT_FALSE(netcore::is_reserved(hp.src.address))
        << "conformant hairpinning must present a translated source";
  }
}

TEST_P(NatInvariants, GarbageCollectionIsIdempotent) {
  NatDevice nat(make_config(), pool(), sim::Rng(7));
  for (int i = 0; i < 10; ++i) {
    Packet p = Packet::udp({Ipv4Address(10, 0, 0, 1),
                            static_cast<std::uint16_t>(20000 + i)},
                           {Ipv4Address(16, 9, 9, 9), 80});
    (void)nat.process_outbound(p, 0.0);
  }
  nat.collect_garbage(1000.0);
  auto expired_once = nat.stats().mappings_expired;
  nat.collect_garbage(1000.0);
  EXPECT_EQ(nat.stats().mappings_expired, expired_once);
  EXPECT_EQ(nat.active_mappings(1000.0), 0u);
}

TEST_P(NatInvariants, ChurnKeepsOneMappingPerExternalPort) {
  // A tiny port range (two 8-port chunks per address) keeps the device
  // near exhaustion, so freed ports must really be handed out again.
  NatConfig cfg = make_config();
  cfg.port_min = 1024;
  cfg.port_max = 1039;
  cfg.chunk_size = 8;
  NatDevice nat(cfg, pool(2), sim::Rng(8));
  sim::Rng rng(9);
  const auto& gauge = obs::gauge("nat.active_mappings");
  const std::int64_t gauge_base = gauge.value();

  // Every stored mapping by external (proto, endpoint), kept by the hooks.
  using ExtKey = std::tuple<Protocol, std::uint32_t, std::uint16_t>;
  std::set<ExtKey> stored;
  // Ports freed in the current step, as (proto, pool index, port).
  std::set<std::tuple<Protocol, std::size_t, std::uint16_t>> freed;
  auto pool_slot = [&](Ipv4Address a) {
    const auto& p = nat.external_pool();
    return static_cast<std::size_t>(std::find(p.begin(), p.end(), a) -
                                    p.begin());
  };
  nat.set_observer(
      [&](Protocol proto, const Endpoint&, const Endpoint& ext, sim::SimTime) {
        EXPECT_TRUE(stored.emplace(proto, ext.address.value(), ext.port).second)
            << "two live mappings share " << ext.to_string();
      },
      [&](Protocol proto, const Endpoint& ext, sim::SimTime, sim::SimTime) {
        EXPECT_EQ(stored.erase({proto, ext.address.value(), ext.port}), 1u);
        freed.emplace(proto, pool_slot(ext.address), ext.port);
      });

  std::vector<Ipv4Address> hosts;
  for (int i = 0; i < 32; ++i) hosts.push_back(Ipv4Address(10, 0, 0, 1 + i));
  const Endpoint remote{Ipv4Address(16, 9, 9, 9), 80};
  std::uint16_t next_port = 1000;  // fresh internal ports: always a new flow
  std::vector<std::pair<Protocol, Endpoint>> flows;
  auto send = [&](Protocol proto, const Endpoint& internal, sim::SimTime t,
                  bool established) {
    Packet p = proto == Protocol::udp
                   ? Packet::udp(internal, remote)
                   : Packet::tcp(internal, remote,
                                 established ? sim::TcpFlag::none
                                             : sim::TcpFlag::syn);
    return nat.process_outbound(p, t) == sim::Middlebox::Verdict::forward;
  };
  auto any_proto = [&] {
    return rng.index(2) == 0 ? Protocol::udp : Protocol::tcp;
  };

  sim::SimTime now = 0;
  std::uint8_t renumbered = 0;
  for (int step = 0; step < 300; ++step) {
    freed.clear();
    switch (rng.index(6)) {
      case 0:  // outbound flows: new ones, and refreshes of earlier ones
        for (int i = 0; i < 6; ++i) {
          if (!flows.empty() && rng.index(2) == 0) {
            const auto& [proto, internal] = flows[rng.index(flows.size())];
            (void)send(proto, internal, now, rng.index(2) == 0);
          } else {
            const Protocol proto = any_proto();
            const Endpoint internal{hosts[rng.index(hosts.size())],
                                    next_port++};
            if (send(proto, internal, now, rng.index(2) == 0))
              flows.emplace_back(proto, internal);
          }
        }
        break;
      case 1:  // UPnP mapping, new or over an existing flow
        if (!flows.empty() && rng.index(2) == 0) {
          const auto& [proto, internal] = flows[rng.index(flows.size())];
          (void)nat.add_static_mapping(proto, internal, now);
        } else {
          (void)nat.add_static_mapping(
              any_proto(), {hosts[rng.index(hosts.size())], next_port++}, now);
        }
        break;
      case 2: {  // clock advance: within, or past, the UDP/TCP timeouts
        static constexpr sim::SimTime kAdvance[] = {10, 150, 300, 8000};
        now += kAdvance[rng.index(4)];
        break;
      }
      case 3:
        nat.collect_garbage(now);
        EXPECT_EQ(stored.size(), nat.active_mappings(now));
        if (obs::kMetricsEnabled) {
          EXPECT_EQ(gauge.value() - gauge_base,
                    static_cast<std::int64_t>(nat.active_mappings(now)));
        }
        break;
      case 4: {
        const auto old = nat.external_pool()[rng.index(2)];
        ASSERT_TRUE(
            nat.renumber_external(old, Ipv4Address(16, 2, 0, ++renumbered)));
        // Renumbering drops every mapping on the old address, and the
        // expiry hook hears of each one.
        for (const auto& [proto, address, port] : stored)
          EXPECT_NE(address, old.value())
              << "step " << step << ": renumbering left port " << port;
        break;
      }
      case 5:
        nat.reset_state(now);
        break;
    }
    if (freed.empty()) continue;
    // Every freed port must be allocatable again: fill the device from
    // every host and protocol until allocation fails (one host can hold at
    // most the 32 ports of a protocol), then look for each.
    for (const auto& host : hosts)
      for (Protocol proto : {Protocol::udp, Protocol::tcp})
        for (int n = 0; n <= 32 && send(proto, {host, next_port++}, now, false);
             ++n) {
        }
    for (const auto& [proto, slot, port] : freed)
      EXPECT_TRUE(stored.contains(
          {proto, nat.external_pool()[slot].value(), port}))
          << "step " << step << ": freed port " << port << " never reused";
    if (HasFailure()) break;
  }
}

std::string combo_name(
    const ::testing::TestParamInfo<NatCombo>& info) {
  auto [mapping, alloc, pooling] = info.param;
  auto clean = [](std::string_view s) {
    std::string out;
    for (char c : s)
      if (c != ' ' && c != '-') out.push_back(c);
    return out;
  };
  return clean(to_string(mapping)) + "_" + clean(to_string(alloc)) + "_" +
         clean(to_string(pooling));
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, NatInvariants,
    ::testing::Combine(
        ::testing::Values(MappingType::full_cone,
                          MappingType::address_restricted,
                          MappingType::port_address_restricted,
                          MappingType::symmetric),
        ::testing::Values(PortAllocation::preservation,
                          PortAllocation::sequential, PortAllocation::random,
                          PortAllocation::chunk_random),
        ::testing::Values(Pooling::paired, Pooling::arbitrary)),
    combo_name);

}  // namespace
}  // namespace cgn::nat
