// Dynamic-addressing churn: renumbering behaviour and its effect on the
// BitTorrent detector (the paper's motivation for the 5x5 cluster rule).
#include <gtest/gtest.h>

#include "analysis/bt_detector.hpp"
#include "scenario/churn.hpp"
#include "test_topology.hpp"

namespace cgn {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;
using sim::Packet;

TEST(Renumbering, NatDeviceSwapsExternalAddress) {
  nat::NatConfig cfg;
  cfg.name = "cpe";
  nat::NatDevice nat(cfg, {Ipv4Address{16, 0, 1, 2}}, sim::Rng(1));
  Packet out = Packet::udp({Ipv4Address{192, 168, 1, 2}, 5000},
                           {Ipv4Address{16, 9, 9, 9}, 80});
  (void)nat.process_outbound(out, 0.0);
  Endpoint old_ext = out.src;

  ASSERT_TRUE(nat.renumber_external(Ipv4Address{16, 0, 1, 2},
                                    Ipv4Address{16, 0, 1, 99}));
  EXPECT_FALSE(nat.owns_external(Ipv4Address{16, 0, 1, 2}));
  EXPECT_TRUE(nat.owns_external(Ipv4Address{16, 0, 1, 99}));

  // Old mappings died with the address.
  Packet in = Packet::udp({Ipv4Address{16, 9, 9, 9}, 80}, old_ext);
  EXPECT_EQ(nat.process_inbound(in, 1.0),
            sim::Middlebox::Verdict::drop_no_mapping);

  // New traffic uses the new address.
  Packet out2 = Packet::udp({Ipv4Address{192, 168, 1, 2}, 5001},
                            {Ipv4Address{16, 9, 9, 9}, 80});
  (void)nat.process_outbound(out2, 2.0);
  EXPECT_EQ(out2.src.address, (Ipv4Address{16, 0, 1, 99}));
}

TEST(Renumbering, RejectsUnknownOrDuplicateAddresses) {
  nat::NatConfig cfg;
  nat::NatDevice nat(cfg,
                     {Ipv4Address{16, 0, 1, 2}, Ipv4Address{16, 0, 1, 3}},
                     sim::Rng(1));
  EXPECT_FALSE(nat.renumber_external(Ipv4Address{16, 0, 9, 9},
                                     Ipv4Address{16, 0, 1, 50}));
  EXPECT_FALSE(nat.renumber_external(Ipv4Address{16, 0, 1, 2},
                                     Ipv4Address{16, 0, 1, 3}));
}

TEST(Renumbering, NetworkRoutesFollowTheNewAddress) {
  test::MiniNet mini;
  test::LineConfig lc;
  lc.with_cpe = true;
  lc.cpe.name = "cpe";
  auto line = mini.add_line(lc);
  int received = 0;
  mini.net.bind(line.device, 5000,
                [&](sim::Network&, const Packet&) { ++received; });

  // Establish reachability via a static mapping on the old address.
  auto ext = line.cpe->add_static_mapping(netcore::Protocol::udp,
                                          {line.device_address, 5000}, 0.0);
  ASSERT_TRUE(ext.has_value());
  (void)mini.net.send(Packet::udp({mini.server_address, 80}, *ext),
                      mini.server_host);
  EXPECT_EQ(received, 1);

  // Renumber: old address unrouted, new one takes over.
  Ipv4Address new_addr{16, 0, 1, 77};
  ASSERT_TRUE(line.cpe->renumber_external(Ipv4Address{16, 0, 1, 2}, new_addr));
  mini.net.unregister_address(Ipv4Address{16, 0, 1, 2}, line.cpe_node,
                              mini.net.root());
  mini.net.register_address(new_addr, line.cpe_node, mini.net.root());

  auto stale = mini.net.send(Packet::udp({mini.server_address, 80}, *ext),
                             mini.server_host);
  EXPECT_FALSE(stale.delivered);
  EXPECT_EQ(stale.reason, sim::DropReason::no_route);

  auto ext2 = line.cpe->add_static_mapping(netcore::Protocol::udp,
                                           {line.device_address, 5000}, 1.0);
  ASSERT_TRUE(ext2.has_value());
  EXPECT_EQ(ext2->address, new_addr);
  (void)mini.net.send(Packet::udp({mini.server_address, 80}, *ext2),
                      mini.server_host);
  EXPECT_EQ(received, 2);
}

TEST(Renumbering, ScenarioChurnRenumbersOnlyPublicCpeLines) {
  scenario::InternetConfig cfg;
  cfg.seed = 5;
  cfg.routed_ases = 200;
  cfg.pbl_eyeballs = 30;
  cfg.apnic_eyeballs = 32;
  cfg.cellular_ases = 4;
  auto internet = scenario::build_internet(cfg);

  // Snapshot addresses of CGN-internal lines (must not change).
  std::vector<std::pair<const nat::NatDevice*, Ipv4Address>> cgn_lines;
  for (const auto& isp : internet->isps)
    for (const auto& sub : isp.subscribers)
      if (sub.behind_cgn && sub.cpe)
        cgn_lines.emplace_back(sub.cpe, sub.cpe->external_pool().front());

  scenario::ChurnConfig churn;
  churn.renumber_fraction = 0.5;
  churn.events = 1;
  auto stats = scenario::apply_renumbering_event(*internet, churn);
  EXPECT_GT(stats.lines_renumbered, 0u);
  for (const auto& [cpe, addr] : cgn_lines)
    EXPECT_EQ(cpe->external_pool().front(), addr)
        << "CGN-internal lines must not be renumbered by DHCP churn";

  // Every renumbered line still resolves to its own AS.
  for (const auto& isp : internet->isps)
    for (const auto& sub : isp.subscribers)
      if (!sub.behind_cgn && sub.cpe) {
        EXPECT_EQ(internet->routes.origin_of(sub.cpe->external_pool().front()),
                  isp.asn);
      }
}

}  // namespace
}  // namespace cgn
