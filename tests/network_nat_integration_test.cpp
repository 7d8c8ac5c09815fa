// Integration tests of NAT devices *inside* the delivery engine: full
// ascent/descent traversal, hairpin routing, NAT444 chains, TTL interaction
// with middleboxes — the behaviours the measurement methods depend on.
#include <gtest/gtest.h>

#include <sstream>

#include "obs/trace.hpp"
#include "test_topology.hpp"

namespace cgn::test {
namespace {

using sim::DropReason;
using sim::Packet;

struct Catcher {
  std::vector<Packet> packets;
  void attach(sim::Network& net, sim::NodeId host, std::uint16_t port) {
    net.bind(host, port, [this](sim::Network&, const Packet& p) {
      packets.push_back(p);
    });
  }
};

TEST(NetworkNat, OutboundTranslationAppliedOnAscent) {
  MiniNet mini;
  LineConfig lc;
  lc.with_cpe = true;
  lc.cpe.name = "cpe";
  auto line = mini.add_line(lc);
  Catcher catcher;
  catcher.attach(mini.net, mini.server_host, 80);

  auto r = mini.net.send(
      Packet::udp({line.device_address, 5000}, {mini.server_address, 80}),
      line.device);
  ASSERT_TRUE(r.delivered);
  ASSERT_EQ(catcher.packets.size(), 1u);
  EXPECT_EQ(catcher.packets[0].src.address, Ipv4Address(16, 0, 1, 2))
      << "the server must see the CPE's external address";
}

TEST(NetworkNat, Nat444TranslatesTwice) {
  MiniNet mini;
  LineConfig lc;
  lc.with_cpe = true;
  lc.with_cgn = true;
  lc.cgn_hop = 4;
  lc.cpe.name = "cpe";
  lc.cgn.name = "cgn";
  auto line = mini.add_line(lc);
  Catcher catcher;
  catcher.attach(mini.net, mini.server_host, 80);

  auto r = mini.net.send(
      Packet::udp({line.device_address, 5000}, {mini.server_address, 80}),
      line.device);
  ASSERT_TRUE(r.delivered);
  ASSERT_EQ(catcher.packets.size(), 1u);
  EXPECT_TRUE(line.cgn->owns_external(catcher.packets[0].src.address))
      << "the server-visible source is the CGN pool, not the CPE WAN";
  // And the reply threads back through both translations.
  Catcher device_catcher;
  device_catcher.attach(mini.net, line.device, 5000);
  auto back = mini.net.send(
      Packet::udp({mini.server_address, 80}, catcher.packets[0].src),
      mini.server_host);
  ASSERT_TRUE(back.delivered);
  ASSERT_EQ(device_catcher.packets.size(), 1u);
  EXPECT_EQ(device_catcher.packets[0].dst,
            (Endpoint{line.device_address, 5000}));
}

TEST(NetworkNat, RepliesBlockedAfterVirtualTimeExpiry) {
  MiniNet mini;
  LineConfig lc;
  lc.with_cpe = true;
  lc.cpe.name = "cpe";
  lc.cpe.udp_timeout_s = 30.0;
  auto line = mini.add_line(lc);
  Catcher catcher;
  catcher.attach(mini.net, mini.server_host, 80);
  (void)mini.net.send(
      Packet::udp({line.device_address, 5000}, {mini.server_address, 80}),
      line.device);
  ASSERT_EQ(catcher.packets.size(), 1u);
  Endpoint ext = catcher.packets[0].src;

  mini.clock.advance(31.0);
  auto r = mini.net.send(Packet::udp({mini.server_address, 80}, ext),
                         mini.server_host);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.reason, DropReason::no_mapping);
}

TEST(NetworkNat, CgnHopDistanceMatchesConfiguration) {
  for (int hop : {2, 3, 5, 7}) {
    MiniNet mini;
    LineConfig lc;
    lc.with_cpe = true;
    lc.with_cgn = true;
    lc.cgn_hop = hop;
    lc.cpe.name = "cpe";
    lc.cgn.name = "cgn";
    auto line = mini.add_line(lc);
    // Count hops from the device to the CGN node through the tree.
    EXPECT_EQ(mini.net.path_hops(line.device, line.cgn_node) + 1, hop)
        << "the CGN must sit exactly " << hop << " hops from the device";
  }
}

TEST(NetworkNat, TtlLimitedPacketDiesWithoutRefreshingNat) {
  MiniNet mini;
  LineConfig lc;
  lc.with_cpe = true;
  lc.cpe.name = "cpe";
  lc.cpe.udp_timeout_s = 30.0;
  auto line = mini.add_line(lc);
  Catcher catcher;
  catcher.attach(mini.net, mini.server_host, 80);
  (void)mini.net.send(
      Packet::udp({line.device_address, 5000}, {mini.server_address, 80}),
      line.device);
  Endpoint ext = catcher.packets.at(0).src;

  // A ttl=1 keepalive dies at hop 1 (the CPE) *without* refreshing it.
  mini.clock.advance(20.0);
  auto ka = mini.net.send(
      Packet::udp({line.device_address, 5000}, {mini.server_address, 80}, 1),
      line.device);
  EXPECT_EQ(ka.reason, DropReason::ttl_expired);
  mini.clock.advance(15.0);  // 35 s since the only refreshing packet
  auto probe = mini.net.send(Packet::udp({mini.server_address, 80}, ext),
                             mini.server_host);
  EXPECT_FALSE(probe.delivered)
      << "the dying keepalive must not have refreshed the mapping";

  // Control: a ttl=2 keepalive crosses (and refreshes) the CPE.
  Catcher c2;
  c2.attach(mini.net, mini.server_host, 80);
  (void)mini.net.send(
      Packet::udp({line.device_address, 6000}, {mini.server_address, 80}),
      line.device);
  Endpoint ext2 = c2.packets.at(0).src;
  mini.clock.advance(20.0);
  (void)mini.net.send(
      Packet::udp({line.device_address, 6000}, {mini.server_address, 80}, 2),
      line.device);
  mini.clock.advance(15.0);
  auto probe2 = mini.net.send(Packet::udp({mini.server_address, 80}, ext2),
                              mini.server_host);
  EXPECT_TRUE(probe2.delivered);
}

TEST(NetworkNat, HairpinRoutesBetweenTwoLinesOfOneCgn) {
  MiniNet mini;
  nat::NatConfig cgn_cfg;
  cgn_cfg.name = "cgn";
  cgn_cfg.mapping = nat::MappingType::full_cone;
  cgn_cfg.hairpinning = true;
  LineConfig lc;
  lc.with_cpe = false;
  lc.with_cgn = true;
  lc.cgn = cgn_cfg;
  auto line_a = mini.add_line(lc);

  // Attach a second device under the same CGN.
  sim::NodeId acc = mini.net.add_router_chain(line_a.cgn_node, 2, "acc-b");
  sim::NodeId dev_b = mini.net.add_node(acc, "dev-b");
  Ipv4Address addr_b{10, 0, 9, 9};
  mini.net.register_address(addr_b, dev_b, line_a.cgn_node);
  Catcher catch_b;
  catch_b.attach(mini.net, dev_b, 7000);

  // B opens a mapping toward the server.
  Catcher server_catch;
  server_catch.attach(mini.net, mini.server_host, 80);
  (void)mini.net.send(Packet::udp({addr_b, 7000}, {mini.server_address, 80}),
                      dev_b);
  Endpoint b_ext = server_catch.packets.at(0).src;

  // A sends to B's external endpoint: the CGN must hairpin it back down.
  auto r = mini.net.send(
      Packet::udp({line_a.device_address, 7100}, b_ext), line_a.device);
  ASSERT_TRUE(r.delivered);
  ASSERT_EQ(catch_b.packets.size(), 1u);
  EXPECT_EQ(catch_b.packets[0].dst, (Endpoint{addr_b, 7000}));
  EXPECT_TRUE(line_a.cgn->owns_external(catch_b.packets[0].src.address))
      << "conformant hairpin: B sees A's external endpoint";
}

TEST(NetworkNat, HairpinDisabledDropsInsideToExternalTraffic) {
  MiniNet mini;
  nat::NatConfig cgn_cfg;
  cgn_cfg.name = "cgn";
  cgn_cfg.mapping = nat::MappingType::full_cone;
  cgn_cfg.hairpinning = false;
  LineConfig lc;
  lc.with_cpe = false;
  lc.with_cgn = true;
  lc.cgn = cgn_cfg;
  auto line = mini.add_line(lc);
  Catcher server_catch;
  server_catch.attach(mini.net, mini.server_host, 80);
  (void)mini.net.send(
      Packet::udp({line.device_address, 7000}, {mini.server_address, 80}),
      line.device);
  Endpoint own_ext = server_catch.packets.at(0).src;
  auto r = mini.net.send(
      Packet::udp({line.device_address, 7100}, own_ext), line.device);
  EXPECT_FALSE(r.delivered);
}

TEST(NetworkNat, CgnPortExhaustionSurfacesAsDrop) {
  MiniNet mini;
  LineConfig lc;
  lc.with_cpe = false;
  lc.with_cgn = true;
  lc.cgn.name = "cgn";
  lc.cgn.port_allocation = nat::PortAllocation::chunk_random;
  lc.cgn.chunk_size = 4;
  lc.cgn_pool_size = 1;
  auto line = mini.add_line(lc);
  int delivered = 0, dropped = 0;
  for (int i = 0; i < 10; ++i) {
    auto r = mini.net.send(
        Packet::udp({line.device_address,
                     static_cast<std::uint16_t>(8000 + i)},
                    {mini.server_address, static_cast<std::uint16_t>(80 + i)}),
        line.device);
    (r.delivered ? delivered : dropped)++;
  }
  EXPECT_EQ(delivered, 4);
  EXPECT_EQ(dropped, 6);
  EXPECT_EQ(line.cgn->stats().port_exhaustion_drops, 6u);
}

TEST(NetworkNat, HopTraceRecordsNat444Path) {
  MiniNet mini;
  LineConfig lc;
  lc.with_cpe = true;
  lc.with_cgn = true;
  lc.cpe.name = "cpe";
  lc.cgn.name = "cgn";
  auto line = mini.add_line(lc);

  obs::TraceRing ring(64);
  mini.net.set_hop_trace(&ring);
  auto r = mini.net.send(
      Packet::udp({line.device_address, 5000}, {mini.server_address, 80}),
      line.device);
  ASSERT_TRUE(r.delivered);

  // One hop event per traversed node, two middlebox verdicts (CPE + CGN),
  // one terminal delivered event.
  auto events = ring.events();
  int hop_events = 0, mb_events = 0, delivered_events = 0;
  for (const auto& e : events) {
    switch (static_cast<sim::Network::TraceKind>(e.kind)) {
      case sim::Network::TraceKind::hop: ++hop_events; break;
      case sim::Network::TraceKind::middlebox: ++mb_events; break;
      case sim::Network::TraceKind::delivered: ++delivered_events; break;
      default: break;
    }
  }
  EXPECT_EQ(hop_events, r.hops);
  EXPECT_EQ(mb_events, 2);
  EXPECT_EQ(delivered_events, 1);

  std::ostringstream os;
  mini.net.dump_trace(os, ring);
  EXPECT_NE(os.str().find("middlebox cpe"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("middlebox cgn"), std::string::npos) << os.str();
  EXPECT_NE(os.str().find("delivered"), std::string::npos) << os.str();

  // Detaching must stop recording (and the null check must not crash).
  mini.net.set_hop_trace(nullptr);
  ring.clear();
  (void)mini.net.send(
      Packet::udp({line.device_address, 5001}, {mini.server_address, 80}),
      line.device);
  EXPECT_EQ(ring.total_pushed(), 0u);
}

}  // namespace
}  // namespace cgn::test
