// Tests for the per-thread route-cache stripes in sim::Network (one cached
// next hop per node per thread): hits are counted (batched per delivery),
// route mutations (unregister/re-register) never serve a stale next hop in
// any stripe, and NAT restarts — which do not touch routes — keep
// translating correctly through warmed caches.
#include <gtest/gtest.h>

#include "nat/nat_device.hpp"
#include "sim/network.hpp"
#include "test_topology.hpp"

namespace cgn::sim {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;

struct ThreeHosts {
  Clock clock;
  Network net{clock};
  NodeId sender, a, b;
  Ipv4Address addr_s{16, 0, 0, 1};
  Ipv4Address addr_a{16, 0, 0, 2};
  Ipv4Address addr_b{16, 0, 0, 3};
  std::vector<Packet> received_a, received_b;

  ThreeHosts() {
    NodeId rs = net.add_router_chain(net.root(), 2, "s");
    NodeId ra = net.add_router_chain(net.root(), 2, "a");
    NodeId rb = net.add_router_chain(net.root(), 2, "b");
    sender = net.add_node(rs, "sender");
    a = net.add_node(ra, "host-a");
    b = net.add_node(rb, "host-b");
    net.add_local_address(sender, addr_s);
    net.add_local_address(a, addr_a);
    net.add_local_address(b, addr_b);
    net.register_address(addr_s, sender, net.root());
    net.register_address(addr_a, a, net.root());
    net.register_address(addr_b, b, net.root());
    net.set_receiver(a, [this](Network&, const Packet& p) {
      received_a.push_back(p);
    });
    net.set_receiver(b, [this](Network&, const Packet& p) {
      received_b.push_back(p);
    });
  }
};

TEST(RouteCache, RepeatedSendsHitTheCache) {
  ThreeHosts w;
  auto first = w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender);
  EXPECT_TRUE(first.delivered);
  const std::uint64_t hits_after_first = w.net.stats().route_cache_hits;
  auto second = w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender);
  EXPECT_TRUE(second.delivered);
  // The second identical send descends the same warmed path: every
  // down-route lookup past the first is a cache hit.
  if (obs::kMetricsEnabled) {
    EXPECT_GT(w.net.stats().route_cache_hits, hits_after_first);
  }
  EXPECT_EQ(w.received_a.size(), 2u);
}

TEST(RouteCache, AlternatingDestinationsStayCorrect) {
  ThreeHosts w;
  // Alternating destinations evict each other from the shared core node's
  // one-entry cache; every delivery must still land on the right host.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender)
            .delivered);
    EXPECT_TRUE(
        w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_b, 2}), w.sender)
            .delivered);
  }
  EXPECT_EQ(w.received_a.size(), 4u);
  EXPECT_EQ(w.received_b.size(), 4u);
}

TEST(RouteCache, UnregisterDoesNotServeStaleRoute) {
  ThreeHosts w;
  // Warm every cache on the path toward host a.
  ASSERT_TRUE(
      w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender)
          .delivered);
  ASSERT_TRUE(
      w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender)
          .delivered);
  // Routing for addr_a moves to host b (renumbering-style move); host a
  // still has the address configured locally, but no route points there.
  w.net.unregister_address(w.addr_a, w.a, w.net.root());
  auto dropped =
      w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender);
  EXPECT_FALSE(dropped.delivered);
  EXPECT_EQ(dropped.reason, DropReason::no_route);

  w.net.add_local_address(w.b, w.addr_a);
  w.net.register_address(w.addr_a, w.b, w.net.root());
  auto moved =
      w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender);
  EXPECT_TRUE(moved.delivered);
  EXPECT_EQ(w.received_a.size(), 2u);  // nothing more arrived at host a
  ASSERT_EQ(w.received_b.size(), 1u);  // the moved address delivers at b
}

TEST(RouteCache, NatRestartKeepsTranslationCorrect) {
  test::MiniNet world;
  test::LineConfig cfg;
  cfg.with_cpe = true;
  cfg.with_cgn = true;
  auto line = world.add_line(cfg);
  std::vector<Packet> at_server;
  world.net.set_receiver(world.server_host,
                         [&](Network&, const Packet& p) {
                           at_server.push_back(p);
                         });

  Endpoint device_ep{line.device_address, 4000};
  Endpoint server_ep{world.server_address, 5000};
  ASSERT_TRUE(world.net.send(Packet::udp(device_ep, server_ep), line.device)
                  .delivered);
  ASSERT_TRUE(world.net.send(Packet::udp(device_ep, server_ep), line.device)
                  .delivered);
  ASSERT_EQ(at_server.size(), 2u);
  const Endpoint external_before = at_server.back().src;

  // A reply to the mapped endpoint descends through warmed caches.
  ASSERT_TRUE(
      world.net.send(Packet::udp(server_ep, external_before),
                     world.server_host)
          .delivered);

  // Reboot the CGN: all mappings flush, but routes (and caches) are
  // untouched — the next outbound packet must allocate a fresh mapping and
  // still reach the server, and the dead external endpoint must now be
  // dropped as no_mapping rather than mis-delivered.
  line.cgn->reset_state(world.clock.now());
  auto after = world.net.send(Packet::udp(device_ep, server_ep), line.device);
  EXPECT_TRUE(after.delivered);
  ASSERT_EQ(at_server.size(), 3u);

  auto stale = world.net.send(Packet::udp(server_ep, external_before),
                              world.server_host);
  Endpoint external_after = at_server.back().src;
  if (external_after == external_before) {
    // The fresh mapping may legitimately reuse the same external endpoint;
    // then the reply simply reaches the device again.
    EXPECT_TRUE(stale.delivered);
  } else {
    EXPECT_FALSE(stale.delivered);
    EXPECT_EQ(stale.reason, DropReason::no_mapping);
  }
}

}  // namespace
}  // namespace cgn::sim
