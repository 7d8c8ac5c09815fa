#include "sim/network.hpp"

#include <gtest/gtest.h>

#include "nat/nat_device.hpp"
#include "sim/demux.hpp"
#include "test_metrics.hpp"
#include "test_topology.hpp"

namespace cgn::sim {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;

struct TwoHosts {
  Clock clock;
  Network net{clock};
  NodeId a, b;
  Ipv4Address addr_a{16, 0, 0, 1};
  Ipv4Address addr_b{16, 0, 0, 2};
  std::vector<Packet> received_a, received_b;

  TwoHosts(int chain_a = 2, int chain_b = 2) {
    NodeId ra = net.add_router_chain(net.root(), chain_a, "a");
    NodeId rb = net.add_router_chain(net.root(), chain_b, "b");
    a = net.add_node(ra, "host-a");
    b = net.add_node(rb, "host-b");
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

TEST(Network, DeliversBetweenPublicHosts) {
  TwoHosts w;
  auto result = w.net.send(
      Packet::udp({w.addr_a, 1000}, {w.addr_b, 2000}), w.a);
  EXPECT_TRUE(result.delivered);
  ASSERT_EQ(w.received_b.size(), 1u);
  EXPECT_EQ(w.received_b[0].src, (Endpoint{w.addr_a, 1000}));
  EXPECT_EQ(w.received_b[0].dst, (Endpoint{w.addr_b, 2000}));
}

TEST(Network, CountsHopsSymmetrically) {
  TwoHosts w(2, 3);
  auto there = w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 2}), w.a);
  auto back = w.net.send(Packet::udp({w.addr_b, 2}, {w.addr_a, 1}), w.b);
  // a -> r,r -> core -> r,r,r -> b : 6 intermediate nodes + delivery node.
  EXPECT_EQ(there.hops, back.hops);
  EXPECT_EQ(there.hops, w.net.path_hops(w.a, w.b) + 1);
}

TEST(Network, PathHopsMatchesTopology) {
  TwoHosts w(2, 3);
  EXPECT_EQ(w.net.path_hops(w.a, w.b), 6);  // 2 + core + 3
  EXPECT_EQ(w.net.path_hops(w.a, w.a), -1); // degenerate: same node
}

TEST(Network, UnroutedDestinationDrops) {
  TwoHosts w;
  auto result = w.net.send(
      Packet::udp({w.addr_a, 1}, {Ipv4Address{99, 0, 0, 1}, 2}), w.a);
  EXPECT_FALSE(result.delivered);
  EXPECT_EQ(result.reason, DropReason::no_route);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(w.net.stats().dropped_no_route, 1u);
  }
}

TEST(Network, TtlExpiresMidPath) {
  TwoHosts w(2, 2);
  // Path: a -> r,r -> core -> r,r -> b = 5 intermediate nodes, so the
  // packet needs ttl >= 6 to survive to the delivering host node.
  for (int ttl = 1; ttl <= 5; ++ttl) {
    auto r = w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 2}, ttl), w.a);
    EXPECT_FALSE(r.delivered) << "ttl=" << ttl;
    EXPECT_EQ(r.reason, DropReason::ttl_expired);
    EXPECT_EQ(r.hops, ttl) << "packet dies exactly at hop ttl";
  }
  auto r = w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 2}, 6), w.a);
  EXPECT_TRUE(r.delivered);
}

TEST(Network, MinimalDeliveringTtlIsPathHopsPlusOne) {
  TwoHosts w(1, 4);
  int n = w.net.path_hops(w.a, w.b);
  auto r1 = w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 2}, n), w.a);
  EXPECT_FALSE(r1.delivered);
  auto r2 = w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 2}, n + 1), w.a);
  EXPECT_TRUE(r2.delivered);
}

TEST(Network, ReceiverCanReplySynchronously) {
  TwoHosts w;
  w.net.set_receiver(w.b, [&](Network& net, const Packet& p) {
    net.send(Packet::udp(p.dst, p.src), w.b);
  });
  auto r = w.net.send(Packet::udp({w.addr_a, 5}, {w.addr_b, 6}), w.a);
  EXPECT_TRUE(r.delivered);
  ASSERT_EQ(w.received_a.size(), 1u) << "reply must arrive before send returns";
}

TEST(Network, ScopedAddressesInvisibleOutsideScope) {
  // Two subtrees both using 10.0.0.5 internally must not clash.
  Clock clock;
  Network net(clock);
  NodeId scope1 = net.add_node(net.root(), "isp1");
  NodeId scope2 = net.add_node(net.root(), "isp2");
  NodeId h1 = net.add_node(scope1, "h1");
  NodeId h2 = net.add_node(scope2, "h2");
  Ipv4Address internal{10, 0, 0, 5};
  int got1 = 0, got2 = 0;
  net.register_address(internal, h1, scope1);
  net.register_address(internal, h2, scope2);
  net.set_receiver(h1, [&](Network&, const Packet&) { ++got1; });
  net.set_receiver(h2, [&](Network&, const Packet&) { ++got2; });

  NodeId h1b = net.add_node(scope1, "h1b");
  net.register_address(Ipv4Address{10, 0, 0, 6}, h1b, scope1);
  auto r = net.send(
      Packet::udp({Ipv4Address{10, 0, 0, 6}, 1}, {internal, 2}), h1b);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(got1, 1);
  EXPECT_EQ(got2, 0) << "scoped route must stay within its subtree";
}

TEST(Network, OutOfScopeInternalAddressIsUnrouted) {
  Clock clock;
  Network net(clock);
  NodeId scope = net.add_node(net.root(), "isp");
  NodeId inside = net.add_node(scope, "inside");
  NodeId outside = net.add_node(net.root(), "outside");
  Ipv4Address internal{10, 1, 1, 1};
  Ipv4Address pub{16, 0, 0, 9};
  net.register_address(internal, inside, scope);
  net.register_address(pub, outside, net.root());
  auto r = net.send(Packet::udp({pub, 1}, {internal, 2}), outside);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.reason, DropReason::no_route);
}

TEST(Network, RegisterAddressRejectsNonAncestorScope) {
  Clock clock;
  Network net(clock);
  NodeId a = net.add_node(net.root(), "a");
  NodeId b = net.add_node(net.root(), "b");
  NodeId host = net.add_node(a, "host");
  NodeId sender = net.add_node(b, "sender");
  const Ipv4Address addr{1, 2, 3, 4};
  EXPECT_THROW(net.register_address(addr, host, b), std::invalid_argument);
  // A rejected registration leaves nothing behind.
  EXPECT_EQ(net.top_route(addr), kNoNode);
  auto r = net.send(Packet::udp({Ipv4Address{16, 0, 0, 1}, 1}, {addr, 2}),
                    sender);
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.reason, DropReason::no_route);
}

TEST(Network, AddNodeValidatesParent) {
  Clock clock;
  Network net(clock);
  EXPECT_THROW(net.add_node(42, "x"), std::out_of_range);
}

TEST(Network, StatsAccumulateAndReset) {
  TwoHosts w;
  EXPECT_TRUE(w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 2}), w.a)
                  .delivered);
  EXPECT_EQ(w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 2}, 1), w.a)
                .reason,
            DropReason::ttl_expired);
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(w.net.stats().sent, 2u);
    EXPECT_EQ(w.net.stats().delivered, 1u);
    EXPECT_EQ(w.net.stats().dropped_ttl, 1u);
  }
  w.net.reset_stats();
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(w.net.stats().sent, 0u);
  }
}

TEST(Network, StatsSnapshotsAreIndependentValues) {
  CGN_SKIP_IF_METRICS_DISABLED();
  TwoHosts w;
  // Each stats() call returns its own value: a snapshot taken before a
  // send must not change when a later call reads the counters again.
  const auto& before = w.net.stats();
  (void)w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 2}), w.a);
  const auto& after = w.net.stats();
  EXPECT_EQ(after.sent - before.sent, 1u);
  EXPECT_EQ(after.delivered - before.delivered, 1u);
}

TEST(Network, StatsStartAtZeroForEachNetwork) {
  CGN_SKIP_IF_METRICS_DISABLED();
  {
    TwoHosts earlier;
    (void)earlier.net.send(
        Packet::udp({earlier.addr_a, 1}, {earlier.addr_b, 2}), earlier.a);
  }
  // The counters behind stats() are process-global; a new Network's view
  // starts from its construction, not from the earlier Network's traffic.
  TwoHosts w;
  EXPECT_EQ(w.net.stats().sent, 0u);
  EXPECT_EQ(w.net.stats().delivered, 0u);
}

TEST(PortDemux, RoutesByDestinationPort) {
  TwoHosts w;
  PortDemux demux;
  int p100 = 0, p200 = 0;
  demux.bind(100, [&](Network&, const Packet&) { ++p100; });
  demux.bind(200, [&](Network&, const Packet&) { ++p200; });
  demux.attach(w.net, w.b);
  (void)w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 100}), w.a);
  (void)w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 200}), w.a);
  (void)w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 300}), w.a);
  EXPECT_EQ(p100, 1);
  EXPECT_EQ(p200, 1);
  demux.unbind(200);
  (void)w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, 200}), w.a);
  EXPECT_EQ(p200, 1);
}

TEST(Clock, AdvancesMonotonically) {
  Clock c;
  EXPECT_EQ(c.now(), 0.0);
  c.advance(5.0);
  c.set(10.0);
  EXPECT_EQ(c.now(), 10.0);
  EXPECT_THROW(c.advance(-1.0), std::invalid_argument);
  EXPECT_THROW(c.set(9.0), std::invalid_argument);
}

TEST(Rng, DeterministicAndBounded) {
  Rng r1(99), r2(99);
  for (int i = 0; i < 100; ++i) {
    auto v1 = r1.uniform(5, 10);
    auto v2 = r2.uniform(5, 10);
    EXPECT_EQ(v1, v2);
    EXPECT_GE(v1, 5u);
    EXPECT_LE(v1, 10u);
  }
  EXPECT_THROW((void)r1.uniform(10, 5), std::invalid_argument);
  EXPECT_THROW((void)r1.index(0), std::invalid_argument);
  std::vector<double> w{0.0, 0.0};
  EXPECT_THROW((void)r1.weighted(w), std::invalid_argument);
}

TEST(Rng, WeightedRespectsZeroWeight) {
  Rng r(3);
  std::vector<double> w{0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) EXPECT_EQ(r.weighted(w), 1u);
}

}  // namespace
}  // namespace cgn::sim
