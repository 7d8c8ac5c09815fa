#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "nat/nat_device.hpp"
#include "test_metrics.hpp"
#include "test_topology.hpp"

namespace cgn::sim {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;

/// Two public hosts; a listens on port 1000, b on port 2000.
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
    net.bind(a, 1000, [this](Network&, const Packet& p) {
      received_a.push_back(p);
    });
    net.bind(b, 2000, [this](Network&, const Packet& p) {
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
  w.net.bind(w.b, 2000, [&](Network& net, const Packet& p) {
    net.send(Packet::udp(p.dst, p.src), w.b);
  });
  auto r = w.net.send(Packet::udp({w.addr_a, 1000}, {w.addr_b, 2000}), w.a);
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
  net.bind(h1, 2, [&](Network&, const Packet&) { ++got1; });
  net.bind(h2, 2, [&](Network&, const Packet&) { ++got2; });

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

TEST(Network, RegisterAddressRejectsSharedPath) {
  // root - isp - cpe - dev, and a second host beside cpe under isp.
  Clock clock;
  Network net(clock);
  NodeId isp = net.add_node(net.root(), "isp");
  NodeId cpe = net.add_node(isp, "cpe");
  NodeId dev = net.add_node(cpe, "dev");
  NodeId other = net.add_node(isp, "other");
  NodeId sender = net.add_node(net.root(), "sender");
  const Ipv4Address addr{16, 0, 0, 7};
  const Ipv4Address from{16, 0, 0, 1};
  net.register_address(from, sender, net.root());
  int at_dev = 0, at_other = 0;
  net.bind(dev, 2, [&](Network&, const Packet&) { ++at_dev; });
  net.bind(other, 2, [&](Network&, const Packet&) { ++at_other; });

  net.register_address(addr, dev, isp);  // path: isp, cpe
  // A higher scope whose path runs through isp.
  EXPECT_THROW(net.register_address(addr, other, net.root()),
               std::invalid_argument);
  // A lower scope on the registered path (cpe).
  EXPECT_THROW(net.register_address(addr, dev, cpe), std::invalid_argument);
  // Neither left a trace: only the first registration routes.
  EXPECT_EQ(net.top_route(addr), kNoNode);
  EXPECT_EQ(net.send(Packet::udp({from, 1}, {addr, 2}), sender).reason,
            DropReason::no_route);
  EXPECT_TRUE(net.send(Packet::udp({addr, 1}, {addr, 2}), other).delivered);
  EXPECT_EQ(at_dev, 1);
  EXPECT_EQ(at_other, 0);

  // Allowed: the same scope again (moves the owner), and a registration
  // owned at the top of the other's path (a NAT's external address that
  // is also an inside address below it).
  net.register_address(addr, other, isp);
  EXPECT_TRUE(net.send(Packet::udp({addr, 1}, {addr, 2}), dev).delivered);
  EXPECT_EQ(at_other, 1);
  net.register_address(addr, isp, net.root());
  EXPECT_EQ(net.top_route(addr), isp);
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

TEST(Network, DeliversByDestinationPort) {
  TwoHosts w;
  int p100 = 0, p200 = 0;
  w.net.bind(w.b, 100, [&](Network&, const Packet&) { ++p100; });
  w.net.bind(w.b, 200, [&](Network&, const Packet&) { ++p200; });
  auto to_b = [&](std::uint16_t port) {
    return w.net.send(Packet::udp({w.addr_a, 1}, {w.addr_b, port}), w.a);
  };
  EXPECT_TRUE(to_b(100).delivered);
  EXPECT_TRUE(to_b(200).delivered);
  EXPECT_EQ(p100, 1);
  EXPECT_EQ(p200, 1);
  EXPECT_TRUE(w.received_b.empty()) << "port 2000's app saw other ports";

  // An unbound port, never bound or unbound later, reaches no app but the
  // packet still counts as delivered, and as delivered to no receiver.
  w.net.unbind(w.b, 200);
  const std::uint64_t delivered = w.net.stats().delivered;
  const obs::Counter& unbound = obs::counter("sim.net.delivered_unbound");
  const std::uint64_t unbound_before = unbound.value();
  EXPECT_TRUE(to_b(200).delivered);
  EXPECT_TRUE(to_b(300).delivered);
  EXPECT_EQ(p100, 1);
  EXPECT_EQ(p200, 1);
  EXPECT_TRUE(w.received_b.empty());
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(w.net.stats().delivered, delivered + 2);
    EXPECT_EQ(unbound.value() - unbound_before, 2u);
  }

  EXPECT_TRUE(to_b(100).delivered);
  EXPECT_EQ(p100, 2) << "unbinding one port left the other bound";
  if (obs::kMetricsEnabled) {
    EXPECT_EQ(unbound.value() - unbound_before, 2u)
        << "a bound port's delivery counted as unbound";
  }
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

static_assert(sizeof(Rng) <= 32, "an idle Rng must not hold engine state");

/// The stream an eagerly built std::mt19937_64 yields for the same calls.
struct EagerRng {
  std::mt19937_64 e;

  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi) {
    return std::uniform_int_distribution<std::uint64_t>{lo, hi}(e);
  }
  double uniform01() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(e);
  }
  std::size_t weighted(const std::vector<double>& weights) {
    double total = 0;
    for (double w : weights) total += w;
    double x = uniform01() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
      x -= weights[i];
      if (x < 0) return i;
    }
    return weights.size() - 1;
  }
};

/// A run of forced draws: uniform(lo, lo) and index(1).
void forced_run(Rng& r, EagerRng& ref, std::mt19937& script) {
  const int n = std::uniform_int_distribution<int>{1, 700}(script);
  for (int i = 0; i < n; ++i) {
    if (i % 3 == 0) {
      ASSERT_EQ(r.index(1), ref.uniform(0, 0));
    } else {
      const std::uint64_t lo = script();
      ASSERT_EQ(r.uniform(lo, lo), ref.uniform(lo, lo));
    }
  }
}

/// One random call on both generators; every result must agree.
void random_call(Rng& r, EagerRng& ref, std::mt19937& script) {
  auto pick = [&](int lo, int hi) {
    return std::uniform_int_distribution<int>{lo, hi}(script);
  };
  switch (pick(0, 11)) {
    case 0: {
      const std::uint64_t lo = pick(0, 1000);
      const std::uint64_t hi = pick(0, 1) ? lo : lo + script();
      ASSERT_EQ(r.uniform(lo, hi), ref.uniform(lo, hi));
      break;
    }
    case 1:
      ASSERT_EQ(r.index(1), ref.uniform(0, 0));
      break;
    case 2: {
      const auto n = static_cast<std::size_t>(pick(2, 5000));
      ASSERT_EQ(r.index(n), ref.uniform(0, n - 1));
      break;
    }
    case 3:
      ASSERT_EQ(r.uniform01(), ref.uniform01());
      break;
    case 4:
      ASSERT_EQ(r.chance(0.3), ref.uniform01() < 0.3);
      break;
    case 5: {
      std::vector<double> w(static_cast<std::size_t>(pick(1, 6)));
      for (double& x : w) x = pick(0, 4);
      w.back() += 1;
      ASSERT_EQ(r.weighted(w), ref.weighted(w));
      break;
    }
    case 6: {
      std::vector<int> a(static_cast<std::size_t>(pick(0, 40)));
      std::iota(a.begin(), a.end(), 0);
      std::vector<int> b = a;
      r.shuffle(a);
      std::shuffle(b.begin(), b.end(), ref.e);
      ASSERT_EQ(a, b);
      break;
    }
    case 7: {
      Rng child = r.fork();
      EagerRng child_ref{std::mt19937_64(ref.e())};
      forced_run(child, child_ref, script);
      ASSERT_EQ(child.next(), child_ref.e());
      break;
    }
    case 8:
      ASSERT_EQ(r.next(), ref.e());
      break;
    case 9: {
      // A copy continues the same stream without advancing the original.
      Rng copy(r);
      EagerRng copy_ref = ref;
      forced_run(copy, copy_ref, script);
      ASSERT_EQ(copy.next(), copy_ref.e());
      Rng assigned(0);
      assigned = r;
      r = assigned;
      break;
    }
    case 10: {
      Rng moved(std::move(r));
      r = std::move(moved);
      break;
    }
    case 11:
      forced_run(r, ref, script);
      break;
  }
}

TEST(Rng, DeferredEngineMatchesEagerStream) {
  for (std::uint64_t seed : {0ull, 1ull, 42ull, 0xdeadbeefcafef00dull}) {
    SCOPED_TRACE(seed);
    std::mt19937 script(static_cast<std::uint32_t>(seed) + 7);
    Rng r(seed);
    EagerRng ref{std::mt19937_64(seed)};
    // Forced draws, and a copy, before the engine exists.
    forced_run(r, ref, script);
    Rng early(r);
    EagerRng early_ref = ref;
    ASSERT_EQ(early.uniform(0, 9), early_ref.uniform(0, 9));
    for (int step = 0; step < 3000 && !::testing::Test::HasFatalFailure();
         ++step)
      random_call(r, ref, script);
    ASSERT_EQ(r.next(), ref.e());
  }
}

}  // namespace
}  // namespace cgn::sim
