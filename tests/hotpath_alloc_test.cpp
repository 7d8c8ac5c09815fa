// Proof of the zero-allocation packet path: after warm-up, a NAT444 echo
// round trip (device -> CPE -> CGN -> server, reply descending back) must
// perform no heap allocation at all. Also bounds what a small NAT costs to
// build. The test replaces the global operator new to count allocations and
// bytes; counting is gated so the rest of the binary is unaffected.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "nat/nat_device.hpp"
#include "netcore/ipv6.hpp"
#include "sim/network.hpp"
#include "test_topology.hpp"

namespace {
std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_allocs{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

// All kept out of line: once inlined, GCC pairs the malloc/free inside
// with the caller's new/delete expression and reports
// -Wmismatched-new-delete.
[[gnu::noinline]] void* operator new(std::size_t n) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
[[gnu::noinline]] void* operator new[](std::size_t n) {
  return ::operator new(n);
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}

namespace cgn::sim {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;

TEST(HotPathAlloc, CounterSeesAllocations) {
  g_allocs.store(0);
  g_alloc_bytes.store(0);
  g_counting.store(true);
  {
    std::vector<int> v(100);
    v[0] = 1;
  }
  g_counting.store(false);
  EXPECT_GE(g_allocs.load(), 1u);
  EXPECT_GE(g_alloc_bytes.load(), 100 * sizeof(int));
}

TEST(HotPathAlloc, OneMappingNatStaysSmall) {
  // A CPE holds a handful of mappings, and a world builds one per line:
  // its first mappings must cost bytes, not fixed-size slabs or port-space
  // bitmaps.
  g_alloc_bytes.store(0);
  g_counting.store(true);
  {
    nat::NatDevice cpe(nat::NatConfig{}, {netcore::Ipv4Address(16, 1, 0, 1)},
                       Rng(1));
    const Endpoint remote{netcore::Ipv4Address(16, 9, 9, 9), 80};
    Packet udp = Packet::udp({netcore::Ipv4Address(192, 168, 1, 2), 4000},
                             remote);
    Packet tcp = Packet::tcp({netcore::Ipv4Address(192, 168, 1, 2), 4001},
                             remote, TcpFlag::syn);
    EXPECT_EQ(cpe.process_outbound(udp, 0.0), Middlebox::Verdict::forward);
    EXPECT_EQ(cpe.process_outbound(tcp, 0.0), Middlebox::Verdict::forward);
  }
  g_counting.store(false);
  EXPECT_LT(g_alloc_bytes.load(), 4096u)
      << "a one-address NAT with two mappings allocated "
      << g_alloc_bytes.load() << " bytes";
}

TEST(HotPathAlloc, FirstContactOnAReusedSlotAllocatesNothing) {
  // Most mappings only ever see one destination, so the first contact is
  // stored in the mapping itself; only a second distinct destination pays
  // for a set.
  nat::NatConfig cfg;
  cfg.mapping = nat::MappingType::port_address_restricted;
  cfg.udp_timeout_s = 60.0;
  nat::NatDevice nat(cfg, {netcore::Ipv4Address(16, 1, 0, 1)}, Rng(1));
  const Endpoint remote{netcore::Ipv4Address(16, 9, 9, 9), 80};
  const Endpoint other{netcore::Ipv4Address(16, 9, 9, 9), 81};
  auto send = [&](std::uint16_t sport, const Endpoint& dst) {
    Packet p =
        Packet::udp({netcore::Ipv4Address(192, 168, 1, 2), sport}, dst);
    EXPECT_EQ(nat.process_outbound(p, 100.0), Middlebox::Verdict::forward);
  };
  auto bytes_for = [&](auto&& step) {
    g_alloc_bytes.store(0);
    g_counting.store(true);
    step();
    g_counting.store(false);
    return g_alloc_bytes.load();
  };

  // Warm-up: a mapping that expires and is collected leaves the slab and
  // both lookup maps at their capacity, with its slot on the free list.
  {
    Packet p =
        Packet::udp({netcore::Ipv4Address(192, 168, 1, 2), 3999}, remote);
    ASSERT_EQ(nat.process_outbound(p, 0.0), Middlebox::Verdict::forward);
  }
  nat.collect_garbage(100.0);
  ASSERT_EQ(nat.active_mappings(100.0), 0u);

  EXPECT_EQ(bytes_for([&] { send(4000, remote); }), 0u)
      << "a new flow's first packet must reuse the freed slot and store "
         "its contact inline";
  EXPECT_GT(bytes_for([&] { send(4000, other); }), 0u)
      << "a second distinct destination spills to a set";
  EXPECT_EQ(bytes_for([&] {
              send(4000, remote);
              send(4000, other);
            }),
            0u)
      << "repeat destinations are already recorded";
}

TEST(HotPathAlloc, UnbindingTheLastPortFreesTheTable) {
  // A host that ran one session must not keep its emptied port table: the
  // next bind starts again from a minimum-size one.
  Clock clock;
  Network net(clock);
  const NodeId host = net.add_node(net.root(), "host");
  auto noop = [](Network&, const Packet&) {};
  for (std::uint16_t port = 1000; port < 1100; ++port)
    net.bind(host, port, noop);
  for (std::uint16_t port = 1000; port < 1100; ++port) net.unbind(host, port);

  g_alloc_bytes.store(0);
  g_counting.store(true);
  net.bind(host, 7, noop);
  g_counting.store(false);
  EXPECT_GT(g_alloc_bytes.load(), 0u) << "the emptied table was kept";
  EXPECT_LT(g_alloc_bytes.load(), 1024u);
}

// Echoes 64 datagrams between `device` and the world's server to establish
// every mapping and grow every table past its final size, then returns the
// heap allocations made by 256 more round trips.
std::uint64_t allocations_of_warmed_echo(test::MiniNet& world, NodeId device,
                                         Ipv4Address device_address) {
  Endpoint device_ep{device_address, 4000};
  Endpoint server_ep{world.server_address, 5000};
  std::uint64_t echoed = 0;
  world.net.bind(world.server_host, server_ep.port,
                 [&](Network& net, const Packet& p) {
                   net.send(Packet::udp(server_ep, p.src), world.server_host);
                 });
  world.net.bind(device, device_ep.port,
                 [&](Network&, const Packet&) { ++echoed; });

  for (int i = 0; i < 64; ++i)
    world.net.send(Packet::udp(device_ep, server_ep), device);
  EXPECT_EQ(echoed, 64u);

  constexpr int kRounds = 256;
  g_allocs.store(0);
  g_counting.store(true);
  for (int i = 0; i < kRounds; ++i)
    world.net.send(Packet::udp(device_ep, server_ep), device);
  g_counting.store(false);

  EXPECT_EQ(echoed, 64u + kRounds);
  return g_allocs.load();
}

TEST(HotPathAlloc, WarmedNat444EchoRoundTripIsAllocationFree) {
  test::MiniNet world;
  test::LineConfig cfg;
  cfg.with_cpe = true;
  cfg.with_cgn = true;
  auto line = world.add_line(cfg);
  EXPECT_EQ(allocations_of_warmed_echo(world, line.device, line.device_address),
            0u)
      << "warmed-up echo round trips must not touch the heap";
}

// Same contract for the v6 translation paths: they ride the v4 engine plus a
// POD overlay, so a warmed 464XLAT (CLAT -> NAT64) or DS-Lite (B4 -> AFTR)
// echo must be as heap-silent as NAT444.
TEST(HotPathAlloc, WarmedNat64EchoRoundTripIsAllocationFree) {
  test::MiniNet world;
  world.ensure_nat64(netcore::well_known_pref64());
  auto line = world.add_nat64_line(/*with_clat=*/true);
  EXPECT_EQ(allocations_of_warmed_echo(world, line.device, line.device_address),
            0u)
      << "warmed-up NAT64 echo round trips must not touch the heap";
}

TEST(HotPathAlloc, WarmedDsLiteEchoRoundTripIsAllocationFree) {
  test::MiniNet world;
  world.ensure_aftr();
  auto line = world.add_dslite_line(Ipv4Address{10, 0, 0, 1});
  EXPECT_EQ(allocations_of_warmed_echo(world, line.device, line.device_address),
            0u)
      << "warmed-up DS-Lite echo round trips must not touch the heap";
}

}  // namespace
}  // namespace cgn::sim
