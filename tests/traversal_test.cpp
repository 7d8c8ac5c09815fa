// UDP hole punching across every NAT-type pairing: the classic RFC 5128
// compatibility matrix must *emerge* from the NAT engine, not be coded in.
#include "traversal/hole_punch.hpp"

#include <gtest/gtest.h>

#include "test_topology.hpp"

namespace cgn::traversal {
namespace {

using nat::MappingType;
using netcore::Endpoint;
using netcore::Ipv4Address;
using test::LineConfig;
using test::MiniNet;

struct PunchWorld {
  MiniNet mini;
  std::unique_ptr<RendezvousServer> server;
  MiniNet::Line line_a, line_b;

  PunchWorld(MappingType type_a, MappingType type_b,
             nat::PortAllocation alloc_a = nat::PortAllocation::sequential,
             nat::PortAllocation alloc_b = nat::PortAllocation::sequential) {
    sim::NodeId host = mini.net.add_node(mini.net.root(), "rendezvous");
    server = std::make_unique<RendezvousServer>(host,
                                                Ipv4Address{16, 255, 0, 99});
    server->install(mini.net);

    LineConfig lc;
    lc.with_cpe = true;
    lc.cpe.name = "nat-a";
    lc.cpe.mapping = type_a;
    lc.cpe.port_allocation = alloc_a;
    lc.line_public = Ipv4Address{16, 0, 1, 2};
    line_a = mini.add_line(lc, 1);

    lc.cpe.name = "nat-b";
    lc.cpe.mapping = type_b;
    lc.cpe.port_allocation = alloc_b;
    lc.line_public = Ipv4Address{16, 0, 2, 2};
    lc.device_address = Ipv4Address{192, 168, 1, 9};
    line_b = mini.add_line(lc, 2);
  }

  PunchResult attempt() {
    PunchPeer a{line_a.device, {line_a.device_address, 50001}};
    PunchPeer b{line_b.device, {line_b.device_address, 50002}};
    return punch(mini.net, *server, a, b, /*session=*/1);
  }
};

struct MatrixCase {
  MappingType a, b;
  PunchResult expected;
};

class PunchMatrix : public ::testing::TestWithParam<MatrixCase> {};

TEST_P(PunchMatrix, MatchesRfc5128Expectations) {
  const MatrixCase& c = GetParam();
  PunchWorld world(c.a, c.b);
  EXPECT_EQ(world.attempt(), c.expected)
      << to_string(c.a) << " vs " << to_string(c.b);
}

// RFC 5128/STUN folklore: cone-to-cone combinations punch, symmetric works
// against full cone and (via address-restricted filtering with paired
// pooling) against address-restricted; symmetric vs port-address-restricted
// or symmetric fails.
INSTANTIATE_TEST_SUITE_P(
    Pairings, PunchMatrix,
    ::testing::Values(
        MatrixCase{MappingType::full_cone, MappingType::full_cone,
                   PunchResult::direct_both},
        MatrixCase{MappingType::full_cone, MappingType::address_restricted,
                   PunchResult::direct_both},
        MatrixCase{MappingType::address_restricted,
                   MappingType::address_restricted,
                   PunchResult::direct_both},
        MatrixCase{MappingType::port_address_restricted,
                   MappingType::port_address_restricted,
                   PunchResult::direct_both},
        MatrixCase{MappingType::address_restricted,
                   MappingType::port_address_restricted,
                   PunchResult::direct_both},
        MatrixCase{MappingType::symmetric, MappingType::full_cone,
                   PunchResult::direct_both},
        MatrixCase{MappingType::symmetric, MappingType::address_restricted,
                   PunchResult::direct_both},
        MatrixCase{MappingType::symmetric,
                   MappingType::port_address_restricted,
                   PunchResult::relay_needed},
        MatrixCase{MappingType::symmetric, MappingType::symmetric,
                   PunchResult::relay_needed}),
    [](const auto& info) {
      auto clean = [](std::string_view s) {
        std::string out;
        for (char c : s)
          if (c != ' ' && c != '-') out.push_back(c);
        return out;
      };
      return clean(nat::to_string(info.param.a)) + "_vs_" +
             clean(nat::to_string(info.param.b));
    });

TEST(HolePunch, OpenHostsAlwaysConnect) {
  MiniNet mini;
  sim::NodeId host = mini.net.add_node(mini.net.root(), "rendezvous");
  RendezvousServer server(host, Ipv4Address{16, 255, 0, 99});
  server.install(mini.net);
  LineConfig lc;
  lc.with_cpe = false;
  lc.line_public = Ipv4Address{16, 0, 1, 2};
  auto a = mini.add_line(lc, 1);
  lc.line_public = Ipv4Address{16, 0, 2, 2};
  auto b = mini.add_line(lc, 2);
  PunchPeer pa{a.device, {a.device_address, 50001}};
  PunchPeer pb{b.device, {b.device_address, 50002}};
  EXPECT_EQ(punch(mini.net, server, pa, pb, 1), PunchResult::direct_both);
}

TEST(HolePunch, SymmetricCgnOverPermissiveCpeStillBlocks) {
  // NAT444: full-cone CPEs under symmetric CGNs on both sides — the CGN
  // dominates, exactly the paper's point about CGNs being the restrictive
  // layer.
  MiniNet mini;
  sim::NodeId host = mini.net.add_node(mini.net.root(), "rendezvous");
  RendezvousServer server(host, Ipv4Address{16, 255, 0, 99});
  server.install(mini.net);
  LineConfig lc;
  lc.with_cpe = true;
  lc.with_cgn = true;
  lc.cpe.name = "cpe";
  lc.cpe.mapping = nat::MappingType::full_cone;
  lc.cgn.name = "cgn";
  lc.cgn.mapping = nat::MappingType::symmetric;
  lc.cgn.port_allocation = nat::PortAllocation::random;
  auto a = mini.add_line(lc, 1);
  lc.line_internal = Ipv4Address{10, 0, 5, 2};
  auto b = mini.add_line(lc, 2);
  PunchPeer pa{a.device, {a.device_address, 50001}};
  PunchPeer pb{b.device, {b.device_address, 50002}};
  EXPECT_EQ(punch(mini.net, server, pa, pb, 1), PunchResult::relay_needed);
}

TEST(HolePunch, FullConeCgnsAllowP2p) {
  MiniNet mini;
  sim::NodeId host = mini.net.add_node(mini.net.root(), "rendezvous");
  RendezvousServer server(host, Ipv4Address{16, 255, 0, 99});
  server.install(mini.net);
  LineConfig lc;
  lc.with_cpe = true;
  lc.with_cgn = true;
  lc.cpe.name = "cpe";
  lc.cpe.mapping = nat::MappingType::address_restricted;
  lc.cgn.name = "cgn";
  lc.cgn.mapping = nat::MappingType::full_cone;
  auto a = mini.add_line(lc, 1);
  lc.line_internal = Ipv4Address{10, 0, 5, 2};
  auto b = mini.add_line(lc, 2);
  PunchPeer pa{a.device, {a.device_address, 50001}};
  PunchPeer pb{b.device, {b.device_address, 50002}};
  EXPECT_EQ(punch(mini.net, server, pa, pb, 1), PunchResult::direct_both);
}

}  // namespace
}  // namespace cgn::traversal
