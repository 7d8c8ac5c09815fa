#include "stun/stun.hpp"

#include <gtest/gtest.h>

#include "test_topology.hpp"

namespace cgn::stun {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;
using test::LineConfig;
using test::MiniNet;

struct StunWorld {
  MiniNet mini;
  std::unique_ptr<StunServer> server;

  StunWorld() {
    sim::NodeId host = mini.net.add_node(mini.net.root(), "stun");
    server = std::make_unique<StunServer>(host, Ipv4Address{16, 255, 1, 1},
                                          Ipv4Address{16, 255, 1, 2}, 3478,
                                          3479);
    server->install(mini.net);
  }
};

TEST(StunClient, OpenInternetHostClassifiesAsOpen) {
  StunWorld w;
  LineConfig lc;
  lc.with_cpe = false;
  auto line = w.mini.add_line(lc);
  StunClient client(w.mini.net, line.device, {line.device_address, 50000});
  auto outcome = client.classify(*w.server);
  EXPECT_EQ(outcome.type, StunType::open_internet);
  ASSERT_TRUE(outcome.mapped.has_value());
  EXPECT_EQ(outcome.mapped->address, line.device_address);
}

struct StunCase {
  nat::MappingType nat_type;
  StunType expected;
};

class StunClassification : public ::testing::TestWithParam<StunCase> {};

TEST_P(StunClassification, DetectsNatType) {
  const StunCase& c = GetParam();
  StunWorld w;
  LineConfig lc;
  lc.with_cpe = true;
  lc.cpe.name = "cpe";
  lc.cpe.mapping = c.nat_type;
  // Symmetric NATs must not preserve ports, or STUN cannot tell them apart
  // from restricted cones (a known STUN limitation).
  lc.cpe.port_allocation = c.nat_type == nat::MappingType::symmetric
                               ? nat::PortAllocation::sequential
                               : nat::PortAllocation::preservation;
  auto line = w.mini.add_line(lc);

  StunClient client(w.mini.net, line.device, {line.device_address, 50000});
  auto outcome = client.classify(*w.server);
  EXPECT_EQ(outcome.type, c.expected)
      << "got " << to_string(outcome.type);
  ASSERT_TRUE(outcome.mapped.has_value());
  EXPECT_TRUE(line.cpe->owns_external(outcome.mapped->address));
}

INSTANTIATE_TEST_SUITE_P(
    AllNatTypes, StunClassification,
    ::testing::Values(
        StunCase{nat::MappingType::full_cone, StunType::full_cone},
        StunCase{nat::MappingType::address_restricted,
                 StunType::address_restricted},
        StunCase{nat::MappingType::port_address_restricted,
                 StunType::port_address_restricted},
        StunCase{nat::MappingType::symmetric, StunType::symmetric}),
    [](const auto& info) {
      return std::string(
          info.param.expected == StunType::full_cone ? "full_cone"
          : info.param.expected == StunType::address_restricted
              ? "address_restricted"
          : info.param.expected == StunType::port_address_restricted
              ? "port_address_restricted"
              : "symmetric");
    });

TEST(StunClassification, Nat444ReportsMostRestrictiveOnPath) {
  // Full-cone CPE behind a restrictive CGN: the composite must classify as
  // the CGN (the paper's argument for using the most permissive STUN type
  // per AS as a CGN lower bound). A symmetric CGN maps per destination; a
  // port-address-restricted one passes Test I' with one mapping for both
  // server addresses, the endpoint-independent mapping RFC 6888 REQ-1
  // asks of a CGN.
  for (auto cgn_type : {nat::MappingType::symmetric,
                        nat::MappingType::port_address_restricted}) {
    StunWorld w;
    LineConfig lc;
    lc.with_cpe = true;
    lc.with_cgn = true;
    lc.cpe.name = "cpe";
    lc.cpe.mapping = nat::MappingType::full_cone;
    lc.cgn.name = "cgn";
    lc.cgn.mapping = cgn_type;
    lc.cgn.port_allocation = nat::PortAllocation::random;
    auto line = w.mini.add_line(lc);
    StunClient client(w.mini.net, line.device, {line.device_address, 50000});
    auto outcome = client.classify(*w.server);
    EXPECT_EQ(outcome.type, cgn_type == nat::MappingType::symmetric
                                ? StunType::symmetric
                                : StunType::port_address_restricted)
        << "CGN " << nat::to_string(cgn_type) << ", got "
        << to_string(outcome.type);
  }
}

TEST(StunClassification, Nat444PermissiveComposite) {
  StunWorld w;
  LineConfig lc;
  lc.with_cpe = true;
  lc.with_cgn = true;
  lc.cpe.name = "cpe";
  lc.cpe.mapping = nat::MappingType::full_cone;
  lc.cgn.name = "cgn";
  lc.cgn.mapping = nat::MappingType::full_cone;
  auto line = w.mini.add_line(lc);
  StunClient client(w.mini.net, line.device, {line.device_address, 50000});
  auto outcome = client.classify(*w.server);
  EXPECT_EQ(outcome.type, StunType::full_cone);
}

TEST(StunTypes, PermissivenessOrdering) {
  EXPECT_LT(*permissiveness(StunType::symmetric),
            *permissiveness(StunType::port_address_restricted));
  EXPECT_LT(*permissiveness(StunType::port_address_restricted),
            *permissiveness(StunType::address_restricted));
  EXPECT_LT(*permissiveness(StunType::address_restricted),
            *permissiveness(StunType::full_cone));
  EXPECT_FALSE(permissiveness(StunType::open_internet).has_value());
  EXPECT_FALSE(permissiveness(StunType::blocked).has_value());
  EXPECT_TRUE(is_nat_type(StunType::symmetric));
  EXPECT_FALSE(is_nat_type(StunType::open_internet));
}

}  // namespace
}  // namespace cgn::stun
