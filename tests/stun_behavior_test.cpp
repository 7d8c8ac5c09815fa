// RFC 5780 behaviour discovery: mapping and filtering dimensions recovered
// independently for every NAT type.
#include <gtest/gtest.h>

#include "stun/stun.hpp"
#include "test_topology.hpp"

namespace cgn::stun {
namespace {

using netcore::Ipv4Address;
using test::LineConfig;
using test::MiniNet;

struct DiscoveryWorld {
  MiniNet mini;
  std::unique_ptr<StunServer> server;
  MiniNet::Line line;

  explicit DiscoveryWorld(std::optional<nat::MappingType> type) {
    sim::NodeId host = mini.net.add_node(mini.net.root(), "stun");
    server = std::make_unique<StunServer>(host, Ipv4Address{16, 255, 1, 1},
                                          Ipv4Address{16, 255, 1, 2}, 3478,
                                          3479);
    server->install(mini.net);
    LineConfig lc;
    lc.with_cpe = type.has_value();
    if (type) {
      lc.cpe.name = "nat";
      lc.cpe.mapping = *type;
      lc.cpe.port_allocation = nat::PortAllocation::sequential;
    }
    line = mini.add_line(lc);
  }

  BehaviorDiscovery run() {
    StunClient client(mini.net, line.device, {line.device_address, 47000});
    return client.discover(*server);
  }
};

TEST(BehaviorDiscovery, OpenHostIsNotNatted) {
  DiscoveryWorld w(std::nullopt);
  auto d = w.run();
  ASSERT_TRUE(d.responded);
  EXPECT_FALSE(d.natted);
  EXPECT_EQ(d.mapping, MappingBehavior::endpoint_independent);
  EXPECT_EQ(d.filtering, FilteringBehavior::endpoint_independent);
}

struct BehaviorCase {
  nat::MappingType type;
  MappingBehavior mapping;
  FilteringBehavior filtering;
};

class BehaviorMatrix : public ::testing::TestWithParam<BehaviorCase> {};

TEST_P(BehaviorMatrix, SeparatesMappingFromFiltering) {
  const BehaviorCase& c = GetParam();
  DiscoveryWorld w(c.type);
  auto d = w.run();
  ASSERT_TRUE(d.responded);
  EXPECT_TRUE(d.natted);
  EXPECT_EQ(d.mapping, c.mapping) << to_string(d.mapping);
  EXPECT_EQ(d.filtering, c.filtering) << to_string(d.filtering);
}

INSTANTIATE_TEST_SUITE_P(
    AllTypes, BehaviorMatrix,
    ::testing::Values(
        BehaviorCase{nat::MappingType::full_cone,
                     MappingBehavior::endpoint_independent,
                     FilteringBehavior::endpoint_independent},
        BehaviorCase{nat::MappingType::address_restricted,
                     MappingBehavior::endpoint_independent,
                     FilteringBehavior::address_dependent},
        BehaviorCase{nat::MappingType::port_address_restricted,
                     MappingBehavior::endpoint_independent,
                     FilteringBehavior::address_and_port_dependent},
        BehaviorCase{nat::MappingType::symmetric,
                     MappingBehavior::address_and_port_dependent,
                     FilteringBehavior::address_and_port_dependent}),
    [](const auto& info) {
      auto clean = [](std::string_view s) {
        std::string out;
        for (char ch : s)
          if (ch != ' ' && ch != '-') out.push_back(ch);
        return out;
      };
      return clean(nat::to_string(info.param.type));
    });

TEST(BehaviorDiscovery, Rfc6888RequirementCheck) {
  // RFC 6888 REQ-1 (via RFC 4787 REQ-1): a CGN must use endpoint-independent
  // mapping. The discovery result is exactly the compliance check an
  // operator would run; symmetric CGNs — which the paper found at 11% of
  // non-cellular and 40% of cellular CGN ASes — fail it.
  DiscoveryWorld compliant(nat::MappingType::port_address_restricted);
  EXPECT_EQ(compliant.run().mapping, MappingBehavior::endpoint_independent);
  DiscoveryWorld violating(nat::MappingType::symmetric);
  EXPECT_EQ(violating.run().mapping,
            MappingBehavior::address_and_port_dependent);
}

}  // namespace
}  // namespace cgn::stun
