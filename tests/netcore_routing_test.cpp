#include "netcore/prefix_carver.hpp"
#include "netcore/as_registry.hpp"
#include "netcore/routing_table.hpp"

#include <gtest/gtest.h>

namespace cgn::netcore {
namespace {

TEST(RoutingTable, LongestPrefixMatchWins) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 100);
  rt.announce(Ipv4Prefix::parse("16.1.0.0/16"), 200);
  rt.announce(Ipv4Prefix::parse("16.1.2.0/24"), 300);
  EXPECT_EQ(rt.origin_of(Ipv4Address::parse("16.9.9.9")), 100u);
  EXPECT_EQ(rt.origin_of(Ipv4Address::parse("16.1.9.9")), 200u);
  EXPECT_EQ(rt.origin_of(Ipv4Address::parse("16.1.2.9")), 300u);
  EXPECT_FALSE(rt.origin_of(Ipv4Address::parse("17.0.0.1")).has_value());
}

TEST(RoutingTable, IsRoutedAndLookupPrefixLength) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.32.0.0/12"), 7);
  EXPECT_TRUE(rt.is_routed(Ipv4Address::parse("16.47.255.255")));
  EXPECT_FALSE(rt.is_routed(Ipv4Address::parse("16.48.0.0")));
  auto route = rt.lookup(Ipv4Address::parse("16.40.1.1"));
  ASSERT_TRUE(route.has_value());
  EXPECT_EQ(route->prefix.length(), 12);
  EXPECT_EQ(route->origin, 7u);
}

TEST(RoutingTable, WithdrawRemovesExactPrefix) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 1);
  rt.announce(Ipv4Prefix::parse("16.5.0.0/16"), 2);
  EXPECT_TRUE(rt.withdraw(Ipv4Prefix::parse("16.5.0.0/16")));
  EXPECT_FALSE(rt.withdraw(Ipv4Prefix::parse("16.5.0.0/16")));
  EXPECT_FALSE(rt.withdraw(Ipv4Prefix::parse("16.6.0.0/16")));
  EXPECT_EQ(rt.origin_of(Ipv4Address::parse("16.5.1.1")), 1u);
  EXPECT_EQ(rt.prefix_count(), 1u);
}

TEST(RoutingTable, ReannouncementOverwritesOrigin) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 1);
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 9);
  EXPECT_EQ(rt.origin_of(Ipv4Address::parse("16.1.1.1")), 9u);
  EXPECT_EQ(rt.prefix_count(), 1u);
}

TEST(RoutingTable, DefaultRouteAndHostRoute) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("0.0.0.0/0"), 1);
  rt.announce(Ipv4Prefix::parse("16.1.1.1/32"), 2);
  EXPECT_EQ(rt.origin_of(Ipv4Address::parse("200.1.1.1")), 1u);
  EXPECT_EQ(rt.origin_of(Ipv4Address::parse("16.1.1.1")), 2u);
}

TEST(RoutingTable, RoutesEnumeration) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 1);
  rt.announce(Ipv4Prefix::parse("17.0.0.0/8"), 2);
  rt.announce(Ipv4Prefix::parse("16.128.0.0/9"), 3);
  auto routes = rt.routes();
  EXPECT_EQ(routes.size(), 3u);
}

TEST(AsRegistry, AddAndLookup) {
  AsRegistry reg;
  reg.add({.asn = 1, .name = "A", .region = Rir::ripe, .cellular = false,
           .pbl_eyeball = true, .apnic_eyeball = false});
  reg.add({.asn = 2, .name = "B", .region = Rir::apnic, .cellular = true,
           .pbl_eyeball = true, .apnic_eyeball = true});
  EXPECT_TRUE(reg.contains(1));
  EXPECT_FALSE(reg.contains(3));
  EXPECT_EQ(reg.get(2).name, "B");
  EXPECT_THROW((void)reg.get(3), std::out_of_range);
  EXPECT_EQ(reg.find(3), nullptr);
  EXPECT_THROW(reg.add({.asn = 1, .name = "dup"}), std::invalid_argument);
  EXPECT_EQ(reg.count_pbl_eyeball(), 2u);
  EXPECT_EQ(reg.count_apnic_eyeball(), 1u);
  EXPECT_EQ(reg.count_cellular(), 1u);
  EXPECT_EQ(reg.eyeballs_in_region(Rir::ripe, false).size(), 1u);
  EXPECT_EQ(reg.eyeballs_in_region(Rir::ripe, true).size(), 0u);
}

TEST(PrefixCarver, CarvesDisjointAlignedBlocks) {
  PrefixCarver carver(Ipv4Prefix::parse("16.0.0.0/8"));
  auto a = carver.next(24);
  auto b = carver.next(24);
  auto c = carver.next(20);
  EXPECT_NE(a, b);
  EXPECT_FALSE(a.contains(b));
  EXPECT_FALSE(c.contains(a.address()) && c.contains(b.address()))
      << "the /20 must not overlap earlier carves";
  EXPECT_EQ(a.to_string(), "16.0.0.0/24");
  EXPECT_EQ(b.to_string(), "16.0.1.0/24");
  EXPECT_EQ(c.to_string(), "16.0.16.0/20");
}

TEST(PrefixCarver, ExhaustsAndRejects) {
  PrefixCarver carver(Ipv4Prefix::parse("16.0.0.0/30"));
  EXPECT_THROW(carver.next(8), std::invalid_argument);
  (void)carver.next(31);
  (void)carver.next(31);
  EXPECT_THROW(carver.next(31), std::length_error);
}

}  // namespace
}  // namespace cgn::netcore
