#include "netcore/ipv4.hpp"

#include <gtest/gtest.h>

namespace cgn::netcore {
namespace {

TEST(Ipv4Address, ParsesDottedQuad) {
  auto a = Ipv4Address::parse("192.168.1.7");
  EXPECT_EQ(a.octet(0), 192);
  EXPECT_EQ(a.octet(1), 168);
  EXPECT_EQ(a.octet(2), 1);
  EXPECT_EQ(a.octet(3), 7);
  EXPECT_EQ(a.to_string(), "192.168.1.7");
}

TEST(Ipv4Address, ParseRoundTripsBoundaries) {
  for (const char* text : {"0.0.0.0", "255.255.255.255", "100.64.0.1"})
    EXPECT_EQ(Ipv4Address::parse(text).to_string(), text);
}

TEST(Ipv4Address, RejectsMalformedInput) {
  for (const char* text :
       {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1..2.3", "1.2.3.4 ",
        " 1.2.3.4", "-1.2.3.4"})
    EXPECT_FALSE(Ipv4Address::try_parse(text).has_value()) << text;
  EXPECT_THROW(Ipv4Address::parse("999.0.0.1"), std::invalid_argument);
}

TEST(Ipv4Address, OrdersNumerically) {
  EXPECT_LT(Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2));
  EXPECT_LT(Ipv4Address(9, 255, 255, 255), Ipv4Address(10, 0, 0, 0));
}

TEST(Ipv4Address, OctetOutOfRangeThrows) {
  Ipv4Address a(1, 2, 3, 4);
  EXPECT_THROW((void)a.octet(4), std::out_of_range);
  EXPECT_THROW((void)a.octet(-1), std::out_of_range);
}

TEST(Endpoint, FormatsAndCompares) {
  Endpoint e{Ipv4Address(10, 0, 0, 1), 6881};
  EXPECT_EQ(e.to_string(), "10.0.0.1:6881");
  EXPECT_EQ(e, (Endpoint{Ipv4Address(10, 0, 0, 1), 6881}));
  EXPECT_NE(e, (Endpoint{Ipv4Address(10, 0, 0, 1), 6882}));
}

TEST(Ipv4Prefix, NormalizesHostBits) {
  Ipv4Prefix p(Ipv4Address(10, 1, 2, 3), 8);
  EXPECT_EQ(p.address(), Ipv4Address(10, 0, 0, 0));
  EXPECT_EQ(p.to_string(), "10.0.0.0/8");
}

TEST(Ipv4Prefix, ContainsAddresses) {
  auto p = Ipv4Prefix::parse("100.64.0.0/10");
  EXPECT_TRUE(p.contains(Ipv4Address(100, 64, 0, 0)));
  EXPECT_TRUE(p.contains(Ipv4Address(100, 127, 255, 255)));
  EXPECT_FALSE(p.contains(Ipv4Address(100, 128, 0, 0)));
  EXPECT_FALSE(p.contains(Ipv4Address(100, 63, 255, 255)));
}

TEST(Ipv4Prefix, ContainsPrefixes) {
  auto p10 = Ipv4Prefix::parse("10.0.0.0/8");
  EXPECT_TRUE(p10.contains(Ipv4Prefix::parse("10.5.0.0/16")));
  EXPECT_FALSE(p10.contains(Ipv4Prefix::parse("0.0.0.0/0")));
  EXPECT_TRUE(p10.contains(p10));
}

TEST(Ipv4Prefix, SizeAndAt) {
  auto p = Ipv4Prefix::parse("192.168.1.0/24");
  EXPECT_EQ(p.size(), 256u);
  EXPECT_EQ(p.at(0), Ipv4Address(192, 168, 1, 0));
  EXPECT_EQ(p.at(255), Ipv4Address(192, 168, 1, 255));
  EXPECT_THROW((void)p.at(256), std::out_of_range);
}

TEST(Ipv4Prefix, RejectsBadLengths) {
  EXPECT_THROW(Ipv4Prefix(Ipv4Address(), 33), std::invalid_argument);
  EXPECT_THROW(Ipv4Prefix(Ipv4Address(), -1), std::invalid_argument);
  EXPECT_THROW(Ipv4Prefix::parse("10.0.0.0"), std::invalid_argument);
  EXPECT_THROW(Ipv4Prefix::parse("10.0.0.0/x"), std::invalid_argument);
}

TEST(ReservedRanges, ClassifiesTable1) {
  EXPECT_EQ(classify_reserved(Ipv4Address(192, 168, 5, 5)),
            ReservedRange::r192);
  EXPECT_EQ(classify_reserved(Ipv4Address(172, 16, 0, 1)), ReservedRange::r172);
  EXPECT_EQ(classify_reserved(Ipv4Address(172, 31, 255, 255)),
            ReservedRange::r172);
  EXPECT_EQ(classify_reserved(Ipv4Address(172, 32, 0, 0)),
            ReservedRange::none);
  EXPECT_EQ(classify_reserved(Ipv4Address(10, 200, 3, 4)), ReservedRange::r10);
  EXPECT_EQ(classify_reserved(Ipv4Address(100, 64, 0, 1)),
            ReservedRange::r100);
  EXPECT_EQ(classify_reserved(Ipv4Address(100, 128, 0, 1)),
            ReservedRange::none);
  EXPECT_EQ(classify_reserved(Ipv4Address(8, 8, 8, 8)), ReservedRange::none);
}

TEST(ReservedRanges, ShorthandMatchesPaper) {
  EXPECT_EQ(shorthand(ReservedRange::r192), "192X");
  EXPECT_EQ(shorthand(ReservedRange::r172), "172X");
  EXPECT_EQ(shorthand(ReservedRange::r10), "10X");
  EXPECT_EQ(shorthand(ReservedRange::r100), "100X");
}

TEST(ReservedRanges, PrefixOfRoundTrips) {
  for (auto r : {ReservedRange::r192, ReservedRange::r172, ReservedRange::r10,
                 ReservedRange::r100}) {
    auto p = prefix_of(r);
    EXPECT_EQ(classify_reserved(p.address()), r);
    EXPECT_EQ(classify_reserved(p.at(p.size() - 1)), r);
  }
  EXPECT_THROW((void)prefix_of(ReservedRange::none), std::invalid_argument);
}

TEST(ReservedRanges, IsReservedAgrees) {
  EXPECT_TRUE(is_reserved(Ipv4Address(10, 0, 0, 1)));
  EXPECT_FALSE(is_reserved(Ipv4Address(11, 0, 0, 1)));
}

TEST(Slash24, ExtractsBlock) {
  EXPECT_EQ(slash24_of(Ipv4Address(10, 1, 2, 200)),
            Ipv4Prefix::parse("10.1.2.0/24"));
  EXPECT_EQ(slash24_of(Ipv4Address(10, 1, 2, 200)),
            slash24_of(Ipv4Address(10, 1, 2, 3)));
  EXPECT_NE(slash24_of(Ipv4Address(10, 1, 2, 200)),
            slash24_of(Ipv4Address(10, 1, 3, 200)));
}

}  // namespace
}  // namespace cgn::netcore
