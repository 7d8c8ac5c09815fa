#include "netalyzr/client.hpp"
#include "netalyzr/server.hpp"

#include <gtest/gtest.h>

#include <cstdint>

#include "test_topology.hpp"

namespace cgn::netalyzr {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;
using test::LineConfig;
using test::MiniNet;

struct NetalyzrWorld {
  MiniNet mini;
  std::unique_ptr<NetalyzrServer> server;

  NetalyzrWorld() {
    sim::NodeId host = mini.net.add_node(mini.net.root(), "netalyzr");
    server = std::make_unique<NetalyzrServer>(host,
                                              Ipv4Address{16, 255, 2, 1});
    server->install(mini.net);
  }

  ClientContext context_for(const MiniNet::Line& line, bool upnp) {
    ClientContext ctx;
    ctx.host = line.device;
    ctx.device_address = line.device_address;
    ctx.asn = 1;
    ctx.upnp_cpe = upnp ? line.cpe : nullptr;
    return ctx;
  }
};

TEST(NetalyzrClient, BasicSessionNoNat) {
  NetalyzrWorld w;
  LineConfig lc;
  lc.with_cpe = false;
  auto line = w.mini.add_line(lc);
  NetalyzrClient client(w.context_for(line, false), *line.demux, sim::Rng(1));
  auto session = client.run_basic(w.mini.net, *w.server);
  EXPECT_EQ(session.ip_dev, line.device_address);
  ASSERT_TRUE(session.ip_pub.has_value());
  EXPECT_EQ(*session.ip_pub, line.device_address) << "no translation";
  EXPECT_FALSE(session.ip_cpe.has_value());
  ASSERT_EQ(session.tcp_flows.size(), 10u);
  for (const auto& f : session.tcp_flows)
    EXPECT_EQ(f.observed.port, f.local_port);
}

TEST(NetalyzrClient, BasicSessionBehindCpe) {
  NetalyzrWorld w;
  LineConfig lc;
  lc.with_cpe = true;
  lc.cpe.name = "HomeBox 3000";
  lc.cpe.mapping = nat::MappingType::address_restricted;
  auto line = w.mini.add_line(lc);
  NetalyzrClient client(w.context_for(line, true), *line.demux, sim::Rng(2));
  auto session = client.run_basic(w.mini.net, *w.server);
  EXPECT_EQ(session.ip_dev, Ipv4Address(192, 168, 1, 2));
  ASSERT_TRUE(session.ip_cpe.has_value());
  EXPECT_EQ(*session.ip_cpe, Ipv4Address(16, 0, 1, 2));
  ASSERT_TRUE(session.ip_pub.has_value());
  EXPECT_EQ(*session.ip_pub, *session.ip_cpe) << "single NAT: cpe == pub";
  EXPECT_EQ(session.cpe_model.value_or(""), "HomeBox 3000");
}

TEST(NetalyzrClient, Nat444SessionShowsLayeredAddresses) {
  NetalyzrWorld w;
  LineConfig lc;
  lc.with_cpe = true;
  lc.with_cgn = true;
  lc.cgn_hop = 4;
  lc.cpe.name = "cpe";
  lc.cgn.name = "cgn";
  lc.line_internal = Ipv4Address{100, 64, 9, 2};
  auto line = w.mini.add_line(lc);
  NetalyzrClient client(w.context_for(line, true), *line.demux, sim::Rng(3));
  auto session = client.run_basic(w.mini.net, *w.server);
  ASSERT_TRUE(session.ip_cpe.has_value());
  EXPECT_EQ(netcore::classify_reserved(*session.ip_cpe),
            netcore::ReservedRange::r100)
      << "the CPE's WAN address is CGN-internal";
  ASSERT_TRUE(session.ip_pub.has_value());
  EXPECT_TRUE(line.cgn->owns_external(*session.ip_pub));
  EXPECT_NE(*session.ip_cpe, *session.ip_pub);
}

TEST(NetalyzrClient, PortTranslationVisibleThroughRandomCgn) {
  NetalyzrWorld w;
  LineConfig lc;
  lc.with_cpe = false;
  lc.with_cgn = true;
  lc.cgn.name = "cgn";
  lc.cgn.port_allocation = nat::PortAllocation::random;
  lc.cgn.port_min = 1024;
  auto line = w.mini.add_line(lc);
  NetalyzrClient client(w.context_for(line, false), *line.demux, sim::Rng(4));
  auto session = client.run_basic(w.mini.net, *w.server);
  ASSERT_EQ(session.tcp_flows.size(), 10u);
  int translated = 0;
  for (const auto& f : session.tcp_flows)
    if (f.observed.port != f.local_port) ++translated;
  EXPECT_GE(translated, 9) << "random allocation rarely matches by chance";
}

// --- TTL-driven NAT enumeration ------------------------------------------------

// gtest prints a parameter without operator<< as its raw bytes, and that text
// is part of the test's name; `reserved` fills what would otherwise be
// uninitialised padding so the name is the same on every run.
struct EnumCase {
  EnumCase(bool cpe, bool cgn, int hop, double cgn_t, double cpe_t)
      : with_cpe(cpe), with_cgn(cgn), cgn_hop(hop), cgn_timeout(cgn_t),
        cpe_timeout(cpe_t) {}
  bool with_cpe;
  bool with_cgn;
  std::uint16_t reserved = 0;
  int cgn_hop;
  double cgn_timeout;
  double cpe_timeout;
};

class TtlEnumeration : public ::testing::TestWithParam<EnumCase> {};

TEST_P(TtlEnumeration, FindsStatefulHopsAndTimeouts) {
  const EnumCase& c = GetParam();
  NetalyzrWorld w;
  LineConfig lc;
  lc.with_cpe = c.with_cpe;
  lc.with_cgn = c.with_cgn;
  lc.cgn_hop = c.cgn_hop;
  lc.cpe.name = "cpe";
  lc.cpe.udp_timeout_s = c.cpe_timeout;
  lc.cgn.name = "cgn";
  lc.cgn.udp_timeout_s = c.cgn_timeout;
  auto line = w.mini.add_line(lc);

  NetalyzrClient client(w.context_for(line, false), *line.demux, sim::Rng(5));
  SessionResult session;
  session.ip_dev = line.device_address;
  TtlEnumConfig cfg;
  client.run_enumeration(w.mini.net, w.mini.clock, *w.server, cfg, session);

  ASSERT_TRUE(session.enumeration.has_value());
  const auto& e = *session.enumeration;
  ASSERT_GT(e.path_hops, 0);

  std::vector<int> stateful;
  for (const auto& h : e.hops)
    if (h.stateful) stateful.push_back(h.hop);

  std::vector<int> expected;
  if (c.with_cpe) expected.push_back(1);
  if (c.with_cgn) expected.push_back(c.cgn_hop);
  EXPECT_EQ(stateful, expected);

  for (const auto& h : e.hops) {
    if (!h.stateful) continue;
    ASSERT_TRUE(h.timeout_s.has_value()) << "hop " << h.hop;
    double truth = h.hop == 1 && c.with_cpe ? c.cpe_timeout : c.cgn_timeout;
    EXPECT_GE(*h.timeout_s, truth);
    EXPECT_LE(*h.timeout_s, truth + 10.0)
        << "timeout measured at 10 s granularity";
  }
  EXPECT_EQ(e.most_distant_nat(), expected.empty() ? 0 : expected.back());
}

INSTANTIATE_TEST_SUITE_P(
    Archetypes, TtlEnumeration,
    ::testing::Values(
        // Archetype A: home NAT only.
        EnumCase{true, false, 0, 0.0, 65.0},
        // Archetype B: carrier NAT only, close and far.
        EnumCase{false, true, 2, 35.0, 0.0},
        EnumCase{false, true, 7, 120.0, 0.0},
        // Archetype C: NAT444 with distinct timeouts.
        EnumCase{true, true, 4, 35.0, 65.0},
        EnumCase{true, true, 3, 10.0, 180.0},
        EnumCase{true, true, 6, 65.0, 65.0}),
    [](const auto& info) {
      const EnumCase& c = info.param;
      std::string name = c.with_cpe ? "cpe" : "nocpe";
      if (c.with_cgn)
        name += "_cgn" + std::to_string(c.cgn_hop) + "_t" +
                std::to_string(static_cast<int>(c.cgn_timeout));
      return name;
    });

TEST(TtlEnumerationLimits, LongTimeoutGoesUnnoticed) {
  // A NAT with a timeout beyond the 200 s probe budget must look stateless —
  // the paper's Table 7 "mismatch / no CGN detected" cell.
  NetalyzrWorld w;
  LineConfig lc;
  lc.with_cpe = true;
  lc.cpe.name = "cpe";
  lc.cpe.udp_timeout_s = 600.0;
  auto line = w.mini.add_line(lc);
  NetalyzrClient client(w.context_for(line, false), *line.demux, sim::Rng(6));
  SessionResult session;
  TtlEnumConfig cfg;
  client.run_enumeration(w.mini.net, w.mini.clock, *w.server, cfg, session);
  ASSERT_TRUE(session.enumeration.has_value());
  EXPECT_FALSE(session.enumeration->found_stateful());
}

TEST(NetalyzrServer, ObservedEndpointsPerFlow) {
  NetalyzrWorld w;
  LineConfig lc;
  lc.with_cpe = false;
  auto line = w.mini.add_line(lc);
  EXPECT_FALSE(w.server->observed_endpoint(42).has_value());
  sim::Packet init = sim::Packet::udp({line.device_address, 9999},
                                      w.server->udp_endpoint());
  init.payload = NetalyzrMessage{UdpInit{42}};
  w.mini.net.send(std::move(init), line.device);
  auto obs = w.server->observed_endpoint(42);
  ASSERT_TRUE(obs.has_value());
  EXPECT_EQ(*obs, (Endpoint{line.device_address, 9999}));
  w.server->reset();
  EXPECT_FALSE(w.server->observed_endpoint(42).has_value());
}

}  // namespace
}  // namespace cgn::netalyzr
