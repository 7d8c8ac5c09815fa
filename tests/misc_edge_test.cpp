// Remaining edge cases across modules: Netalyzr without UPnP, unreachable
// servers, analysis accessors, hash/equality contracts.
#include <gtest/gtest.h>

#include "analysis/bt_detector.hpp"
#include "analysis/netalyzr_detector.hpp"
#include "analysis/path_analysis.hpp"
#include "crawler/crawl_dataset.hpp"
#include "netalyzr/client.hpp"
#include "netalyzr/server.hpp"
#include "test_topology.hpp"

namespace cgn {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;
using test::LineConfig;
using test::MiniNet;

TEST(NetalyzrEdge, SessionWithoutUpnpHasNoCpeAddress) {
  MiniNet mini;
  sim::NodeId host = mini.net.add_node(mini.net.root(), "nz");
  netalyzr::NetalyzrServer server(host, Ipv4Address{16, 255, 2, 1});
  server.install(mini.net);
  LineConfig lc;
  lc.with_cpe = true;
  lc.cpe.name = "no-upnp-box";
  auto line = mini.add_line(lc);
  netalyzr::ClientContext ctx;
  ctx.host = line.device;
  ctx.device_address = line.device_address;
  ctx.upnp_cpe = nullptr;  // UPnP disabled or unanswered (60% of sessions)
  netalyzr::NetalyzrClient client(ctx, mini.net, sim::Rng(1));
  auto session = client.run_basic(server);
  EXPECT_FALSE(session.ip_cpe.has_value());
  EXPECT_FALSE(session.cpe_model.has_value());
  EXPECT_TRUE(session.ip_pub.has_value());
}

TEST(NetalyzrEdge, UnreachableServerYieldsEmptySession) {
  MiniNet mini;
  // A server object whose address is never registered: all flows die.
  sim::NodeId host = mini.net.add_node(mini.net.root(), "ghost");
  netalyzr::NetalyzrServer server(host, Ipv4Address{16, 254, 9, 9});
  // (no install)
  LineConfig lc;
  lc.with_cpe = false;
  auto line = mini.add_line(lc);
  netalyzr::ClientContext ctx;
  ctx.host = line.device;
  ctx.device_address = line.device_address;
  netalyzr::NetalyzrClient client(ctx, mini.net, sim::Rng(1));
  auto session = client.run_basic(server);
  EXPECT_TRUE(session.tcp_flows.empty());
  EXPECT_FALSE(session.ip_pub.has_value());

  netalyzr::SessionResult result = session;
  client.run_enumeration(mini.clock, server, result);
  ASSERT_TRUE(result.enumeration.has_value());
  EXPECT_EQ(result.enumeration->path_hops, 0);
  EXPECT_FALSE(result.enumeration->found_stateful());
}

TEST(NetalyzrEdge, MostDistantNatOfEmptyEnumerationIsZero) {
  netalyzr::TtlEnumResult e;
  EXPECT_EQ(e.most_distant_nat(), 0);
  EXPECT_FALSE(e.found_stateful());
}

TEST(AnalysisEdge, Table4ColumnFractionHandlesEmpty) {
  analysis::Table4Column col;
  EXPECT_EQ(col.fraction(analysis::Table4Row::r192), 0.0);
}

TEST(AnalysisEdge, VantageClassNames) {
  EXPECT_EQ(analysis::to_string(analysis::VantageClass::noncellular_no_cgn),
            "non-cellular no CGN");
  EXPECT_EQ(analysis::to_string(analysis::VantageClass::cellular_cgn),
            "cellular CGN");
}

TEST(AnalysisEdge, DetectorsHandleEmptyInputs) {
  netcore::RoutingTable routes;
  auto nz = analysis::NetalyzrDetector().analyze({}, routes);
  EXPECT_TRUE(nz.per_as.empty());
  EXPECT_EQ(nz.covered(false), 0u);
  crawler::CrawlDataset empty;
  auto bt = analysis::BtDetector().analyze(empty, routes);
  EXPECT_EQ(bt.covered_ases(), 0u);
  EXPECT_EQ(bt.cgn_positive_ases(), 0u);
  auto path = analysis::PathAnalyzer().analyze({}, routes, {});
  EXPECT_EQ(path.table7.total(), 0u);
  auto stun_res = analysis::StunAnalyzer().analyze({}, routes, {});
  EXPECT_EQ(stun_res.sessions_used, 0u);
}

TEST(CrawlerEdge, PeerKeyHashAndEqualityAgree) {
  dht::Contact a{dht::NodeId160{}, {Ipv4Address{16, 0, 0, 1}, 100}};
  dht::Contact b{dht::NodeId160{}, {Ipv4Address{16, 0, 0, 1}, 100}};
  crawler::PeerKeyHash hash;
  EXPECT_EQ((crawler::PeerKey{a}), (crawler::PeerKey{b}));
  EXPECT_EQ(hash(crawler::PeerKey{a}), hash(crawler::PeerKey{b}));
  dht::Contact c{dht::NodeId160{}, {Ipv4Address{16, 0, 0, 1}, 101}};
  EXPECT_NE((crawler::PeerKey{a}), (crawler::PeerKey{c}));
}

TEST(SimEdge, DropReasonNames) {
  EXPECT_EQ(sim::to_string(sim::DropReason::ttl_expired), "ttl_expired");
  EXPECT_EQ(sim::to_string(sim::DropReason::no_mapping), "no_mapping");
  EXPECT_EQ(sim::to_string(sim::DropReason::none), "none");
}

TEST(NatEdge, ToStringCoversAllEnumerators) {
  EXPECT_EQ(nat::to_string(nat::MappingType::full_cone), "full cone");
  EXPECT_EQ(nat::to_string(nat::PortAllocation::chunk_random),
            "chunk-random");
  EXPECT_EQ(nat::to_string(nat::Pooling::arbitrary), "arbitrary");
}

TEST(NatEdge, AtLeastAsPermissiveOrdering) {
  using nat::MappingType;
  EXPECT_TRUE(nat::at_least_as_permissive(MappingType::full_cone,
                                          MappingType::symmetric));
  EXPECT_FALSE(nat::at_least_as_permissive(
      MappingType::symmetric, MappingType::address_restricted));
  EXPECT_TRUE(nat::at_least_as_permissive(MappingType::symmetric,
                                          MappingType::symmetric));
}

}  // namespace
}  // namespace cgn
