#include <gtest/gtest.h>

#include "analysis/address_classify.hpp"
#include "analysis/coverage.hpp"
#include "analysis/netalyzr_detector.hpp"
#include "analysis/path_analysis.hpp"
#include "analysis/port_analysis.hpp"
#include "analysis/stats.hpp"
#include "analysis/union_find.hpp"

namespace cgn::analysis {
namespace {

using netcore::Ipv4Address;
using netcore::Ipv4Prefix;
using netcore::RoutingTable;

TEST(UnionFind, BasicConnectivity) {
  DynamicUnionFind uf;
  for (int i = 0; i < 6; ++i) uf.add_vertex();
  EXPECT_TRUE(uf.unite(0, 1));
  EXPECT_TRUE(uf.unite(1, 2));
  EXPECT_FALSE(uf.unite(0, 2)) << "already connected";
  EXPECT_TRUE(uf.connected(0, 2));
  EXPECT_FALSE(uf.connected(0, 3));
  uf.unite(3, 4);
  EXPECT_FALSE(uf.connected(2, 4));
  uf.unite(2, 3);
  EXPECT_TRUE(uf.connected(0, 4));
}

TEST(Stats, QuantilesAndBoxplot) {
  std::vector<double> v{10, 20, 30, 40, 50};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 10);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 30);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 50);
  EXPECT_DOUBLE_EQ(quantile(v, 0.25), 20);
  auto box = boxplot(v);
  EXPECT_EQ(box.n, 5u);
  EXPECT_DOUBLE_EQ(box.median, 30);
  EXPECT_THROW((void)quantile({}, 0.5), std::invalid_argument);
  EXPECT_THROW((void)quantile(v, 1.5), std::invalid_argument);
}

TEST(Stats, ModeAndTies) {
  EXPECT_EQ(mode<int>({1, 2, 2, 3}), 2);
  EXPECT_EQ(mode<int>({3, 1, 3, 1}), 1) << "smallest wins ties";
  EXPECT_THROW((void)mode<int>({}), std::invalid_argument);
}

TEST(Stats, HistogramClampsOutliers) {
  auto h = histogram({-5, 0, 5, 9.9, 100}, 0, 10, 2);
  EXPECT_EQ(h[0], 2u);  // -5 clamped in, 0
  EXPECT_EQ(h[1], 3u);  // 5, 9.9, 100 clamped in
}

TEST(Stats, RoundUpPow2) {
  EXPECT_EQ(round_up_pow2(1), 1u);
  EXPECT_EQ(round_up_pow2(2), 2u);
  EXPECT_EQ(round_up_pow2(3), 4u);
  EXPECT_EQ(round_up_pow2(4000), 4096u);
  EXPECT_EQ(round_up_pow2(4097), 8192u);
}

TEST(AddressClassify, Table4Taxonomy) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 1);
  Ipv4Address pub = Ipv4Address::parse("16.1.1.1");
  EXPECT_EQ(classify_address(Ipv4Address::parse("192.168.1.1"), pub, rt),
            AddressClass::private_range);
  EXPECT_EQ(classify_address(Ipv4Address::parse("25.0.0.1"), pub, rt),
            AddressClass::unrouted);
  EXPECT_EQ(classify_address(pub, pub, rt), AddressClass::routed_match);
  EXPECT_EQ(classify_address(Ipv4Address::parse("16.2.2.2"), pub, rt),
            AddressClass::routed_mismatch);
  EXPECT_TRUE(implies_translation(AddressClass::private_range));
  EXPECT_FALSE(implies_translation(AddressClass::routed_match));
}

TEST(AddressClassify, Table4RowsCoverReservedRanges) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 1);
  auto pub = Ipv4Address::parse("16.1.1.1");
  EXPECT_EQ(table4_row(Ipv4Address::parse("192.168.0.1"), pub, rt),
            Table4Row::r192);
  EXPECT_EQ(table4_row(Ipv4Address::parse("172.20.0.1"), pub, rt),
            Table4Row::r172);
  EXPECT_EQ(table4_row(Ipv4Address::parse("10.0.0.1"), pub, rt),
            Table4Row::r10);
  EXPECT_EQ(table4_row(Ipv4Address::parse("100.80.0.1"), pub, rt),
            Table4Row::r100);
  EXPECT_EQ(table4_row(Ipv4Address::parse("25.1.1.1"), pub, rt),
            Table4Row::unrouted);
  EXPECT_EQ(table4_row(pub, pub, rt), Table4Row::routed_match);
}

// --- Port strategy classification ------------------------------------------

std::vector<netalyzr::FlowObservation> flows(
    std::initializer_list<std::pair<int, int>> pairs) {
  std::vector<netalyzr::FlowObservation> out;
  for (auto [local, observed] : pairs)
    out.push_back({static_cast<std::uint16_t>(local),
                   {Ipv4Address{16, 1, 1, 1},
                    static_cast<std::uint16_t>(observed)}});
  return out;
}

TEST(PortClassification, Preservation) {
  auto f = flows({{40000, 40000}, {40001, 40001}, {40002, 40002},
                  {40003, 40003}, {40004, 40004}});
  EXPECT_EQ(classify_session_ports(f), PortStrategy::preservation);
}

TEST(PortClassification, PartialPreservationStillCounts) {
  // Paper leeway: >= 20% preserved is preservation (collision fallbacks).
  auto f = flows({{40000, 40000}, {40001, 12001}, {40002, 22002},
                  {40003, 33003}, {40004, 44004}});
  EXPECT_EQ(classify_session_ports(f), PortStrategy::preservation);
}

TEST(PortClassification, Sequential) {
  auto f = flows({{40000, 5000}, {40001, 5001}, {40002, 5003},
                  {40003, 5010}, {40004, 5030}});
  EXPECT_EQ(classify_session_ports(f), PortStrategy::sequential);
}

TEST(PortClassification, Random) {
  auto f = flows({{40000, 5000}, {40001, 61000}, {40002, 12345},
                  {40003, 45678}, {40004, 2222}});
  EXPECT_EQ(classify_session_ports(f), PortStrategy::random);
}

TEST(PortClassification, TooFewFlowsUnclassified) {
  auto f = flows({{40000, 5000}, {40001, 61000}});
  EXPECT_FALSE(classify_session_ports(f).has_value());
}

// --- Netalyzr detector -------------------------------------------------------

netalyzr::SessionResult session(netcore::Asn asn, bool cellular,
                                Ipv4Address dev,
                                std::optional<Ipv4Address> cpe,
                                Ipv4Address pub) {
  netalyzr::SessionResult s;
  s.asn = asn;
  s.cellular = cellular;
  s.ip_dev = dev;
  s.ip_cpe = cpe;
  s.ip_pub = pub;
  return s;
}

TEST(NetalyzrDetector, CellularInternalOnlyIsCgnPositive) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 7);
  std::vector<netalyzr::SessionResult> sessions;
  for (int i = 0; i < 6; ++i)
    sessions.push_back(session(7, true,
                               Ipv4Address(100, 64, 0, static_cast<std::uint8_t>(i + 1)),
                               std::nullopt, Ipv4Address::parse("16.1.0.1")));
  auto result = NetalyzrDetector().analyze(sessions, rt);
  ASSERT_TRUE(result.per_as.contains(7));
  const auto& v = result.per_as.at(7);
  EXPECT_TRUE(v.covered);
  EXPECT_TRUE(v.cgn_positive);
  EXPECT_EQ(v.assignment, CellularAssignment::internal_only);
  EXPECT_TRUE(v.internal_ranges.contains(netcore::ReservedRange::r100));
}

TEST(NetalyzrDetector, CellularPublicOnlyIsNegative) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 7);
  std::vector<netalyzr::SessionResult> sessions;
  for (int i = 0; i < 6; ++i) {
    Ipv4Address a(16, 1, 0, static_cast<std::uint8_t>(i + 1));
    sessions.push_back(session(7, true, a, std::nullopt, a));
  }
  auto result = NetalyzrDetector().analyze(sessions, rt);
  const auto& v = result.per_as.at(7);
  EXPECT_FALSE(v.cgn_positive);
  EXPECT_EQ(v.assignment, CellularAssignment::public_only);
}

TEST(NetalyzrDetector, CellularUndercoveredNotCounted) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 7);
  std::vector<netalyzr::SessionResult> sessions;
  for (int i = 0; i < 3; ++i)  // below the 5-session threshold
    sessions.push_back(session(7, true, Ipv4Address(10, 0, 0, 1),
                               std::nullopt, Ipv4Address::parse("16.1.0.1")));
  auto result = NetalyzrDetector().analyze(sessions, rt);
  EXPECT_FALSE(result.per_as.at(7).covered);
  EXPECT_EQ(result.covered(true), 0u);
}

TEST(NetalyzrDetector, NonCellularDiversityRule) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 9);
  std::vector<netalyzr::SessionResult> sessions;
  // 12 NAT444 sessions, each CPE on its own /24 (CGN-style diversity).
  for (int i = 0; i < 12; ++i)
    sessions.push_back(session(
        9, false, Ipv4Address(192, 168, 0, 2),
        Ipv4Address(10, 0, static_cast<std::uint8_t>(i + 1), 2),
        Ipv4Address(16, 1, 0, static_cast<std::uint8_t>(i + 1))));
  auto result = NetalyzrDetector().analyze(sessions, rt);
  const auto& v = result.per_as.at(9);
  EXPECT_TRUE(v.covered);
  EXPECT_EQ(v.candidate_sessions, 12u);
  EXPECT_EQ(v.unique_cpe_slash24, 12u);
  EXPECT_TRUE(v.cgn_positive);
}

TEST(NetalyzrDetector, HomeCascadedNatsDoNotTripDetector) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 9);
  std::vector<netalyzr::SessionResult> sessions;
  // Double home NAT: IPcpe always from the same 192.168.1.0/24 (a top CPE
  // block); devices see 192.168.0.x. Needs enough volume to build the
  // top-blocks list.
  for (int i = 0; i < 30; ++i)
    sessions.push_back(session(
        9, false, Ipv4Address(192, 168, 1, 2), Ipv4Address(192, 168, 1, 1),
        Ipv4Address(16, 1, 0, static_cast<std::uint8_t>(i + 1))));
  auto result = NetalyzrDetector().analyze(sessions, rt);
  const auto& v = result.per_as.at(9);
  EXPECT_TRUE(v.covered);
  EXPECT_FALSE(v.cgn_positive)
      << "IPcpe inside a top CPE block must be filtered out";
}

TEST(NetalyzrDetector, Table4TalliesByColumn) {
  RoutingTable rt;
  rt.announce(Ipv4Prefix::parse("16.0.0.0/8"), 5);
  std::vector<netalyzr::SessionResult> sessions;
  sessions.push_back(session(5, true, Ipv4Address(10, 0, 0, 1), std::nullopt,
                             Ipv4Address::parse("16.0.0.1")));
  sessions.push_back(session(5, false, Ipv4Address(192, 168, 0, 2),
                             Ipv4Address::parse("16.0.0.2"),
                             Ipv4Address::parse("16.0.0.2")));
  auto result = NetalyzrDetector().analyze(sessions, rt);
  EXPECT_EQ(result.table4.cellular_dev.n, 1u);
  EXPECT_EQ(result.table4.cellular_dev.rows[static_cast<int>(Table4Row::r10)],
            1u);
  EXPECT_EQ(result.table4.noncellular_dev.n, 1u);
  EXPECT_EQ(result.table4.noncellular_cpe.rows[static_cast<int>(
                Table4Row::routed_match)],
            1u);
}

// --- Coverage ----------------------------------------------------------------

TEST(Coverage, Table5CombinesMethodsOverPopulations) {
  netcore::AsRegistry reg;
  reg.add({.asn = 1, .name = "eyeball-both", .region = netcore::Rir::ripe,
           .cellular = false, .pbl_eyeball = true, .apnic_eyeball = true});
  reg.add({.asn = 2, .name = "eyeball-pbl", .region = netcore::Rir::apnic,
           .cellular = false, .pbl_eyeball = true, .apnic_eyeball = false});
  reg.add({.asn = 3, .name = "transit", .region = netcore::Rir::arin,
           .cellular = false, .pbl_eyeball = false, .apnic_eyeball = false});
  reg.add({.asn = 4, .name = "cell", .region = netcore::Rir::ripe,
           .cellular = true, .pbl_eyeball = true, .apnic_eyeball = true});

  BtDetectionResult bt;
  bt.per_as[1] = {.asn = 1, .queried_peers = 50, .covered = true,
                  .cgn_positive = true, .detected_ranges = {}};
  bt.per_as[3] = {.asn = 3, .queried_peers = 10, .covered = true,
                  .cgn_positive = false, .detected_ranges = {}};

  NetalyzrDetectionResult nz;
  {
    AsNetalyzrVerdict v;
    v.asn = 2;
    v.cellular = false;
    v.covered = true;
    v.cgn_positive = true;
    nz.per_as.emplace(2, std::move(v));
  }
  {
    AsNetalyzrVerdict v;
    v.asn = 4;
    v.cellular = true;
    v.covered = true;
    v.cgn_positive = true;
    nz.per_as.emplace(4, std::move(v));
  }

  auto cov = combine_coverage(bt, nz, reg);
  auto routed = static_cast<std::size_t>(Population::routed);
  auto pbl = static_cast<std::size_t>(Population::pbl_eyeball);
  EXPECT_EQ(cov.table5.population[routed], 4u);
  EXPECT_EQ(cov.table5.population[pbl], 3u);
  EXPECT_EQ(cov.table5.bittorrent[routed].covered, 2u);
  EXPECT_EQ(cov.table5.bittorrent[routed].positive, 1u);
  EXPECT_EQ(cov.table5.combined[routed].covered, 3u);
  EXPECT_EQ(cov.table5.combined[routed].positive, 2u);
  EXPECT_EQ(cov.table5.netalyzr_cellular[pbl].covered, 1u);
  EXPECT_EQ(cov.table5.netalyzr_cellular[pbl].positive, 1u);
  EXPECT_EQ(cov.cgn_positive_ases().size(), 3u);

  // Figure 6 rollups: AS1 eyeball RIPE covered+positive, AS4 cellular.
  auto ripe = static_cast<std::size_t>(netcore::Rir::ripe);
  EXPECT_EQ(cov.regions.eyeball_covered[ripe], 1u);
  EXPECT_EQ(cov.regions.eyeball_positive[ripe], 1u);
  EXPECT_EQ(cov.regions.cellular_covered[ripe], 1u);
}

// --- Path / STUN analysis -----------------------------------------------------

netalyzr::SessionResult enum_session(netcore::Asn asn, bool cellular,
                                     std::vector<std::pair<int, double>> nats,
                                     bool mismatch, int path = 8) {
  netalyzr::SessionResult s;
  s.asn = asn;
  s.cellular = cellular;
  s.ip_dev = mismatch ? Ipv4Address(10, 0, 0, 2) : Ipv4Address(16, 2, 0, 2);
  s.ip_pub = Ipv4Address(16, 2, 0, 2);
  netalyzr::TtlEnumResult e;
  e.path_hops = path;
  for (int h = 1; h <= path; ++h) {
    netalyzr::NatHopObservation obs;
    obs.hop = h;
    for (auto& [hop, timeout] : nats)
      if (hop == h) {
        obs.stateful = true;
        obs.timeout_s = timeout;
      }
    e.hops.push_back(obs);
  }
  s.enumeration = e;
  return s;
}

TEST(PathAnalyzer, Table7AndFig11AndFig12) {
  RoutingTable rt;
  std::unordered_set<netcore::Asn> cgn_ases{20, 30};
  std::vector<netalyzr::SessionResult> sessions;
  // AS 10: no CGN, CPE at hop 1 with 65 s timeout (3 sessions).
  for (int i = 0; i < 3; ++i)
    sessions.push_back(enum_session(10, false, {{1, 65.0}}, true));
  // AS 20: non-cellular NAT444, CGN at hop 4, 40 s (3 sessions).
  for (int i = 0; i < 3; ++i)
    sessions.push_back(
        enum_session(20, false, {{1, 65.0}, {4, 40.0}}, true));
  // AS 30: cellular CGN at hop 6, 70 s.
  for (int i = 0; i < 3; ++i)
    sessions.push_back(enum_session(30, true, {{6, 70.0}}, true));
  // One mismatching session with no stateful hop found (long-timeout NAT).
  sessions.push_back(enum_session(10, false, {}, true));

  auto result = PathAnalyzer().analyze(sessions, rt, cgn_ases);
  EXPECT_EQ(result.table7.mismatch_detected, 9u);
  EXPECT_EQ(result.table7.mismatch_undetected, 1u);

  const auto& no_cgn = result.fig11.at(VantageClass::noncellular_no_cgn);
  EXPECT_EQ(no_cgn.ases_by_hop[0], 1u);  // hop 1
  const auto& nc_cgn = result.fig11.at(VantageClass::noncellular_cgn);
  EXPECT_EQ(nc_cgn.ases_by_hop[3], 1u);  // hop 4
  const auto& cell = result.fig11.at(VantageClass::cellular_cgn);
  EXPECT_EQ(cell.ases_by_hop[5], 1u);  // hop 6

  ASSERT_EQ(result.fig12.cpe_per_session.size(), 3u);
  EXPECT_DOUBLE_EQ(result.fig12.cpe_per_session[0], 65.0);
  ASSERT_EQ(result.fig12.noncellular_cgn_per_as.size(), 1u);
  EXPECT_DOUBLE_EQ(result.fig12.noncellular_cgn_per_as[0], 40.0);
  ASSERT_EQ(result.fig12.cellular_cgn_per_as.size(), 1u);
  EXPECT_DOUBLE_EQ(result.fig12.cellular_cgn_per_as[0], 70.0);
}

TEST(StunAnalyzer, MostPermissivePerCgnAs) {
  RoutingTable rt;
  std::unordered_set<netcore::Asn> cgn_ases{20};
  std::vector<netalyzr::SessionResult> sessions;
  auto add = [&](netcore::Asn asn, bool cellular, stun::StunType type) {
    netalyzr::SessionResult s;
    s.asn = asn;
    s.cellular = cellular;
    s.ip_dev = Ipv4Address(10, 0, 0, 2);
    s.stun = stun::StunOutcome{type, std::nullopt};
    sessions.push_back(s);
  };
  // CGN AS 20: sessions show symmetric twice and address-restricted once.
  add(20, false, stun::StunType::symmetric);
  add(20, false, stun::StunType::symmetric);
  add(20, false, stun::StunType::address_restricted);
  // Non-CGN AS 10: CPE sessions.
  add(10, false, stun::StunType::full_cone);
  add(10, false, stun::StunType::port_address_restricted);
  add(10, false, stun::StunType::full_cone);

  auto result = StunAnalyzer().analyze(sessions, rt, cgn_ases);
  EXPECT_EQ(result.noncellular_cgn_ases.at(stun::StunType::address_restricted),
            1u)
      << "the AS is represented by its most permissive session";
  EXPECT_EQ(result.cpe_sessions.at(stun::StunType::full_cone), 2u);
  EXPECT_EQ(result.cgn_ases, 1u);
}

}  // namespace
}  // namespace cgn::analysis
