// Integration tests of the full Netalyzr campaign and the §6 deep-dive
// analyses against the generator's ground truth.
#include <gtest/gtest.h>

#include "analysis/path_analysis.hpp"
#include "analysis/port_analysis.hpp"
#include "scenario/campaign.hpp"
#include "scenario/internet.hpp"

namespace cgn::scenario {
namespace {

InternetConfig tiny_config(std::uint64_t seed = 11) {
  InternetConfig cfg;
  cfg.seed = seed;
  cfg.routed_ases = 240;
  cfg.pbl_eyeballs = 46;
  cfg.apnic_eyeballs = 50;
  cfg.cellular_ases = 8;
  cfg.nz_eyeball_coverage = 0.6;  // dense Netalyzr coverage for these tests
  cfg.nz_sessions_lo = 14;
  cfg.nz_sessions_hi = 30;
  return cfg;
}

/// Ground-truth CGN ASes (the §6 analyses take the *detected* set; for
/// behaviour validation we hand them the truth so every configured CGN is
/// inspected).
std::unordered_set<netcore::Asn> truth_cgns(const Internet& internet) {
  std::unordered_set<netcore::Asn> out;
  for (const IspInstance& isp : internet.isps)
    if (isp.cgn_profile) out.insert(isp.asn);
  return out;
}

class CampaignFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    internet_ = build_internet(tiny_config());
    NetalyzrCampaignConfig cfg;
    cfg.enum_fraction = 0.5;
    cfg.stun_fraction = 0.5;
    sessions_ = run_netalyzr_campaign(*internet_, cfg);
    ASSERT_GT(sessions_.size(), 200u);
  }

  std::unique_ptr<Internet> internet_;
  std::vector<netalyzr::SessionResult> sessions_;
};

TEST_F(CampaignFixture, SessionsCarryCoherentAddressLayers) {
  for (const auto& s : sessions_) {
    if (!s.ip_pub) continue;
    // The public address must belong to the session's AS.
    auto origin = internet_->routes.origin_of(*s.ip_pub);
    ASSERT_TRUE(origin.has_value());
    EXPECT_EQ(*origin, s.asn);
    // NAT444 signature: a reserved IPcpe implies IPcpe != IPpub.
    if (s.ip_cpe && netcore::is_reserved(*s.ip_cpe)) {
      EXPECT_NE(*s.ip_cpe, *s.ip_pub);
    }
  }
}

TEST_F(CampaignFixture, PortAnalyzerRecoversConfiguredStrategies) {
  auto ports = analysis::PortAnalyzer().analyze(sessions_, internet_->routes,
                                                truth_cgns(*internet_));
  std::size_t checked = 0;
  for (const auto& [asn, profile] : ports.per_as) {
    auto idx = internet_->isp_index.find(asn);
    ASSERT_NE(idx, internet_->isp_index.end());
    const auto& truth = *internet_->isps[idx->second].cgn_profile;
    if (profile.sessions < 8) continue;
    // Partial deployments mix CGN-translated and plain-CPE sessions, so
    // only (near-)full deployments have a clean dominant strategy.
    if (truth.cgn_subscriber_fraction < 0.9) continue;
    ++checked;
    switch (truth.nat.port_allocation) {
      case nat::PortAllocation::preservation:
        EXPECT_EQ(profile.dominant, analysis::PortStrategy::preservation)
            << "AS" << asn;
        break;
      case nat::PortAllocation::sequential:
        // Sequential CGNs interleave subscribers, so sessions can classify
        // sequential or (busy NAT) random; never preservation-dominant.
        EXPECT_NE(profile.dominant, analysis::PortStrategy::preservation)
            << "AS" << asn;
        break;
      case nat::PortAllocation::random:
      case nat::PortAllocation::chunk_random:
        EXPECT_EQ(profile.dominant, analysis::PortStrategy::random)
            << "AS" << asn;
        break;
    }
  }
  EXPECT_GT(checked, 0u);
}

TEST_F(CampaignFixture, ChunkDetectionMatchesGroundTruth) {
  auto ports = analysis::PortAnalyzer().analyze(sessions_, internet_->routes,
                                                truth_cgns(*internet_));
  for (const auto& [asn, profile] : ports.per_as) {
    if (!profile.chunk_based) continue;
    const auto& truth = *internet_->isps[internet_->isp_index.at(asn)]
                             .cgn_profile;
    EXPECT_EQ(truth.nat.port_allocation, nat::PortAllocation::chunk_random)
        << "AS" << asn << " flagged chunked but is not";
    EXPECT_LE(profile.chunk_size_estimate, truth.nat.chunk_size)
        << "a 10-flow sample cannot span more than the chunk";
  }
}

TEST_F(CampaignFixture, ArbitraryPoolingDetectedOnlyWhereConfigured) {
  auto ports = analysis::PortAnalyzer().analyze(sessions_, internet_->routes,
                                                truth_cgns(*internet_));
  for (const auto& [asn, profile] : ports.per_as) {
    if (!profile.arbitrary_pooling) continue;
    const auto& truth = *internet_->isps[internet_->isp_index.at(asn)]
                             .cgn_profile;
    EXPECT_EQ(truth.nat.pooling, nat::Pooling::arbitrary) << "AS" << asn;
  }
}

TEST_F(CampaignFixture, EnumerationLocatesCgnsAtConfiguredDistance) {
  std::size_t checked = 0;
  for (const auto& s : sessions_) {
    if (!s.enumeration || !s.enumeration->found_stateful()) continue;
    auto idx = internet_->isp_index.find(s.asn);
    if (idx == internet_->isp_index.end()) continue;
    const IspInstance& isp = internet_->isps[idx->second];
    if (!isp.cgn_profile) {
      EXPECT_LE(s.enumeration->most_distant_nat(), 1)
          << "non-CGN subscribers only have the CPE at hop 1";
      continue;
    }
    int truth_hop = isp.cgn_profile->hop_distance;
    int measured = s.enumeration->most_distant_nat();
    // The most distant NAT is either the CGN (behind-CGN subscriber) or the
    // CPE (public subscriber of a partially deployed ISP).
    EXPECT_TRUE(measured == truth_hop || measured <= 1)
        << "AS" << s.asn << ": measured " << measured << ", CGN at "
        << truth_hop;
    if (measured == truth_hop) ++checked;
  }
  EXPECT_GT(checked, 10u);
}

TEST_F(CampaignFixture, EnumerationTimeoutsTrackConfiguredTimeouts) {
  std::size_t checked = 0;
  for (const auto& s : sessions_) {
    if (!s.enumeration) continue;
    auto idx = internet_->isp_index.find(s.asn);
    if (idx == internet_->isp_index.end()) continue;
    const IspInstance& isp = internet_->isps[idx->second];
    if (!isp.cgn_profile) continue;
    for (const auto& hop : s.enumeration->hops) {
      if (!hop.stateful || !hop.timeout_s) continue;
      if (hop.hop != isp.cgn_profile->hop_distance) continue;
      double truth = isp.cgn_profile->nat.udp_timeout_s;
      if (truth > 200.0) continue;  // beyond the probing budget
      EXPECT_GE(*hop.timeout_s, truth);
      EXPECT_LE(*hop.timeout_s, truth + 10.0) << "AS" << s.asn;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10u);
}

TEST_F(CampaignFixture, StunNeverReportsMorePermissiveThanTheCgn) {
  for (const auto& s : sessions_) {
    if (!s.stun || !stun::is_nat_type(s.stun->type)) continue;
    auto idx = internet_->isp_index.find(s.asn);
    if (idx == internet_->isp_index.end()) continue;
    const IspInstance& isp = internet_->isps[idx->second];
    if (!isp.cgn_profile) continue;
    auto rank = stun::permissiveness(s.stun->type);
    ASSERT_TRUE(rank.has_value());
    // The composite path cannot be *more* permissive than the CGN itself
    // (only behind-CGN sessions are bounded; public lines see just the CPE,
    // so restrict the check to sessions with translated device addresses).
    bool behind = s.ip_cpe && netcore::is_reserved(*s.ip_cpe);
    if (!behind) continue;
    int cgn_rank = static_cast<int>(isp.cgn_profile->nat.mapping);
    EXPECT_LE(*rank, cgn_rank) << "AS" << s.asn;
  }
}

TEST(CampaignDeterminism, SameSeedSameSessions) {
  auto a = build_internet(tiny_config(77));
  auto b = build_internet(tiny_config(77));
  NetalyzrCampaignConfig cfg;
  cfg.enum_fraction = 0.0;
  cfg.stun_fraction = 0.0;
  auto sa = run_netalyzr_campaign(*a, cfg);
  auto sb = run_netalyzr_campaign(*b, cfg);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_EQ(sa[i].asn, sb[i].asn);
    EXPECT_EQ(sa[i].ip_dev, sb[i].ip_dev);
    EXPECT_EQ(sa[i].ip_pub.has_value(), sb[i].ip_pub.has_value());
    ASSERT_EQ(sa[i].tcp_flows.size(), sb[i].tcp_flows.size());
    for (std::size_t f = 0; f < sa[i].tcp_flows.size(); ++f)
      EXPECT_EQ(sa[i].tcp_flows[f].observed, sb[i].tcp_flows[f].observed);
  }
}

}  // namespace
}  // namespace cgn::scenario
