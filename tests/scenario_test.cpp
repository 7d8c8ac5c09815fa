#include "scenario/campaign.hpp"
#include "scenario/internet.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "analysis/bt_detector.hpp"
#include "analysis/coverage.hpp"
#include "analysis/netalyzr_detector.hpp"
#include "flat/flat.hpp"
#include "netalyzr/session.hpp"
#include "scenario/env_config.hpp"

namespace cgn::scenario {
namespace {

InternetConfig small_config() {
  InternetConfig cfg;
  cfg.seed = 7;
  cfg.routed_ases = 300;
  cfg.pbl_eyeballs = 50;
  cfg.apnic_eyeballs = 54;
  cfg.cellular_ases = 8;
  cfg.bt_peers_cgn_lo = 50;
  cfg.bt_peers_cgn_hi = 90;
  cfg.nz_sessions_lo = 10;
  cfg.nz_sessions_hi = 20;
  return cfg;
}

TEST(InternetBuilder, BuildsConsistentUniverse) {
  auto internet = build_internet(small_config());
  EXPECT_EQ(internet->registry.size(), 301u);  // + measurement infra AS
  EXPECT_EQ(internet->registry.count_pbl_eyeball(), 50u);
  EXPECT_EQ(internet->registry.count_apnic_eyeball(), 54u);
  EXPECT_EQ(internet->registry.count_cellular(), 8u);
  EXPECT_GT(internet->isps.size(), 10u);
  EXPECT_GT(internet->bt_peers().size(), 100u);

  // Every instrumented ISP is registered and routed.
  for (const IspInstance& isp : internet->isps) {
    EXPECT_TRUE(internet->registry.contains(isp.asn));
    EXPECT_FALSE(isp.subscribers.empty());
    if (isp.cgn_profile.has_value()) {
      EXPECT_NE(isp.cgn, nullptr);
      EXPECT_TRUE(internet->truth_has_cgn(isp.asn));
    }
    for (const Subscriber& s : isp.subscribers) {
      EXPECT_NE(s.device, sim::kNoNode);
      if (s.behind_cgn) {
        EXPECT_TRUE(isp.cgn_profile.has_value());
      }
    }
  }
}

TEST(InternetBuilder, DeterministicForSameSeed) {
  auto a = build_internet(small_config());
  auto b = build_internet(small_config());
  ASSERT_EQ(a->isps.size(), b->isps.size());
  for (std::size_t i = 0; i < a->isps.size(); ++i) {
    EXPECT_EQ(a->isps[i].asn, b->isps[i].asn);
    EXPECT_EQ(a->isps[i].subscribers.size(), b->isps[i].subscribers.size());
    EXPECT_EQ(a->isps[i].cgn_profile.has_value(),
              b->isps[i].cgn_profile.has_value());
  }
  EXPECT_EQ(a->bt_peers().size(), b->bt_peers().size());
}

TEST(InternetBuilder, SubscriberAddressingMatchesArchetypes) {
  auto internet = build_internet(small_config());
  for (const IspInstance& isp : internet->isps) {
    for (const Subscriber& s : isp.subscribers) {
      if (isp.cellular) {
        EXPECT_EQ(s.cpe, nullptr) << "cellular devices attach directly";
        if (!s.behind_cgn) {
          EXPECT_EQ(internet->routes.origin_of(s.device_address), isp.asn);
        }
      } else if (s.cpe) {
        EXPECT_TRUE(netcore::is_reserved(s.device_address))
            << "LAN devices live in RFC1918 space";
      }
      if (!s.behind_cgn && !s.cpe && !isp.cellular) {
        EXPECT_EQ(internet->routes.origin_of(s.device_address), isp.asn);
      }
    }
  }
}

TEST(InternetBuilder, BtPeersFollowSubscriberSlotOrder) {
  auto internet = build_internet(small_config());
  std::vector<const dht::DhtNode*> slots;
  for (const IspInstance& isp : internet->isps)
    for (const Subscriber& s : isp.subscribers)
      if (s.bt_client) slots.push_back(s.bt_client);
  const auto& peers = internet->bt_peers();
  ASSERT_EQ(peers.size(), slots.size());
  for (std::size_t i = 0; i < peers.size(); ++i)
    EXPECT_EQ(peers[i], slots[i]) << "peer " << i;
}

TEST(InternetBuilder, SilentLinesAddBallastWithoutPerturbingFigures) {
  constexpr std::size_t kSilent = 40;
  auto netalyzr_fingerprint = [](const InternetConfig& world) {
    auto internet = build_internet(world);
    NetalyzrCampaignConfig cfg;
    cfg.enum_fraction = 0.5;
    cfg.stun_fraction = 0.5;
    const auto sessions = run_netalyzr_campaign(*internet, cfg);
    EXPECT_GT(sessions.size(), 50u);
    return netalyzr::fingerprint(sessions);
  };
  InternetConfig with_ballast = small_config();
  with_ballast.silent_lines_per_cgn_as = kSilent;

  // Planning ballast costs no RNG draw: campaign output is unchanged.
  EXPECT_EQ(netalyzr_fingerprint(with_ballast),
            netalyzr_fingerprint(small_config()));

  // Building it adds exactly the planned lines: kSilent per CGN ISP, one
  // node each, and nothing on a second call.
  auto internet = build_internet(with_ballast);
  const std::size_t nodes_before = internet->net.node_count();
  std::size_t built = 0;
  for (IspInstance& isp : internet->isps) {
    const std::size_t lines = internet->materialize_silent_lines(isp);
    EXPECT_EQ(lines, isp.cgn ? kSilent : 0u) << "AS" << isp.asn;
    built += lines;
  }
  EXPECT_GT(built, 0u);
  EXPECT_EQ(internet->net.node_count(), nodes_before + built);
  for (IspInstance& isp : internet->isps)
    EXPECT_EQ(internet->materialize_silent_lines(isp), isp.cgn ? kSilent : 0u);
  EXPECT_EQ(internet->net.node_count(), nodes_before + built);
}

// FNV-1a over a text transcript of everything the builder decides for each
// subscriber slot and each ISP: node ids, addresses, NAT configurations and
// pools, the UPnP static mappings, DHT ids and endpoints, and the v6 fields.
// A change to the builder's RNG draw order, node order or NAT settings moves
// the digest.
std::uint64_t world_digest(const InternetConfig& world) {
  auto internet = build_internet(world);
  for (IspInstance& isp : internet->isps)
    (void)internet->materialize_silent_lines(isp);
  std::string t;
  auto put = [&](auto v) { t += std::to_string(v) + ' '; };
  auto put_config = [&](const nat::NatConfig& c) {
    t += c.name + ' ';
    put(static_cast<int>(c.mapping));
    put(static_cast<int>(c.port_allocation));
    put(static_cast<int>(c.pooling));
    put(c.udp_timeout_s);
    put(c.tcp_timeout_s);
    put(c.tcp_transitory_timeout_s);
    put(c.hairpinning);
    put(c.hairpin_preserve_source);
    put(c.port_min);
    put(c.port_max);
    put(c.chunk_size);
  };
  for (const IspInstance& isp : internet->isps) {
    put(isp.asn);
    put(isp.cgn_node);
    put(static_cast<int>(isp.transition));
    if (isp.cgn) {
      put_config(isp.cgn->config());
      for (netcore::Ipv4Address a : isp.cgn->external_pool()) put(a.value());
    }
    for (const Subscriber& s : isp.subscribers) {
      put(s.device);
      put(s.device_address.value());
      put(s.home_id);
      put(s.behind_cgn);
      put(s.cpe_node);
      put(s.cpe_upnp);
      if (s.cpe) put_config(s.cpe->config());
      if (s.bt_client) {
        t += s.bt_client->id().to_hex() + ' ';
        put(s.bt_client->local_endpoint().address.value());
        put(s.bt_client->local_endpoint().port);
        if (s.cpe) {
          const auto ext = s.cpe->lookup_external(
              netcore::Protocol::udp, s.bt_client->local_endpoint(), {}, 0.0);
          put(ext ? ext->address.value() : 0u);
          put(ext ? ext->port : 0);
        }
      }
      put(static_cast<int>(s.v6_mode));
      put(s.has_clat);
      put(s.device_v6.hi());
      put(s.device_v6.lo());
      put(s.v6stack != nullptr);
    }
    t += '\n';
  }
  put(internet->net.node_count());
  return flat::fnv1a_bytes(t.data(), t.size());
}

TEST(InternetBuilder, WorldDigestIsPinned) {
  InternetConfig v4 = small_config();
  v4.silent_lines_per_cgn_as = 6;
  InternetConfig v6 = v4;
  v6.v6.enabled = true;
  {
    auto internet = build_internet(v6);
    std::size_t v6_lines = 0;
    for (const IspInstance& isp : internet->isps)
      for (const Subscriber& s : isp.subscribers)
        v6_lines += s.v6_mode != nat::TranslatorMode::nat44 ? 1 : 0;
    EXPECT_GT(v6_lines, 0u) << "the v6 world builds no v6 line";
  }
  // A refactor of the builder must leave both digests as they are; only a
  // change meant to move the world (and its figures) re-records them.
  EXPECT_EQ(world_digest(v4), 17778836180909046825ull);
  EXPECT_EQ(world_digest(v6), 8760754364439887072ull);
}

TEST(FullPipeline, CrawlDetectsLeakyCgnsWithoutFalsePositives) {
  auto internet = build_internet(small_config());
  run_bittorrent_phase(*internet);
  auto crawler = run_crawl_phase(*internet);

  const auto& data = crawler->dataset();
  EXPECT_GT(data.queried_peers(), internet->bt_peers().size() / 3)
      << "a healthy crawl reaches a good share of the swarm";
  EXPECT_GT(data.leaks().size(), 0u);

  analysis::BtDetector detector;
  auto result = detector.analyze(data, internet->routes);

  std::size_t positives = 0;
  for (const auto& [asn, verdict] : result.per_as) {
    if (!verdict.cgn_positive) continue;
    ++positives;
    EXPECT_TRUE(internet->truth_has_cgn(asn))
        << "BitTorrent detection must not false-positive (AS" << asn << ")";
  }
  EXPECT_GT(positives, 0u) << "at least some CGNs must be detectable";
}

TEST(FullPipeline, NetalyzrDetectsCgnsWithoutFalsePositives) {
  auto internet = build_internet(small_config());
  NetalyzrCampaignConfig cfg;
  cfg.enum_fraction = 0.0;  // keep this test fast
  cfg.stun_fraction = 0.0;
  auto sessions = run_netalyzr_campaign(*internet, cfg);
  EXPECT_GT(sessions.size(), 100u);

  analysis::NetalyzrDetector detector;
  auto result = detector.analyze(sessions, internet->routes);

  std::size_t cell_pos = 0, noncell_pos = 0;
  for (const auto& [asn, verdict] : result.per_as) {
    if (!verdict.covered || !verdict.cgn_positive) continue;
    EXPECT_TRUE(internet->truth_has_cgn(asn))
        << "Netalyzr detection must not false-positive (AS" << asn << ")";
    (verdict.cellular ? cell_pos : noncell_pos)++;
  }
  EXPECT_GT(cell_pos + noncell_pos, 0u);

  // Table 4 shape: non-cellular devices overwhelmingly sit in 192X space.
  const auto& col = result.table4.noncellular_dev;
  ASSERT_GT(col.n, 0u);
  EXPECT_GT(col.fraction(analysis::Table4Row::r192), 0.70);
}

TEST(FullPipeline, CellularAssignmentsFollowGroundTruth) {
  auto internet = build_internet(small_config());
  NetalyzrCampaignConfig cfg;
  cfg.enum_fraction = 0.0;
  cfg.stun_fraction = 0.0;
  auto sessions = run_netalyzr_campaign(*internet, cfg);
  analysis::NetalyzrDetector detector;
  auto result = detector.analyze(sessions, internet->routes);

  for (const auto& [asn, verdict] : result.per_as) {
    if (!verdict.cellular || !verdict.covered) continue;
    EXPECT_EQ(verdict.cgn_positive, internet->truth_has_cgn(asn))
        << "cellular detection is direct and should be exact (AS" << asn
        << ")";
  }
}

TEST(EnvConfig, HalfParsedNumbersFallBackWithOneWarning) {
  // "0,4" used to read as 0 (a degenerate world) and "5%" as a loss rate
  // of 5; a value must parse whole or read as the default.
  const char* kName = "CGN_TEST_ENV_CONFIG_NUMBER";
  ::setenv(kName, "0,4", 1);
  testing::internal::CaptureStderr();
  EXPECT_EQ(env_double(kName, 0.4), 0.4);
  EXPECT_EQ(env_double(kName, 0.4), 0.4);
  const std::string warnings = testing::internal::GetCapturedStderr();
  EXPECT_NE(warnings.find(kName), std::string::npos) << warnings;
  EXPECT_EQ(warnings.find(kName), warnings.rfind(kName))
      << "the warning must print once: " << warnings;

  ::setenv(kName, "5%", 1);
  EXPECT_EQ(env_double(kName, 0.0), 0.0);
  ::setenv(kName, "nan", 1);
  EXPECT_EQ(env_double(kName, 0.5), 0.5);
  ::setenv(kName, "12x", 1);
  EXPECT_EQ(env_u64(kName, 3), 3u);
  ::setenv(kName, "-1", 1);
  EXPECT_EQ(env_u64(kName, 3), 3u);
  ::setenv(kName, "", 1);
  EXPECT_EQ(env_double(kName, 0.4), 0.4);
  EXPECT_EQ(env_u64(kName, 3), 3u);

  ::setenv(kName, "0.25", 1);
  EXPECT_EQ(env_double(kName, 0.4), 0.25);
  ::setenv(kName, "1e-3", 1);
  EXPECT_EQ(env_double(kName, 0.4), 1e-3);
  ::setenv(kName, "17", 1);
  EXPECT_EQ(env_u64(kName, 3), 17u);

  // Out of range: a port of 70000 used to wrap to 4464 through the
  // uint16_t cast; above the bound (or above 2^64) reads as the default.
  ::setenv(kName, "70000", 1);
  EXPECT_EQ(env_u64(kName, 9464, 65535), 9464u);
  ::setenv(kName, "65535", 1);
  EXPECT_EQ(env_u64(kName, 9464, 65535), 65535u);
  ::setenv(kName, "18446744073709551616", 1);
  EXPECT_EQ(env_u64(kName, 3), 3u);
  ::unsetenv(kName);

  // The same whole-value parser backs the daemons' numeric flags.
  EXPECT_EQ(parse_u64("80", 65535), 80u);
  EXPECT_EQ(parse_u64("65535", 65535), 65535u);
  EXPECT_FALSE(parse_u64("70000", 65535).has_value());
  EXPECT_FALSE(parse_u64("80x", 65535).has_value());
  EXPECT_FALSE(parse_u64("-5").has_value());
  EXPECT_FALSE(parse_u64("").has_value());
  EXPECT_FALSE(parse_u64(nullptr).has_value());
  EXPECT_EQ(env_double(kName, 0.4), 0.4);
}

}  // namespace
}  // namespace cgn::scenario
