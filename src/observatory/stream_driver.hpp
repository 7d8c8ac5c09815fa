// StreamDriver — replays the measurement campaigns as an ordered event
// stream into an Observatory.
//
// The driver owns the synthetic worlds and runs the exact campaign code the
// bench binaries run: the BitTorrent phase + DHT crawl on one world and the
// Netalyzr campaign on a second, so each campaign consumes the same
// Rng::fork substream it consumes under bench_fig04 / bench_fig05
// respectively. Determinism and resumability are inherited wholesale from
// the campaign drivers: every shard draws from a static (seed, salt, shard)
// substream on a private clock, CGN_THREADS reshards without changing
// results, and a CGN_SUPER_CHECKPOINT_DIR lets a killed campaign resume
// shard-exactly (see cgn::super). The batch results are then flattened into
// StreamEvents — order-independent for the streaming detectors — and
// stamped with linearly spaced virtual times, the campaign clock /health
// reports (Netalyzr times continue after the crawl's, mirroring the
// paper's staggered deployments).
//
// A campaign kill-switch (SupervisorConfig::abort_after_shards) escapes
// run() as super::CampaignAborted; the Observatory keeps whatever was
// ingested and a rerun with the same checkpoint dir resumes.
#pragma once

#include <cstdint>
#include <memory>

#include "crawler/dht_crawler.hpp"
#include "observatory/observatory.hpp"
#include "scenario/campaign.hpp"
#include "scenario/internet.hpp"
#include "super/supervisor.hpp"

namespace cgn::observatory {

struct StreamDriverConfig {
  scenario::InternetConfig world;
  scenario::CrawlPhaseConfig crawl;
  /// Streaming parity with bench_fig05: the fig05 bench classifies
  /// address/port-test sessions only, so the optional STUN /
  /// TTL-enumeration subsets default off here too.
  scenario::NetalyzrCampaignConfig netalyzr = [] {
    scenario::NetalyzrCampaignConfig cfg;
    cfg.enum_fraction = 0.0;
    cfg.stun_fraction = 0.0;
    return cfg;
  }();
  /// Wall-clock pause between ingested events, for soak runs where a
  /// scraper should see the figures converge. 0 = flat out.
  int pace_us = 0;
};

/// The config the daemons and the soak bench stream with: the
/// CGN_BENCH_SCALE / CGN_BENCH_SEED world, and retry policy and supervision
/// for both campaigns from the environment (scenario/env_config.hpp). In a
/// v6-transition world (CGN_V6_TRANSITION=1) sessions run the Big-NAT
/// battery, which makes /figures grow the fig14_transition set.
[[nodiscard]] StreamDriverConfig stream_driver_config_from_env();

class StreamDriver {
 public:
  explicit StreamDriver(StreamDriverConfig config);

  StreamDriver(const StreamDriver&) = delete;
  StreamDriver& operator=(const StreamDriver&) = delete;

  /// Routing/registry views for constructing the Observatory (identical
  /// across both worlds: same InternetConfig, same build substream).
  [[nodiscard]] const netcore::RoutingTable& routes() const {
    return bt_world_->routes;
  }
  [[nodiscard]] const netcore::AsRegistry& registry() const {
    return bt_world_->registry;
  }

  /// Runs both campaigns and streams every observation into
  /// `sink` — an in-process Observatory or a PushClient framing the same
  /// events onto a socket. Throws super::CampaignAborted when a campaign
  /// kill-switch fires (already-ingested events stay in the sink).
  void run(EventSink& sink);

  [[nodiscard]] std::uint64_t events_emitted() const noexcept {
    return emitted_;
  }
  [[nodiscard]] const super::CampaignReport& bt_report() const noexcept {
    return bt_report_;
  }
  [[nodiscard]] const super::CampaignReport& nz_report() const noexcept {
    return nz_report_;
  }

 private:
  void emit(EventSink& sink, std::vector<StreamEvent> events, double t_begin,
            double t_end);

  StreamDriverConfig config_;
  std::unique_ptr<scenario::Internet> bt_world_;
  /// Built by run() after the crawl: the Netalyzr campaign must be its
  /// world's first fork consumer to match bench_fig05.
  std::unique_ptr<scenario::Internet> nz_world_;
  std::unique_ptr<crawler::DhtCrawler> crawler_;
  super::CampaignReport bt_report_;
  super::CampaignReport nz_report_;
  std::uint64_t emitted_ = 0;
};

}  // namespace cgn::observatory
