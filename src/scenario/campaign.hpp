// Measurement-campaign drivers over a built Internet:
//
//  * run_bittorrent_phase — peers bootstrap into the DHT, announce to the
//    tracker (joining global and AS-local swarms) and run maintenance
//    rounds; hairpinned validation traffic is what seeds internal-address
//    knowledge.
//  * run_crawl_phase — the §4.1 crawler walks the DHT and bt_pings learned
//    peers, producing the CrawlDataset.
//  * run_netalyzr_campaign — per covered AS, runs Netalyzr sessions
//    (address + port tests always; STUN and TTL enumeration on configurable
//    subsets, mirroring the paper's staggered test deployment).
#pragma once

#include <memory>
#include <vector>

#include "crawler/dht_crawler.hpp"
#include "fault/retry.hpp"
#include "netalyzr/client.hpp"
#include "scenario/internet.hpp"
#include "super/supervisor.hpp"

namespace cgn::scenario {

struct BitTorrentPhaseConfig {
  int maintenance_rounds = 12;
  double round_interval_s = 5.0;
  /// Global swarms are sized so each holds roughly this many peers.
  std::size_t peers_per_swarm = 60;
  int swarms_per_peer = 2;
  /// Probability that a peer also joins its ISP's regional-content swarm —
  /// the reason peers behind the same CGN end up contacting each other.
  double local_swarm_join = 0.85;
  int announce_rounds = 5;
};

void run_bittorrent_phase(Internet& internet,
                          const BitTorrentPhaseConfig& config = {});

struct CrawlPhaseConfig {
  crawler::CrawlConfig crawl;
  /// Frontier peers processed per step; a maintenance burst for a slice of
  /// the swarm runs between steps, keeping NAT mappings warm.
  std::size_t peers_per_step = 500;
  double step_interval_s = 0.0;
  std::size_t max_peers = 1'000'000;
  /// Workers for the bt_ping sweep: 0 reads CGN_THREADS (default serial).
  /// Results are identical for every worker count (see cgn::par).
  std::size_t threads = 0;
  /// Supervision for the ping-sweep shards (retry budget, quarantine,
  /// checkpoint path). Campaign identity fields
  /// (campaign_kind/world_seed/plan_hash/faults/salt) are filled by the
  /// driver — callers set only the policy knobs.
  super::SupervisorConfig supervise;
};

/// Runs a full crawl (including the bt_ping sweep) and returns the crawler.
/// `report_out`, when non-null, receives the ping sweep's per-shard
/// supervision report (which shards were retried/quarantined/resumed).
std::unique_ptr<crawler::DhtCrawler> run_crawl_phase(
    Internet& internet, const CrawlPhaseConfig& config = {},
    super::CampaignReport* report_out = nullptr);

struct NetalyzrCampaignConfig {
  /// Fraction of sessions that additionally run the TTL enumeration test
  /// (the paper deployed it earlier than STUN; both saw subsets).
  double enum_fraction = 0.30;
  double stun_fraction = 0.50;
  netalyzr::TtlEnumConfig enum_config;
  /// Runs the Big-NAT transition battery in every session. Enable only in
  /// v6-transition worlds: the battery draws client RNG, so default-world
  /// campaigns leave it off to stay byte-identical with pre-v6 builds.
  bool transition_battery = false;
  netalyzr::TransitionBatteryConfig transition_config;
  double inter_session_gap_s = 300.0;  ///< idle gap between sessions
  /// Probe retransmission policy handed to every NetalyzrClient. Default:
  /// fire once, as the original client did.
  fault::RetryPolicy retry;
  /// Workers for the per-ISP session shards: 0 reads CGN_THREADS (default
  /// serial). Results are identical for every worker count (see cgn::par).
  std::size_t threads = 0;
  /// Supervision for the per-ISP shards (retry budget, quarantine,
  /// checkpoint path). Identity fields are filled by the driver.
  super::SupervisorConfig supervise;
};

/// Runs the Netalyzr campaign. `report_out`, when non-null, receives the
/// per-shard supervision report. A quarantined shard contributes no
/// sessions: the campaign completes with degraded coverage instead of
/// aborting (see analysis::MeasurementCoverage).
[[nodiscard]] std::vector<netalyzr::SessionResult> run_netalyzr_campaign(
    Internet& internet, const NetalyzrCampaignConfig& config = {},
    super::CampaignReport* report_out = nullptr);

}  // namespace cgn::scenario
