#include "scenario/campaign.hpp"

#include <algorithm>
#include <string_view>
#include <unordered_map>

#include "obs/profiler.hpp"
#include "scenario/result_codec.hpp"
#include "super/wire.hpp"

namespace cgn::scenario {

namespace {

// The crawl walk drains the frontier in steps of this many peers and stops
// once this many peers were processed.
constexpr std::size_t kPeersPerCrawlStep = 500;
constexpr std::size_t kMaxCrawledPeers = 1'000'000;

// BitTorrent phase.
constexpr double kRoundIntervalS = 5.0;
/// Global swarms are sized so each holds roughly this many peers.
constexpr std::size_t kPeersPerSwarm = 60;
constexpr int kSwarmsPerPeer = 2;
/// Probability that a peer also joins its ISP's regional-content swarm —
/// the reason peers behind the same CGN end up contacting each other.
constexpr double kLocalSwarmJoin = 0.85;

/// Idle gap between a vantage point's Netalyzr sessions.
constexpr double kInterSessionGapS = 300.0;

using PingOutcome = crawler::DhtCrawler::PingShardOutcome;
using Sessions = std::vector<netalyzr::SessionResult>;

// --- Checkpoint payload codecs ---------------------------------------------
//
// Shard payloads round-trip *every* field of the shard's results. The
// per-struct codecs live in scenario/result_codec.{hpp,cpp} and are shared
// with the observatory's push-ingestion wire protocol — see DESIGN.md §11.
// Bump a phase's payload version when its put/get (or a struct they
// encode) changes shape.

void put_ping_outcome(super::wire::Writer& w, const PingOutcome& outcome) {
  w.u32(static_cast<std::uint32_t>(outcome.responders.size()));
  for (const dht::Contact& c : outcome.responders) codec::put_contact(w, c);
  w.u64(outcome.pings_sent);
}

PingOutcome get_ping_outcome(super::wire::Reader& r) {
  PingOutcome outcome;
  const std::uint32_t responders = r.u32();
  for (std::uint32_t i = 0; i < responders && r.ok(); ++i)
    outcome.responders.push_back(codec::get_contact(r));
  outcome.pings_sent = r.u64();
  return outcome;
}

void put_sessions(super::wire::Writer& w, const Sessions& sessions) {
  w.u32(static_cast<std::uint32_t>(sessions.size()));
  for (const netalyzr::SessionResult& session : sessions)
    codec::put_session(w, session);
}

Sessions get_sessions(super::wire::Reader& r) {
  Sessions sessions;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count && r.ok(); ++i)
    sessions.push_back(codec::get_session(r));
  return sessions;
}

/// One supervised, sharded campaign phase: its checkpoint identity, the
/// fault salt its shards draw from, and how a shard's Result is encoded.
template <typename Result>
struct ShardedPhase {
  const char* kind;
  std::uint64_t salt;
  std::uint64_t payload_version;
  void (*put)(super::wire::Writer&, const Result&);
  Result (*get)(super::wire::Reader&);
};

constexpr ShardedPhase<PingOutcome> kPingSweep{
    "crawl_ping", fault::kSaltPingSweep, 2,  // v2: -pongs_received
    put_ping_outcome, get_ping_outcome};
constexpr ShardedPhase<Sessions> kNetalyzr{
    "netalyzr", fault::kSaltNetalyzr, 2,  // v2: +transition
    put_sessions, get_sessions};

/// Runs `shard_count` shards of `phase` under a ShardSupervisor and returns
/// their results in shard order (a default Result for a shard that did not
/// finish). Every attempt of shard s calls body(s, clock) on a fresh
/// private clock set to the world clock's time, installed as the thread's
/// clock, under the (phase.salt, s) fault substreams: all functions of what
/// the shard is, so a retry or another worker replays it bit-identically.
/// A checkpoint payload is the shard's end time (f64) then phase.put's
/// bytes. The shards ran concurrently, so the world clock ends at the
/// latest finished shard's end. The identity fields of config.supervise
/// are overwritten, binding the checkpoint key to this world and plan.
template <typename Result, typename Config, typename Body>
std::vector<Result> run_sharded(Internet& internet,
                                const ShardedPhase<Result>& phase,
                                const Config& config, std::size_t shard_count,
                                Body body, super::CampaignReport* report_out) {
  const sim::SimTime t0 = internet.clock.now();
  std::vector<Result> results(shard_count);
  std::vector<sim::SimTime> ends(shard_count, t0);

  super::ShardCodec codec;
  codec.encode = [&](std::size_t s) {
    super::wire::Writer w;
    w.f64(ends[s]);
    phase.put(w, results[s]);
    return w.take();
  };
  codec.decode = [&](std::size_t s, std::string_view payload) {
    super::wire::Reader r(payload);
    const sim::SimTime end = r.f64();
    Result result = phase.get(r);
    if (!r.done()) return false;
    ends[s] = end;
    results[s] = std::move(result);
    return true;
  };

  super::SupervisorConfig supervise = config.supervise;
  supervise.campaign_kind = phase.kind;
  supervise.world_seed = internet.config.seed;
  supervise.plan_hash = internet.faults->plan().hash();
  supervise.payload_version = phase.payload_version;
  supervise.faults = internet.faults.get();
  supervise.salt = phase.salt;
  super::ShardSupervisor supervisor(std::move(supervise));
  super::CampaignReport report = supervisor.run(
      shard_count,
      [&](std::size_t s) {
        sim::Clock clock;
        clock.set(t0);
        sim::ThreadClockScope clock_scope(clock);
        fault::StreamScope fault_scope(internet.faults.get(), phase.salt, s);
        results[s] = body(s, clock);
        ends[s] = clock.now();
      },
      &codec, config.threads);

  sim::SimTime end = t0;
  for (std::size_t s = 0; s < shard_count; ++s) {
    if (report.shards[s].finished())
      end = std::max(end, ends[s]);
    else
      results[s] = {};
  }
  internet.clock.set(end);
  if (report_out != nullptr) *report_out = std::move(report);
  return results;
}

}  // namespace

void run_bittorrent_phase(Internet& internet,
                          const BitTorrentPhaseConfig& config) {
  obs::ScopedPhase phase("campaign.bittorrent");
  sim::Rng rng = internet.fork_rng();
  const auto& peers = internet.bt_peers();
  if (peers.empty()) return;

  // Swarm membership: a couple of global swarms per peer plus, with some
  // probability, the peer's AS-local swarm (regional content).
  const std::size_t global_swarms =
      std::max<std::size_t>(1, peers.size() / kPeersPerSwarm);
  std::vector<std::vector<std::uint64_t>> memberships(peers.size());
  {
    // Peer -> ASN map for local swarm ids.
    std::unordered_map<const dht::DhtNode*, netcore::Asn> asn_of;
    for (const IspInstance& isp : internet.isps)
      for (const Subscriber& s : isp.subscribers)
        if (s.bt_client) asn_of[s.bt_client] = isp.asn;
    for (std::size_t i = 0; i < peers.size(); ++i) {
      for (int k = 0; k < kSwarmsPerPeer; ++k)
        memberships[i].push_back(rng.uniform(1, global_swarms));
      if (rng.chance(kLocalSwarmJoin))
        memberships[i].push_back(1'000'000'000ull + asn_of[peers[i]]);
    }
  }

  // Bootstrap everyone into the DHT.
  {
    obs::ScopedPhase bootstrap("bootstrap");
    for (dht::DhtNode* peer : peers)
      peer->bootstrap(internet.net, internet.servers.bootstrap_endpoint);
    internet.clock.advance(kRoundIntervalS);
  }

  // Interleave tracker announces and DHT maintenance.
  obs::ScopedPhase rounds("rounds");
  for (int round = 0; round < config.maintenance_rounds; ++round) {
    if (round < config.announce_rounds) {
      for (std::size_t i = 0; i < peers.size(); ++i)
        for (std::uint64_t swarm : memberships[i])
          peers[i]->announce(internet.net,
                             internet.servers.tracker->endpoint(), swarm);
    }
    for (dht::DhtNode* peer : peers) peer->run_maintenance(internet.net);
    internet.clock.advance(kRoundIntervalS);
  }
}

std::unique_ptr<crawler::DhtCrawler> run_crawl_phase(
    Internet& internet, const CrawlPhaseConfig& config,
    super::CampaignReport* report_out) {
  obs::ScopedPhase phase("campaign.crawl");
  auto crawler = std::make_unique<crawler::DhtCrawler>(
      internet.servers.crawler_host, internet.servers.crawler_endpoint,
      config.crawl, internet.fork_rng());
  crawler->install(internet.net);
  // The serial walk retries against the world clock; the sweep shards pass
  // their private clocks to ping_shard instead.
  crawler->set_retry_clock(&internet.clock);
  crawler->start(internet.net, internet.servers.bootstrap_endpoint);

  {
    obs::ScopedPhase walk("walk");
    std::size_t crawled = 0;
    while (!crawler->frontier_empty() && crawled < kMaxCrawledPeers)
      crawled += crawler->crawl_step(internet.net, kPeersPerCrawlStep);
  }
  // bt_ping sweep over everything we learned (Table 2 responder counts),
  // sharded by the destination's root routing subtree: every NAT a probe
  // (or its pong) can touch lives inside that subtree, so shards mutate
  // disjoint simulation state. Unrouted/reserved destinations group under
  // kNoNode. The grouping keys off topology — never the worker count — so
  // the decomposition (and with it the dataset) is thread-count invariant;
  // ping responses land in sets, so merge order cannot matter either.
  obs::ScopedPhase sweep("ping_sweep");
  const std::vector<dht::Contact> contacts =
      crawler->dataset().learned_contacts();
  std::vector<std::vector<dht::Contact>> shards;
  std::unordered_map<sim::NodeId, std::size_t> shard_of;
  for (const dht::Contact& c : contacts) {
    auto [it, inserted] =
        shard_of.try_emplace(internet.net.top_route(c.endpoint.address),
                             shards.size());
    if (inserted) shards.emplace_back();
    shards[it->second].push_back(c);
  }
  // A quarantined shard contributes nothing: the dataset degrades to the
  // finished shards' coverage instead of the sweep dying outright. Retry
  // backoff costs virtual time, so each shard passes its private clock to
  // ping_shard.
  const std::vector<PingOutcome> outcomes = run_sharded(
      internet, kPingSweep, config, shards.size(),
      [&](std::size_t s, sim::Clock& clock) {
        return crawler->ping_shard(internet.net, shards[s], &clock);
      },
      report_out);
  crawler->absorb_ping_outcomes(outcomes);
  return crawler;
}

std::vector<netalyzr::SessionResult> run_netalyzr_campaign(
    Internet& internet, const NetalyzrCampaignConfig& config,
    super::CampaignReport* report_out) {
  obs::ScopedPhase phase("campaign.netalyzr");
  // One fork keeps the Internet's RNG sequence aligned with earlier
  // drivers; its first output seeds every shard substream.
  const std::uint64_t campaign_seed = internet.fork_rng().next();

  // Shard = one ISP with sessions to run: an ISP's subscribers, CPE NATs
  // and CGN are confined to its own subtree, so shards mutate disjoint
  // simulation state (the shared Netalyzr/STUN servers are internally
  // synchronized or stateless). The decomposition keys off topology —
  // never the worker count — and each shard derives its RNG substream from
  // (campaign_seed, shard index) and runs on its own clock, so any worker
  // count produces bit-identical sessions.
  std::vector<IspInstance*> shard_isps;
  for (IspInstance& isp : internet.isps)
    if (isp.nz_session_target > 0) shard_isps.push_back(&isp);

  // Per-ISP vantage points measure concurrently, each on its shard's
  // private timeline. A quarantined shard contributes no sessions —
  // degraded coverage, reported through `report_out` and
  // analysis::MeasurementCoverage.
  std::vector<Sessions> shard_results = run_sharded(
      internet, kNetalyzr, config, shard_isps.size(),
      [&](std::size_t s, sim::Clock& clock) {
        IspInstance& isp = *shard_isps[s];
        sim::Rng rng = sim::Rng::fork(campaign_seed, s);

        // Sessions come from distinct subscribers where possible.
        std::vector<std::size_t> order(isp.subscribers.size());
        for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
        rng.shuffle(order);

        Sessions results;
        for (std::size_t k = 0; k < isp.nz_session_target; ++k) {
          Subscriber& sub = isp.subscribers[order[k % order.size()]];
          netalyzr::ClientContext ctx;
          ctx.host = sub.device;
          ctx.device_address = sub.device_address;
          ctx.asn = isp.asn;
          ctx.cellular = isp.cellular;
          ctx.upnp_cpe = sub.cpe_upnp ? sub.cpe : nullptr;
          // v6 lines: NAT64/464XLAT clients use the carrier's DNS64; bare
          // v6-only lines additionally resolve through their host stack.
          if (sub.v6_mode == nat::TranslatorMode::nat64) {
            ctx.dns64 = isp.dns64;
            ctx.v6stack = sub.v6stack;
          }

          netalyzr::NetalyzrClient client(ctx, internet.net, rng.fork(),
                                          config.retry);
          netalyzr::SessionResult session =
              client.run_basic(*internet.servers.netalyzr, &clock);
          session.line_mode = sub.v6_mode;
          session.line_clat = sub.has_clat;
          if (rng.chance(config.stun_fraction))
            client.run_stun(*internet.servers.stun, session);
          if (rng.chance(config.enum_fraction))
            client.run_enumeration(clock, *internet.servers.netalyzr, session);
          if (config.transition_battery)
            client.run_transition(clock, *internet.servers.netalyzr, session);
          results.push_back(std::move(session));
          clock.advance(kInterSessionGapS);
        }
        // Trim the ISP's NAT state to bound memory.
        if (isp.cgn) isp.cgn->collect_garbage(clock.now());
        return results;
      },
      report_out);

  // Merge in shard (ISP) order — the same order the serial loop visited.
  std::vector<netalyzr::SessionResult> results;
  for (auto& shard : shard_results)
    for (auto& session : shard) results.push_back(std::move(session));
  return results;
}

}  // namespace cgn::scenario
