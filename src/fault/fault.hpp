// Deterministic fault injection.
//
// The paper's vantage points measure through a lossy Internet: probes vanish,
// DHT peers go deaf, and CGNs reboot and flush their translation state. A
// FaultPlan describes those impairments declaratively; a FaultInjector turns
// the plan into per-packet decisions drawn from Rng::fork substreams, so a
// given (seed, plan) fires the exact same faults no matter how many worker
// threads the campaign runs on. With the default (inactive) plan the
// injector draws no random numbers at all, which keeps clean runs
// byte-identical to a build without fault hooks.
//
// Injection points: sim::Network (per-hop loss, delivery duplication,
// unresponsive endpoints) and nat::NatDevice (scheduled restarts). Consumers
// opt into resilience via fault::RetryPolicy (see retry.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "sim/rng.hpp"

namespace cgn::fault {

/// Per-hop / per-delivery link impairments.
struct LinkFaults {
  double loss_rate = 0.0;         ///< P(drop) at every traversed hop
  double duplication_rate = 0.0;  ///< P(second delivery) at the receiver
};

/// Application-level deafness: a peer whose inbound traffic is discarded
/// (BitTorrent client crashed, strict firewall) while its own outbound
/// still flows — the peers Richter et al. probe and then discard (§4).
struct PeerFaults {
  double unresponsive_fraction = 0.0;  ///< share of BT peers per AS
};

/// Campaign-infrastructure faults: a measurement *worker* (not the network)
/// dies and takes its shard with it — the collector crashes Richter et al.'s
/// long crawls had to survive. Crashes fire at shard dispatch, before the
/// shard body runs, so a supervised retry replays a clean substream and
/// stays bit-identical (see cgn::super).
struct ShardFaults {
  /// P(a given shard attempt is killed), drawn independently per attempt
  /// from fork(plan.seed ^ salt, shard) — a pure function of what the
  /// shard is, so crash patterns are thread-count invariant.
  double crash_rate = 0.0;
};

/// CGN device faults: scheduled restarts that flush all dynamic state
/// (mappings, port accounting, chunk assignments).
struct NatFaults {
  double restart_period_s = 0.0;  ///< 0 disables restarts
};

/// The complete impairment scenario. Value-semantic and cheap to copy; an
/// all-defaults plan is "inactive" and injects nothing.
struct FaultPlan {
  /// Root of every fault substream. Independent from the world seed so the
  /// same world can be re-run under different adversity.
  std::uint64_t seed = 0xfa017;
  LinkFaults link;
  PeerFaults peers;
  NatFaults nat;
  ShardFaults shards;

  [[nodiscard]] bool active() const {
    return link.loss_rate > 0 || link.duplication_rate > 0 ||
           peers.unresponsive_fraction > 0 || nat.restart_period_s > 0 ||
           shards.crash_rate > 0;
  }

  /// Canonical one-line rendering (also the hash input).
  [[nodiscard]] std::string describe() const;
  /// FNV-1a over describe(): stable across runs/platforms, recorded in
  /// bench JSON so trajectories distinguish clean from impaired runs.
  [[nodiscard]] std::uint64_t hash() const;
};

/// Substream salts: each injection context derives its decisions from
/// fork(plan.seed ^ salt, shard), keeping contexts independent.
inline constexpr std::uint64_t kSaltSerial = 0;
inline constexpr std::uint64_t kSaltNetalyzr = 1;
inline constexpr std::uint64_t kSaltPingSweep = 2;
inline constexpr std::uint64_t kSaltBuilder = 3;
inline constexpr std::uint64_t kSaltShardCrash = 5;

class FaultInjector;

/// Installs a thread-local fault substream for one campaign shard, mirroring
/// sim::ThreadClockScope. Every drop/duplication decision on this thread
/// then draws from fork(plan.seed ^ salt, shard) — a function of what the
/// shard *is*, not which worker runs it, so fault sequences are
/// thread-count invariant. No-op when the injector is null or inactive.
class StreamScope {
 public:
  StreamScope(const FaultInjector* injector, std::uint64_t salt,
              std::uint64_t shard);
  ~StreamScope();
  StreamScope(const StreamScope&) = delete;
  StreamScope& operator=(const StreamScope&) = delete;

 private:
  bool active_;
  sim::Rng rng_;
  sim::Rng* prev_;
};

/// Turns a FaultPlan into deterministic per-packet decisions. One injector
/// per Internet; sim::Network calls the hook methods from the delivery path
/// (only when attached, i.e. only when the plan is active).
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }
  [[nodiscard]] bool active() const noexcept { return plan_.active(); }

  /// True when the packet is lost on the wire into the current hop. Draws
  /// from the calling thread's substream only when loss_rate > 0.
  [[nodiscard]] bool drop_at_hop();
  /// True when the delivered packet arrives twice (dispatched again to the
  /// receiver bound to its port, if any).
  [[nodiscard]] bool duplicate_delivery();

  /// The deterministic substream for (salt, shard): a pure function of the
  /// plan seed, never of injector state — StreamScope and the scenario
  /// builder derive their decision streams here.
  [[nodiscard]] sim::Rng substream(std::uint64_t salt,
                                   std::uint64_t shard) const;

  /// True when `attempt` (1-based) of `shard` under `campaign_salt` is
  /// killed at dispatch. A pure function of (plan seed, salt, shard,
  /// attempt): cgn::super consults it before running the shard body, so
  /// crash patterns are thread-count invariant and retries can
  /// deterministically succeed.
  [[nodiscard]] bool shard_crash(std::uint64_t campaign_salt,
                                 std::uint64_t shard, int attempt) const;

  /// Marks (node, port) as an unresponsive endpoint: inbound packets to it
  /// are dropped at delivery. Build-time only; reads are lock-free.
  void mark_unresponsive(std::uint32_t node, std::uint16_t port);
  [[nodiscard]] bool unresponsive(std::uint32_t node,
                                  std::uint16_t port) const {
    return !unresponsive_.empty() &&
           unresponsive_.contains((std::uint64_t{node} << 16) | port);
  }
  [[nodiscard]] std::size_t unresponsive_count() const noexcept {
    return unresponsive_.size();
  }

 private:
  friend class StreamScope;
  /// The calling thread's substream: the StreamScope override inside
  /// campaign shards, else the serial stream (main thread only).
  [[nodiscard]] sim::Rng& stream() noexcept {
    return t_stream_ ? *t_stream_ : serial_stream_;
  }

  static thread_local sim::Rng* t_stream_;

  FaultPlan plan_;
  sim::Rng serial_stream_;
  std::unordered_set<std::uint64_t> unresponsive_;
};

}  // namespace cgn::fault
