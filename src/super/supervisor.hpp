// Supervised campaign execution over cgn::par.
//
// par::run_shards only runs shards; its bodies must not throw. The
// supervisor is the one place a failed shard is handled, with the recovery
// semantics long-running measurement campaigns need (the paper's DHT
// crawls ran for months; Netalyzr collected sessions for years), without
// touching the determinism contract:
//
//  * Per-shard attempt budget. An attempt fails when the shard body, an
//    injected crash, the codec or the checkpoint write throws; a failed
//    shard is re-run up to max_attempts times. Because every campaign
//    shard derives its randomness from a static Rng::fork(seed, shard)
//    substream and runs on a private clock re-based at the campaign
//    start, a retry replays the shard from scratch bit-identically —
//    retries are idempotent by construction.
//  * Quarantine. A shard that exhausts its budget is *quarantined*: its
//    results are dropped, the campaign completes with degraded coverage,
//    and the CampaignReport says exactly which shards are missing and why.
//  * Checkpoint/resume. With a checkpoint_path, each finished shard's
//    results are serialized through the caller's ShardCodec and appended
//    to a versioned checkpoint file (see checkpoint.hpp). A resumed
//    campaign restores those shards instead of re-running them; since
//    shard substreams are independent, the merged results are byte-
//    identical to an uninterrupted run at any worker count.
//
// Injected shard crashes (fault::ShardFaults) fire at attempt dispatch,
// before the shard body runs — modelling a worker process dying with its
// shard — drawn from fork(plan.seed ^ salt, shard) substreams keyed by
// attempt, so crash patterns are thread-count invariant and a retry under
// the same plan can deterministically succeed.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "fault/fault.hpp"

namespace cgn::super {

enum class ShardStatus : std::uint8_t {
  not_run,      ///< never dispatched (campaign aborted)
  completed,    ///< first attempt succeeded
  recovered,    ///< succeeded after at least one failed attempt
  resumed,      ///< restored from a checkpoint, not re-run
  quarantined,  ///< attempt budget exhausted; results dropped
};

[[nodiscard]] std::string_view to_string(ShardStatus s) noexcept;

struct ShardOutcome {
  ShardStatus status = ShardStatus::not_run;
  int attempts = 0;        ///< attempts actually dispatched (0 when resumed)
  double elapsed_s = 0.0;  ///< wall clock across all attempts
  std::string error;       ///< what() of the last failed attempt

  /// True when this shard's results are present in the campaign output.
  [[nodiscard]] bool finished() const noexcept {
    return status == ShardStatus::completed ||
           status == ShardStatus::recovered || status == ShardStatus::resumed;
  }
};

/// Structured result of one supervised campaign: per-shard status plus
/// rollups. The campaign drivers hand this to analysis/bench so degraded
/// coverage is visible instead of silent.
struct CampaignReport {
  std::vector<ShardOutcome> shards;

  [[nodiscard]] std::size_t count(ShardStatus s) const noexcept {
    std::size_t n = 0;
    for (const ShardOutcome& o : shards) n += o.status == s ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t planned() const noexcept { return shards.size(); }
  [[nodiscard]] std::size_t finished() const noexcept {
    std::size_t n = 0;
    for (const ShardOutcome& o : shards) n += o.finished() ? 1 : 0;
    return n;
  }
  /// Fraction of planned shards whose results made it into the output
  /// (1.0 for an empty campaign).
  [[nodiscard]] double coverage() const noexcept {
    return shards.empty() ? 1.0
                          : static_cast<double>(finished()) /
                                static_cast<double>(shards.size());
  }
  [[nodiscard]] bool degraded() const noexcept {
    return finished() < shards.size();
  }
  [[nodiscard]] int total_attempts() const noexcept {
    int n = 0;
    for (const ShardOutcome& o : shards) n += o.attempts;
    return n;
  }
  /// One-line summary ("12 shards: 10 ok, 1 retried, 1 quarantined, ...").
  [[nodiscard]] std::string describe() const;
};

/// Thrown when the campaign is aborted as a whole (currently only by the
/// abort_after_shards kill-switch used to exercise checkpoint recovery).
class CampaignAborted : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct SupervisorConfig {
  /// Total attempts per shard (1 = no retry, the historical behaviour).
  int max_attempts = 1;

  /// Checkpoint file; empty disables checkpoint/resume.
  std::string checkpoint_path;

  /// Campaign identity for the checkpoint header — drivers fill these.
  std::string campaign_kind = "campaign";
  std::uint64_t world_seed = 0;
  std::uint64_t plan_hash = 0;
  std::uint64_t payload_version = 1;

  /// Test/ops kill-switch: once this many shards finished *in this run*
  /// (checkpointed if a path is set), stop dispatching and throw
  /// CampaignAborted after the barrier — simulating a campaign killed
  /// mid-flight at a checkpoint boundary. 0 disables.
  std::size_t abort_after_shards = 0;

  /// Source of injected shard crashes (may be null). The supervisor asks
  /// faults->shard_crash(salt, shard, attempt) at each dispatch.
  const fault::FaultInjector* faults = nullptr;
  std::uint64_t salt = 0;  ///< campaign salt for the crash substreams
};

/// Optional per-shard serialization hooks. encode runs after a shard
/// finishes (only when checkpointing is enabled); decode restores a shard
/// from checkpoint bytes, returning false to force a re-run (corrupt or
/// stale payload). Either may throw: that fails the attempt like a
/// throwing shard body.
struct ShardCodec {
  std::function<std::string(std::size_t shard)> encode;
  std::function<bool(std::size_t shard, std::string_view payload)> decode;
};

class ShardSupervisor {
 public:
  explicit ShardSupervisor(SupervisorConfig config)
      : config_(std::move(config)) {}

  /// Runs `shard_fn(shard)` for every shard under the configured
  /// supervision and returns the per-shard report. Threads semantics match
  /// par::run_shards (0 = CGN_THREADS). shard_fn must be a pure function
  /// of the shard index with respect to campaign results — that is what
  /// makes retries idempotent and resumes exact. A shard's failures end in
  /// its ShardOutcome, never in an exception out of run(); only the
  /// abort_after_shards kill-switch throws (CampaignAborted).
  CampaignReport run(std::size_t shard_count,
                     const std::function<void(std::size_t)>& shard_fn,
                     const ShardCodec* codec = nullptr,
                     std::size_t threads = 0);

 private:
  SupervisorConfig config_;
};

}  // namespace cgn::super
