#include "super/supervisor.hpp"

#include <atomic>
#include <chrono>
#include <sstream>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "par/thread_pool.hpp"
#include "super/checkpoint.hpp"

namespace cgn::super {

namespace {

obs::Counter& g_planned = obs::counter("super.shards_planned");
obs::Counter& g_ok = obs::counter("super.shards_ok");
obs::Counter& g_retried = obs::counter("super.shards_retried");
obs::Counter& g_quarantined = obs::counter("super.shards_quarantined");
obs::Counter& g_resumed = obs::counter("super.shards_resumed");
obs::Counter& g_not_run = obs::counter("super.shards_not_run");
obs::Counter& g_retry_attempts = obs::counter("super.retry_attempts");
obs::Counter& g_ckpt_written = obs::counter("super.checkpoint_shards_written");
obs::Counter& g_campaign_aborts = obs::counter("super.campaign_aborts");

using SteadyClock = std::chrono::steady_clock;

double seconds_since(SteadyClock::time_point t0) {
  return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

/// An injected worker crash (fault::ShardFaults). Fired at dispatch,
/// before the shard body runs, so a retry replays a clean substream.
struct ShardCrashError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::string aggregate_failures(const CampaignReport& report) {
  std::vector<std::size_t> failed;
  for (std::size_t s = 0; s < report.shards.size(); ++s)
    if (!report.shards[s].finished()) failed.push_back(s);
  std::ostringstream os;
  os << failed.size() << " of " << report.shards.size()
     << " shards failed: ";
  constexpr std::size_t kMaxDetail = 4;
  for (std::size_t i = 0; i < failed.size() && i < kMaxDetail; ++i) {
    const ShardOutcome& o = report.shards[failed[i]];
    if (i > 0) os << "; ";
    os << "shard " << failed[i] << " [" << to_string(o.status)
       << "]: " << (o.error.empty() ? "no error recorded" : o.error);
  }
  if (failed.size() > kMaxDetail)
    os << "; (+" << failed.size() - kMaxDetail << " more)";
  return std::move(os).str();
}

}  // namespace

std::string_view to_string(ShardStatus s) noexcept {
  switch (s) {
    case ShardStatus::not_run: return "not_run";
    case ShardStatus::completed: return "completed";
    case ShardStatus::recovered: return "recovered";
    case ShardStatus::resumed: return "resumed";
    case ShardStatus::quarantined: return "quarantined";
  }
  return "unknown";
}

std::string CampaignReport::describe() const {
  std::ostringstream os;
  os << shards.size() << " shards: " << count(ShardStatus::completed)
     << " ok, " << count(ShardStatus::recovered) << " retried, "
     << count(ShardStatus::resumed) << " resumed, "
     << count(ShardStatus::quarantined) << " quarantined, "
     << count(ShardStatus::not_run) << " not run";
  return std::move(os).str();
}

CampaignReport ShardSupervisor::run(
    std::size_t shard_count, const std::function<void(std::size_t)>& shard_fn,
    const ShardCodec* codec, std::size_t threads) {
  CampaignReport report;
  report.shards.resize(shard_count);
  if (shard_count == 0) return report;
  g_planned.inc(shard_count);

  // Checkpoint state: completed-shard payloads from a previous run, and a
  // writer that appends this run's completions to the same file.
  std::unordered_map<std::uint64_t, std::string> restored;
  CheckpointWriter writer;
  if (!config_.checkpoint_path.empty()) {
    const CheckpointKey key{config_.campaign_kind, config_.world_seed,
                            config_.plan_hash, shard_count,
                            config_.payload_version};
    restored = load_checkpoint(config_.checkpoint_path, key);
    writer.open(config_.checkpoint_path, key);
  }

  const int budget = std::max(1, config_.max_attempts);

  std::atomic<std::size_t> finished_this_run{0};
  std::atomic<bool> aborting{false};

  par::run_shards(
      shard_count,
      [&](std::size_t s) {
        ShardOutcome& out = report.shards[s];
        const auto shard_t0 = SteadyClock::now();

        // Resume: restore the shard from its checkpoint record instead of
        // re-running it. A payload the codec rejects falls through to a
        // normal run.
        if (codec != nullptr && codec->decode) {
          auto it = restored.find(s);
          if (it != restored.end() && codec->decode(s, it->second)) {
            out.status = ShardStatus::resumed;
            g_resumed.inc();
            return;
          }
        }

        for (int attempt = 1; attempt <= budget; ++attempt) {
          if (aborting.load(std::memory_order_relaxed)) {
            out.status = ShardStatus::not_run;
            out.error = "campaign aborted";
            out.elapsed_s = seconds_since(shard_t0);
            g_not_run.inc();
            return;
          }
          out.attempts = attempt;
          if (attempt > 1) g_retry_attempts.inc();

          bool ok = false;
          try {
            if (config_.faults != nullptr &&
                config_.faults->shard_crash(config_.salt, s, attempt))
              throw ShardCrashError("injected shard crash (attempt " +
                                    std::to_string(attempt) + ")");
            shard_fn(s);
            ok = true;
          } catch (const std::exception& e) {
            out.error = e.what();
          } catch (...) {
            out.error = "unknown exception";
          }
          out.elapsed_s = seconds_since(shard_t0);
          if (ok) {
            out.status = attempt == 1 ? ShardStatus::completed
                                      : ShardStatus::recovered;
            (attempt == 1 ? g_ok : g_retried).inc();
            if (writer.is_open() && codec != nullptr && codec->encode) {
              writer.append(s, codec->encode(s));
              g_ckpt_written.inc();
            }
            const std::size_t done =
                finished_this_run.fetch_add(1, std::memory_order_relaxed) + 1;
            if (config_.abort_after_shards > 0 &&
                done >= config_.abort_after_shards)
              aborting.store(true, std::memory_order_relaxed);
            return;
          }
        }
        out.status = ShardStatus::quarantined;
        g_quarantined.inc();
      },
      threads);

  if (aborting.load()) {
    g_campaign_aborts.inc();
    throw CampaignAborted(
        "campaign '" + config_.campaign_kind + "' aborted after " +
        std::to_string(finished_this_run.load()) + " finished shards (" +
        report.describe() + ")");
  }
  if (!config_.quarantine && report.degraded())
    throw std::runtime_error("supervised campaign '" + config_.campaign_kind +
                             "' failed: " + aggregate_failures(report));
  return report;
}

}  // namespace cgn::super
