#include "fault/fault.hpp"

#include <sstream>

#include "flat/flat.hpp"

namespace cgn::fault {

namespace {

// File-scope metric handles: resolved once, bumped with one relaxed add.
obs::Counter& g_injected_loss = obs::counter("fault.injected_loss");
obs::Counter& g_injected_dup = obs::counter("fault.injected_duplication");
obs::Counter& g_retries = obs::counter("fault.retries");
obs::Counter& g_retry_recoveries = obs::counter("fault.retry_recoveries");
obs::Counter& g_retry_exhausted = obs::counter("fault.retry_exhausted");

std::uint64_t mix_salt(std::uint64_t seed, std::uint64_t salt) {
  return seed ^ (0x9e3779b97f4a7c15ull * (salt + 1));
}

}  // namespace

std::string FaultPlan::describe() const {
  std::ostringstream os;
  os.precision(12);
  os << "seed=" << seed << " loss=" << link.loss_rate
     << " dup=" << link.duplication_rate
     << " unresponsive=" << peers.unresponsive_fraction
     << " restart_period=" << nat.restart_period_s
     // Port-pool pressure windows were removed; the literal keeps every
     // plan's hash (and with it the recorded checkpoint keys) unchanged.
     << " pressure_period=0 pressure_duration=0 pressure_reserve=0";
  // Appended only when set so plans predating shard crashes keep their hash.
  if (shards.crash_rate > 0) os << " shard_crash=" << shards.crash_rate;
  return os.str();
}

std::uint64_t FaultPlan::hash() const {
  const std::string text = describe();
  return flat::fnv1a_bytes(text.data(), text.size(),
                           flat::kFnvRecordedOffset);
}

thread_local sim::Rng* FaultInjector::t_stream_ = nullptr;

FaultInjector::FaultInjector(FaultPlan plan)
    : plan_(plan),
      serial_stream_(sim::Rng::fork(mix_salt(plan.seed, kSaltSerial), 0)) {}

sim::Rng FaultInjector::substream(std::uint64_t salt,
                                  std::uint64_t shard) const {
  return sim::Rng::fork(mix_salt(plan_.seed, salt), shard);
}

bool FaultInjector::shard_crash(std::uint64_t campaign_salt,
                                std::uint64_t shard, int attempt) const {
  const double rate = plan_.shards.crash_rate;
  if (rate <= 0 || attempt <= 0) return false;
  // One substream per (campaign, shard); draw `attempt` variates so each
  // attempt's fate is independent yet replayable in isolation.
  sim::Rng rng = substream(kSaltShardCrash + (campaign_salt << 8), shard);
  double draw = 1.0;
  for (int i = 0; i < attempt; ++i) draw = rng.uniform01();
  return draw < rate;
}

bool FaultInjector::drop_at_hop() {
  if (plan_.link.loss_rate <= 0) return false;
  if (!stream().chance(plan_.link.loss_rate)) return false;
  g_injected_loss.inc();
  return true;
}

bool FaultInjector::duplicate_delivery() {
  if (plan_.link.duplication_rate <= 0) return false;
  if (!stream().chance(plan_.link.duplication_rate)) return false;
  g_injected_dup.inc();
  return true;
}

void FaultInjector::mark_unresponsive(std::uint32_t node, std::uint16_t port) {
  unresponsive_.insert((std::uint64_t{node} << 16) | port);
}

StreamScope::StreamScope(const FaultInjector* injector, std::uint64_t salt,
                         std::uint64_t shard)
    : active_(injector != nullptr && injector->active()),
      rng_(active_ ? injector->substream(salt, shard) : sim::Rng(0)),
      prev_(FaultInjector::t_stream_) {
  if (active_) FaultInjector::t_stream_ = &rng_;
}

StreamScope::~StreamScope() {
  if (active_) FaultInjector::t_stream_ = prev_;
}

namespace detail {

void note_retry() { g_retries.inc(); }
void note_retry_recovery() { g_retry_recoveries.inc(); }
void note_retry_exhausted() { g_retry_exhausted.inc(); }

}  // namespace detail

}  // namespace cgn::fault
