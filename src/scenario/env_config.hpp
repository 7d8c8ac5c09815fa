// Environment-driven run configuration shared by the bench binaries and
// the cgn::observatory daemon: the scaled world, the impairment scenario,
// the supervision policy and the probe retransmission policy all come from
// the same CGN_* knobs, so "the daemon streams the same campaign the bench
// ran" is a matter of sharing a shell environment, not of duplicating
// parsing code. Knob semantics are documented in README.md.
#pragma once

#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "scenario/internet.hpp"
#include "super/supervisor.hpp"

namespace cgn::scenario {

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v ? std::atof(v) : fallback;
}

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* v = std::getenv(name);
  return v ? static_cast<std::uint64_t>(std::atoll(v)) : fallback;
}

/// The impairment scenario, from the environment. All-zero defaults give
/// the inactive plan (clean runs identical to a no-fault build).
/// CGN_FAULT_LOSS / CGN_FAULT_DUP are per-hop / per-delivery rates;
/// CGN_FAULT_UNRESP the deaf-BT-peer fraction; CGN_FAULT_RESTART_S and the
/// CGN_FAULT_PRESSURE_* knobs drive the CGN device faults;
/// CGN_FAULT_SHARD_CRASH kills campaign shard attempts (see cgn::super).
inline fault::FaultPlan fault_plan_from_env() {
  fault::FaultPlan plan;
  plan.seed = env_u64("CGN_FAULT_SEED", plan.seed);
  plan.link.loss_rate = env_double("CGN_FAULT_LOSS", 0.0);
  plan.link.duplication_rate = env_double("CGN_FAULT_DUP", 0.0);
  plan.peers.unresponsive_fraction = env_double("CGN_FAULT_UNRESP", 0.0);
  plan.nat.restart_period_s = env_double("CGN_FAULT_RESTART_S", 0.0);
  plan.nat.pressure_period_s = env_double("CGN_FAULT_PRESSURE_S", 0.0);
  plan.nat.pressure_duration_s = env_double("CGN_FAULT_PRESSURE_DUR_S", 0.0);
  plan.nat.pressure_reserve_fraction =
      env_double("CGN_FAULT_PRESSURE_RESERVE", 0.0);
  plan.shards.crash_rate = env_double("CGN_FAULT_SHARD_CRASH", 0.0);
  return plan;
}

/// Campaign supervision policy, from the environment. Defaults preserve
/// historical behaviour (single attempt, quarantine on, no checkpointing).
/// CGN_SUPER_ATTEMPTS sets the per-shard budget; CGN_SUPER_CHECKPOINT_DIR
/// enables checkpoint/resume (one `<kind>.ckpt` file per campaign in that
/// directory).
inline super::SupervisorConfig supervisor_config_from_env(
    const std::string& kind) {
  super::SupervisorConfig cfg;
  cfg.max_attempts = static_cast<int>(env_u64("CGN_SUPER_ATTEMPTS", 1));
  const char* dir = std::getenv("CGN_SUPER_CHECKPOINT_DIR");
  if (dir && *dir) {
    // CheckpointWriter::open cannot create directories; make the drill
    // (point the env at a scratch dir, kill, rerun) just work.
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    cfg.checkpoint_path = std::string(dir) + "/" + kind + ".ckpt";
  }
  return cfg;
}

/// Probe retransmission policy, from the environment. The default
/// (CGN_RETRY_ATTEMPTS=1) is the original fire-once behaviour.
inline fault::RetryPolicy retry_policy_from_env() {
  fault::RetryPolicy retry;
  retry.attempts = static_cast<int>(env_u64("CGN_RETRY_ATTEMPTS", 1));
  retry.base_backoff_s = env_double("CGN_RETRY_BACKOFF_S", 1.0);
  retry.backoff_factor = env_double("CGN_RETRY_FACTOR", 2.0);
  retry.jitter_fraction = env_double("CGN_RETRY_JITTER", 0.0);
  return retry;
}

/// The IPv6-transition scenario, from the environment. CGN_V6_TRANSITION=1
/// enables the v6 world (default off: v4-only, figures byte-identical to a
/// pre-v6 build); the CGN_V6_* fractions tune the per-AS mechanism mix,
/// the per-line CLAT share and the Well-Known-Prefix probability. All v6
/// code paths read these knobs through this function — never getenv.
inline V6ScenarioConfig v6_config_from_env() {
  V6ScenarioConfig v6;
  v6.enabled = env_u64("CGN_V6_TRANSITION", 0) != 0;
  v6.cellular_nat64_fraction =
      env_double("CGN_V6_CELL_NAT64", v6.cellular_nat64_fraction);
  v6.cellular_dslite_fraction =
      env_double("CGN_V6_CELL_DSLITE", v6.cellular_dslite_fraction);
  v6.fixed_nat64_fraction =
      env_double("CGN_V6_FIXED_NAT64", v6.fixed_nat64_fraction);
  v6.fixed_dslite_fraction =
      env_double("CGN_V6_FIXED_DSLITE", v6.fixed_dslite_fraction);
  v6.cellular_clat_fraction =
      env_double("CGN_V6_CELL_CLAT", v6.cellular_clat_fraction);
  v6.fixed_clat_fraction =
      env_double("CGN_V6_FIXED_CLAT", v6.fixed_clat_fraction);
  v6.well_known_pref64_fraction =
      env_double("CGN_V6_WKP64", v6.well_known_pref64_fraction);
  return v6;
}

/// The calibrated world, scaled. Scale 1.0 is a 1:8 model of the paper's
/// Internet (6,500 routed ASes, 360 PBL eyeballs, ...).
inline InternetConfig scaled_config() {
  double scale = env_double("CGN_BENCH_SCALE", 0.4);
  InternetConfig cfg;
  cfg.seed = env_u64("CGN_BENCH_SEED", 42);
  auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(8, static_cast<std::size_t>(
                                        static_cast<double>(n) * scale));
  };
  cfg.routed_ases = scaled(cfg.routed_ases);
  cfg.pbl_eyeballs = scaled(cfg.pbl_eyeballs);
  cfg.apnic_eyeballs = scaled(cfg.apnic_eyeballs);
  cfg.cellular_ases = scaled(cfg.cellular_ases);
  cfg.fault_plan = fault_plan_from_env();
  cfg.v6 = v6_config_from_env();
  // CGN_LAZY_WORLD=1 defers per-line construction to first use (figures
  // unchanged); CGN_SILENT_LINES adds bench-only never-instrumented lines
  // per CGN AS, built by materialize_silent_lines(). Both default off.
  cfg.lazy_build = env_u64("CGN_LAZY_WORLD", 0) != 0;
  cfg.silent_lines_per_cgn_as =
      static_cast<std::size_t>(env_u64("CGN_SILENT_LINES", 0));
  return cfg;
}

}  // namespace cgn::scenario
