// Environment-driven run configuration shared by the bench binaries and
// the cgn::observatory daemon: the scaled world, the impairment scenario,
// the supervision policy and the probe retransmission policy all come from
// the same CGN_* knobs, so "the daemon streams the same campaign the bench
// ran" is a matter of sharing a shell environment, not of duplicating
// parsing code. Knob semantics are documented in README.md.
#pragma once

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <string>

#include "fault/fault.hpp"
#include "fault/retry.hpp"
#include "scenario/internet.hpp"
#include "super/supervisor.hpp"

namespace cgn::scenario {

namespace detail {
/// True the first time it is asked about `name`: each unusable variable
/// warns once per process, however often it is read.
inline bool first_warning(const char* name) {
  static std::mutex mu;
  static std::set<std::string> warned;
  const std::lock_guard<std::mutex> lock(mu);
  return warned.emplace(name).second;
}
}  // namespace detail

/// Parses a whole plain-decimal number no larger than `max`: nullopt for a
/// null or empty string, a sign, trailing garbage ("80x"), overflow or a
/// value above `max`. Numeric command-line flags use it too, so no input is
/// ever half-parsed or wrapped into range by a narrowing cast.
inline std::optional<std::uint64_t> parse_u64(
    const char* v, std::uint64_t max = ~std::uint64_t{0}) {
  if (!v || !*v) return std::nullopt;
  for (const char* p = v; *p; ++p)
    if (!std::isdigit(static_cast<unsigned char>(*p))) return std::nullopt;
  errno = 0;
  const unsigned long long n = std::strtoull(v, nullptr, 10);
  if (errno != 0 || n > max) return std::nullopt;
  return n;
}

// Numeric CGN_* knobs. Unset or empty reads as `fallback`. Otherwise the
// whole value must parse (and, for env_u64, be at most `max`): anything
// else ("0,4", "5%", "-1" for a count, "70000" for a port) warns once on
// stderr and reads as `fallback` instead of a half-parsed prefix or a
// wrapped value (the same policy as par::configured_threads()).

inline double env_double(const char* name, double fallback) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  char* end = nullptr;
  errno = 0;
  const double d = std::strtod(v, &end);
  if (*end == '\0' && errno == 0 && std::isfinite(d)) return d;
  if (detail::first_warning(name))
    std::fprintf(stderr, "cgn: %s='%s' is not a number; using %g\n", name, v,
                 fallback);
  return fallback;
}

inline std::uint64_t env_u64(const char* name, std::uint64_t fallback,
                             std::uint64_t max = ~std::uint64_t{0}) {
  const char* v = std::getenv(name);
  if (!v || !*v) return fallback;
  if (const auto n = parse_u64(v, max)) return *n;
  if (detail::first_warning(name))
    std::fprintf(stderr,
                 "cgn: %s='%s' is not a plain decimal number up to %llu; "
                 "using %llu\n",
                 name, v, static_cast<unsigned long long>(max),
                 static_cast<unsigned long long>(fallback));
  return fallback;
}

/// The impairment scenario, from the environment. All-zero defaults give
/// the inactive plan (clean runs identical to a no-fault build).
/// CGN_FAULT_LOSS / CGN_FAULT_DUP are per-hop / per-delivery rates;
/// CGN_FAULT_UNRESP the deaf-BT-peer fraction; CGN_FAULT_RESTART_S the CGN
/// restart period; CGN_FAULT_SHARD_CRASH kills campaign shard attempts (see
/// cgn::super).
inline fault::FaultPlan fault_plan_from_env() {
  fault::FaultPlan plan;
  plan.seed = env_u64("CGN_FAULT_SEED", plan.seed);
  plan.link.loss_rate = env_double("CGN_FAULT_LOSS", 0.0);
  plan.link.duplication_rate = env_double("CGN_FAULT_DUP", 0.0);
  plan.peers.unresponsive_fraction = env_double("CGN_FAULT_UNRESP", 0.0);
  plan.nat.restart_period_s = env_double("CGN_FAULT_RESTART_S", 0.0);
  plan.shards.crash_rate = env_double("CGN_FAULT_SHARD_CRASH", 0.0);
  return plan;
}

/// Campaign supervision policy, from the environment. Defaults preserve
/// historical behaviour (single attempt, no checkpointing).
/// CGN_SUPER_ATTEMPTS sets the per-shard budget; CGN_SUPER_CHECKPOINT_DIR
/// enables checkpoint/resume (one `<kind>.ckpt` file per campaign in that
/// directory).
inline super::SupervisorConfig supervisor_config_from_env(
    const std::string& kind) {
  super::SupervisorConfig cfg;
  cfg.max_attempts = static_cast<int>(
      env_u64("CGN_SUPER_ATTEMPTS", 1, std::numeric_limits<int>::max()));
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
/// (CGN_RETRY_ATTEMPTS=1) is the original fire-once behaviour;
/// CGN_RETRY_BACKOFF_S is the first wait, doubled for each further attempt.
inline fault::RetryPolicy retry_policy_from_env() {
  fault::RetryPolicy retry;
  retry.attempts = static_cast<int>(
      env_u64("CGN_RETRY_ATTEMPTS", 1, std::numeric_limits<int>::max()));
  retry.base_backoff_s = env_double("CGN_RETRY_BACKOFF_S", 1.0);
  return retry;
}

/// The IPv6-transition scenario, from the environment. CGN_V6_TRANSITION=1
/// enables the v6 world (default off: v4-only, figures byte-identical to a
/// pre-v6 build). All v6 code paths read it through this function — never
/// getenv.
inline V6ScenarioConfig v6_config_from_env() {
  V6ScenarioConfig v6;
  v6.enabled = env_u64("CGN_V6_TRANSITION", 0) != 0;
  return v6;
}

/// The world counts CGN_BENCH_SCALE multiplies.
inline constexpr std::size_t InternetConfig::*kScaledCounts[] = {
    &InternetConfig::routed_ases, &InternetConfig::pbl_eyeballs,
    &InternetConfig::apnic_eyeballs, &InternetConfig::cellular_ases};

/// CGN_BENCH_SCALE, the world's scale: 0.4 when unset. A value that is not
/// a number above 0, or so large that a scaled count would not fit a
/// std::size_t, warns once and reads as 0.4. The only reader of the
/// variable.
inline double bench_scale() {
  constexpr double kDefault = 0.4;
  const double scale = env_double("CGN_BENCH_SCALE", kDefault);
  const InternetConfig base;
  std::size_t largest = 0;
  for (auto count : kScaledCounts) largest = std::max(largest, base.*count);
  if (scale > 0 && static_cast<double>(largest) * scale <
                       static_cast<double>(
                           std::numeric_limits<std::size_t>::max()))
    return scale;
  if (detail::first_warning("CGN_BENCH_SCALE"))
    std::fprintf(stderr,
                 "cgn: CGN_BENCH_SCALE='%s' is not a scale above 0 that "
                 "every world count fits; using %g\n",
                 std::getenv("CGN_BENCH_SCALE"), kDefault);
  return kDefault;
}

/// CGN_BENCH_SEED, the world seed: 42 when unset or unusable (env_u64).
/// The only reader of the variable.
inline std::uint64_t bench_seed() { return env_u64("CGN_BENCH_SEED", 42); }

/// The calibrated world, scaled. Scale 1.0 is a 1:8 model of the paper's
/// Internet (6,500 routed ASes, 360 PBL eyeballs, ...).
inline InternetConfig scaled_config() {
  const double scale = bench_scale();
  InternetConfig cfg;
  cfg.seed = bench_seed();
  for (auto count : kScaledCounts)
    cfg.*count = std::max<std::size_t>(
        8, static_cast<std::size_t>(static_cast<double>(cfg.*count) * scale));
  cfg.fault_plan = fault_plan_from_env();
  cfg.v6 = v6_config_from_env();
  // CGN_SILENT_LINES adds bench-only never-instrumented lines per CGN AS,
  // built by materialize_silent_lines(). Default off.
  cfg.silent_lines_per_cgn_as =
      static_cast<std::size_t>(env_u64("CGN_SILENT_LINES", 0));
  return cfg;
}

}  // namespace cgn::scenario
