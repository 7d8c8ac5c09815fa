// Shared retry/timeout/exponential-backoff policy for the measurement
// drivers (DHT crawler, Netalyzr client).
//
// The real tools retransmit: Richter et al. re-issue TTL-limited probes and
// timeout probes, and DHT crawlers retry pings before declaring a peer
// unresponsive. retry_loop() is the single implementation both drivers
// share. Backoff runs on a scoped timeline: the caller's (virtual,
// per-shard) clock advances between attempts — so time-dependent middlebox
// state (mapping expiry, scheduled restarts) evolves while a probe waits —
// and rewinds to the probe's start time when the loop ends, because the
// live tools multiplex thousands of probes concurrently and their timeouts
// overlap rather than serialize. Timing-sensitive probes (TTL enumeration,
// timeout sweeps) pass a null clock instead, modelling sub-second
// retransmission that must not perturb the idle interval under measurement.
#pragma once

#include <algorithm>

#include "sim/clock.hpp"

namespace cgn::fault {

namespace detail {
// obs counters live in fault.cpp so this header stays template-friendly.
void note_retry();
void note_retry_recovery();
void note_retry_exhausted();
}  // namespace detail

/// Attempt budget + backoff schedule. The default (attempts = 1) is "no
/// retries": retry_loop degenerates to a single attempt with no clock
/// advance, keeping clean runs bit-identical to the pre-fault code path.
struct RetryPolicy {
  int attempts = 1;             ///< total tries per probe (1 = no retry)
  double base_backoff_s = 1.0;  ///< wait before the 2nd attempt

  [[nodiscard]] bool enabled() const noexcept { return attempts > 1; }

  /// Backoff before attempt number `attempt` (2-based): the base wait,
  /// doubled for each further attempt.
  [[nodiscard]] double backoff_before(int attempt) const {
    double wait = base_backoff_s;
    for (int i = 2; i < attempt; ++i) wait *= 2.0;
    return wait;
  }
};

/// Runs `attempt` (a callable returning true on success) up to
/// policy.attempts times, advancing `clock` by the backoff schedule between
/// tries and rewinding it to the entry time once the loop ends (scoped
/// timeline — see the header comment). Returns the final outcome. `clock`
/// may be null.
template <typename AttemptFn>
bool retry_loop(const RetryPolicy& policy, sim::Clock* clock,
                AttemptFn&& attempt) {
  const int budget = std::max(1, policy.attempts);
  const sim::SimTime t0 = clock != nullptr ? clock->now() : 0.0;
  bool ok = false;
  for (int n = 1;; ++n) {
    if (attempt()) {
      if (n > 1) detail::note_retry_recovery();
      ok = true;
      break;
    }
    if (n >= budget) {
      if (budget > 1) detail::note_retry_exhausted();
      break;
    }
    detail::note_retry();
    if (clock != nullptr) clock->advance(policy.backoff_before(n + 1));
  }
  if (clock != nullptr && clock->now() > t0) clock->rewind(t0);
  return ok;
}

}  // namespace cgn::fault
