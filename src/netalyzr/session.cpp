#include "netalyzr/session.hpp"

#include "flat/flat.hpp"

namespace cgn::netalyzr {

namespace {

void mix(std::uint64_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= flat::kFnvPrime;
  }
}

void mix(std::uint64_t& h, double v) {
  // Timeouts are multiples of the probe granularity, so the bit pattern is
  // exact and comparable across runs.
  std::uint64_t bits = 0;
  static_assert(sizeof bits == sizeof v);
  __builtin_memcpy(&bits, &v, sizeof bits);
  mix(h, bits);
}

void mix(std::uint64_t& h, const netcore::Endpoint& e) {
  mix(h, std::uint64_t{e.address.value()});
  mix(h, std::uint64_t{e.port});
}

}  // namespace

std::uint64_t fingerprint(const SessionResult& r) noexcept {
  std::uint64_t h = flat::kFnvOffset;
  mix(h, std::uint64_t{r.asn});
  mix(h, std::uint64_t{r.cellular});
  mix(h, std::uint64_t{r.ip_dev.value()});
  mix(h, r.ip_cpe ? std::uint64_t{r.ip_cpe->value()} : std::uint64_t(-1));
  if (r.cpe_model)
    for (char c : *r.cpe_model) mix(h, std::uint64_t(std::uint8_t(c)));
  mix(h, r.ip_pub ? std::uint64_t{r.ip_pub->value()} : std::uint64_t(-1));
  mix(h, std::uint64_t{r.tcp_flows.size()});
  for (const FlowObservation& f : r.tcp_flows) {
    mix(h, std::uint64_t{f.local_port});
    mix(h, f.observed);
  }
  if (r.stun) {
    mix(h, std::uint64_t(r.stun->type));
    if (r.stun->mapped) mix(h, *r.stun->mapped);
  }
  if (r.enumeration) {
    mix(h, std::uint64_t(r.enumeration->path_hops));
    mix(h, std::uint64_t(r.enumeration->experiments));
    for (const NatHopObservation& hop : r.enumeration->hops) {
      mix(h, std::uint64_t(hop.hop));
      mix(h, std::uint64_t{hop.stateful});
      if (hop.timeout_s) mix(h, *hop.timeout_s);
    }
  }
  if (r.transition) {
    mix(h, std::uint64_t{r.transition->pref64_detected});
    mix(h, std::uint64_t(r.transition->pref64_length));
    mix(h, std::uint64_t{r.transition->literal_v4_ok});
    if (r.transition->translator_timeout_s)
      mix(h, *r.transition->translator_timeout_s);
  }
  return h;
}

std::uint64_t fingerprint(
    const std::vector<SessionResult>& sessions) noexcept {
  std::uint64_t h = flat::kFnvOffset;
  mix(h, std::uint64_t{sessions.size()});
  for (const SessionResult& s : sessions) mix(h, fingerprint(s));
  return h;
}

}  // namespace cgn::netalyzr
