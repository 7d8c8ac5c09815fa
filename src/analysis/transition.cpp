#include "analysis/transition.hpp"

#include <unordered_map>

namespace cgn::analysis {

namespace {

/// Share of an AS's pref64-less private-ip_dev sessions that must report
/// the *same* ip_dev before the DS-Lite signature applies. Low enough to
/// survive partial deployments (cgn_subscriber_fraction down to ~0.4), high
/// enough that no single CPE model's default LAN can fake it in a NAT444 AS.
constexpr double kDupIpDevThreshold = 0.5;
/// A B4 fleet needs witnesses: at least this many sessions must report the
/// identical ip_dev before it counts as a fleet signature (one session is
/// just one home, whatever its address).
constexpr std::size_t kMinDupSessions = 2;
/// Minimum battery sessions before an AS is scored at all.
constexpr std::size_t kMinSessions = 3;

[[nodiscard]] bool in_192_168(netcore::Ipv4Address a) noexcept {
  return (a.value() & 0xFFFF0000u) == 0xC0A80000u;
}

/// Ground-truth class of one session, from its builder stamps.
TransitionVerdict truth_verdict(const netalyzr::SessionResult& s) noexcept {
  switch (s.line_mode) {
    case nat::TranslatorMode::nat64:
      return s.line_clat ? TransitionVerdict::xlat464
                         : TransitionVerdict::nat64;
    case nat::TranslatorMode::dslite_aftr:
      return TransitionVerdict::dslite;
    case nat::TranslatorMode::nat44:
      break;
  }
  return TransitionVerdict::nat444;
}

}  // namespace

std::string_view to_string(TransitionVerdict v) noexcept {
  switch (v) {
    case TransitionVerdict::nat444: return "nat444";
    case TransitionVerdict::nat64: return "nat64";
    case TransitionVerdict::xlat464: return "464xlat";
    case TransitionVerdict::dslite: return "dslite";
  }
  return "?";
}

TransitionDetectionResult TransitionDetector::analyze(
    const std::vector<netalyzr::SessionResult>& sessions) const {
  TransitionDetectionResult result;

  // Group battery sessions per AS, in first-seen order (keeps every
  // aggregate independent of hash-map iteration).
  std::vector<netcore::Asn> as_order;
  std::unordered_map<netcore::Asn, std::vector<std::size_t>> by_as;
  for (std::size_t i = 0; i < sessions.size(); ++i) {
    if (!sessions[i].transition) continue;
    ++result.observed_sessions;
    auto [it, inserted] = by_as.try_emplace(sessions[i].asn);
    if (inserted) as_order.push_back(sessions[i].asn);
    it->second.push_back(i);
  }

  for (netcore::Asn asn : as_order) {
    const std::vector<std::size_t>& idx = by_as[asn];
    if (idx.size() < kMinSessions) continue;
    ++result.scored_ases;

    // The DS-Lite signature is an AS-level property of the *unexplained*
    // sessions — no pref64 on path, RFC 1918 ip_dev, and no IGD answering
    // UPnP (an IGD reply proves a home NAT at ip_dev, which explains the
    // private address without any softwire; a B4 is not a NAT and has
    // none). One identical factory-default ip_dev dominating those is how
    // a per-subscriber B4 fleet looks from the server side.
    std::size_t candidates = 0;
    std::unordered_map<std::uint32_t, std::size_t> dev_counts;
    for (std::size_t i : idx) {
      const netalyzr::SessionResult& s = sessions[i];
      if (s.transition->pref64_detected || s.ip_cpe ||
          !in_192_168(s.ip_dev))
        continue;
      ++candidates;
      ++dev_counts[s.ip_dev.value()];
    }
    std::uint32_t dominant_dev = 0;
    std::size_t dominant_count = 0;
    for (const auto& [dev, count] : dev_counts)
      if (count > dominant_count ||
          (count == dominant_count && dev < dominant_dev)) {
        dominant_dev = dev;
        dominant_count = count;
      }
    const bool dslite_as =
        dominant_count >= kMinDupSessions &&
        static_cast<double>(dominant_count) >=
            kDupIpDevThreshold * static_cast<double>(candidates);

    for (std::size_t i : idx) {
      const netalyzr::SessionResult& s = sessions[i];
      const netalyzr::TransitionObservation& obs = *s.transition;

      TransitionVerdict verdict;
      if (obs.pref64_detected) {
        verdict = obs.literal_v4_ok ? TransitionVerdict::xlat464
                                    : TransitionVerdict::nat64;
      } else if (dslite_as && !s.ip_cpe && s.ip_dev.value() == dominant_dev &&
                 s.ip_pub && *s.ip_pub != s.ip_dev) {
        verdict = TransitionVerdict::dslite;
      } else {
        verdict = TransitionVerdict::nat444;
      }

      const TransitionVerdict truth = truth_verdict(s);
      MechanismScore& truth_score =
          result.mechanisms[static_cast<std::size_t>(truth)];
      ++truth_score.truth_sessions;
      ++result.mechanisms[static_cast<std::size_t>(verdict)]
            .classified_sessions;
      if (verdict == truth) ++truth_score.correct_sessions;
      if (obs.translator_timeout_s)
        truth_score.timeouts_s.push_back(*obs.translator_timeout_s);
    }
  }
  return result;
}

}  // namespace cgn::analysis
