// Transition-mechanism classification over the Big-NAT battery (fig14):
// per-session verdicts across {NAT444, NAT64, 464XLAT, DS-Lite}, scored
// against the builder's ground-truth line stamps.
//
// The discriminators mirror what a real client can observe:
//  * pref64 discovered via the RFC 7050 anchors  -> a DNS64/NAT64 is
//    on-path; a working never-resolved v4 literal then proves a CLAT
//    (464XLAT), a dead one a bare v6-only line (NAT64).
//  * no pref64 -> DS-Lite is inferred per AS from the B4 factory-default
//    signature: one identical RFC 1918 ip_dev dominating the AS's
//    private-ip_dev sessions, the homes behind it never answering UPnP
//    (a B4 is not a NAT and exposes no IGD), and the server seeing a
//    different (translated) public address. Everything else is NAT444 —
//    the null class covering plain v4 lines, translated or not.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>
#include <vector>

#include "netalyzr/session.hpp"
#include "netcore/ipv4.hpp"

namespace cgn::analysis {

/// The four mechanisms fig14 distinguishes.
enum class TransitionVerdict : std::uint8_t { nat444, nat64, xlat464, dslite };
inline constexpr int kTransitionVerdicts = 4;

[[nodiscard]] std::string_view to_string(TransitionVerdict v) noexcept;

struct MechanismScore {
  std::size_t truth_sessions = 0;       ///< sessions whose line runs this
  std::size_t classified_sessions = 0;  ///< sessions classified as this
  std::size_t correct_sessions = 0;     ///< intersection of the two
  /// Translator timeouts the battery measured on this mechanism's lines
  /// (attributed by ground truth), in session order.
  std::vector<double> timeouts_s;

  [[nodiscard]] double accuracy() const noexcept {
    return truth_sessions == 0 ? 1.0
                               : static_cast<double>(correct_sessions) /
                                     static_cast<double>(truth_sessions);
  }
};

struct TransitionDetectionResult {
  std::array<MechanismScore, kTransitionVerdicts> mechanisms{};
  std::size_t observed_sessions = 0;  ///< sessions carrying a battery record
  std::size_t scored_ases = 0;        ///< ASes with enough sessions to score

  [[nodiscard]] const MechanismScore& of(TransitionVerdict v) const noexcept {
    return mechanisms[static_cast<std::size_t>(v)];
  }
};

class TransitionDetector {
 public:
  [[nodiscard]] TransitionDetectionResult analyze(
      const std::vector<netalyzr::SessionResult>& sessions) const;
};

}  // namespace cgn::analysis
