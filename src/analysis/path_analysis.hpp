// TTL-enumeration and STUN rollups (paper §6.3-§6.5: Table 7, Figures
// 11-13).
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/stats.hpp"
#include "netalyzr/session.hpp"
#include "netcore/routing_table.hpp"
#include "stun/stun.hpp"

namespace cgn::analysis {

/// The three vantage-point classes the deep-dive figures group by.
enum class VantageClass : std::uint8_t {
  noncellular_no_cgn,
  noncellular_cgn,
  cellular_cgn,
};

[[nodiscard]] std::string_view to_string(VantageClass c) noexcept;

/// Table 7: sessions cross-classified by whether the enumeration found an
/// expired mapping vs whether the addresses already betrayed a NAT.
struct Table7 {
  std::uint64_t mismatch_detected = 0;
  std::uint64_t mismatch_undetected = 0;
  std::uint64_t match_detected = 0;  ///< stateful box without translation
  std::uint64_t match_undetected = 0;
  [[nodiscard]] std::uint64_t total() const {
    return mismatch_detected + mismatch_undetected + match_detected +
           match_undetected;
  }
};

/// Figure 11: distribution of the most distant NAT, per AS, per class.
struct NatDistanceDistribution {
  /// index 0 = hop 1, ..., index 9 = hop >= 10.
  std::array<std::size_t, 10> ases_by_hop{};
  std::size_t total_ases = 0;
};

/// Figure 12 inputs.
struct TimeoutSummary {
  std::vector<double> cellular_cgn_per_as;     ///< per-AS modal timeout
  std::vector<double> noncellular_cgn_per_as;  ///< per-AS modal timeout
  std::vector<double> cpe_per_session;         ///< per-session CPE timeout
};

struct PathAnalysisResult {
  Table7 table7;
  std::size_t enum_sessions_used = 0;
  std::size_t enum_ases = 0;
  std::size_t enum_cgn_ases = 0;
  std::map<VantageClass, NatDistanceDistribution> fig11;
  TimeoutSummary fig12;
};

class PathAnalyzer {
 public:
  [[nodiscard]] PathAnalysisResult analyze(
      const std::vector<netalyzr::SessionResult>& sessions,
      const netcore::RoutingTable& routes,
      const std::unordered_set<netcore::Asn>& cgn_ases) const;
};

/// Figure 13 rollups.
struct StunAnalysisResult {
  /// (a) per-session STUN types of CPE NATs (non-cellular, non-CGN ASes).
  std::map<stun::StunType, std::size_t> cpe_sessions;
  /// (b) most permissive type per CGN AS, split by network type.
  std::map<stun::StunType, std::size_t> cellular_cgn_ases;
  std::map<stun::StunType, std::size_t> noncellular_cgn_ases;
  std::size_t sessions_used = 0;
  std::size_t ases = 0;
  std::size_t cgn_ases = 0;
};

class StunAnalyzer {
 public:
  [[nodiscard]] StunAnalysisResult analyze(
      const std::vector<netalyzr::SessionResult>& sessions,
      const netcore::RoutingTable& routes,
      const std::unordered_set<netcore::Asn>& cgn_ases) const;
};

}  // namespace cgn::analysis
