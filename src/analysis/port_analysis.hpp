// Port- and IP-allocation analysis (paper §6.2: Figures 8-9, Table 6).
//
// From the ten-flow port-translation test: classify each session's strategy
// (preservation / sequential / random, with the paper's leeway rules), roll
// up per-AS strategy mixes, detect chunk-based random allocation and
// estimate per-subscriber chunk sizes, and measure NAT pooling behaviour.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "netalyzr/session.hpp"
#include "netcore/routing_table.hpp"

namespace cgn::analysis {

enum class PortStrategy : std::uint8_t { preservation, sequential, random };

[[nodiscard]] std::string_view to_string(PortStrategy s) noexcept;

/// Classifies one session's flows; nullopt when too few flows answered.
[[nodiscard]] std::optional<PortStrategy> classify_session_ports(
    const std::vector<netalyzr::FlowObservation>& flows);

struct AsPortProfile {
  netcore::Asn asn = 0;
  bool cellular = false;
  std::size_t sessions = 0;  ///< classifiable sessions
  std::array<std::size_t, 3> by_strategy{};  ///< indexed by PortStrategy
  PortStrategy dominant = PortStrategy::preservation;

  bool chunk_based = false;
  std::uint32_t chunk_size_estimate = 0;

  std::size_t pooling_sessions = 0;           ///< sessions with >= 2 flows
  std::size_t multi_ip_sessions = 0;          ///< saw > 1 public IP
  bool arbitrary_pooling = false;

  [[nodiscard]] double fraction(PortStrategy s) const {
    return sessions == 0
               ? 0.0
               : static_cast<double>(
                     by_strategy[static_cast<std::size_t>(s)]) /
                     static_cast<double>(sessions);
  }
  /// True when one strategy accounts for every classified session.
  [[nodiscard]] bool pure() const {
    for (std::size_t c : by_strategy)
      if (c == sessions) return true;
    return false;
  }
};

struct PortAnalysisResult {
  /// Only ASes in `cgn_ases` are profiled (the paper studies CGN behaviour).
  std::unordered_map<netcore::Asn, AsPortProfile> per_as;

  /// Figure 8(a): source ports the server observed, split by whether the
  /// session preserved ports.
  std::vector<std::uint16_t> ports_preserved_sessions;
  std::vector<std::uint16_t> ports_translated_sessions;

  /// Figure 8(b): per UPnP-reported CPE model, (total sessions,
  /// port-preserving sessions) over *non-CGN* sessions.
  std::map<std::string, std::pair<std::size_t, std::size_t>> per_cpe_model;

  /// Table 6 helpers.
  [[nodiscard]] std::size_t count_dominant(PortStrategy s,
                                           bool cellular) const;
  [[nodiscard]] std::size_t count_chunked(bool cellular) const;
};

class PortAnalyzer {
 public:
  [[nodiscard]] PortAnalysisResult analyze(
      const std::vector<netalyzr::SessionResult>& sessions,
      const netcore::RoutingTable& routes,
      const std::unordered_set<netcore::Asn>& cgn_ases) const;
};

}  // namespace cgn::analysis
