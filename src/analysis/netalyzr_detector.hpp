// Netalyzr-based CGN detection (paper §4.2) and the address-layering
// statistics of Table 4, Figure 5 and Figure 7.
//
// Cellular sessions expose the CGN directly: the ISP assigns IPdev, so a
// non-"routed match" classification implies translation. Non-cellular
// sessions sit behind CPE NATs, so the detector (i) discards IPcpe values
// falling in the top /24 blocks CPEs assign from, and (ii) requires per-AS
// internal-address diversity (unique /24s >= 0.4 x candidate sessions) —
// both heuristics straight from the paper.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/address_classify.hpp"
#include "netalyzr/session.hpp"
#include "netcore/ipv4.hpp"
#include "netcore/routing_table.hpp"

namespace cgn::analysis {

struct NetalyzrDetectorConfig {
  /// Minimum CGN-candidate sessions (N) before the diversity rule applies.
  std::size_t min_candidate_sessions = 10;
  /// Required unique IPcpe /24s as a fraction of N (Figure 5's dashed line).
  double slash24_diversity_factor = 0.4;
};

/// Rows of Table 4: the four reserved ranges plus the three public classes.
enum class Table4Row : std::uint8_t {
  r192, r172, r10, r100, unrouted, routed_match, routed_mismatch,
};
inline constexpr int kTable4Rows = 7;

[[nodiscard]] std::string_view to_string(Table4Row r) noexcept;

/// Classifies one address into a Table 4 row.
[[nodiscard]] Table4Row table4_row(netcore::Ipv4Address local,
                                   std::optional<netcore::Ipv4Address> pub,
                                   const netcore::RoutingTable& routes);

struct Table4Column {
  std::uint64_t n = 0;
  std::array<std::uint64_t, kTable4Rows> rows{};
  [[nodiscard]] double fraction(Table4Row r) const {
    return n == 0 ? 0.0
                  : static_cast<double>(rows[static_cast<std::size_t>(r)]) /
                        static_cast<double>(n);
  }
};

struct Table4 {
  Table4Column cellular_dev;    ///< IPdev of cellular sessions
  Table4Column noncellular_dev; ///< IPdev of non-cellular sessions
  Table4Column noncellular_cpe; ///< IPcpe (where UPnP answered)
};

/// How a cellular AS assigns device addresses.
enum class CellularAssignment : std::uint8_t {
  internal_only, public_only, mixed,
};

/// Per-(AS, reserved range) point of Figure 5.
struct Fig5Point {
  std::size_t candidate_sessions = 0;  ///< sessions with IPcpe != IPpub
  std::size_t unique_slash24 = 0;      ///< unique /24s of IPcpe
};

struct AsNetalyzrVerdict {
  netcore::Asn asn = 0;
  bool cellular = false;
  std::size_t sessions = 0;
  bool covered = false;
  bool cgn_positive = false;

  // Cellular only:
  CellularAssignment assignment = CellularAssignment::public_only;

  // Non-cellular only:
  std::size_t candidate_sessions = 0;
  std::size_t unique_cpe_slash24 = 0;
  std::array<Fig5Point, netcore::kReservedRangeCount> fig5{};

  // Internal address-space usage of the detected CGN (Figure 7):
  std::unordered_set<netcore::ReservedRange> internal_ranges;
  bool uses_routable_internal = false;
  /// /8 blocks of routable space used internally (Figure 7(b)).
  std::unordered_set<std::uint8_t> routable_internal_slash8;
};

struct NetalyzrDetectionResult {
  Table4 table4;
  /// The CPE-assignment /24 blocks filtered out (95% of assignments in the
  /// paper).
  std::vector<netcore::Ipv4Prefix> cpe_blocks;
  std::unordered_map<netcore::Asn, AsNetalyzrVerdict> per_as;

  [[nodiscard]] std::size_t covered(bool cellular) const;
  [[nodiscard]] std::size_t cgn_positive(bool cellular) const;
};

class NetalyzrDetector {
 public:
  explicit NetalyzrDetector(NetalyzrDetectorConfig config = {})
      : config_(config) {}

  /// `asn_of_session` is taken from each session's server-observed public
  /// address (the measurement view), falling back to the stamped ASN when
  /// the echo test failed.
  [[nodiscard]] NetalyzrDetectionResult analyze(
      const std::vector<netalyzr::SessionResult>& sessions,
      const netcore::RoutingTable& routes) const;

  [[nodiscard]] const NetalyzrDetectorConfig& config() const noexcept {
    return config_;
  }

 private:
  NetalyzrDetectorConfig config_;
};

}  // namespace cgn::analysis
