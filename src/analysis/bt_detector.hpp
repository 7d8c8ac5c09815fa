// BitTorrent-based CGN detection (paper §4.1).
//
// From the crawl dataset, build one leakage graph per (AS, reserved range):
// vertices are the public IPs of leaking peers and the internal IPs they
// reported; an edge means "this public peer leaked that internal peer".
// NAT pooling shows up as connected clusters spanning several public IPs;
// the detection rule requires the largest cluster to contain at least five
// public and five internal IPs (guarding against dynamic-addressing
// artifacts). Internal peers leaked from more than one AS are discarded as
// likely VPN artifacts.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "crawler/crawl_dataset.hpp"
#include "netcore/as_registry.hpp"
#include "netcore/ipv4.hpp"
#include "netcore/routing_table.hpp"

namespace cgn::analysis {

struct BtDetectorConfig {
  /// Detection boundary of Figure 4: the largest cluster must contain at
  /// least this many distinct public (leaking) IPs ...
  std::size_t min_cluster_public_ips = 5;
  /// ... and at least this many distinct internal IPs.
  std::size_t min_cluster_internal_ips = 5;
};

/// Largest-connected-cluster size for one (AS, range) — one point of Fig. 4.
struct ClusterSize {
  std::size_t public_ips = 0;
  std::size_t internal_ips = 0;
};

/// The shared "largest cluster" order: total unique IPs first (a cluster
/// spans both sides), public count as the tie-break. Two clusters equal
/// under this order have identical (public, internal) sizes, so the chosen
/// ClusterSize is independent of component iteration order — the batch and
/// streaming paths must agree on this for their figures to match.
[[nodiscard]] inline bool better_cluster(const ClusterSize& a,
                                         const ClusterSize& b) noexcept {
  const std::size_t ta = a.public_ips + a.internal_ips;
  const std::size_t tb = b.public_ips + b.internal_ips;
  if (ta != tb) return ta > tb;
  return a.public_ips > b.public_ips;
}

/// One row of Table 3.
struct RangeLeakStats {
  std::uint64_t internal_total = 0;       ///< internal (endpoint,id) tuples
  std::uint64_t internal_unique_ips = 0;
  std::uint64_t leaking_total = 0;        ///< leaking (endpoint,id) tuples
  std::uint64_t leaking_unique_ips = 0;
  std::uint64_t leaking_ases = 0;
};

/// Crawl summary (Table 2).
struct CrawlSummary {
  std::uint64_t queried_peers = 0;
  std::uint64_t queried_unique_ips = 0;
  std::uint64_t queried_ases = 0;
  std::uint64_t learned_peers = 0;
  std::uint64_t learned_unique_ips = 0;
  std::uint64_t learned_ases = 0;
  std::uint64_t responding_peers = 0;
  std::uint64_t responding_unique_ips = 0;
};

struct AsBtVerdict {
  netcore::Asn asn = 0;
  std::size_t queried_peers = 0;
  /// Largest cluster per reserved range (index: ReservedRange - 1).
  std::array<ClusterSize, netcore::kReservedRangeCount> largest{};
  bool covered = false;
  bool cgn_positive = false;
  /// Ranges whose cluster crossed the boundary (internal space usage, Fig 7a).
  std::vector<netcore::ReservedRange> detected_ranges;
};

struct BtDetectionResult {
  CrawlSummary summary;
  std::array<RangeLeakStats, netcore::kReservedRangeCount> per_range;
  std::unordered_map<netcore::Asn, AsBtVerdict> per_as;

  [[nodiscard]] std::size_t covered_ases() const {
    std::size_t n = 0;
    for (const auto& [asn, v] : per_as) n += v.covered ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::size_t cgn_positive_ases() const {
    std::size_t n = 0;
    for (const auto& [asn, v] : per_as) n += v.cgn_positive ? 1 : 0;
    return n;
  }
};

class BtDetector {
 public:
  explicit BtDetector(BtDetectorConfig config = {}) : config_(config) {}

  [[nodiscard]] BtDetectionResult analyze(
      const crawler::CrawlDataset& data,
      const netcore::RoutingTable& routes) const;

  [[nodiscard]] const BtDetectorConfig& config() const noexcept {
    return config_;
  }

 private:
  BtDetectorConfig config_;
};

}  // namespace cgn::analysis
