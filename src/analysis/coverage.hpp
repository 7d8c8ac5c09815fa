// Network-wide coverage and penetration rollups (paper §5: Table 5 and
// Figure 6), combining both detection methods over the three AS populations
// (all routed ASes, PBL eyeballs, APNIC eyeballs) and the five RIR regions.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>

#include "analysis/bt_detector.hpp"
#include "analysis/netalyzr_detector.hpp"
#include "netcore/as_registry.hpp"
#include "super/supervisor.hpp"

namespace cgn::analysis {

/// Per-AS combined verdict across both methods.
struct CombinedVerdict {
  bool bt_covered = false;
  bool bt_positive = false;
  bool nz_covered = false;  ///< Netalyzr non-cellular
  bool nz_positive = false;
  bool cell_covered = false;  ///< Netalyzr cellular
  bool cell_positive = false;

  [[nodiscard]] bool covered() const { return bt_covered || nz_covered; }
  [[nodiscard]] bool positive() const { return bt_positive || nz_positive; }
};

/// The three AS populations of Table 5.
enum class Population : std::uint8_t { routed, pbl_eyeball, apnic_eyeball };
inline constexpr int kPopulationCount = 3;

[[nodiscard]] std::string_view to_string(Population p) noexcept;

struct CoverageCell {
  std::size_t covered = 0;
  std::size_t positive = 0;
};

struct Table5 {
  std::array<std::size_t, kPopulationCount> population{};
  std::array<CoverageCell, kPopulationCount> bittorrent{};
  std::array<CoverageCell, kPopulationCount> netalyzr_noncellular{};
  std::array<CoverageCell, kPopulationCount> combined{};
  std::array<CoverageCell, kPopulationCount> netalyzr_cellular{};
};

/// Figure 6 panels, per RIR.
struct RegionRollup {
  std::array<std::size_t, netcore::kRirCount> eyeball_total{};
  std::array<std::size_t, netcore::kRirCount> eyeball_covered{};
  std::array<std::size_t, netcore::kRirCount> eyeball_positive{};
  std::array<std::size_t, netcore::kRirCount> cellular_covered{};
  std::array<std::size_t, netcore::kRirCount> cellular_positive{};
};

/// How much of each supervised campaign's *measurement plan* actually ran.
/// Quarantined shards degrade these fractions below 1.0 — the paper's
/// coverage tables are then lower bounds, and analyses should report them
/// next to the Table 5 numbers instead of presenting a partial campaign as
/// a complete one.
struct MeasurementCoverage {
  std::size_t bt_shards_planned = 0;  ///< ping-sweep shards (BT method)
  std::size_t bt_shards_completed = 0;
  std::size_t nz_shards_planned = 0;  ///< per-ISP Netalyzr shards
  std::size_t nz_shards_completed = 0;

  [[nodiscard]] double bt_fraction() const noexcept {
    return bt_shards_planned == 0
               ? 1.0
               : static_cast<double>(bt_shards_completed) /
                     static_cast<double>(bt_shards_planned);
  }
  [[nodiscard]] double nz_fraction() const noexcept {
    return nz_shards_planned == 0
               ? 1.0
               : static_cast<double>(nz_shards_completed) /
                     static_cast<double>(nz_shards_planned);
  }
  /// True when either campaign lost shards to quarantine.
  [[nodiscard]] bool degraded() const noexcept {
    return bt_shards_completed < bt_shards_planned ||
           nz_shards_completed < nz_shards_planned;
  }
};

struct CoverageResult {
  std::unordered_map<netcore::Asn, CombinedVerdict> per_as;
  Table5 table5;
  RegionRollup regions;
  MeasurementCoverage measurement;

  /// Every CGN-positive AS across all methods (input to the §6 deep dives).
  [[nodiscard]] std::unordered_set<netcore::Asn> cgn_positive_ases() const {
    std::unordered_set<netcore::Asn> out;
    for (const auto& [asn, v] : per_as)
      if (v.positive() || v.cell_positive) out.insert(asn);
    return out;
  }
};

/// Combines both detectors' verdicts against the AS registry.
[[nodiscard]] CoverageResult combine_coverage(
    const BtDetectionResult& bt, const NetalyzrDetectionResult& nz,
    const netcore::AsRegistry& registry);

/// Folds the supervised campaigns' shard reports into
/// `result.measurement`. Either report may be null (campaign ran
/// unsupervised or was skipped) — its planned/completed counts then stay
/// zero and the corresponding fraction reads 1.0.
void note_supervision(CoverageResult& result,
                      const super::CampaignReport* bt_report,
                      const super::CampaignReport* nz_report);

}  // namespace cgn::analysis
