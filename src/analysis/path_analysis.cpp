#include "analysis/path_analysis.hpp"

#include <algorithm>

namespace cgn::analysis {

std::string_view to_string(VantageClass c) noexcept {
  switch (c) {
    case VantageClass::noncellular_no_cgn: return "non-cellular no CGN";
    case VantageClass::noncellular_cgn: return "non-cellular CGN";
    case VantageClass::cellular_cgn: return "cellular CGN";
  }
  return "?";
}

namespace {

/// A CGN timeout sample requires the NAT at least this many hops out, so
/// NAT444 sessions report the carrier NAT rather than the CPE.
constexpr int kCgnMinHop = 3;
/// Sessions per (AS, class) required before results count (paper: 3).
constexpr std::size_t kMinSessionsPerAs = 3;

netcore::Asn session_asn(const netalyzr::SessionResult& s,
                         const netcore::RoutingTable& routes) {
  if (s.ip_pub) {
    if (auto asn = routes.origin_of(*s.ip_pub)) return *asn;
  }
  return s.asn;
}

std::optional<VantageClass> classify_vantage(
    const netalyzr::SessionResult& s, netcore::Asn asn,
    const std::unordered_set<netcore::Asn>& cgn_ases) {
  const bool cgn = cgn_ases.contains(asn);
  if (s.cellular) {
    if (cgn) return VantageClass::cellular_cgn;
    return std::nullopt;  // cellular non-CGN is too rare a class to report
  }
  return cgn ? VantageClass::noncellular_cgn
             : VantageClass::noncellular_no_cgn;
}

}  // namespace

PathAnalysisResult PathAnalyzer::analyze(
    const std::vector<netalyzr::SessionResult>& sessions,
    const netcore::RoutingTable& routes,
    const std::unordered_set<netcore::Asn>& cgn_ases) const {
  PathAnalysisResult out;

  struct AsAgg {
    VantageClass vclass = VantageClass::noncellular_no_cgn;
    std::vector<int> most_distant;        // per session
    std::vector<double> cgn_timeouts;     // per session (hop >= kCgnMinHop)
  };
  std::unordered_map<netcore::Asn, AsAgg> per_as;
  std::unordered_set<netcore::Asn> seen_cgn;

  for (const auto& s : sessions) {
    if (!s.enumeration) continue;
    const auto& e = *s.enumeration;
    const netcore::Asn asn = session_asn(s, routes);
    auto vclass = classify_vantage(s, asn, cgn_ases);
    if (!vclass) continue;

    // Table 7: address mismatch vs expired-mapping detection.
    const bool mismatch = s.ip_pub && s.ip_dev != *s.ip_pub;
    const bool detected = e.found_stateful();
    if (mismatch && detected) ++out.table7.mismatch_detected;
    if (mismatch && !detected) ++out.table7.mismatch_undetected;
    if (!mismatch && detected) ++out.table7.match_detected;
    if (!mismatch && !detected) ++out.table7.match_undetected;

    AsAgg& agg = per_as[asn];
    agg.vclass = *vclass;
    agg.most_distant.push_back(e.most_distant_nat());
    if (cgn_ases.contains(asn)) seen_cgn.insert(asn);

    // Figure 12 inputs.
    if (*vclass == VantageClass::noncellular_no_cgn) {
      // CPE timeout: the hop-1 NAT of a plain home-NAT session.
      for (const auto& h : e.hops)
        if (h.hop == 1 && h.stateful && h.timeout_s)
          out.fig12.cpe_per_session.push_back(*h.timeout_s);
    } else {
      // CGN timeout: only NATs far enough out to be the carrier NAT.
      for (const auto& h : e.hops)
        if (h.stateful && h.hop >= kCgnMinHop && h.timeout_s)
          agg.cgn_timeouts.push_back(*h.timeout_s);
    }
    ++out.enum_sessions_used;
  }

  for (const auto& [asn, agg] : per_as) {
    if (agg.most_distant.size() < kMinSessionsPerAs) continue;
    ++out.enum_ases;
    if (seen_cgn.contains(asn)) ++out.enum_cgn_ases;

    // Figure 11: the AS is represented by its most distant detected NAT.
    int distant = *std::max_element(agg.most_distant.begin(),
                                    agg.most_distant.end());
    if (distant >= 1) {
      auto& dist = out.fig11[agg.vclass];
      std::size_t bin = std::min<std::size_t>(
          static_cast<std::size_t>(distant - 1), dist.ases_by_hop.size() - 1);
      ++dist.ases_by_hop[bin];
      ++dist.total_ases;
    }

    // Figure 12: an AS is represented by its modal timeout.
    if (!agg.cgn_timeouts.empty()) {
      double modal = mode(agg.cgn_timeouts);
      if (agg.vclass == VantageClass::cellular_cgn)
        out.fig12.cellular_cgn_per_as.push_back(modal);
      else if (agg.vclass == VantageClass::noncellular_cgn)
        out.fig12.noncellular_cgn_per_as.push_back(modal);
    }
  }

  return out;
}

StunAnalysisResult StunAnalyzer::analyze(
    const std::vector<netalyzr::SessionResult>& sessions,
    const netcore::RoutingTable& routes,
    const std::unordered_set<netcore::Asn>& cgn_ases) const {
  StunAnalysisResult out;

  struct AsAgg {
    bool cellular = false;
    bool cgn = false;
    std::size_t sessions = 0;
    std::optional<int> most_permissive;  // stun::permissiveness rank
  };
  std::unordered_map<netcore::Asn, AsAgg> per_as;

  for (const auto& s : sessions) {
    if (!s.stun) continue;
    const netcore::Asn asn = session_asn(s, routes);
    const bool cgn = cgn_ases.contains(asn);
    ++out.sessions_used;

    AsAgg& agg = per_as[asn];
    agg.cellular = s.cellular;
    agg.cgn = cgn;
    ++agg.sessions;

    if (!cgn && !s.cellular && stun::is_nat_type(s.stun->type))
      ++out.cpe_sessions[s.stun->type];

    if (cgn) {
      if (auto rank = stun::permissiveness(s.stun->type)) {
        if (!agg.most_permissive || *rank > *agg.most_permissive)
          agg.most_permissive = *rank;
      }
    }
  }

  static constexpr stun::StunType kByRank[] = {
      stun::StunType::symmetric, stun::StunType::port_address_restricted,
      stun::StunType::address_restricted, stun::StunType::full_cone};

  for (const auto& [asn, agg] : per_as) {
    if (agg.sessions < kMinSessionsPerAs) continue;
    ++out.ases;
    if (!agg.cgn) continue;
    ++out.cgn_ases;
    if (!agg.most_permissive) continue;
    stun::StunType type = kByRank[*agg.most_permissive];
    if (agg.cellular)
      ++out.cellular_cgn_ases[type];
    else
      ++out.noncellular_cgn_ases[type];
  }

  return out;
}

}  // namespace cgn::analysis
