#include "analysis/port_analysis.hpp"

#include <algorithm>

#include "analysis/stats.hpp"

namespace cgn::analysis {

namespace {

/// Paper leeway: preservation if at least this fraction of ports survive.
constexpr double kPreservationFraction = 0.2;
/// Paper leeway: sequential if every two subsequent connections differ by
/// less than this.
constexpr int kSequentialMaxDelta = 50;
/// Chunk detection: at least this many random-translation sessions ...
constexpr std::size_t kChunkMinSessions = 20;
/// ... all spanning less than this port range.
constexpr std::uint32_t kChunkMaxRange = 16 * 1024;
/// Arbitrary pooling verdict: more than this fraction of sessions saw
/// multiple public IPs.
constexpr double kArbitraryPoolingFraction = 0.6;
/// Flows needed for a session to be classifiable.
constexpr std::size_t kMinFlows = 5;

}  // namespace

std::string_view to_string(PortStrategy s) noexcept {
  switch (s) {
    case PortStrategy::preservation: return "preservation";
    case PortStrategy::sequential: return "sequential";
    case PortStrategy::random: return "random";
  }
  return "?";
}

std::optional<PortStrategy> classify_session_ports(
    const std::vector<netalyzr::FlowObservation>& flows) {
  if (flows.size() < kMinFlows) return std::nullopt;
  std::size_t preserved = 0;
  for (const auto& f : flows)
    if (f.observed.port == f.local_port) ++preserved;
  if (static_cast<double>(preserved) >=
      kPreservationFraction * static_cast<double>(flows.size()))
    return PortStrategy::preservation;

  bool sequential = true;
  for (std::size_t i = 1; i < flows.size(); ++i) {
    int delta = static_cast<int>(flows[i].observed.port) -
                static_cast<int>(flows[i - 1].observed.port);
    if (std::abs(delta) >= kSequentialMaxDelta) {
      sequential = false;
      break;
    }
  }
  return sequential ? PortStrategy::sequential : PortStrategy::random;
}

namespace {
netcore::Asn session_asn(const netalyzr::SessionResult& s,
                         const netcore::RoutingTable& routes) {
  if (s.ip_pub) {
    if (auto asn = routes.origin_of(*s.ip_pub)) return *asn;
  }
  return s.asn;
}
}  // namespace

std::size_t PortAnalysisResult::count_dominant(PortStrategy s,
                                               bool cellular) const {
  std::size_t n = 0;
  for (const auto& [asn, p] : per_as)
    if (p.cellular == cellular && p.sessions > 0 && p.dominant == s) ++n;
  return n;
}

std::size_t PortAnalysisResult::count_chunked(bool cellular) const {
  std::size_t n = 0;
  for (const auto& [asn, p] : per_as)
    if (p.cellular == cellular && p.chunk_based) ++n;
  return n;
}

PortAnalysisResult PortAnalyzer::analyze(
    const std::vector<netalyzr::SessionResult>& sessions,
    const netcore::RoutingTable& routes,
    const std::unordered_set<netcore::Asn>& cgn_ases) const {
  PortAnalysisResult out;

  // Per-AS scratch: within-session port spans of random-translation sessions
  // (for chunk detection).
  std::unordered_map<netcore::Asn, std::vector<std::uint32_t>> random_spans;

  for (const auto& s : sessions) {
    const netcore::Asn asn = session_asn(s, routes);
    const bool cgn = cgn_ases.contains(asn);
    auto strategy = classify_session_ports(s.tcp_flows);

    // Figure 8(a)/(b) inputs.
    if (strategy) {
      bool preserved = *strategy == PortStrategy::preservation;
      for (const auto& f : s.tcp_flows)
        (preserved ? out.ports_preserved_sessions
                   : out.ports_translated_sessions)
            .push_back(f.observed.port);
      if (!cgn && s.cpe_model) {
        auto& [total, preserving] = out.per_cpe_model[*s.cpe_model];
        ++total;
        if (preserved) ++preserving;
      }
    }

    if (!cgn) continue;  // §6.2 profiles the *identified CGNs*

    AsPortProfile& p = out.per_as[asn];
    p.asn = asn;
    p.cellular = s.cellular;

    if (strategy) {
      ++p.sessions;
      ++p.by_strategy[static_cast<std::size_t>(*strategy)];
      if (*strategy == PortStrategy::random && !s.tcp_flows.empty()) {
        auto [lo, hi] = std::minmax_element(
            s.tcp_flows.begin(), s.tcp_flows.end(),
            [](const auto& a, const auto& b) {
              return a.observed.port < b.observed.port;
            });
        random_spans[asn].push_back(
            static_cast<std::uint32_t>(hi->observed.port) -
            static_cast<std::uint32_t>(lo->observed.port));
      }
    }

    if (s.tcp_flows.size() >= 2) {
      ++p.pooling_sessions;
      std::unordered_set<netcore::Ipv4Address> ips;
      for (const auto& f : s.tcp_flows) ips.insert(f.observed.address);
      if (ips.size() > 1) ++p.multi_ip_sessions;
    }
  }

  for (auto& [asn, p] : out.per_as) {
    // Dominant strategy.
    std::size_t best = 0;
    for (std::size_t i = 1; i < p.by_strategy.size(); ++i)
      if (p.by_strategy[i] > p.by_strategy[best]) best = i;
    p.dominant = static_cast<PortStrategy>(best);

    // Chunk-based allocation: enough random sessions, all narrow.
    auto it = random_spans.find(asn);
    if (it != random_spans.end() &&
        it->second.size() >= kChunkMinSessions) {
      const auto& spans = it->second;
      bool all_narrow = std::all_of(spans.begin(), spans.end(), [&](auto sp) {
        return sp < kChunkMaxRange;
      });
      if (all_narrow) {
        p.chunk_based = true;
        // A 10-flow session samples its chunk sparsely; the widest observed
        // span approaches the chunk size from below, so round it up.
        std::uint32_t widest = *std::max_element(spans.begin(), spans.end());
        p.chunk_size_estimate = round_up_pow2(widest + 1);
      }
    }

    if (p.pooling_sessions > 0)
      p.arbitrary_pooling =
          static_cast<double>(p.multi_ip_sessions) >
          kArbitraryPoolingFraction *
              static_cast<double>(p.pooling_sessions);
  }

  return out;
}

}  // namespace cgn::analysis
