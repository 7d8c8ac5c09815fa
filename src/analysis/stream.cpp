#include "analysis/stream.hpp"

#include <algorithm>

namespace cgn::analysis {

namespace {

/// An AS counts as *covered* by the BitTorrent method once this many of its
/// peers answered queries.
constexpr std::size_t kMinQueriedPeers = 1;
/// Minimum Netalyzr sessions for a cellular AS to be covered.
constexpr std::size_t kMinCellularSessions = 5;
/// Minimum Netalyzr sessions for a non-cellular AS to be covered.
constexpr std::size_t kMinNoncellularSessions = 10;
/// Number of top CPE-assignment /24 blocks to filter out.
constexpr std::size_t kTopCpeBlocks = 10;

int range_index(netcore::ReservedRange r) {
  return static_cast<int>(r) - 1;  // r != none
}

netcore::Asn session_asn(const netalyzr::SessionResult& s,
                         const netcore::RoutingTable& routes) {
  if (s.ip_pub) {
    if (auto asn = routes.origin_of(*s.ip_pub)) return *asn;
  }
  return s.asn;  // fallback: vantage-point ground truth
}

bool translated_row(Table4Row r) {
  return r != Table4Row::routed_match;
}

void tally(Table4Column& col, Table4Row row) {
  ++col.n;
  ++col.rows[static_cast<std::size_t>(row)];
}

}  // namespace

// --- StreamingBtAnalyzer::OnlineLeakGraph --------------------------------

std::size_t StreamingBtAnalyzer::OnlineLeakGraph::intern(
    std::unordered_map<crawler::PeerKey, std::size_t, crawler::PeerKeyHash>& m,
    const crawler::PeerKey& k, bool is_public) {
  auto [it, inserted] = m.try_emplace(k, 0);
  if (inserted) {
    const std::size_t idx = uf.add_vertex();
    it->second = idx;
    Tally& t = tally_of_root[idx];
    if (is_public)
      t.public_ips.insert(k.contact.endpoint.address);
    else
      t.internal_ips.insert(k.contact.endpoint.address);
  }
  return it->second;
}

void StreamingBtAnalyzer::OnlineLeakGraph::link(const dht::Contact& leaker,
                                                const dht::Contact& internal) {
  const std::size_t u =
      intern(vertex_of_public, crawler::PeerKey{leaker}, true);
  const std::size_t v =
      intern(vertex_of_internal, crawler::PeerKey{internal}, false);
  const std::size_t ru = uf.find(u);
  const std::size_t rv = uf.find(v);
  if (ru == rv) return;  // already one component; IPs already tallied

  auto node_u = tally_of_root.extract(ru);
  auto node_v = tally_of_root.extract(rv);
  Tally tu = std::move(node_u.mapped());
  Tally tv = std::move(node_v.mapped());
  // Small-into-large: each IP moves O(log n) times over a graph's life.
  if (tu.public_ips.size() + tu.internal_ips.size() <
      tv.public_ips.size() + tv.internal_ips.size())
    std::swap(tu, tv);
  tu.public_ips.insert(tv.public_ips.begin(), tv.public_ips.end());
  tu.internal_ips.insert(tv.internal_ips.begin(), tv.internal_ips.end());

  uf.unite(ru, rv);
  const ClusterSize cand{tu.public_ips.size(), tu.internal_ips.size()};
  if (better_cluster(cand, largest)) largest = cand;
  tally_of_root[uf.find(ru)] = std::move(tu);
}

void StreamingBtAnalyzer::OnlineLeakGraph::add_edge(
    const dht::Contact& leaker, const dht::Contact& internal) {
  edges.push_back(crawler::LeakEdge{leaker, internal});
  link(leaker, internal);
}

void StreamingBtAnalyzer::OnlineLeakGraph::retract_internal(
    const crawler::PeerKey& internal) {
  std::erase_if(edges, [&](const crawler::LeakEdge& e) {
    return crawler::PeerKey{e.internal} == internal;
  });
  vertex_of_public.clear();
  vertex_of_internal.clear();
  uf.clear();
  tally_of_root.clear();
  largest = ClusterSize{};
  for (const crawler::LeakEdge& e : edges) link(e.leaker, e.internal);
}

// --- StreamingBtAnalyzer --------------------------------------------------

void StreamingBtAnalyzer::note_queried(const dht::Contact& c) {
  ++events_;
  // Per-AS counts are per unique *peer* (batch iterates the deduplicated
  // queried set), so a replayed duplicate must not double-count.
  if (queried_.insert(crawler::PeerKey{c}).second) {
    queried_ips_.insert(c.endpoint.address);
    if (auto asn = routes_.origin_of(c.endpoint.address))
      ++queried_per_as_[*asn];
  }
}

void StreamingBtAnalyzer::note_learned(const dht::Contact& c) {
  ++events_;
  if (learned_.insert(crawler::PeerKey{c}).second) {
    learned_ips_.insert(c.endpoint.address);
    if (auto asn = routes_.origin_of(c.endpoint.address))
      learned_ases_.insert(*asn);
  }
}

void StreamingBtAnalyzer::note_ping_response(const dht::Contact& c) {
  ++events_;
  if (responders_.insert(crawler::PeerKey{c}).second)
    responder_ips_.insert(c.endpoint.address);
}

void StreamingBtAnalyzer::note_leak(const dht::Contact& leaker,
                                    const dht::Contact& internal) {
  ++events_;
  ++leaks_;
  const auto range = netcore::classify_reserved(internal.endpoint.address);
  if (range == netcore::ReservedRange::none) return;
  const auto asn = routes_.origin_of(leaker.endpoint.address);

  RangeAgg& a = agg_[static_cast<std::size_t>(range_index(range))];
  const crawler::PeerKey internal_key{internal};
  a.internal_peers.insert(internal_key);
  a.internal_ips.insert(internal.endpoint.address);
  a.leaking_peers.insert(crawler::PeerKey{leaker});
  a.leaking_ips.insert(leaker.endpoint.address);
  if (!asn) return;
  a.leaking_ases.insert(*asn);

  auto& leaker_ases = leaker_ases_of_[internal_key];
  const bool new_as = leaker_ases.insert(*asn).second;
  const std::uint64_t key =
      std::uint64_t{*asn} * 8 +
      static_cast<std::uint64_t>(range_index(range));
  if (leaker_ases.size() == 1) {
    graphs_[key].add_edge(leaker, internal);
  } else if (new_as && leaker_ases.size() == 2) {
    // The peer just became multi-AS — a likely VPN artifact. Retract the
    // edges the first AS's graph accepted while the peer looked exclusive;
    // from now on the peer's edges are dropped on arrival, which is
    // exactly the batch post-filter outcome.
    for (netcore::Asn prior : leaker_ases) {
      if (prior == *asn) continue;
      auto it = graphs_.find(std::uint64_t{prior} * 8 +
                             static_cast<std::uint64_t>(range_index(range)));
      if (it != graphs_.end()) it->second.retract_internal(internal_key);
    }
  }
}

BtDetectionResult StreamingBtAnalyzer::snapshot() const {
  BtDetectionResult out;

  out.summary.queried_peers = queried_.size();
  out.summary.queried_unique_ips = queried_ips_.size();
  out.summary.queried_ases = queried_per_as_.size();
  out.summary.learned_peers = learned_.size();
  out.summary.learned_unique_ips = learned_ips_.size();
  out.summary.learned_ases = learned_ases_.size();
  out.summary.responding_peers = responders_.size();
  out.summary.responding_unique_ips = responder_ips_.size();

  for (int r = 0; r < netcore::kReservedRangeCount; ++r) {
    const RangeAgg& a = agg_[static_cast<std::size_t>(r)];
    RangeLeakStats& row = out.per_range[static_cast<std::size_t>(r)];
    row.internal_total = a.internal_peers.size();
    row.internal_unique_ips = a.internal_ips.size();
    row.leaking_total = a.leaking_peers.size();
    row.leaking_unique_ips = a.leaking_ips.size();
    row.leaking_ases = a.leaking_ases.size();
  }

  for (const auto& [asn, count] : queried_per_as_) {
    AsBtVerdict& v = out.per_as[asn];
    v.asn = asn;
    v.queried_peers = count;
    v.covered = count >= kMinQueriedPeers;
  }

  for (const auto& [key, g] : graphs_) {
    if (g.edges.empty()) continue;  // fully retracted: no surviving leaks
    const auto asn = static_cast<netcore::Asn>(key / 8);
    const auto r = static_cast<std::size_t>(key % 8);
    AsBtVerdict& v = out.per_as[asn];
    v.asn = asn;
    v.largest[r] = g.largest;
  }

  // Detection + detected_ranges from the per-range maxima, in range order
  // (deterministic regardless of graph iteration order), then the coverage
  // gate: positives in under-covered ASes are dropped.
  for (auto& [asn, v] : out.per_as) {
    for (std::size_t r = 0; r < v.largest.size(); ++r) {
      const ClusterSize& c = v.largest[r];
      if (c.public_ips >= config_.min_cluster_public_ips &&
          c.internal_ips >= config_.min_cluster_internal_ips) {
        v.cgn_positive = true;
        v.detected_ranges.push_back(
            static_cast<netcore::ReservedRange>(r + 1));
      }
    }
    if (!v.covered) v.cgn_positive = false;
  }

  return out;
}

// --- StreamingNetalyzrClassifier -----------------------------------------

void StreamingNetalyzrClassifier::ingest(const netalyzr::SessionResult& s) {
  ++sessions_;
  const Table4Row dev_row = table4_row(s.ip_dev, s.ip_pub, routes_);
  if (s.cellular) {
    tally(table4_.cellular_dev, dev_row);
  } else {
    tally(table4_.noncellular_dev, dev_row);
    ++dev_block_count_[netcore::slash24_of(s.ip_dev)];
    if (s.ip_cpe)
      tally(table4_.noncellular_cpe, table4_row(*s.ip_cpe, s.ip_pub, routes_));
  }
  AsAgg& g = groups_[session_asn(s, routes_)];
  g.cellular = s.cellular;  // ASes are homogeneous in network type
  g.sessions.push_back(CompactSession{s.ip_dev, s.ip_cpe, s.ip_pub});
}

NetalyzrDetectionResult StreamingNetalyzrClassifier::snapshot() const {
  NetalyzrDetectionResult out;
  out.table4 = table4_;

  {
    std::vector<std::pair<netcore::Ipv4Prefix, std::size_t>> blocks(
        dev_block_count_.begin(), dev_block_count_.end());
    // Count-descending with the prefix value as tie-break: a total order,
    // so the top-N cut is independent of hash-map iteration order.
    std::sort(blocks.begin(), blocks.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    for (std::size_t i = 0; i < blocks.size() && i < kTopCpeBlocks; ++i)
      out.cpe_blocks.push_back(blocks[i].first);
  }
  auto in_cpe_block = [&](netcore::Ipv4Address a) {
    auto p24 = netcore::slash24_of(a);
    return std::find(out.cpe_blocks.begin(), out.cpe_blocks.end(), p24) !=
           out.cpe_blocks.end();
  };

  for (const auto& [asn, g] : groups_) {
    AsNetalyzrVerdict v;
    v.asn = asn;
    v.cellular = g.cellular;
    v.sessions = g.sessions.size();

    if (g.cellular) {
      v.covered = v.sessions >= kMinCellularSessions;
      std::size_t translated = 0;
      for (const CompactSession& s : g.sessions) {
        const Table4Row row = table4_row(s.ip_dev, s.ip_pub, routes_);
        if (translated_row(row)) ++translated;
        const auto range = netcore::classify_reserved(s.ip_dev);
        if (range != netcore::ReservedRange::none) {
          v.internal_ranges.insert(range);
        } else if (row == Table4Row::unrouted ||
                   row == Table4Row::routed_mismatch) {
          // Routable (or nominally public) space used internally: Fig 7(b).
          v.uses_routable_internal = true;
          v.routable_internal_slash8.insert(s.ip_dev.octet(0));
        }
      }
      if (translated == 0)
        v.assignment = CellularAssignment::public_only;
      else if (translated == g.sessions.size())
        v.assignment = CellularAssignment::internal_only;
      else
        v.assignment = CellularAssignment::mixed;
      v.cgn_positive = translated > 0;
    } else {
      v.covered = v.sessions >= kMinNoncellularSessions;
      std::unordered_set<netcore::Ipv4Prefix> cpe24;
      std::array<std::unordered_set<netcore::Ipv4Prefix>,
                 netcore::kReservedRangeCount>
          cpe24_by_range;
      for (const CompactSession& s : g.sessions) {
        if (!s.ip_cpe || !s.ip_pub) continue;
        if (*s.ip_cpe == *s.ip_pub) continue;    // single NAT only
        if (in_cpe_block(*s.ip_cpe)) continue;   // likely a second CPE
        ++v.candidate_sessions;
        auto p24 = netcore::slash24_of(*s.ip_cpe);
        cpe24.insert(p24);
        const auto range = netcore::classify_reserved(*s.ip_cpe);
        if (range != netcore::ReservedRange::none) {
          auto idx = static_cast<std::size_t>(static_cast<int>(range) - 1);
          ++v.fig5[idx].candidate_sessions;
          cpe24_by_range[idx].insert(p24);
          v.internal_ranges.insert(range);
        } else {
          const Table4Row row = table4_row(*s.ip_cpe, s.ip_pub, routes_);
          if (row == Table4Row::unrouted ||
              row == Table4Row::routed_mismatch) {
            v.uses_routable_internal = true;
            v.routable_internal_slash8.insert(s.ip_cpe->octet(0));
          }
        }
      }
      v.unique_cpe_slash24 = cpe24.size();
      for (std::size_t r = 0; r < cpe24_by_range.size(); ++r)
        v.fig5[r].unique_slash24 = cpe24_by_range[r].size();
      v.cgn_positive =
          v.candidate_sessions >= config_.min_candidate_sessions &&
          static_cast<double>(v.unique_cpe_slash24) >=
              config_.slash24_diversity_factor *
                  static_cast<double>(v.candidate_sessions);
    }
    out.per_as.emplace(asn, std::move(v));
  }

  return out;
}

}  // namespace cgn::analysis
