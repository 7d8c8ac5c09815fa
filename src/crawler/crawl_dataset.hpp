// The dataset a DHT crawl produces: queried/learned peers, bt_ping
// responders, and internal-address leak edges (paper §4.1, Tables 2-3).
// It keeps the raw observations only; Table 2's unique-IP counts are the
// analysis's (analysis::CrawlSummary, from StreamingBtAnalyzer).
#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "dht/messages.hpp"
#include "netcore/ipv4.hpp"

namespace cgn::crawler {

/// Peer identity is the full (endpoint, nodeid) tuple — the paper's choice,
/// which also defuses DHT-poisoning bias.
struct PeerKey {
  dht::Contact contact;
  bool operator==(const PeerKey&) const = default;
};

struct PeerKeyHash {
  std::size_t operator()(const PeerKey& k) const noexcept {
    std::size_t h1 = std::hash<dht::NodeId160>{}(k.contact.id);
    std::size_t h2 = std::hash<netcore::Endpoint>{}(k.contact.endpoint);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ull + (h1 << 6) + (h1 >> 2));
  }
};

/// One observed leak: a peer (at its publicly observed endpoint) reported
/// contact information carrying a reserved-range address.
struct LeakEdge {
  dht::Contact leaker;    ///< the peer that answered find_nodes
  dht::Contact internal;  ///< the reserved-address contact it reported
};

class CrawlDataset {
 public:
  void note_learned(const dht::Contact& c) { learned_.insert(PeerKey{c}); }
  void note_queried(const dht::Contact& c) { queried_.insert(PeerKey{c}); }
  void note_ping_response(const dht::Contact& c) {
    responders_.insert(PeerKey{c});
  }
  void note_leak(const dht::Contact& leaker, const dht::Contact& internal) {
    leaks_.push_back(LeakEdge{leaker, internal});
  }

  [[nodiscard]] std::size_t learned_peers() const noexcept {
    return learned_.size();
  }
  [[nodiscard]] std::size_t queried_peers() const noexcept {
    return queried_.size();
  }
  [[nodiscard]] std::size_t responding_peers() const noexcept {
    return responders_.size();
  }
  [[nodiscard]] const std::vector<LeakEdge>& leaks() const noexcept {
    return leaks_;
  }
  [[nodiscard]] bool was_learned(const dht::Contact& c) const {
    return learned_.contains(PeerKey{c});
  }

  /// All learned contacts (for the bt_ping sweep).
  [[nodiscard]] std::vector<dht::Contact> learned_contacts() const {
    std::vector<dht::Contact> out;
    out.reserve(learned_.size());
    for (const auto& k : learned_) out.push_back(k.contact);
    return out;
  }

  /// All peers that answered at least one find_nodes query.
  [[nodiscard]] std::vector<dht::Contact> queried_contacts() const {
    std::vector<dht::Contact> out;
    out.reserve(queried_.size());
    for (const auto& k : queried_) out.push_back(k.contact);
    return out;
  }

  /// All peers that answered a bt_ping (for event-stream replay).
  [[nodiscard]] std::vector<dht::Contact> responding_contacts() const {
    std::vector<dht::Contact> out;
    out.reserve(responders_.size());
    for (const auto& k : responders_) out.push_back(k.contact);
    return out;
  }

 private:
  std::unordered_set<PeerKey, PeerKeyHash> learned_;
  std::unordered_set<PeerKey, PeerKeyHash> queried_;
  std::unordered_set<PeerKey, PeerKeyHash> responders_;
  std::vector<LeakEdge> leaks_;
};

}  // namespace cgn::crawler
