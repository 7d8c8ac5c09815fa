// Behavioural model of a BitTorrent DHT participant.
//
// Nodes maintain a contact table, validate learned contacts with ping/pong
// before propagating them (the property the paper's calibration confirmed
// for 98.7% of real peers), answer find_nodes with the XOR-closest contacts,
// and — crucially for the reproduction — store whatever *observed* source
// endpoint a packet arrives with. When a NAT hairpins traffic between two
// peers behind it and preserves the internal source, the observed endpoint
// is an internal address, which the node will happily validate (the ping
// works, internally) and later leak to the crawler.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "dht/messages.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"

namespace cgn::dht {

struct DhtNodeConfig {
  std::size_t table_capacity = 200;
  /// Unvalidated candidates pinged per maintenance round.
  int pings_per_round = 8;
  /// Random-target find_nodes lookups issued per maintenance round.
  int lookups_per_round = 1;
  /// Peers a lookup is sent to.
  int lookup_fanout = 3;
  /// Seconds after which an unanswered ping or lookup is abandoned.
  sim::SimTime ping_timeout_s = 30.0;
  /// BEP-5-conformant nodes only propagate validated contacts. The paper
  /// measured ~1.3% of real peers violating this.
  bool validate_before_propagate = true;
};

/// Per-node counters for tests and calibration.
struct DhtNodeStats {
  std::uint64_t pings_received = 0;
  std::uint64_t find_nodes_received = 0;
  std::uint64_t contacts_validated = 0;
};

class DhtNode {
 public:
  /// `local_endpoint` is the node's own socket address (one fixed UDP port,
  /// as real clients use); `host` is its node in the simulated network.
  DhtNode(NodeId160 id, netcore::Endpoint local_endpoint, sim::NodeId host,
          DhtNodeConfig config, sim::Rng rng);

  /// Packet receiver; bind it to the local endpoint's port on the host node
  /// (sim::Network::bind).
  void handle(sim::Network& net, const sim::Packet& pkt);

  /// Contacts the bootstrap server: ping + find_nodes(own id).
  void bootstrap(sim::Network& net, const netcore::Endpoint& server);

  /// One activity round: validate candidates, run random-target lookups.
  /// Drives both DHT graph formation and NAT mapping keep-alive.
  void run_maintenance(sim::Network& net);

  /// Injects a contact learned out-of-band (e.g. LAN multicast local peer
  /// discovery). It still needs ping validation before being propagated.
  /// Pinned contacts are never evicted — modelling local peer discovery's
  /// periodic re-announcement on the LAN.
  void learn_contact(const Contact& contact, bool pinned = false);

  /// Announces membership in `swarm` to a tracker; the reply's peer sample
  /// joins the candidate table (and gets validated by later maintenance).
  void announce(sim::Network& net, const netcore::Endpoint& tracker,
                std::uint64_t swarm);

  [[nodiscard]] const NodeId160& id() const noexcept { return id_; }
  [[nodiscard]] const netcore::Endpoint& local_endpoint() const noexcept {
    return local_;
  }
  [[nodiscard]] sim::NodeId host() const noexcept { return host_; }
  [[nodiscard]] const DhtNodeStats& stats() const noexcept { return stats_; }

  [[nodiscard]] std::size_t table_size() const noexcept {
    return contacts_.size();
  }
  [[nodiscard]] std::vector<Contact> validated_contacts() const;
  [[nodiscard]] std::vector<Contact> all_contacts() const;
  /// True when (id, endpoint) is in the table and validated.
  [[nodiscard]] bool knows_validated(const Contact& c) const;

 private:
  /// A request waiting for its reply. Every reply arrives inside the
  /// Network::send that carried the request, so the frame lives on the
  /// sender's stack; a reply handler that sends nests a frame above it.
  struct Awaiting {
    std::uint64_t tx;
    Contact contact;
    Awaiting* outer;
    bool answered = false;
  };

  // Routing-table entry state, packed into one byte per contact.
  static constexpr std::uint8_t kValidated = 1;
  static constexpr std::uint8_t kPingInflight = 2;
  static constexpr std::uint8_t kPinned = 4;  ///< kept alive out-of-band
  static constexpr std::size_t kNotFound = static_cast<std::size_t>(-1);

  void send_message(sim::Network& net, const netcore::Endpoint& dst,
                    Message msg);
  /// Sends request `tx` to `to`. If no reply came back during the send,
  /// remembers (contact, sent_at) until ping_timeout_s expires it.
  void request(sim::Network& net, const Contact& to, std::uint64_t tx,
               Message msg);
  /// The unanswered frame awaiting `tx`, now marked answered; null if none.
  Awaiting* answer(std::uint64_t tx);
  /// Pings slot `i` (kNotFound: nothing) unless it is validated or a ping
  /// to it is already in flight; returns whether it pinged.
  bool ping_if_unvalidated(sim::Network& net, std::size_t i);
  /// Refreshes `contact`, or stores it (evicting if the table is full).
  /// Returns the slot it now occupies; kNotFound when it was not stored.
  std::size_t add_candidate(const Contact& contact, sim::SimTime now);
  void mark_validated(const Contact& contact, sim::SimTime now);
  [[nodiscard]] std::size_t find_index(const Contact& contact,
                                       std::uint32_t fp) const;
  [[nodiscard]] std::size_t find_index(const Contact& contact) const;
  /// Eviction victim: the unpinned slot with the smallest (validated,
  /// last_seen, index); kNotFound when every slot is pinned.
  [[nodiscard]] std::size_t stalest_slot() const;
  [[nodiscard]] std::vector<Contact> closest(const NodeId160& target,
                                             std::size_t k,
                                             bool validated_only) const;

  NodeId160 id_;
  netcore::Endpoint local_;
  sim::NodeId host_;
  DhtNodeConfig config_;
  sim::Rng rng_;
  DhtNodeStats stats_;

  // Struct-of-arrays routing table: every hot scan walks exactly the column
  // it needs instead of striding over a padded AoS entry. The identity
  // probe on each received contact scans `fp_`, a 32-bit fingerprint of
  // (id, endpoint), and compares the full Contact only on a fingerprint
  // match. Eviction packs each slot into one 64-bit key, validated bit over
  // the IEEE bits of last_seen (pinned: ~0), and takes the first minimum.
  // The closest-k filter reads one flag byte per entry. Slots never move:
  // a contact keeps its slot until evicted, and slot order is table order.
  std::vector<Contact> contacts_;
  std::vector<std::uint32_t> fp_;
  std::vector<std::uint8_t> flags_;
  std::vector<sim::SimTime> last_seen_;
  // Request state: the innermost frame of the send in progress, and the
  // requests that got no reply. An answered request leaves nothing behind.
  Awaiting* awaiting_ = nullptr;
  std::vector<std::pair<Contact, sim::SimTime>> unanswered_;
  std::uint64_t next_tx_ = 1;
};

}  // namespace cgn::dht
