#include "dht/dht_node.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include "obs/metrics.hpp"

namespace cgn::dht {

namespace {
// Aggregate DHT message volume across every simulated peer.
obs::Counter& g_messages_sent = obs::counter("dht.messages_sent");
obs::Counter& g_messages_received = obs::counter("dht.messages_received");
obs::Counter& g_contacts_validated = obs::counter("dht.contacts_validated");

// Ids are uniformly random, so their first word alone separates contacts
// with distinct ids; the mixed-in endpoint separates one id's endpoints.
std::uint32_t fingerprint(const Contact& c) {
  std::uint32_t id_word;
  std::memcpy(&id_word, c.id.bytes().data(), sizeof id_word);
  const std::uint64_t ep =
      (std::uint64_t{c.endpoint.address.value()} << 16) | c.endpoint.port;
  return id_word ^
         static_cast<std::uint32_t>((ep * 0x9E3779B97F4A7C15ull) >> 32);
}
}  // namespace

DhtNode::DhtNode(NodeId160 id, netcore::Endpoint local_endpoint,
                 sim::NodeId host, DhtNodeConfig config, sim::Rng rng)
    : id_(id), local_(local_endpoint), host_(host), config_(config),
      rng_(std::move(rng)) {}

void DhtNode::send_message(sim::Network& net, const netcore::Endpoint& dst,
                           Message msg) {
  sim::Packet pkt = sim::Packet::udp(local_, dst);
  pkt.payload = std::move(msg);
  g_messages_sent.inc();
  net.send(std::move(pkt), host_);
}

void DhtNode::request(sim::Network& net, const Contact& to, std::uint64_t tx,
                      Message msg) {
  // The frame copies `to`: the reply handler may grow contacts_ or
  // overwrite the slot a caller's reference points into.
  const sim::SimTime sent_at = net.clock().now();
  Awaiting frame{tx, to, awaiting_};
  awaiting_ = &frame;
  send_message(net, frame.contact.endpoint, std::move(msg));
  awaiting_ = frame.outer;
  if (!frame.answered) unanswered_.emplace_back(frame.contact, sent_at);
}

DhtNode::Awaiting* DhtNode::answer(std::uint64_t tx) {
  for (Awaiting* a = awaiting_; a; a = a->outer)
    if (a->tx == tx) return std::exchange(a->answered, true) ? nullptr : a;
  return nullptr;
}

bool DhtNode::ping_if_unvalidated(sim::Network& net, std::size_t i) {
  if (i == kNotFound || (flags_[i] & (kValidated | kPingInflight)))
    return false;
  flags_[i] |= kPingInflight;
  const std::uint64_t tx = next_tx_++;
  request(net, contacts_[i], tx, PingMsg{tx, id_});
  return true;
}

std::size_t DhtNode::find_index(const Contact& contact,
                                std::uint32_t fp) const {
  for (std::size_t i = 0; i < fp_.size(); ++i)
    if (fp_[i] == fp && contacts_[i] == contact) return i;
  return kNotFound;
}

std::size_t DhtNode::find_index(const Contact& contact) const {
  return find_index(contact, fingerprint(contact));
}

std::size_t DhtNode::stalest_slot() const {
  // last_seen >= 0, so its IEEE bits order like its value and the packed
  // key orders like (validated, last_seen); strict < keeps the first index.
  std::uint64_t best = ~std::uint64_t{0};
  std::size_t victim = kNotFound;
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    const std::uint64_t flags = flags_[i];
    const std::uint64_t pinned = (flags & kPinned) ? ~std::uint64_t{0} : 0;
    const std::uint64_t key = ((flags & kValidated) << 63) |
                              std::bit_cast<std::uint64_t>(last_seen_[i]) |
                              pinned;
    if (key < best) {
      best = key;
      victim = i;
    }
  }
  return victim;
}

std::size_t DhtNode::add_candidate(const Contact& contact, sim::SimTime now) {
  if (contact.id == id_) return kNotFound;  // never store ourselves
  const std::uint32_t fp = fingerprint(contact);
  if (std::size_t i = find_index(contact, fp); i != kNotFound) {
    last_seen_[i] = now;
    return i;
  }
  if (contacts_.size() >= config_.table_capacity) {
    // Kademlia-style retention: validated (live) entries are kept; the
    // stalest unvalidated candidate makes room. Only when every entry is
    // validated does the stalest validated one rotate out.
    const std::size_t stalest = stalest_slot();
    if (stalest == kNotFound) return kNotFound;  // all pinned: drop newcomer
    contacts_[stalest] = contact;
    fp_[stalest] = fp;
    flags_[stalest] = 0;
    last_seen_[stalest] = now;
    return stalest;
  }
  contacts_.push_back(contact);
  fp_.push_back(fp);
  flags_.push_back(0);
  last_seen_.push_back(now);
  return contacts_.size() - 1;
}

void DhtNode::mark_validated(const Contact& contact, sim::SimTime now) {
  const std::size_t i = add_candidate(contact, now);
  if (i == kNotFound) return;
  if (!(flags_[i] & kValidated)) {
    ++stats_.contacts_validated;
    g_contacts_validated.inc();
  }
  flags_[i] =
      static_cast<std::uint8_t>((flags_[i] | kValidated) & ~kPingInflight);
}

std::vector<Contact> DhtNode::closest(const NodeId160& target, std::size_t k,
                                      bool validated_only) const {
  // Per-thread scratch: the ping sweep runs handle() on several workers at
  // once, and nothing below sends, so no call can re-enter it.
  thread_local std::vector<std::uint32_t> idx;
  idx.clear();
  for (std::size_t i = 0; i < contacts_.size(); ++i)
    if (!validated_only || (flags_[i] & kValidated))
      idx.push_back(static_cast<std::uint32_t>(i));
  std::size_t n = std::min(k, idx.size());
  std::partial_sort(idx.begin(), idx.begin() + n, idx.end(),
                    [&](std::uint32_t a, std::uint32_t b) {
                      return contacts_[a].id.closer_to(target,
                                                       contacts_[b].id);
                    });
  std::vector<Contact> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(contacts_[idx[i]]);
  return out;
}

void DhtNode::handle(sim::Network& net, const sim::Packet& pkt) {
  const Message* msg = std::any_cast<Message>(&pkt.payload);
  if (!msg) return;  // not a DHT packet
  g_messages_received.inc();
  const sim::SimTime now = net.clock().now();

  if (const auto* ping = std::get_if<PingMsg>(msg)) {
    ++stats_.pings_received;
    const Contact sender{ping->sender, pkt.src};
    const std::size_t i = add_candidate(sender, now);
    send_message(net, pkt.src, PongMsg{ping->tx, id_});
    // Validate new senders right away (before churn can evict them). For a
    // hairpin-observed internal endpoint this ping-back is the step that
    // turns it into propagatable — leakable — contact information. No
    // receiver answers a pong, so slot i still holds the sender.
    ping_if_unvalidated(net, i);
    return;
  }
  if (const auto* pong = std::get_if<PongMsg>(msg)) {
    const Awaiting* req = answer(pong->tx);
    if (!req) return;
    mark_validated(req->contact, now);
    // A response arriving from a different endpoint than we targeted (e.g.
    // the internal-path reply of a peer behind the same NAT) teaches us an
    // additional endpoint for that peer.
    if (pkt.src != req->contact.endpoint)
      add_candidate(Contact{pong->sender, pkt.src}, now);
    return;
  }
  if (const auto* fn = std::get_if<FindNodesMsg>(msg)) {
    ++stats_.find_nodes_received;
    add_candidate(Contact{fn->sender, pkt.src}, now);
    auto contacts = closest(fn->target, kFindNodesFanout,
                            config_.validate_before_propagate);
    send_message(net, pkt.src, NodesMsg{fn->tx, id_, std::move(contacts)});
    return;
  }
  if (const auto* reply = std::get_if<AnnounceReply>(msg)) {
    for (const Contact& c : reply->peers) {
      const std::size_t i = add_candidate(c, now);
      // A BitTorrent client connects to swarm peers right away; the ping
      // doubles as DHT validation. When the peer is behind the same NAT,
      // this is the packet that hairpins and exposes internal endpoints.
      ping_if_unvalidated(net, i);
    }
    return;
  }
  if (const auto* nodes = std::get_if<NodesMsg>(msg)) {
    if (const Awaiting* req = answer(nodes->tx))
      mark_validated(req->contact, now);
    for (const Contact& c : nodes->contacts) add_candidate(c, now);
    return;
  }
}

void DhtNode::bootstrap(sim::Network& net, const netcore::Endpoint& server) {
  // The bootstrap server's id is unknown; a zero-id contact stands in.
  const std::uint64_t tx = next_tx_++;
  request(net, Contact{NodeId160{}, server}, tx, FindNodesMsg{tx, id_, id_});
}

void DhtNode::run_maintenance(sim::Network& net) {
  const sim::SimTime now = net.clock().now();
  // Abandon stale requests so candidates can be retried or evicted. The
  // flag cleared is that of whichever slot holds the contact now.
  std::erase_if(unanswered_, [&](const std::pair<Contact, sim::SimTime>& u) {
    if (now - u.second <= config_.ping_timeout_s) return false;
    if (std::size_t i = find_index(u.first); i != kNotFound)
      flags_[i] &= static_cast<std::uint8_t>(~kPingInflight);
    return true;
  });

  // Validate unvalidated candidates. Index-based on purpose: the pong comes
  // back synchronously inside the ping and its handler may add_candidate
  // (a same-NAT peer answering from its internal endpoint), growing the
  // table and invalidating any reference held across the call.
  int budget = config_.pings_per_round;
  for (std::size_t i = 0; i < contacts_.size() && budget > 0; ++i)
    budget -= ping_if_unvalidated(net, i);

  // Random-target lookups keep the table populated and the NAT mapping warm.
  // Peers are drawn from the table as it stands now. A synchronous nodes
  // reply can evict a validated slot between draws, so the draw list holds
  // copies (in per-thread scratch), not slot indices.
  thread_local std::vector<Contact> validated;
  validated.clear();
  for (std::size_t i = 0; i < contacts_.size(); ++i)
    if (flags_[i] & kValidated) validated.push_back(contacts_[i]);
  if (validated.empty()) return;
  for (int i = 0; i < config_.lookups_per_round; ++i) {
    NodeId160 target = NodeId160::random(rng_);
    for (int f = 0; f < config_.lookup_fanout; ++f) {
      const Contact& peer = validated[rng_.index(validated.size())];
      const std::uint64_t tx = next_tx_++;
      request(net, peer, tx, FindNodesMsg{tx, id_, target});
    }
  }
}

void DhtNode::learn_contact(const Contact& contact, bool pinned) {
  const std::size_t i = add_candidate(contact, 0.0);
  if (pinned && i != kNotFound) flags_[i] |= kPinned;
}

void DhtNode::announce(sim::Network& net, const netcore::Endpoint& tracker,
                       std::uint64_t swarm) {
  send_message(net, tracker, AnnounceMsg{next_tx_++, id_, swarm});
}

std::vector<Contact> DhtNode::validated_contacts() const {
  std::vector<Contact> out;
  for (std::size_t i = 0; i < contacts_.size(); ++i)
    if (flags_[i] & kValidated) out.push_back(contacts_[i]);
  return out;
}

std::vector<Contact> DhtNode::all_contacts() const { return contacts_; }

bool DhtNode::knows_validated(const Contact& c) const {
  std::size_t i = find_index(c);
  return i != kNotFound && (flags_[i] & kValidated);
}

}  // namespace cgn::dht
