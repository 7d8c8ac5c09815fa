#include "dht/dht_node.hpp"
#include "dht/node_id.hpp"
#include "dht/tracker.hpp"

#include <gtest/gtest.h>

#include "test_topology.hpp"

namespace cgn::dht {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;
using test::LineConfig;
using test::MiniNet;

TEST(NodeId160, RandomIdsDiffer) {
  sim::Rng rng(1);
  auto a = NodeId160::random(rng);
  auto b = NodeId160::random(rng);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.to_hex().size(), 40u);
}

TEST(NodeId160, XorDistanceProperties) {
  sim::Rng rng(2);
  auto a = NodeId160::random(rng);
  auto b = NodeId160::random(rng);
  // d(x,x) = 0.
  auto zero = a.distance_to(a);
  for (auto byte : zero) EXPECT_EQ(byte, 0);
  // Symmetry.
  EXPECT_EQ(a.distance_to(b), b.distance_to(a));
  // x is closer to x than anything else is.
  EXPECT_TRUE(a.closer_to(a, b));
  EXPECT_FALSE(a.closer_to(b, b));
}

TEST(NodeId160, BucketIndexFindsFirstDifferingBit) {
  NodeId160::Bytes x{}, y{};
  y[0] = 0x80;
  EXPECT_EQ(NodeId160(x).bucket_index(NodeId160(y)), 0);
  y[0] = 0x01;
  EXPECT_EQ(NodeId160(x).bucket_index(NodeId160(y)), 7);
  y[0] = 0;
  y[19] = 0x01;
  EXPECT_EQ(NodeId160(x).bucket_index(NodeId160(y)), 159);
  EXPECT_EQ(NodeId160(x).bucket_index(NodeId160(x)), 160);
}

/// Two public hosts running DHT nodes.
struct DhtPair {
  MiniNet mini;
  MiniNet::Line line_a, line_b;
  std::unique_ptr<DhtNode> a, b;

  explicit DhtPair(DhtNodeConfig cfg = {}) {
    LineConfig lc;
    lc.with_cpe = false;
    lc.line_public = Ipv4Address{16, 0, 1, 2};
    line_a = mini.add_line(lc, 11);
    lc.line_public = Ipv4Address{16, 0, 2, 2};
    line_b = mini.add_line(lc, 22);
    sim::Rng rng(5);
    a = std::make_unique<DhtNode>(NodeId160::random(rng),
                                  Endpoint{line_a.device_address, 6881},
                                  line_a.device, cfg, rng.fork());
    b = std::make_unique<DhtNode>(NodeId160::random(rng),
                                  Endpoint{line_b.device_address, 6881},
                                  line_b.device, cfg, rng.fork());
    line_a.demux->bind(6881, [this](sim::Network& n, const sim::Packet& p) {
      a->handle(n, p);
    });
    line_b.demux->bind(6881, [this](sim::Network& n, const sim::Packet& p) {
      b->handle(n, p);
    });
  }
};

TEST(DhtNode, PingValidatesCandidates) {
  DhtPair pair;
  pair.a->learn_contact({pair.b->id(), pair.b->local_endpoint()});
  EXPECT_FALSE(pair.a->knows_validated(
      {pair.b->id(), pair.b->local_endpoint()}));
  pair.a->run_maintenance(pair.mini.net);  // sends the validation ping
  EXPECT_TRUE(pair.a->knows_validated(
      {pair.b->id(), pair.b->local_endpoint()}));
  // B learned A from the inbound ping (as a candidate).
  EXPECT_EQ(pair.b->table_size(), 1u);
  EXPECT_EQ(pair.b->stats().pings_received, 1u);
}

TEST(DhtNode, FindNodesReturnsOnlyValidatedContacts) {
  DhtPair pair;
  sim::Rng rng(9);
  // Fill A with unvalidated garbage plus one validated contact (B).
  for (int i = 0; i < 20; ++i)
    pair.a->learn_contact(
        {NodeId160::random(rng), Endpoint{Ipv4Address{16, 5, 0, 1}, 1000}});
  pair.a->learn_contact({pair.b->id(), pair.b->local_endpoint()});
  // Several rounds so the ping budget covers every candidate.
  for (int i = 0; i < 4; ++i) pair.a->run_maintenance(pair.mini.net);

  // B queries A.
  std::uint64_t got = 0;
  pair.line_b.demux->bind(7000, [&](sim::Network&, const sim::Packet& p) {
    if (const auto* m = std::any_cast<Message>(&p.payload))
      if (const auto* nodes = std::get_if<NodesMsg>(m))
        got = nodes->contacts.size();
  });
  sim::Packet query = sim::Packet::udp({pair.line_b.device_address, 7000},
                                       pair.a->local_endpoint());
  query.payload = Message{FindNodesMsg{77, pair.b->id(), pair.b->id()}};
  pair.mini.net.send(std::move(query), pair.line_b.device);
  // Only B itself (validated) can be returned; the garbage is unvalidated.
  // (B may appear under two endpoints: the learned one and the query's
  // observed source.)
  EXPECT_GE(got, 1u);
  EXPECT_LE(got, 2u);
}

TEST(DhtNode, SloppyNodePropagatesUnvalidated) {
  DhtNodeConfig sloppy;
  sloppy.validate_before_propagate = false;
  DhtPair pair(sloppy);
  sim::Rng rng(9);
  for (int i = 0; i < 4; ++i)
    pair.a->learn_contact(
        {NodeId160::random(rng), Endpoint{Ipv4Address{16, 5, 0, 1}, 1000}});
  std::uint64_t got = 0;
  pair.line_b.demux->bind(7000, [&](sim::Network&, const sim::Packet& p) {
    if (const auto* m = std::any_cast<Message>(&p.payload))
      if (const auto* nodes = std::get_if<NodesMsg>(m))
        got = nodes->contacts.size();
  });
  sim::Packet query = sim::Packet::udp({pair.line_b.device_address, 7000},
                                       pair.a->local_endpoint());
  query.payload = Message{FindNodesMsg{78, pair.b->id(), pair.b->id()}};
  pair.mini.net.send(std::move(query), pair.line_b.device);
  EXPECT_GE(got, 4u);
}

TEST(DhtNode, TableEvictsWhenFull) {
  DhtNodeConfig cfg;
  cfg.table_capacity = 8;
  DhtPair pair(cfg);
  sim::Rng rng(13);
  for (int i = 0; i < 30; ++i)
    pair.a->learn_contact(
        {NodeId160::random(rng),
         Endpoint{Ipv4Address{16, 5, 0, static_cast<std::uint8_t>(i + 1)},
                  1000}});
  EXPECT_EQ(pair.a->table_size(), 8u);
}

/// The routing table as a straightforward implementation keeps it: a
/// linear identity scan and a branchy stalest-entry scan for eviction.
/// DhtNode's fingerprinted, packed-key table must match it slot for slot.
struct ReferenceTable {
  static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  struct Entry {
    Contact contact;
    bool validated = false, inflight = false, pinned = false;
    sim::SimTime last_seen = 0;
    sim::SimTime inflight_since = 0;  ///< when `inflight` was last set
  };
  NodeId160 self;
  std::size_t capacity = 0;
  std::vector<Entry> entries;
  std::uint64_t validations = 0;
  // Branch coverage, so the sequences provably reach both eviction tiers.
  std::uint64_t validated_evictions = 0, all_pinned_drops = 0;

  std::size_t find(const Contact& c) const {
    for (std::size_t i = 0; i < entries.size(); ++i)
      if (entries[i].contact == c) return i;
    return kNone;
  }

  void add(const Contact& c, sim::SimTime now) {
    if (c.id == self) return;
    if (std::size_t i = find(c); i != kNone) {
      entries[i].last_seen = now;
      return;
    }
    if (entries.size() >= capacity) {
      std::size_t stalest = kNone;
      for (std::size_t i = 0; i < entries.size(); ++i) {
        if (entries[i].pinned) continue;
        const bool validated = entries[i].validated;
        const bool stalest_validated =
            stalest != kNone && entries[stalest].validated;
        if (stalest == kNone || (!validated && stalest_validated) ||
            (validated == stalest_validated &&
             entries[i].last_seen < entries[stalest].last_seen))
          stalest = i;
      }
      if (stalest == kNone) {
        ++all_pinned_drops;
        return;
      }
      validated_evictions += entries[stalest].validated;
      entries[stalest] = Entry{c, false, false, false, now};
      return;
    }
    entries.push_back(Entry{c, false, false, false, now});
  }

  void mark_validated(const Contact& c, sim::SimTime now) {
    if (std::size_t i = find(c); i != kNone) {
      validations += !entries[i].validated;
      entries[i].validated = true;
      entries[i].inflight = false;
      entries[i].last_seen = now;
      return;
    }
    add(c, now);
    if (std::size_t i = find(c); i != kNone) {
      entries[i].validated = true;
      ++validations;
    }
  }

  std::vector<Contact> all() const {
    std::vector<Contact> out;
    for (const Entry& e : entries) out.push_back(e.contact);
    return out;
  }
  std::vector<Contact> validated() const {
    std::vector<Contact> out;
    for (const Entry& e : entries)
      if (e.validated) out.push_back(e.contact);
    return out;
  }
};

/// Node A under test plus a peer host P whose eight ports answer pings and
/// find_nodes when "alive". A reference model replays A's protocol steps on
/// a ReferenceTable: a ping to an alive port validates synchronously, any
/// other ping or lookup waits in `pending` until it times out. Its expiry
/// clears the flag of whichever entry holds the contact then, even one
/// evicted and re-added (and re-pinged) since the request went out. The
/// pings and lookups A sends to each port must match the model's.
class DhtTableDifferential {
 public:
  static constexpr std::uint16_t kPort0 = 7000;
  static constexpr int kPorts = 8;

  explicit DhtTableDifferential(std::uint64_t seed)
      : rng_(seed), model_rng_(seed + 1) {
    cfg_.table_capacity = 12;
    cfg_.pings_per_round = 3;
    cfg_.lookups_per_round = 2;
    cfg_.lookup_fanout = 2;
    LineConfig lc;
    lc.with_cpe = false;
    lc.line_public = Ipv4Address{16, 0, 1, 2};
    line_a_ = mini_.add_line(lc, 11);
    lc.line_public = Ipv4Address{16, 0, 2, 2};
    line_p_ = mini_.add_line(lc, 22);
    const NodeId160 self = NodeId160::random(rng_);
    a_ = std::make_unique<DhtNode>(self, Endpoint{line_a_.device_address, 6881},
                                   line_a_.device, cfg_, sim::Rng(seed + 1));
    line_a_.demux->bind(6881, [this](sim::Network& n, const sim::Packet& p) {
      a_->handle(n, p);
    });
    model_.self = self;
    model_.capacity = cfg_.table_capacity;
    // Ids repeat across endpoints and endpoints across ids; A's own id is
    // in the pool too (never stored).
    for (int i = 0; i < 10; ++i) ids_.push_back(NodeId160::random(rng_));
    ids_.push_back(self);
    for (int p = 0; p < kPorts; ++p) {
      alive_[p] = rng_.index(3) != 0;
      const auto port = static_cast<std::uint16_t>(kPort0 + p);
      line_p_.demux->bind(port, [this, port](sim::Network& n,
                                             const sim::Packet& pkt) {
        respond(n, pkt, port);
      });
    }
  }

  void step() {
    const Contact c = random_contact();
    switch (rng_.index(3)) {
      case 0: {  // out-of-band discovery, sometimes pinned
        const bool pinned = rng_.index(16) == 0;
        a_->learn_contact(c, pinned);
        model_.add(c, 0.0);
        if (std::size_t i = model_.find(c); pinned && i != model_.kNone)
          model_.entries[i].pinned = true;
        break;
      }
      case 1: {  // inbound ping from c
        sim::Packet ping = sim::Packet::udp(c.endpoint, a_->local_endpoint());
        ping.payload = Message{PingMsg{++p_tx_, c.id}};
        mini_.net.send(std::move(ping), line_p_.device);
        model_.add(c, now());
        std::size_t i = model_.find(c);
        if (i != model_.kNone && !model_.entries[i].validated &&
            !model_.entries[i].inflight)
          model_ping(i);
        break;
      }
      default:
        a_->run_maintenance(mini_.net);
        model_maintenance();
    }
    static constexpr double kAdvance[] = {0, 0, 1, 5, 40};
    mini_.clock.advance(kAdvance[rng_.index(5)]);
  }

  const ReferenceTable& model() const { return model_; }
  /// Expiries that cleared a flag set after the expiring request was sent.
  std::uint64_t late_clears() const { return late_clears_; }

  void expect_agree(int step) const {
    ASSERT_EQ(a_->all_contacts(), model_.all()) << "step " << step;
    ASSERT_EQ(a_->validated_contacts(), model_.validated()) << "step " << step;
    ASSERT_EQ(a_->stats().contacts_validated, model_.validations)
        << "step " << step;
    for (int p = 0; p < kPorts; ++p) {
      ASSERT_EQ(pings_[p], model_pings_[p]) << "step " << step << " port " << p;
      ASSERT_EQ(lookups_[p], model_lookups_[p])
          << "step " << step << " port " << p;
    }
  }

 private:
  sim::SimTime now() const { return mini_.clock.now(); }
  bool alive(const Contact& c) const {
    return alive_[c.endpoint.port - kPort0];
  }

  Contact random_contact() {
    const auto port = static_cast<std::uint16_t>(kPort0 + rng_.index(kPorts));
    return {ids_[rng_.index(ids_.size())],
            Endpoint{line_p_.device_address, port}};
  }

  /// What P's find_nodes answer carries: a function of the target alone.
  std::vector<Contact> reply_contacts(const NodeId160& target) const {
    std::vector<Contact> out;
    const auto& b = target.bytes();
    for (int k = 0; k < b[0] % 4; ++k)
      out.push_back({ids_[b[1 + 2 * k] % ids_.size()],
                     Endpoint{line_p_.device_address,
                              static_cast<std::uint16_t>(
                                  kPort0 + b[2 + 2 * k] % kPorts)}});
    return out;
  }

  void respond(sim::Network& net, const sim::Packet& pkt, std::uint16_t port) {
    const auto* msg = std::any_cast<Message>(&pkt.payload);
    if (!msg) return;
    pings_[port - kPort0] += std::holds_alternative<PingMsg>(*msg);
    lookups_[port - kPort0] += std::holds_alternative<FindNodesMsg>(*msg);
    if (!alive_[port - kPort0]) return;
    const Endpoint self{line_p_.device_address, port};
    sim::Packet reply = sim::Packet::udp(self, pkt.src);
    if (const auto* ping = std::get_if<PingMsg>(msg))
      reply.payload = Message{PongMsg{ping->tx, ids_[0]}};
    else if (const auto* fn = std::get_if<FindNodesMsg>(msg))
      reply.payload =
          Message{NodesMsg{fn->tx, ids_[0], reply_contacts(fn->target)}};
    else
      return;
    net.send(std::move(reply), line_p_.device);
  }

  /// Pings entry i, which is neither validated nor in flight.
  void model_ping(std::size_t i) {
    model_.entries[i].inflight = true;
    model_.entries[i].inflight_since = now();
    const Contact c = model_.entries[i].contact;
    ++model_pings_[c.endpoint.port - kPort0];
    if (alive(c))
      model_.mark_validated(c, now());
    else
      pending_.push_back({c, now()});
  }

  void model_maintenance() {
    std::erase_if(pending_, [&](const std::pair<Contact, sim::SimTime>& p) {
      if (now() - p.second <= cfg_.ping_timeout_s) return false;
      if (std::size_t i = model_.find(p.first); i != model_.kNone) {
        ReferenceTable::Entry& e = model_.entries[i];
        late_clears_ += e.inflight && e.inflight_since > p.second;
        e.inflight = false;
      }
      return true;
    });
    int budget = cfg_.pings_per_round;
    for (std::size_t i = 0; i < model_.entries.size() && budget > 0; ++i) {
      if (model_.entries[i].validated || model_.entries[i].inflight) continue;
      model_ping(i);
      --budget;
    }
    const std::vector<Contact> validated = model_.validated();
    if (validated.empty()) return;
    for (int l = 0; l < cfg_.lookups_per_round; ++l) {
      const NodeId160 target = NodeId160::random(model_rng_);
      for (int f = 0; f < cfg_.lookup_fanout; ++f) {
        const Contact peer = validated[model_rng_.index(validated.size())];
        ++model_lookups_[peer.endpoint.port - kPort0];
        if (!alive(peer)) {
          pending_.push_back({peer, now()});
          continue;
        }
        model_.mark_validated(peer, now());
        for (const Contact& c : reply_contacts(target)) model_.add(c, now());
      }
    }
  }

  sim::Rng rng_;
  DhtNodeConfig cfg_;
  MiniNet mini_;
  MiniNet::Line line_a_, line_p_;
  std::unique_ptr<DhtNode> a_;
  std::vector<NodeId160> ids_;
  bool alive_[kPorts] = {};
  std::uint64_t p_tx_ = 0;
  ReferenceTable model_;
  sim::Rng model_rng_;  ///< replays A's lookup draws
  std::vector<std::pair<Contact, sim::SimTime>> pending_;
  std::uint64_t late_clears_ = 0;
  // Requests A sent to each port, and the model's.
  std::uint64_t pings_[kPorts] = {}, lookups_[kPorts] = {};
  std::uint64_t model_pings_[kPorts] = {}, model_lookups_[kPorts] = {};
};

TEST(DhtTable, MatchesReferenceModelOverRandomSequences) {
  std::uint64_t validated_evictions = 0, all_pinned_drops = 0,
                late_clears = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(seed);
    DhtTableDifferential run(seed);
    for (int step = 0; step < 400; ++step) {
      run.step();
      run.expect_agree(step);
      if (::testing::Test::HasFatalFailure()) return;
    }
    validated_evictions += run.model().validated_evictions;
    all_pinned_drops += run.model().all_pinned_drops;
    late_clears += run.late_clears();
  }
  EXPECT_GT(validated_evictions, 0u);
  EXPECT_GT(all_pinned_drops, 0u);
  // Some expiring request cleared the flag of a later ping to its contact,
  // which an in-flight timestamp per entry would have kept set.
  EXPECT_GT(late_clears, 0u);
}

TEST(Tracker, RecordsObservedEndpointsAndSamplesPeers) {
  MiniNet mini;
  // Tracker host at the core.
  sim::NodeId tracker_host = mini.net.add_node(mini.net.root(), "tracker");
  Ipv4Address tracker_addr{16, 255, 0, 50};
  TrackerServer tracker(tracker_host, tracker_addr, sim::Rng(3), 10);
  tracker.install(mini.net);

  // A NAT444 peer announces; the tracker must see its *external* endpoint.
  LineConfig lc;
  lc.with_cpe = true;
  lc.with_cgn = true;
  lc.cgn_hop = 3;
  lc.cpe.name = "cpe";
  lc.cpe.mapping = nat::MappingType::full_cone;
  lc.cgn.name = "cgn";
  lc.cgn.mapping = nat::MappingType::full_cone;
  auto line = mini.add_line(lc);

  sim::Rng rng(4);
  DhtNode peer(NodeId160::random(rng), Endpoint{line.device_address, 6881},
               line.device, {}, rng.fork());
  line.demux->bind(6881, [&](sim::Network& n, const sim::Packet& p) {
    peer.handle(n, p);
  });
  peer.announce(mini.net, tracker.endpoint(), 42);
  EXPECT_EQ(tracker.swarm_size(42), 1u);

  // A second (public) peer joining the same swarm learns the first peer's
  // external contact.
  LineConfig pub;
  pub.with_cpe = false;
  pub.line_public = Ipv4Address{16, 0, 7, 7};
  auto line2 = mini.add_line(pub, 77);
  DhtNode peer2(NodeId160::random(rng), Endpoint{line2.device_address, 6881},
                line2.device, {}, rng.fork());
  line2.demux->bind(6881, [&](sim::Network& n, const sim::Packet& p) {
    peer2.handle(n, p);
  });
  peer2.announce(mini.net, tracker.endpoint(), 42);
  ASSERT_EQ(peer2.table_size(), 1u);
  auto contacts = peer2.all_contacts();
  EXPECT_TRUE(line.cgn->owns_external(contacts[0].endpoint.address))
      << "the tracker must hand out the CGN-external endpoint, got "
      << contacts[0].endpoint.to_string();
}

/// The full §4.1 leak chain: two peers behind one CGN (with hairpinning that
/// preserves the internal source) end up knowing each other's *internal*
/// endpoints, validated, ready to leak to a crawler.
TEST(DhtLeakChain, HairpinPreservingCgnLeaksInternalEndpoints) {
  MiniNet mini;
  sim::NodeId tracker_host = mini.net.add_node(mini.net.root(), "tracker");
  Ipv4Address tracker_addr{16, 255, 0, 50};
  TrackerServer tracker(tracker_host, tracker_addr, sim::Rng(3), 10);
  tracker.install(mini.net);

  // One shared CGN; both subscribers are archetype B (no CPE).
  nat::NatConfig cgn_cfg;
  cgn_cfg.name = "cgn";
  cgn_cfg.mapping = nat::MappingType::full_cone;
  cgn_cfg.hairpinning = true;
  cgn_cfg.hairpin_preserve_source = true;
  cgn_cfg.udp_timeout_s = 120.0;

  LineConfig lc;
  lc.with_cpe = false;
  lc.with_cgn = true;
  lc.cgn = cgn_cfg;
  lc.cgn_hop = 3;
  lc.line_internal = Ipv4Address{100, 64, 1, 2};
  auto line_a = mini.add_line(lc, 1);

  // Second subscriber shares the first line's CGN.
  sim::NodeId acc = mini.net.add_router_chain(line_a.cgn_node, 2, "acc2");
  sim::NodeId dev_b = mini.net.add_node(acc, "dev-b");
  Ipv4Address addr_b{100, 64, 2, 2};
  mini.net.register_address(addr_b, dev_b, line_a.cgn_node);
  sim::PortDemux demux_b;
  demux_b.attach(mini.net, dev_b);

  sim::Rng rng(6);
  DhtNode peer_a(NodeId160::random(rng),
                 Endpoint{line_a.device_address, 6881}, line_a.device, {},
                 rng.fork());
  DhtNode peer_b(NodeId160::random(rng), Endpoint{addr_b, 6881}, dev_b, {},
                 rng.fork());
  line_a.demux->bind(6881, [&](sim::Network& n, const sim::Packet& p) {
    peer_a.handle(n, p);
  });
  demux_b.bind(6881, [&](sim::Network& n, const sim::Packet& p) {
    peer_b.handle(n, p);
  });

  // Both join the same swarm; B announces second, so B learns A's external
  // endpoint from the tracker.
  peer_a.announce(mini.net, tracker.endpoint(), 1);
  peer_b.announce(mini.net, tracker.endpoint(), 1);
  ASSERT_GE(peer_b.table_size(), 1u);

  // B validates A's external endpoint: the ping hairpins at the CGN and
  // reaches A with B's internal source preserved. (With immediate swarm
  // pings this already happened during the announce; maintenance only
  // finishes any remaining validation.)
  peer_b.run_maintenance(mini.net);
  EXPECT_GT(peer_a.table_size(), 0u);
  bool a_knows_b_internal = false;
  for (const auto& c : peer_a.all_contacts())
    if (c.endpoint.address == addr_b) a_knows_b_internal = true;
  EXPECT_TRUE(a_knows_b_internal)
      << "A must have observed B's internal endpoint via the hairpin";

  // A validates that internal endpoint with a direct internal ping.
  peer_a.run_maintenance(mini.net);
  EXPECT_TRUE(peer_a.knows_validated({peer_b.id(), {addr_b, 6881}}))
      << "the internal endpoint is reachable inside the ISP, so it validates";
}

/// Control experiment: with RFC-conformant hairpinning (source translated),
/// no internal endpoints leak.
TEST(DhtLeakChain, ConformantHairpinDoesNotLeak) {
  MiniNet mini;
  sim::NodeId tracker_host = mini.net.add_node(mini.net.root(), "tracker");
  TrackerServer tracker(tracker_host, Ipv4Address{16, 255, 0, 50},
                        sim::Rng(3), 10);
  tracker.install(mini.net);

  nat::NatConfig cgn_cfg;
  cgn_cfg.name = "cgn";
  cgn_cfg.mapping = nat::MappingType::full_cone;
  cgn_cfg.hairpinning = true;
  cgn_cfg.hairpin_preserve_source = false;  // correct behaviour

  LineConfig lc;
  lc.with_cpe = false;
  lc.with_cgn = true;
  lc.cgn = cgn_cfg;
  auto line_a = mini.add_line(lc, 1);
  sim::NodeId dev_b = mini.net.add_node(
      mini.net.add_router_chain(line_a.cgn_node, 2, "acc2"), "dev-b");
  Ipv4Address addr_b{10, 0, 2, 2};
  mini.net.register_address(addr_b, dev_b, line_a.cgn_node);
  sim::PortDemux demux_b;
  demux_b.attach(mini.net, dev_b);

  sim::Rng rng(6);
  DhtNode peer_a(NodeId160::random(rng),
                 Endpoint{line_a.device_address, 6881}, line_a.device, {},
                 rng.fork());
  DhtNode peer_b(NodeId160::random(rng), Endpoint{addr_b, 6881}, dev_b, {},
                 rng.fork());
  line_a.demux->bind(6881, [&](sim::Network& n, const sim::Packet& p) {
    peer_a.handle(n, p);
  });
  demux_b.bind(6881, [&](sim::Network& n, const sim::Packet& p) {
    peer_b.handle(n, p);
  });

  peer_a.announce(mini.net, tracker.endpoint(), 1);
  peer_b.announce(mini.net, tracker.endpoint(), 1);
  for (int i = 0; i < 3; ++i) {
    peer_a.run_maintenance(mini.net);
    peer_b.run_maintenance(mini.net);
  }
  for (const auto& c : peer_a.all_contacts())
    EXPECT_FALSE(netcore::is_reserved(c.endpoint.address))
        << "leaked " << c.endpoint.to_string();
  for (const auto& c : peer_b.all_contacts())
    EXPECT_FALSE(netcore::is_reserved(c.endpoint.address))
        << "leaked " << c.endpoint.to_string();
}

}  // namespace
}  // namespace cgn::dht
