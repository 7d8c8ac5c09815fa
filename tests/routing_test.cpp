// Routing by owner in sim::Network: alternating destinations each reach
// their own host, an unregistered address stops routing at once and can be
// re-registered elsewhere, NAT restarts (which do not touch routes) keep
// translating correctly, and every delivery in random CPE/CGN/NAT64/DS-Lite
// worlds matches a reference model of the per-node walk.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "nat/nat_device.hpp"
#include "netcore/ipv6.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "test_topology.hpp"
#include "v6/translator.hpp"

namespace cgn::sim {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;

struct ThreeHosts {
  Clock clock;
  Network net{clock};
  NodeId sender, a, b;
  Ipv4Address addr_s{16, 0, 0, 1};
  Ipv4Address addr_a{16, 0, 0, 2};
  Ipv4Address addr_b{16, 0, 0, 3};
  std::vector<Packet> received_a, received_b;

  ThreeHosts() {
    NodeId rs = net.add_router_chain(net.root(), 2, "s");
    NodeId ra = net.add_router_chain(net.root(), 2, "a");
    NodeId rb = net.add_router_chain(net.root(), 2, "b");
    sender = net.add_node(rs, "sender");
    a = net.add_node(ra, "host-a");
    b = net.add_node(rb, "host-b");
    net.register_address(addr_s, sender, net.root());
    net.register_address(addr_a, a, net.root());
    net.register_address(addr_b, b, net.root());
    net.bind(a, 2, [this](Network&, const Packet& p) {
      received_a.push_back(p);
    });
    net.bind(b, 2, [this](Network&, const Packet& p) {
      received_b.push_back(p);
    });
  }
};

TEST(Routing, AlternatingDestinationsStayCorrect) {
  ThreeHosts w;
  // Alternating destinations share the core node; every delivery must
  // still land on the right host.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender)
            .delivered);
    EXPECT_TRUE(
        w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_b, 2}), w.sender)
            .delivered);
  }
  EXPECT_EQ(w.received_a.size(), 4u);
  EXPECT_EQ(w.received_b.size(), 4u);
}

TEST(Routing, UnregisterDoesNotServeStaleRoute) {
  ThreeHosts w;
  // Deliver toward host a twice before the move.
  ASSERT_TRUE(
      w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender)
          .delivered);
  ASSERT_TRUE(
      w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender)
          .delivered);
  // Routing for addr_a moves to host b (renumbering-style move): once
  // unregistered, nothing routes to host a.
  w.net.unregister_address(w.addr_a, w.a, w.net.root());
  auto dropped =
      w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender);
  EXPECT_FALSE(dropped.delivered);
  EXPECT_EQ(dropped.reason, DropReason::no_route);

  w.net.register_address(w.addr_a, w.b, w.net.root());
  auto moved =
      w.net.send(Packet::udp({w.addr_s, 1}, {w.addr_a, 2}), w.sender);
  EXPECT_TRUE(moved.delivered);
  EXPECT_EQ(w.received_a.size(), 2u);  // nothing more arrived at host a
  ASSERT_EQ(w.received_b.size(), 1u);  // the moved address delivers at b
}

TEST(Routing, NatRestartKeepsTranslationCorrect) {
  test::MiniNet world;
  test::LineConfig cfg;
  cfg.with_cpe = true;
  cfg.with_cgn = true;
  auto line = world.add_line(cfg);
  std::vector<Packet> at_server;
  Endpoint device_ep{line.device_address, 4000};
  Endpoint server_ep{world.server_address, 5000};
  world.net.bind(world.server_host, server_ep.port,
                 [&](Network&, const Packet& p) { at_server.push_back(p); });
  ASSERT_TRUE(world.net.send(Packet::udp(device_ep, server_ep), line.device)
                  .delivered);
  ASSERT_TRUE(world.net.send(Packet::udp(device_ep, server_ep), line.device)
                  .delivered);
  ASSERT_EQ(at_server.size(), 2u);
  const Endpoint external_before = at_server.back().src;

  // A reply to the mapped endpoint descends to the device.
  ASSERT_TRUE(
      world.net.send(Packet::udp(server_ep, external_before),
                     world.server_host)
          .delivered);

  // Reboot the CGN: all mappings flush, but routes are untouched — the
  // next outbound packet must allocate a fresh mapping and still reach the
  // server, and the dead external endpoint must now be dropped as
  // no_mapping rather than mis-delivered.
  line.cgn->reset_state(world.clock.now());
  auto after = world.net.send(Packet::udp(device_ep, server_ep), line.device);
  EXPECT_TRUE(after.delivered);
  ASSERT_EQ(at_server.size(), 3u);

  auto stale = world.net.send(Packet::udp(server_ep, external_before),
                              world.server_host);
  Endpoint external_after = at_server.back().src;
  if (external_after == external_before) {
    // The fresh mapping may legitimately reuse the same external endpoint;
    // then the reply simply reaches the device again.
    EXPECT_TRUE(stale.delivered);
  } else {
    EXPECT_FALSE(stale.delivered);
    EXPECT_EQ(stale.reason, DropReason::no_mapping);
  }
}

// --- reference model ---------------------------------------------------------

// The per-node walk that routing by owner replaced, kept as a reference:
// every node between an owner and its scope stores a down route to its
// child (the last registration wins), a host claims the addresses
// registered to it, and a middlebox claims its own external addresses.
// Topology stays the base class's; routing and receivers are the model's.
class ReferenceNet : public Network {
 public:
  explicit ReferenceNet(Clock& clock) : Network(clock) {}

  void set_middlebox(NodeId node, nat::NatDevice* nat) {
    boxes_[node] = {nat, [nat](Ipv4Address a) {
                      return nat->owns_external(a);
                    }};
  }
  void set_middlebox(NodeId node, v6::Nat64Device* t) {
    boxes_[node] = {t, [t](Ipv4Address a) {
                      return t->core().owns_external(a);
                    }};
  }
  void set_middlebox(NodeId node, v6::DsLiteAftr* t) {
    boxes_[node] = {t, [t](Ipv4Address a) {
                      return t->core().owns_external(a);
                    }};
  }
  /// B4, CLAT and host-stack elements: their external address is the one
  /// underlay MiniNet registers to their node.
  void set_middlebox(NodeId node, Middlebox* box) {
    boxes_[node] = {box, [this, node](Ipv4Address a) {
                      return claims_.contains({node, a});
                    }};
  }
  void bind(NodeId host, std::uint16_t port, Receiver receiver) {
    receivers_[{host, port}] = std::move(receiver);
  }

  void register_address(Ipv4Address a, NodeId owner, NodeId scope) {
    NodeId child = owner;
    for (NodeId node = parent(owner); node != kNoNode;
         child = node, node = parent(node)) {
      routes_[{node, a}] = child;
      if (node == scope) break;
    }
    claims_.insert({owner, a});
  }
  void unregister_address(Ipv4Address a, NodeId owner, NodeId scope) {
    for (NodeId node = parent(owner); node != kNoNode; node = parent(node)) {
      routes_.erase({node, a});
      if (node == scope) break;
    }
  }
  [[nodiscard]] NodeId top_route(Ipv4Address a) const {
    return route(root(), a);
  }

  DeliveryResult send(Packet pkt, NodeId from) {
    int hops = 0;
    NodeId node = parent(from);
    while (node != kNoNode) {
      if (++hops > kHopLimit)
        return {.reason = DropReason::hop_limit, .final_node = node};
      pkt.ttl -= 1;
      Middlebox* box = box_at(node);
      if (owns_local(node, pkt.dst.address)) return deliver(node, pkt, hops);
      if (pkt.ttl <= 0) return drop(DropReason::ttl_expired, hops, node);
      if (NodeId next = route(node, pkt.dst.address); next != kNoNode)
        return descend(next, pkt, hops);
      if (box && owns_external(node, pkt.dst.address)) {
        auto v = box->process_hairpin(pkt, now());
        if (v != Middlebox::Verdict::forward) return drop(v, hops, node);
        NodeId next = route(node, pkt.dst.address);
        if (next == kNoNode) return drop(DropReason::no_route, hops, node);
        return descend(next, pkt, hops);
      }
      if (box) {
        auto v = box->process_outbound(pkt, now());
        if (v != Middlebox::Verdict::forward) return drop(v, hops, node);
      }
      if (parent(node) == kNoNode)
        return drop(DropReason::no_route, hops, node);
      node = parent(node);
    }
    return {.reason = DropReason::no_route, .hops = hops};
  }

 private:
  static constexpr int kHopLimit = 64;

  struct Box {
    Middlebox* box = nullptr;
    std::function<bool(Ipv4Address)> owns_external;
  };

  DeliveryResult descend(NodeId node, Packet& pkt, int hops) {
    while (true) {
      if (++hops > kHopLimit)
        return {.reason = DropReason::hop_limit, .final_node = node};
      pkt.ttl -= 1;
      if (Middlebox* box = box_at(node);
          box && owns_external(node, pkt.dst.address)) {
        if (pkt.ttl <= 0) return drop(DropReason::ttl_expired, hops, node);
        auto v = box->process_inbound(pkt, now());
        if (v != Middlebox::Verdict::forward) return drop(v, hops, node);
      }
      if (owns_local(node, pkt.dst.address)) return deliver(node, pkt, hops);
      if (pkt.ttl <= 0) return drop(DropReason::ttl_expired, hops, node);
      NodeId next = route(node, pkt.dst.address);
      if (next == kNoNode) return drop(DropReason::no_route, hops, node);
      node = next;
    }
  }

  DeliveryResult deliver(NodeId node, const Packet& pkt, int hops) {
    if (auto it = receivers_.find({node, pkt.dst.port});
        it != receivers_.end())
      it->second(*this, pkt);
    return {.delivered = true, .hops = hops, .final_node = node};
  }
  static DeliveryResult drop(DropReason reason, int hops, NodeId node) {
    return {.reason = reason, .hops = hops, .final_node = node};
  }
  static DeliveryResult drop(Middlebox::Verdict v, int hops, NodeId node) {
    switch (v) {
      case Middlebox::Verdict::drop_filtered:
        return drop(DropReason::filtered, hops, node);
      case Middlebox::Verdict::drop_no_mapping:
        return drop(DropReason::no_mapping, hops, node);
      default:
        return drop(DropReason::mb_dropped, hops, node);
    }
  }

  [[nodiscard]] SimTime now() const { return clock().now(); }
  [[nodiscard]] Middlebox* box_at(NodeId node) const {
    auto it = boxes_.find(node);
    return it == boxes_.end() ? nullptr : it->second.box;
  }
  [[nodiscard]] bool owns_local(NodeId node, Ipv4Address a) const {
    return !box_at(node) && claims_.contains({node, a});
  }
  [[nodiscard]] bool owns_external(NodeId node, Ipv4Address a) const {
    return boxes_.at(node).owns_external(a);
  }
  [[nodiscard]] NodeId route(NodeId node, Ipv4Address a) const {
    auto it = routes_.find({node, a});
    return it == routes_.end() ? kNoNode : it->second;
  }

  std::map<std::pair<NodeId, Ipv4Address>, NodeId> routes_;
  std::set<std::pair<NodeId, Ipv4Address>> claims_;
  std::map<NodeId, Box> boxes_;
  std::map<std::pair<NodeId, std::uint16_t>, Receiver> receivers_;
};

/// One random small world: MiniNet lines of every kind plus extra hosts
/// behind shared CGNs and CPEs, a catcher on every host, and the addresses
/// worth sending to. Built identically from the same seed for any `Net`.
template <class Net>
struct RandomWorld {
  struct Host {
    NodeId node;
    Ipv4Address address;
  };
  struct PublicCpe {
    nat::NatDevice* cpe;
    NodeId node;
  };

  test::BasicMiniNet<Net> mini;
  std::vector<Host> hosts;
  std::vector<Ipv4Address> addresses;
  std::vector<PublicCpe> renumberable;
  std::vector<nat::NatDevice*> nats;
  std::vector<std::vector<Packet>> seen;

  explicit RandomWorld(std::uint64_t seed) {
    Rng rng(seed);
    auto& net = mini.net;
    add_host(mini.server_host, mini.server_address);
    auto nat_config = [&rng] {
      nat::NatConfig cfg;
      cfg.mapping = static_cast<nat::MappingType>(rng.index(4));
      cfg.port_allocation = static_cast<nat::PortAllocation>(rng.index(3));
      cfg.pooling = static_cast<nat::Pooling>(rng.index(2));
      cfg.hairpinning = rng.chance(0.8);
      cfg.hairpin_preserve_source = rng.chance(0.3);
      cfg.udp_timeout_s = static_cast<double>(rng.uniform(30, 200));
      return cfg;
    };

    const int v4_lines = 3 + static_cast<int>(rng.index(4));
    for (int i = 0; i < v4_lines; ++i) {
      test::LineConfig cfg;
      cfg.with_cpe = rng.chance(0.7);
      cfg.with_cgn = rng.chance(0.6);
      cfg.cgn_hop = 2 + static_cast<int>(rng.index(3));
      cfg.cpe = nat_config();
      cfg.cgn = nat_config();
      cfg.cgn_pool_size = 1 + static_cast<int>(rng.index(3));
      // Internal and home addresses repeat across lines, in disjoint scopes.
      cfg.line_internal = Ipv4Address(10, 0, rng.chance(0.5) ? 1 : 2, 2);
      cfg.line_public = Ipv4Address(16, 0, static_cast<std::uint8_t>(i), 2);
      cfg.device_address =
          rng.chance(0.7) ? Ipv4Address(192, 168, 1, 2) : cfg.line_internal;
      auto line = mini.add_line(cfg, rng.uniform(1, 1000));
      add_host(line.device, line.device_address);
      if (line.cpe) {
        nats.push_back(line.cpe);
        addresses.push_back(line.cpe->external_pool().front());
        if (!line.cgn) renumberable.push_back({line.cpe, line.cpe_node});
        if (rng.chance(0.5)) {  // a second device on the home LAN
          NodeId dev = net.add_node(line.cpe_node, "lan2");
          Ipv4Address a(cfg.device_address.value() + 1);
          net.register_address(a, dev, line.cpe_node);
          add_host(dev, a);
        }
      }
      if (line.cgn) {
        nats.push_back(line.cgn);
        for (auto a : line.cgn->external_pool()) addresses.push_back(a);
        // More subscribers behind the same CGN, so hairpins can happen.
        const int extra = static_cast<int>(rng.index(3));
        for (int k = 0; k < extra; ++k) {
          NodeId acc = net.add_router_chain(
              line.cgn_node, 1 + static_cast<int>(rng.index(2)), "acc");
          NodeId dev = net.add_node(acc, "sub");
          const Ipv4Address a(10, 0, 9, static_cast<std::uint8_t>(2 + k));
          net.register_address(a, dev, line.cgn_node);
          add_host(dev, a);
        }
      }
    }

    const auto pref64 = netcore::Ipv6Prefix::parse("64:ff9b::/96");
    mini.ensure_nat64(pref64, nat_config());
    nats.push_back(&mini.nat64->core());
    for (auto a : mini.nat64->core().external_pool()) addresses.push_back(a);
    const int nat64_lines = 1 + static_cast<int>(rng.index(3));
    for (int i = 0; i < nat64_lines; ++i) {
      auto line = mini.add_nat64_line(rng.chance(0.5));
      if (line.stack) {
        const auto aaaa = netcore::pref64_embed(pref64, mini.server_address);
        line.stack->note_resolved(mini.server_address, aaaa);
        // A name whose AAAA embeds another address: the NAT64 rewrites dst.
        line.stack->note_resolved(kAlias, aaaa);
      }
      add_host(line.device, line.device_address);
      addresses.push_back(line.underlay);
    }
    mini.ensure_aftr(nat_config());
    nats.push_back(&mini.aftr->core());
    for (auto a : mini.aftr->core().external_pool()) addresses.push_back(a);
    const int dslite_lines = 1 + static_cast<int>(rng.index(3));
    for (int i = 0; i < dslite_lines; ++i) {
      auto line = mini.add_dslite_line(rng.chance(0.5)
                                           ? Ipv4Address(10, 0, 0, 1)
                                           : Ipv4Address(192, 168, 1, 2));
      add_host(line.device, line.device_address);
      addresses.push_back(line.underlay);
    }
    addresses.push_back(Ipv4Address(203, 0, 113, 7));  // unrouted
    addresses.push_back(kAlias);
  }

  static constexpr Ipv4Address kAlias{198, 51, 100, 1};  // unrouted too
  /// Every host listens on these ports, and all traffic is sent from them.
  static constexpr std::uint16_t kPorts[] = {4000, 4001, 4002};

  void add_host(NodeId node, Ipv4Address address) {
    const std::size_t i = hosts.size();
    hosts.push_back({node, address});
    addresses.push_back(address);
    seen.emplace_back();
    for (std::uint16_t port : kPorts)
      mini.net.bind(node, port, [this, i](Network&, const Packet& p) {
        seen[i].push_back(p);
      });
  }
};

bool same_packet(const Packet& a, const Packet& b) {
  return a.proto == b.proto && a.src == b.src && a.dst == b.dst &&
         a.ttl == b.ttl && a.v6.present == b.v6.present &&
         a.v6.src == b.v6.src && a.v6.dst == b.v6.dst &&
         a.v6.inner == b.v6.inner;
}

bool same_stats(const nat::NatStats& a, const nat::NatStats& b) {
  return a.mappings_created == b.mappings_created &&
         a.mappings_expired == b.mappings_expired &&
         a.outbound_translated == b.outbound_translated &&
         a.inbound_translated == b.inbound_translated &&
         a.inbound_filtered == b.inbound_filtered &&
         a.inbound_no_mapping == b.inbound_no_mapping &&
         a.hairpins_forwarded == b.hairpins_forwarded &&
         a.hairpins_dropped == b.hairpins_dropped &&
         a.port_exhaustion_drops == b.port_exhaustion_drops;
}

/// Drives the same random traffic through a world routed by Network and
/// an identical one routed by the reference walk, comparing after every
/// send.
class RoutingDifferential {
 public:
  explicit RoutingDifferential(std::uint64_t seed)
      : rng_(seed * 7919 + 1), real_(seed), model_(seed) {}

  /// One random action: a send (and, when it is delivered, the same packet
  /// again at every TTL from 1 to its hop count) or a CPE renumbering.
  void step() {
    const double dt = static_cast<double>(rng_.uniform(0, 40));
    real_.mini.clock.advance(dt);
    model_.mini.clock.advance(dt);
    if (!real_.renumberable.empty() && rng_.chance(0.03)) {
      renumber(rng_.index(real_.renumberable.size()));
      return;
    }
    const std::size_t from = rng_.index(real_.hosts.size());
    Packet pkt = Packet::udp(
        {real_.hosts[from].address,
         RandomWorld<Network>::kPorts[rng_.index(3)]},
        pick_destination());
    const DeliveryResult r = send(pkt, from);
    if (!r.delivered) return;
    for (int ttl = 1; ttl <= r.hops; ++ttl) {
      pkt.ttl = ttl;
      send(pkt, from);
    }
  }

  [[nodiscard]] const std::map<DropReason, int>& outcomes() const {
    return outcomes_;
  }
  [[nodiscard]] int renumbered() const { return renumbered_; }
  /// Deliveries per address, counted once per distinct receiving node.
  [[nodiscard]] int addresses_delivered_at_two_nodes() const {
    int n = 0;
    std::map<Ipv4Address, std::set<NodeId>> at;
    for (const auto& [a, node] : delivered_at_) at[a].insert(node);
    for (const auto& [a, nodes] : at) n += nodes.size() > 1 ? 1 : 0;
    return n;
  }
  [[nodiscard]] std::uint64_t hairpins() const {
    std::uint64_t n = 0;
    for (auto* nat : real_.nats) n += nat->stats().hairpins_forwarded;
    return n;
  }

 private:
  netcore::Endpoint pick_destination() {
    const auto port = RandomWorld<Network>::kPorts[rng_.index(3)];
    const double u = rng_.uniform01();
    // An endpoint a host saw, often a mapping on some NAT: the server's
    // view first (hairpins when sender and mapping share a NAT).
    if (u < 0.45) {
      const std::size_t h = u < 0.3 ? 0 : rng_.index(real_.hosts.size());
      if (!real_.seen[h].empty()) return rng_.pick(real_.seen[h]).src;
    }
    if (u < 0.6) return {real_.mini.server_address, port};
    return {rng_.pick(real_.addresses), port};
  }

  DeliveryResult send(const Packet& pkt, std::size_t from) {
    const DeliveryResult a = real_.mini.net.send(pkt, real_.hosts[from].node);
    const DeliveryResult b =
        model_.mini.net.send(pkt, model_.hosts[from].node);
    SCOPED_TRACE(testing::Message()
                 << "from " << real_.hosts[from].address.to_string() << " to "
                 << pkt.dst.address.to_string() << ":" << pkt.dst.port
                 << " ttl " << pkt.ttl);
    EXPECT_EQ(a.delivered, b.delivered);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(a.hops, b.hops);
    EXPECT_EQ(a.final_node, b.final_node);
    EXPECT_EQ(real_.mini.net.top_route(pkt.dst.address),
              model_.mini.net.top_route(pkt.dst.address));
    for (std::size_t h = 0; h < real_.hosts.size(); ++h) {
      EXPECT_EQ(real_.seen[h].size(), model_.seen[h].size()) << "host " << h;
      if (!real_.seen[h].empty() && !model_.seen[h].empty()) {
        EXPECT_TRUE(same_packet(real_.seen[h].back(), model_.seen[h].back()))
            << "host " << h;
      }
    }
    for (std::size_t n = 0; n < real_.nats.size(); ++n)
      EXPECT_TRUE(
          same_stats(real_.nats[n]->stats(), model_.nats[n]->stats()))
          << "nat " << n;
    ++outcomes_[a.reason];
    if (a.delivered) delivered_at_.insert({pkt.dst.address, a.final_node});
    return a;
  }

  void renumber(std::size_t i) {
    const Ipv4Address fresh(16, 200, 0,
                            static_cast<std::uint8_t>(++renumbered_));
    auto apply = [&](auto& world) {
      auto& line = world.renumberable[i];
      const Ipv4Address old = line.cpe->external_pool().front();
      ASSERT_TRUE(line.cpe->renumber_external(old, fresh));
      world.mini.net.unregister_address(old, line.node, world.mini.net.root());
      world.mini.net.register_address(fresh, line.node, world.mini.net.root());
    };
    apply(real_);
    apply(model_);
  }

  Rng rng_;
  RandomWorld<Network> real_;
  RandomWorld<ReferenceNet> model_;
  std::map<DropReason, int> outcomes_;
  std::set<std::pair<Ipv4Address, NodeId>> delivered_at_;
  int renumbered_ = 0;
};

TEST(Routing, MatchesReferenceModelOverRandomWorlds) {
  std::map<DropReason, int> outcomes;
  int renumbered = 0, shared_addresses = 0;
  std::uint64_t hairpins = 0;
  for (std::uint64_t seed = 1; seed <= 16; ++seed) {
    SCOPED_TRACE(seed);
    RoutingDifferential run(seed);
    for (int step = 0; step < 250; ++step) {
      run.step();
      if (::testing::Test::HasFailure()) return;
    }
    for (const auto& [reason, n] : run.outcomes()) outcomes[reason] += n;
    renumbered += run.renumbered();
    shared_addresses += run.addresses_delivered_at_two_nodes();
    hairpins += run.hairpins();
  }
  // The traffic reached every branch of the walk.
  EXPECT_GT(outcomes[DropReason::none], 0);
  EXPECT_GT(outcomes[DropReason::ttl_expired], 0);
  EXPECT_GT(outcomes[DropReason::no_route], 0);
  EXPECT_GT(outcomes[DropReason::filtered], 0);
  EXPECT_GT(outcomes[DropReason::no_mapping], 0);
  EXPECT_GT(outcomes[DropReason::mb_dropped], 0);
  EXPECT_GT(hairpins, 0u);
  EXPECT_GT(renumbered, 0);
  // One address delivered at two different nodes: disjoint scopes.
  EXPECT_GT(shared_addresses, 0);
}

}  // namespace
}  // namespace cgn::sim
