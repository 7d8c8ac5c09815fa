#include "sim/network.hpp"

#include <algorithm>
#include <array>
#include <ostream>
#include <stdexcept>

#include "fault/fault.hpp"

namespace cgn::sim {

namespace {

/// Calls f(field, counter) for every NetworkStats field and the counter in
/// `h` that is its only store.
template <typename Handles, typename F>
void for_each_stat(const Handles& h, F&& f) {
  f(&NetworkStats::sent, h.sent);
  f(&NetworkStats::delivered, h.delivered);
  f(&NetworkStats::dropped_ttl, h.dropped_ttl);
  f(&NetworkStats::dropped_no_route, h.dropped_no_route);
  f(&NetworkStats::dropped_filtered, h.dropped_filtered);
  f(&NetworkStats::dropped_no_mapping, h.dropped_no_mapping);
  f(&NetworkStats::dropped_other, h.dropped_other);
  f(&NetworkStats::dropped_fault_loss, h.dropped_fault_loss);
  f(&NetworkStats::dropped_fault_unresponsive, h.dropped_fault_unresponsive);
  f(&NetworkStats::duplicated, h.duplicated);
}

}  // namespace

Network::ObsHandles Network::make_obs_handles() {
  // Bucket per hop count up to the kMaxHops ceiling; paths in the synthetic
  // Internet are short, so low buckets are exact.
  static const std::vector<double> kHopBounds{1, 2,  3,  4,  5,  6,  8,
                                              10, 12, 16, 20, 24, 32, 48};
  return ObsHandles{
      .sent = obs::counter("sim.net.sent"),
      .delivered = obs::counter("sim.net.delivered"),
      .dropped_ttl = obs::counter("sim.net.dropped.ttl_expired"),
      .dropped_no_route = obs::counter("sim.net.dropped.no_route"),
      .dropped_filtered = obs::counter("sim.net.dropped.filtered"),
      .dropped_no_mapping = obs::counter("sim.net.dropped.no_mapping"),
      .dropped_other = obs::counter("sim.net.dropped.other"),
      .dropped_fault_loss = obs::counter("sim.net.dropped.fault_loss"),
      .dropped_fault_unresponsive =
          obs::counter("sim.net.dropped.fault_unresponsive"),
      .duplicated = obs::counter("sim.net.duplicated"),
      .hops = obs::histogram("sim.net.hops", kHopBounds),
  };
}

std::string_view to_string(DropReason r) noexcept {
  switch (r) {
    case DropReason::none: return "none";
    case DropReason::ttl_expired: return "ttl_expired";
    case DropReason::no_route: return "no_route";
    case DropReason::filtered: return "filtered";
    case DropReason::no_mapping: return "no_mapping";
    case DropReason::mb_dropped: return "mb_dropped";
    case DropReason::hop_limit: return "hop_limit";
    case DropReason::fault_loss: return "fault_loss";
    case DropReason::fault_unresponsive: return "fault_unresponsive";
  }
  return "?";
}

Network::Network(Clock& clock) : clock_(&clock) {
  Node core;
  core.name = "core";
  nodes_.push_back(std::move(core));
  reset_stats();
}

NodeId Network::add_node(NodeId parent, std::string name) {
  if (parent >= nodes_.size()) throw std::out_of_range("bad parent node");
  Node node;
  node.name = std::move(name);
  node.parent = parent;
  node.depth = nodes_[parent].depth + 1;
  nodes_.push_back(std::move(node));
  return static_cast<NodeId>(nodes_.size() - 1);
}

NodeId Network::add_router_chain(NodeId parent, int count,
                                 const std::string& prefix) {
  NodeId node = parent;
  for (int i = 0; i < count; ++i)
    node = add_node(node, prefix + "-r" + std::to_string(i));
  return node;
}

void Network::set_middlebox(NodeId node, Middlebox* box) {
  nodes_.at(node).middlebox = box;
}

void Network::set_receiver(NodeId node, Receiver receiver) {
  nodes_.at(node).receiver = std::move(receiver);
}

void Network::register_address(netcore::Ipv4Address address, NodeId owner,
                               NodeId scope) {
  const int owner_depth = nodes_.at(owner).depth;
  if (scope >= nodes_.size() || nodes_[scope].depth >= owner_depth ||
      ancestor_at(owner, nodes_[scope].depth) != scope)
    throw std::invalid_argument("scope is not an ancestor of owner");
  if (owners_.insert_or_assign(index_key(scope, address), owner).second)
    ++nodes_[scope].scoped;
}

void Network::unregister_address(netcore::Ipv4Address address, NodeId owner,
                                 NodeId scope) {
  const std::uint64_t key = index_key(scope, address);
  auto it = owners_.find(key);
  if (it == owners_.end() || it->second != owner) return;
  owners_.erase(key);
  --nodes_[scope].scoped;
}

NodeId Network::parent(NodeId node) const { return nodes_.at(node).parent; }

NetworkStats Network::stats() const noexcept {
  NetworkStats s;
  for_each_stat(obs_, [&](auto field, const obs::Counter& c) {
    s.*field = c.value() - baseline_.*field;
  });
  return s;
}

void Network::reset_stats() noexcept {
  for_each_stat(obs_, [this](auto field, const obs::Counter& c) {
    baseline_.*field = c.value();
  });
}

NodeId Network::top_route(netcore::Ipv4Address address) const {
  auto it = owners_.find(index_key(root(), address));
  return it == owners_.end() ? kNoNode : ancestor_at(it->second, 1);
}

const std::string& Network::name(NodeId node) const {
  return nodes_.at(node).name;
}

int Network::path_hops(NodeId from, NodeId to) const {
  const int df = nodes_.at(from).depth;
  const int dt = nodes_.at(to).depth;
  NodeId a = ancestor_at(from, std::min(df, dt));
  NodeId b = ancestor_at(to, std::min(df, dt));
  while (a != b) {
    a = nodes_[a].parent;
    b = nodes_[b].parent;
  }
  return df + dt - 2 * nodes_[a].depth - 1;
}

Network::Target Network::resolve_up(NodeId start,
                                    netcore::Ipv4Address a) const {
  // The climb from start, by levels above it. A packet stops after
  // kMaxHops hops, so no node higher than that can turn it.
  std::array<NodeId, kMaxHops> climb;
  int levels = 0;
  const int start_depth = start == kNoNode ? 0 : nodes_[start].depth;
  Target best;
  int best_depth = -1;
  for (NodeId scope = start; scope != kNoNode; scope = nodes_[scope].parent) {
    if (levels < kMaxHops) climb[levels++] = scope;
    if (nodes_[scope].scoped == 0) continue;
    auto it = owners_.find(index_key(scope, a));
    if (it == owners_.end()) continue;
    // The owner's lowest ancestor-or-self on the climb: where the packet
    // reaches it or turns down toward it.
    NodeId turn = ancestor_at(it->second, start_depth);
    int level = start_depth - nodes_[turn].depth;
    while (level < levels && climb[level] != turn) {
      turn = nodes_[turn].parent;
      ++level;
    }
    // On a tie, a node that owns `a` also has `a` registered at itself as
    // scope; that lower scope is found first and wins, so the packet
    // descends there rather than hairpins.
    if (level < levels && nodes_[turn].depth > best_depth) {
      best_depth = nodes_[turn].depth;
      best = {it->second, turn};
    }
  }
  return best;
}

NodeId Network::resolve_down(NodeId node, netcore::Ipv4Address a) const {
  const int depth = nodes_[node].depth;
  for (NodeId scope = node; scope != kNoNode; scope = nodes_[scope].parent) {
    if (nodes_[scope].scoped == 0) continue;
    auto it = owners_.find(index_key(scope, a));
    if (it == owners_.end()) continue;
    const NodeId owner = it->second;
    if (nodes_[owner].depth > depth && ancestor_at(owner, depth) == node)
      return owner;
  }
  return kNoNode;
}

DropReason Network::to_drop_reason(Middlebox::Verdict v) noexcept {
  switch (v) {
    case Middlebox::Verdict::forward: return DropReason::none;
    case Middlebox::Verdict::drop_filtered: return DropReason::filtered;
    case Middlebox::Verdict::drop_no_mapping: return DropReason::no_mapping;
    case Middlebox::Verdict::drop_other: return DropReason::mb_dropped;
  }
  return DropReason::mb_dropped;
}

DeliveryResult Network::finish(DeliveryResult r) {
  switch (r.reason) {
    case DropReason::none:
      obs_.delivered.inc();
      obs_.hops.observe_small(static_cast<std::uint32_t>(r.hops));
      break;
    case DropReason::ttl_expired:
      obs_.dropped_ttl.inc();
      break;
    case DropReason::no_route:
      obs_.dropped_no_route.inc();
      break;
    case DropReason::filtered:
      obs_.dropped_filtered.inc();
      break;
    case DropReason::no_mapping:
      obs_.dropped_no_mapping.inc();
      break;
    case DropReason::fault_loss:
      obs_.dropped_fault_loss.inc();
      break;
    case DropReason::fault_unresponsive:
      obs_.dropped_fault_unresponsive.inc();
      break;
    default:
      obs_.dropped_other.inc();
      break;
  }
  trace_event(r.delivered ? TraceKind::delivered : TraceKind::dropped,
              r.final_node, r.hops, static_cast<std::uint8_t>(r.reason));
  return r;
}

DeliveryResult Network::deliver_at(NodeId node, Packet& pkt, int hops) {
  // An injected-unresponsive endpoint receives nothing: the NAT state along
  // the path was still created/refreshed (the packet really travelled), but
  // the application never answers — a deaf BitTorrent peer.
  if (faults_ && faults_->unresponsive(node, pkt.dst.port))
    return finish({.reason = DropReason::fault_unresponsive,
                   .hops = hops,
                   .final_node = node});
  if (nodes_[node].receiver) {
    nodes_[node].receiver(*this, pkt);
    // Injected duplication: the receiver sees the same datagram twice, as
    // after a spurious link-layer retransmission.
    if (faults_ && faults_->duplicate_delivery()) {
      obs_.duplicated.inc();
      nodes_[node].receiver(*this, pkt);
    }
  }
  return finish({.delivered = true,
                 .reason = DropReason::none,
                 .hops = hops,
                 .final_node = node});
}

DeliveryResult Network::send(Packet pkt, NodeId from) {
  obs_.sent.inc();
  const SimTime now = clock().now();
  int hops = 0;
  NodeId node = nodes_.at(from).parent;
  Target target = resolve_up(node, pkt.dst.address);
  // Ascent: walk from the sender toward the core until the packet reaches
  // the destination's owner or the node where it turns down toward it.
  while (node != kNoNode) {
    if (++hops > kMaxHops)
      return finish({.reason = DropReason::hop_limit, .final_node = node});
    Node& n = nodes_[node];
    pkt.ttl -= 1;
    trace_event(TraceKind::hop, node, pkt.ttl, 0);
    // Injected loss models the wire into this node: upstream NAT state was
    // already refreshed, this hop and everything past it sees nothing.
    if (faults_ && faults_->drop_at_hop())
      return finish({.reason = DropReason::fault_loss,
                     .hops = hops,
                     .final_node = node});
    const bool owner_here = node == target.owner;
    if (owner_here && !n.middlebox) return deliver_at(node, pkt, hops);
    if (pkt.ttl <= 0)
      return finish({.reason = DropReason::ttl_expired,
                     .hops = hops,
                     .final_node = node});
    if (node == target.turn && !owner_here)
      return descend(target.owner, node, pkt, hops);
    if (owner_here) {
      auto verdict = n.middlebox->process_hairpin(pkt, now);
      trace_event(TraceKind::middlebox, node, pkt.ttl,
                  static_cast<std::uint8_t>(verdict));
      if (verdict != Middlebox::Verdict::forward)
        return finish({.reason = to_drop_reason(verdict),
                       .hops = hops,
                       .final_node = node});
      // Hairpin processing rewrites pkt.dst to an inside endpoint.
      const NodeId owner = resolve_down(node, pkt.dst.address);
      if (owner == kNoNode)
        return finish({.reason = DropReason::no_route,
                       .hops = hops,
                       .final_node = node});
      return descend(owner, node, pkt, hops);
    }
    if (n.middlebox) {
      const netcore::Ipv4Address dst = pkt.dst.address;
      auto verdict = n.middlebox->process_outbound(pkt, now);
      trace_event(TraceKind::middlebox, node, pkt.ttl,
                  static_cast<std::uint8_t>(verdict));
      if (verdict != Middlebox::Verdict::forward)
        return finish({.reason = to_drop_reason(verdict),
                       .hops = hops,
                       .final_node = node});
      // A NAT64 takes the destination out of the v6 overlay.
      if (pkt.dst.address != dst)
        target = resolve_up(n.parent, pkt.dst.address);
    }
    if (n.parent == kNoNode)
      return finish({.reason = DropReason::no_route,
                     .hops = hops,
                     .final_node = node});
    node = n.parent;
  }
  return finish({.reason = DropReason::no_route, .hops = hops});
}

DeliveryResult Network::descend(NodeId owner, NodeId turn, Packet& pkt,
                                int hops) {
  const SimTime now = clock().now();
  NodeId node = ancestor_at(owner, nodes_[turn].depth + 1);
  while (true) {
    if (++hops > kMaxHops)
      return finish({.reason = DropReason::hop_limit, .final_node = node});
    Node& n = nodes_[node];
    pkt.ttl -= 1;
    trace_event(TraceKind::hop, node, pkt.ttl, 0);
    if (faults_ && faults_->drop_at_hop())
      return finish({.reason = DropReason::fault_loss,
                     .hops = hops,
                     .final_node = node});
    // A middlebox owning the destination translates it inward — but only if
    // the packet still has TTL budget to be forwarded; a probe that expires
    // here dies without refreshing the NAT's mapping, which is exactly what
    // the TTL-driven enumeration test exploits.
    if (node == owner && n.middlebox) {
      if (pkt.ttl <= 0)
        return finish({.reason = DropReason::ttl_expired,
                       .hops = hops,
                       .final_node = node});
      auto verdict = n.middlebox->process_inbound(pkt, now);
      trace_event(TraceKind::middlebox, node, pkt.ttl,
                  static_cast<std::uint8_t>(verdict));
      if (verdict != Middlebox::Verdict::forward)
        return finish({.reason = to_drop_reason(verdict),
                       .hops = hops,
                       .final_node = node});
      // Inbound translation rewrote pkt.dst to an inside endpoint.
      owner = resolve_down(node, pkt.dst.address);
    }
    if (node == owner) return deliver_at(node, pkt, hops);
    if (pkt.ttl <= 0)
      return finish({.reason = DropReason::ttl_expired,
                     .hops = hops,
                     .final_node = node});
    if (owner == kNoNode)
      return finish({.reason = DropReason::no_route,
                     .hops = hops,
                     .final_node = node});
    node = ancestor_at(owner, n.depth + 1);
  }
}

void Network::dump_trace(std::ostream& os, const obs::TraceRing& ring) const {
  auto verdict_name = [](std::uint8_t code) -> std::string_view {
    switch (static_cast<Middlebox::Verdict>(code)) {
      case Middlebox::Verdict::forward: return "forward";
      case Middlebox::Verdict::drop_filtered: return "drop_filtered";
      case Middlebox::Verdict::drop_no_mapping: return "drop_no_mapping";
      case Middlebox::Verdict::drop_other: return "drop_other";
    }
    return "?";
  };
  auto node_name = [this](std::uint32_t node) -> std::string_view {
    return node < nodes_.size() ? std::string_view(nodes_[node].name)
                                : std::string_view("<none>");
  };
  // Per-thread scratch: repeated dumps (TTL enumeration reports snapshot the
  // ring per probe) reuse the warmed-up buffer instead of allocating.
  static thread_local std::vector<obs::TraceEvent> scratch;
  ring.events_into(scratch);
  for (const obs::TraceEvent& e : scratch) {
    os << "[t=" << e.time << "] ";
    switch (static_cast<TraceKind>(e.kind)) {
      case TraceKind::hop:
        os << "hop       " << node_name(e.node) << " ttl=" << e.ttl;
        break;
      case TraceKind::middlebox:
        os << "middlebox " << node_name(e.node) << " ttl=" << e.ttl << " -> "
           << verdict_name(e.code);
        break;
      case TraceKind::delivered:
        os << "delivered " << node_name(e.node) << " hops=" << e.ttl;
        break;
      case TraceKind::dropped:
        os << "dropped   " << node_name(e.node) << " hops=" << e.ttl
           << " reason=" << to_string(static_cast<DropReason>(e.code));
        break;
      default:
        os << "event kind=" << int(e.kind) << " node=" << e.node;
        break;
    }
    os << '\n';
  }
}

}  // namespace cgn::sim
