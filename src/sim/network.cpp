#include "sim/network.hpp"

#include <algorithm>
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

/// Orders an address's registrations (Network::Registration) by scope.
constexpr auto by_scope = [](const auto& registration, NodeId scope) {
  return registration.scope < scope;
};

}  // namespace

Network::ObsHandles Network::make_obs_handles() {
  // Bucket per hop count up to the kMaxHops ceiling; paths in the synthetic
  // Internet are short, so low buckets are exact.
  static const std::vector<double> kHopBounds{1, 2,  3,  4,  5,  6,  8,
                                              10, 12, 16, 20, 24, 32, 48};
  return ObsHandles{
      .sent = obs::counter("sim.net.sent"),
      .delivered = obs::counter("sim.net.delivered"),
      .delivered_unbound = obs::counter("sim.net.delivered_unbound"),
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

void Network::bind(NodeId host, std::uint16_t port, Receiver receiver) {
  nodes_.at(host).ports.insert_or_assign(port, std::move(receiver));
}

void Network::unbind(NodeId host, std::uint16_t port) {
  auto& ports = nodes_.at(host).ports;
  // Free an emptied table: most hosts bind only for one session.
  if (ports.erase(port) != 0 && ports.empty()) ports = {};
}

void Network::register_address(netcore::Ipv4Address address, NodeId owner,
                               NodeId scope) {
  const int owner_depth = nodes_.at(owner).depth;
  if (scope >= nodes_.size() || nodes_[scope].depth >= owner_depth ||
      ancestor_at(owner, nodes_[scope].depth) != scope)
    throw std::invalid_argument("scope is not an ancestor of owner");
  const int depth = nodes_[scope].depth;
  Registrations& regs = owners_[address.value()];
  // Two vertical paths share a node exactly when the top of one lies on
  // the other. While the limit holds, only the deepest registration in
  // scope of the new path can: one scoped on [scope, owner), or one scoped
  // above whose own path runs through `scope`.
  if (const Registration* r = in_scope(regs, nodes_[owner].parent);
      r && r->scope != scope &&
      (nodes_[r->scope].depth > depth ||
       (nodes_[r->owner].depth > depth &&
        ancestor_at(r->owner, depth) == scope)))
    throw std::invalid_argument("address registered on a shared path");
  auto pos = std::lower_bound(regs.begin(), regs.end(), scope, by_scope);
  if (pos != regs.end() && pos->scope == scope)
    pos->owner = owner;
  else
    regs.insert(pos, {scope, owner});
}

void Network::unregister_address(netcore::Ipv4Address address, NodeId owner,
                                 NodeId scope) {
  auto it = owners_.find(address.value());
  if (it == owners_.end()) return;
  Registrations& regs = it->second;
  auto pos = std::find_if(regs.begin(), regs.end(), [&](const Registration& r) {
    return r.scope == scope && r.owner == owner;
  });
  if (pos == regs.end()) return;
  regs.erase(pos);
  if (regs.empty()) owners_.erase(address.value());
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
  auto it = owners_.find(address.value());
  if (it == owners_.end() || it->second.front().scope != root())
    return kNoNode;
  return ancestor_at(it->second.front().owner, 1);
}

const std::string& Network::name(NodeId node) const {
  return nodes_.at(node).name;
}

int Network::path_hops(NodeId from, NodeId to) const {
  const int df = nodes_.at(from).depth;
  const int dt = nodes_.at(to).depth;
  return df + dt - 2 * nodes_[common_ancestor(from, to)].depth - 1;
}

NodeId Network::common_ancestor(NodeId a, NodeId b) const noexcept {
  const int depth = std::min(nodes_[a].depth, nodes_[b].depth);
  a = ancestor_at(a, depth);
  b = ancestor_at(b, depth);
  while (a != b) {
    a = nodes_[a].parent;
    b = nodes_[b].parent;
  }
  return a;
}

const Network::Registration* Network::in_scope(const Registrations& regs,
                                               NodeId node) const {
  // A node's ancestors have smaller ids (add_node), so the scopes left to
  // search shrink to those below the last miss's position.
  auto end = regs.end();
  for (; node != kNoNode; node = nodes_[node].parent) {
    const auto r = std::lower_bound(regs.begin(), end, node, by_scope);
    if (r != end && r->scope == node) return &*r;
    if (r == regs.begin()) break;
    end = r;
  }
  return nullptr;
}

Network::Target Network::resolve(NodeId node, netcore::Ipv4Address a) const {
  auto it = owners_.find(a.value());
  if (node == kNoNode || it == owners_.end()) return {};
  // A shallower registration in scope has its owner outside this one's
  // scope, so it takes effect higher up, or at this scope when it is
  // owned there (a NAT's external address that is also an inside address
  // below it): then this deeper scope wins the tie and the packet
  // descends rather than hairpins.
  const Registration* r = in_scope(it->second, node);
  if (r == nullptr) return {};
  return {r->owner, common_ancestor(r->owner, node)};
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
  dispatch(node, pkt);
  // Injected duplication: the host gets the same datagram twice, as after a
  // spurious link-layer retransmission. A link event, so it is drawn for
  // every delivery, bound port or not. The copy is one more packet, and it
  // is delivered, so sent + duplicated = delivered + dropped.
  if (faults_ && faults_->duplicate_delivery()) {
    obs_.duplicated.inc();
    obs_.delivered.inc();
    dispatch(node, pkt);
  }
  return finish({.delivered = true,
                 .reason = DropReason::none,
                 .hops = hops,
                 .final_node = node});
}

void Network::dispatch(NodeId node, const Packet& pkt) {
  auto& ports = nodes_[node].ports;
  auto it = ports.find(pkt.dst.port);
  if (it != ports.end())
    it->second(*this, pkt);
  else
    obs_.delivered_unbound.inc();
}

DeliveryResult Network::send(Packet pkt, NodeId from) {
  obs_.sent.inc();
  const SimTime now = clock().now();
  int hops = 0;
  NodeId node = nodes_.at(from).parent;
  Target target = resolve(node, pkt.dst.address);
  // Up from the sender until the packet reaches the destination's owner or
  // the node where it turns toward it, then down the owner's ancestors.
  bool down = false;
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
    // A middlebox owning the destination translates it only if the packet
    // still has TTL budget to be forwarded; a probe that expires here dies
    // without refreshing the NAT's mapping, which is exactly what the
    // TTL-driven enumeration test exploits.
    if (pkt.ttl <= 0)
      return finish({.reason = DropReason::ttl_expired,
                     .hops = hops,
                     .final_node = node});
    if (owner_here) {
      // One of the box's own external addresses: from the inside a
      // hairpin, from the outside an inbound translation. Either rewrites
      // pkt.dst to an inside endpoint, whose owner must lie below.
      auto verdict = down ? n.middlebox->process_inbound(pkt, now)
                          : n.middlebox->process_hairpin(pkt, now);
      trace_event(TraceKind::middlebox, node, pkt.ttl,
                  static_cast<std::uint8_t>(verdict));
      if (verdict != Middlebox::Verdict::forward)
        return finish({.reason = to_drop_reason(verdict),
                       .hops = hops,
                       .final_node = node});
      target = resolve(node, pkt.dst.address);
      if (target.turn != node || target.owner == node)
        return finish({.reason = DropReason::no_route,
                       .hops = hops,
                       .final_node = node});
      down = true;
    } else if (!down && node == target.turn) {
      down = true;
    } else if (!down && n.middlebox) {
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
        target = resolve(n.parent, pkt.dst.address);
    }
    if (down) {
      node = ancestor_at(target.owner, n.depth + 1);
    } else if (n.parent == kNoNode) {
      return finish({.reason = DropReason::no_route,
                     .hops = hops,
                     .final_node = node});
    } else {
      node = n.parent;
    }
  }
  return finish({.reason = DropReason::no_route, .hops = hops});
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
