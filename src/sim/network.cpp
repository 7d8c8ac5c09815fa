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
  f(&NetworkStats::route_cache_hits, h.route_cache_hits);
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
      .route_cache_hits = obs::counter("sim.net.route_cache_hits"),
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
  grow_route_cache();
  reset_stats();
}

void Network::grow_route_cache() {
  if (nodes_.size() <= route_stride_) return;
  std::size_t stride = route_stride_ == 0 ? 64 : route_stride_;
  while (stride < nodes_.size()) stride *= 2;
  route_stride_ = stride;
  // Reallocate (zeroed) any stripe a thread already touched; unused slots
  // stay lazy. Topology construction is single-threaded, so no send is in
  // flight while stripes swap.
  for (auto& stripe : route_stripes_)
    if (stripe) stripe.reset(new std::atomic<std::uint64_t>[route_stride_]());
}

NodeId Network::add_node(NodeId parent, std::string name) {
  if (parent >= nodes_.size()) throw std::out_of_range("bad parent node");
  Node node;
  node.name = std::move(name);
  node.parent = parent;
  nodes_.push_back(std::move(node));
  grow_route_cache();
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

void Network::add_local_address(NodeId node, netcore::Ipv4Address address) {
  nodes_.at(node).local_addresses.push_back(address);
}

void Network::register_address(netcore::Ipv4Address address, NodeId owner,
                               NodeId scope) {
  NodeId child = owner;
  NodeId node = nodes_.at(owner).parent;
  while (node != kNoNode) {
    nodes_[node].down_routes[address] = child;
    // Any route mutation invalidates the node's cache entry in every
    // thread's stripe, whatever address each currently holds.
    invalidate_route_cache(node);
    if (node == scope) return;
    child = node;
    node = nodes_[node].parent;
  }
  throw std::invalid_argument("scope is not an ancestor of owner");
}

void Network::unregister_address(netcore::Ipv4Address address, NodeId owner,
                                 NodeId scope) {
  NodeId node = nodes_.at(owner).parent;
  while (node != kNoNode) {
    nodes_[node].down_routes.erase(address);
    invalidate_route_cache(node);
    if (node == scope) return;
    node = nodes_[node].parent;
  }
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
  const auto& routes = nodes_.front().down_routes;
  auto it = routes.find(address);
  return it == routes.end() ? kNoNode : it->second;
}

const std::string& Network::name(NodeId node) const {
  return nodes_.at(node).name;
}

int Network::path_hops(NodeId from, NodeId to) const {
  auto depth = [this](NodeId n) {
    int d = 0;
    for (NodeId p = nodes_.at(n).parent; p != kNoNode; p = nodes_[p].parent)
      ++d;
    return d;
  };
  int df = depth(from);
  int dt = depth(to);
  NodeId a = from;
  NodeId b = to;
  int da = df;
  int db = dt;
  while (da > db) {
    a = nodes_[a].parent;
    --da;
  }
  while (db > da) {
    b = nodes_[b].parent;
    --db;
  }
  while (a != b) {
    a = nodes_[a].parent;
    b = nodes_[b].parent;
    --da;
  }
  return df + dt - 2 * da - 1;
}

bool Network::owns_local(const Node& n, netcore::Ipv4Address a) const {
  return std::find(n.local_addresses.begin(), n.local_addresses.end(), a) !=
         n.local_addresses.end();
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

DeliveryResult Network::finish(DeliveryResult r, SendCtx& ctx) {
  // Batched flush: route-cache hits accumulated hop by hop in the send's
  // local context land in the metric slot once per delivery, not once per
  // hop. Nested sends (receiver replies) carry their own context, so the
  // counts are exact.
  if (ctx.cache_hits > 0) {
    obs_.route_cache_hits.inc(static_cast<std::uint64_t>(ctx.cache_hits));
    ctx.cache_hits = 0;
  }
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

DeliveryResult Network::deliver_at(NodeId node, Packet& pkt, int hops,
                                   SendCtx& ctx) {
  // An injected-unresponsive endpoint receives nothing: the NAT state along
  // the path was still created/refreshed (the packet really travelled), but
  // the application never answers — a deaf BitTorrent peer.
  if (faults_ && faults_->unresponsive(node, pkt.dst.port))
    return finish({.reason = DropReason::fault_unresponsive,
                   .hops = hops,
                   .final_node = node},
                  ctx);
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
                 .final_node = node},
                ctx);
}

DeliveryResult Network::send(Packet pkt, NodeId from) {
  obs_.sent.inc();
  // One TLS read resolves this thread's route-cache stripe for the whole
  // delivery (every hop used to re-derive the slot via the metric cell).
  SendCtx ctx{route_stripe()};
  const SimTime now = clock().now();
  int hops = 0;
  NodeId node = nodes_.at(from).parent;
  // Ascent: walk from the sender toward the core until a node claims the
  // destination (locally, via a scoped down-route, or via a hairpin).
  while (node != kNoNode) {
    if (++hops > kMaxHops)
      return finish({.reason = DropReason::hop_limit, .final_node = node},
                    ctx);
    Node& n = nodes_[node];
    pkt.ttl -= 1;
    trace_event(TraceKind::hop, node, pkt.ttl, 0);
    // Injected loss models the wire into this node: upstream NAT state was
    // already refreshed, this hop and everything past it sees nothing.
    if (faults_ && faults_->drop_at_hop())
      return finish({.reason = DropReason::fault_loss,
                     .hops = hops,
                     .final_node = node},
                    ctx);
    if (owns_local(n, pkt.dst.address))
      return deliver_at(node, pkt, hops, ctx);
    if (pkt.ttl <= 0)
      return finish({.reason = DropReason::ttl_expired,
                     .hops = hops,
                     .final_node = node},
                    ctx);
    if (NodeId next = route_lookup(n, node, pkt.dst.address, ctx);
        next != kNoNode)
      return descend(next, pkt, hops, ctx);
    if (n.middlebox && n.middlebox->owns_external(pkt.dst.address)) {
      auto verdict = n.middlebox->process_hairpin(pkt, now);
      trace_event(TraceKind::middlebox, node, pkt.ttl,
                  static_cast<std::uint8_t>(verdict));
      if (verdict != Middlebox::Verdict::forward)
        return finish({.reason = to_drop_reason(verdict),
                       .hops = hops,
                       .final_node = node},
                      ctx);
      // Hairpin processing may rewrite pkt.dst, so route on the new address.
      NodeId next = route_lookup(n, node, pkt.dst.address, ctx);
      if (next == kNoNode)
        return finish({.reason = DropReason::no_route,
                       .hops = hops,
                       .final_node = node},
                      ctx);
      return descend(next, pkt, hops, ctx);
    }
    if (n.middlebox) {
      auto verdict = n.middlebox->process_outbound(pkt, now);
      trace_event(TraceKind::middlebox, node, pkt.ttl,
                  static_cast<std::uint8_t>(verdict));
      if (verdict != Middlebox::Verdict::forward)
        return finish({.reason = to_drop_reason(verdict),
                       .hops = hops,
                       .final_node = node},
                      ctx);
    }
    if (n.parent == kNoNode)
      return finish({.reason = DropReason::no_route,
                     .hops = hops,
                     .final_node = node},
                    ctx);
    node = n.parent;
  }
  return finish({.reason = DropReason::no_route, .hops = hops}, ctx);
}

DeliveryResult Network::descend(NodeId node, Packet& pkt, int hops,
                                SendCtx& ctx) {
  const SimTime now = clock().now();
  while (true) {
    if (++hops > kMaxHops)
      return finish({.reason = DropReason::hop_limit, .final_node = node},
                    ctx);
    Node& n = nodes_[node];
    pkt.ttl -= 1;
    trace_event(TraceKind::hop, node, pkt.ttl, 0);
    if (faults_ && faults_->drop_at_hop())
      return finish({.reason = DropReason::fault_loss,
                     .hops = hops,
                     .final_node = node},
                    ctx);
    // A NAT whose external address the packet targets translates it inward —
    // but only if the packet still has TTL budget to be forwarded; a probe
    // that expires here dies without refreshing the NAT's mapping, which is
    // exactly what the TTL-driven enumeration test exploits.
    if (n.middlebox && n.middlebox->owns_external(pkt.dst.address)) {
      if (pkt.ttl <= 0)
        return finish({.reason = DropReason::ttl_expired,
                       .hops = hops,
                       .final_node = node},
                      ctx);
      auto verdict = n.middlebox->process_inbound(pkt, now);
      trace_event(TraceKind::middlebox, node, pkt.ttl,
                  static_cast<std::uint8_t>(verdict));
      if (verdict != Middlebox::Verdict::forward)
        return finish({.reason = to_drop_reason(verdict),
                       .hops = hops,
                       .final_node = node},
                      ctx);
    }
    if (owns_local(n, pkt.dst.address))
      return deliver_at(node, pkt, hops, ctx);
    if (pkt.ttl <= 0)
      return finish({.reason = DropReason::ttl_expired,
                     .hops = hops,
                     .final_node = node},
                    ctx);
    NodeId next = route_lookup(n, node, pkt.dst.address, ctx);
    if (next == kNoNode)
      return finish({.reason = DropReason::no_route,
                     .hops = hops,
                     .final_node = node},
                    ctx);
    node = next;
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
