// Tree-topology packet delivery engine.
//
// The synthetic Internet is a forest rooted at a single "core" node: servers
// hang off the core through chains of plain router nodes, and each ISP is a
// subtree (access routers, optional CGN middlebox, CPE middleboxes, end
// hosts). Delivery walks real hops: every hop decrements the TTL, NAT
// middleboxes translate and filter, and every address is registered with a
// scope (the subtree it is meaningful in: the root for public space, the
// enclosing NAT node for reserved space), so internal ranges can repeat
// across ISPs and homes. This per-hop fidelity is what makes the paper's
// TTL-driven NAT enumeration (§6.3) and hairpin-based internal-address
// leakage (§4.1) reproducible as *measurements* instead of hard-coded
// outputs.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <limits>
#include <string>
#include <vector>

#include "flat/flat.hpp"
#include "netcore/ipv4.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/clock.hpp"
#include "sim/packet.hpp"

namespace cgn::fault {
class FaultInjector;
}  // namespace cgn::fault

namespace cgn::sim {

using NodeId = std::uint32_t;
inline constexpr NodeId kNoNode = std::numeric_limits<NodeId>::max();

/// Why a packet failed to reach its destination.
enum class DropReason : std::uint8_t {
  none,         ///< delivered
  ttl_expired,  ///< TTL reached zero at an intermediate hop
  no_route,     ///< no node claimed the destination address
  filtered,     ///< a NAT's filtering policy rejected the packet
  no_mapping,   ///< a NAT had no (live) mapping for the destination
  mb_dropped,   ///< middlebox dropped for another reason (e.g. pool exhausted)
  hop_limit,    ///< safety valve: path exceeded kMaxHops
  fault_loss,   ///< injected packet loss (fault::FaultInjector)
  fault_unresponsive,  ///< delivered to an injected-unresponsive endpoint
};

[[nodiscard]] std::string_view to_string(DropReason r) noexcept;

/// In-path packet processor (a NAT, in this project). Implementations live
/// in cgn::nat; the engine only sees this interface.
class Middlebox {
 public:
  virtual ~Middlebox() = default;

  enum class Verdict : std::uint8_t {
    forward,
    drop_filtered,
    drop_no_mapping,
    drop_other,
  };

  /// Packet travelling from the edge toward the core: translate src.
  virtual Verdict process_outbound(Packet& pkt, SimTime now) = 0;
  /// Packet travelling from the core toward the edge, addressed to one of
  /// this box's external addresses (those registered with its node as
  /// owner): match mapping, apply filtering policy, translate dst.
  virtual Verdict process_inbound(Packet& pkt, SimTime now) = 0;
  /// Packet from the inside addressed to one of our own external addresses.
  virtual Verdict process_hairpin(Packet& pkt, SimTime now) = 0;
};

/// Outcome of one end-to-end delivery attempt.
struct DeliveryResult {
  bool delivered = false;
  DropReason reason = DropReason::none;
  int hops = 0;             ///< nodes traversed (excluding the sender)
  NodeId final_node = kNoNode;  ///< delivering node, or node of drop
};

/// Delivery outcomes since the Network's construction or last
/// reset_stats(). A view, not a store: each field is one sim.net.* counter
/// (see Network::stats()), so a -DCGN_OBS=OFF build reads all zeros.
/// Every packet is accounted for once: sent + duplicated = delivered + the
/// dropped_* fields. `delivered` counts arrivals at a host, an injected
/// duplicate included, whether or not a receiver is bound to the port
/// (the obs-only counter sim.net.delivered_unbound counts the arrivals
/// that found none).
struct NetworkStats {
  std::uint64_t sent = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped_ttl = 0;
  std::uint64_t dropped_no_route = 0;
  std::uint64_t dropped_filtered = 0;
  std::uint64_t dropped_no_mapping = 0;
  std::uint64_t dropped_other = 0;
  std::uint64_t dropped_fault_loss = 0;
  std::uint64_t dropped_fault_unresponsive = 0;
  std::uint64_t duplicated = 0;  ///< extra packets from injected duplication
  /// Always 0: the route cache is gone; kept because perfbench reads it.
  std::uint64_t route_cache_hits = 0;
};

class Network {
 public:
  /// Handler invoked when a packet is delivered to the host and port it is
  /// bound to. The packet's dst is the host-local (post-translation)
  /// endpoint. Handlers may call Network::send to respond.
  using Receiver = std::function<void(Network&, const Packet&)>;

  explicit Network(Clock& clock);

  /// The root ("core") node, created by the constructor.
  [[nodiscard]] NodeId root() const noexcept { return 0; }

  /// Adds a plain node beneath `parent`. Middlebox, bound ports and
  /// addresses can be attached afterwards. Throws std::out_of_range on bad
  /// parent.
  NodeId add_node(NodeId parent, std::string name);

  /// Convenience: adds a chain of `count` plain router nodes under `parent`
  /// and returns the bottom node.
  NodeId add_router_chain(NodeId parent, int count, const std::string& prefix);

  /// Attaches a middlebox to a node. The pointer is non-owning; the box must
  /// outlive the network.
  void set_middlebox(NodeId node, Middlebox* box);

  /// Binds `port` on `host`: packets delivered there to that destination
  /// port go to `receiver`, replacing any earlier binding. A packet to an
  /// unbound port still counts as delivered and reaches no application,
  /// like an OS with no listening socket. Each node keeps its own port
  /// table, so threads may bind on different hosts at once.
  void bind(NodeId host, std::uint16_t port, Receiver receiver);
  /// Removes `host`'s binding of `port`; an unbound port is ignored.
  /// Removing the last binding frees the host's port table.
  void unbind(NodeId host, std::uint16_t port);

  /// Declares that `owner` owns `address` within the subtree of `scope`:
  /// a host's interface address, or a middlebox's external address. Packets
  /// to `address` from inside `scope` route to `owner`, which delivers them
  /// (a host) or translates them inbound (a middlebox node). Use the root
  /// as scope for public addresses and the enclosing NAT node for internal
  /// ones. Registering an address again at the same scope replaces its
  /// owner. Throws std::invalid_argument, and registers nothing, when
  /// `scope` is not a proper ancestor of `owner` or when the path from
  /// `scope` down to `owner` (scope included, owner excluded) shares a
  /// node with another registration's path of the same address: the walk
  /// could reach only one of them there.
  void register_address(netcore::Ipv4Address address, NodeId owner,
                        NodeId scope);

  /// Removes `owner`'s registration of `address` at `scope` (ISP
  /// renumbering). A missing registration is ignored.
  void unregister_address(netcore::Ipv4Address address, NodeId owner,
                          NodeId scope);

  /// Parent of a node (kNoNode for the root).
  [[nodiscard]] NodeId parent(NodeId node) const;
  [[nodiscard]] const std::string& name(NodeId node) const;
  [[nodiscard]] std::size_t node_count() const noexcept { return nodes_.size(); }

  /// Number of hops (intermediate nodes, excluding both hosts) a packet
  /// from `from` to `to` traverses, assuming no hairpin. Host-to-host
  /// distance through the tree.
  [[nodiscard]] int path_hops(NodeId from, NodeId to) const;

  /// Sends `pkt` from host node `from`. Delivery is synchronous: the bound
  /// receiver (and any packets it sends in response) runs before send
  /// returns.
  DeliveryResult send(Packet pkt, NodeId from);

  /// Delivery outcomes since construction or the last reset_stats(): the
  /// process-global sim.net.* counters minus this Network's baseline. The
  /// counters are shared, so the view is exact while one Network carries
  /// the process's traffic at a time (every caller does).
  [[nodiscard]] NetworkStats stats() const noexcept;
  /// Moves the baseline to the counters' current values.
  void reset_stats() noexcept;

  /// The clock packets are stamped with: the calling thread's
  /// ThreadClockScope override when one is active (campaign shards), else
  /// the network's own clock.
  [[nodiscard]] const Clock& clock() const noexcept {
    const Clock* c = ThreadClockScope::current();
    return c ? *c : *clock_;
  }

  /// First-hop child the root would forward `address` to: the depth-1
  /// ancestor of its root-scoped owner, or kNoNode when it has none
  /// (reserved/unrouted space). Two destinations with the same top route
  /// share a root subtree — the unit campaign sharding partitions work by,
  /// since all mutable middlebox state on a delivery path lives inside the
  /// destination's subtree.
  [[nodiscard]] NodeId top_route(netcore::Ipv4Address address) const;

  /// Event classes pushed into an attached hop-trace ring. `code` carries
  /// the Middlebox::Verdict for `middlebox` events and the DropReason for
  /// `dropped` events; terminal events reuse the ttl field for hop count.
  enum class TraceKind : std::uint8_t {
    hop = 0,        ///< packet arrived at a node (ttl already decremented)
    middlebox = 1,  ///< a middlebox processed the packet
    delivered = 2,
    dropped = 3,
  };

  /// Attaches a fault injector: subsequent deliveries consult it for
  /// injected loss (per hop), duplication (per delivery) and unresponsive
  /// endpoints. Null (the default) means a perfect network; attach only an
  /// injector with an active plan, so clean runs pay one null check per
  /// hop. The injector is caller-owned and must outlive attachment.
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    faults_ = injector;
  }
  [[nodiscard]] fault::FaultInjector* fault_injector() const noexcept {
    return faults_;
  }

  /// Attaches a hop-trace ring: every subsequent delivery pushes one event
  /// per hop plus middlebox verdicts and the terminal outcome. Off by
  /// default (null ring); enable around a single send() to debug TTL or
  /// hairpin paths. The ring is caller-owned and must outlive attachment.
  void set_hop_trace(obs::TraceRing* ring) noexcept { trace_ = ring; }

  /// Renders a captured ring with this network's node names.
  void dump_trace(std::ostream& os, const obs::TraceRing& ring) const;

 private:
  struct Node {
    std::string name;
    NodeId parent = kNoNode;
    int depth = 0;  ///< hops below the root
    Middlebox* middlebox = nullptr;
    flat::FlatMap<std::uint16_t, Receiver> ports;  ///< bound receivers
  };

  static constexpr int kMaxHops = 64;

  /// Stable handles into the global metrics registry, resolved once per
  /// Network; the delivery path pays one relaxed add per event.
  struct ObsHandles {
    obs::Counter& sent;
    obs::Counter& delivered;
    obs::Counter& delivered_unbound;
    obs::Counter& dropped_ttl;
    obs::Counter& dropped_no_route;
    obs::Counter& dropped_filtered;
    obs::Counter& dropped_no_mapping;
    obs::Counter& dropped_other;
    obs::Counter& dropped_fault_loss;
    obs::Counter& dropped_fault_unresponsive;
    obs::Counter& duplicated;
    obs::Histogram& hops;
  };
  static ObsHandles make_obs_handles();

  /// One registration of an address: `owner` owns it within `scope`'s
  /// subtree.
  struct Registration {
    NodeId scope = kNoNode;
    NodeId owner = kNoNode;
  };
  /// An address's registrations, sorted by scope.
  using Registrations = std::vector<Registration>;

  /// Where a packet stops climbing: at `turn`, it either reaches `owner`
  /// itself (turn == owner) or starts down toward it.
  struct Target {
    NodeId owner = kNoNode;
    NodeId turn = kNoNode;
  };

  [[nodiscard]] NodeId ancestor_at(NodeId node, int depth) const noexcept {
    while (nodes_[node].depth > depth) node = nodes_[node].parent;
    return node;
  }
  [[nodiscard]] NodeId common_ancestor(NodeId a, NodeId b) const noexcept;
  /// The registration of `regs` with the deepest scope that is `node` or
  /// an ancestor of it, or null. One binary search per ancestor, in a
  /// range that shrinks as the climb goes up, so an address registered in
  /// every home costs about as little as one registered once.
  [[nodiscard]] const Registration* in_scope(const Registrations& regs,
                                             NodeId node) const;
  /// The owner of `a` a packet at `node` heads for, and where it turns
  /// toward it: each registration whose scope is `node` or an ancestor
  /// takes effect at its owner's lowest common ancestor with `node`; the
  /// lowest wins, and on a tie the deeper scope. Under register_address's
  /// limit that is always the in_scope() registration. Empty when none is
  /// in scope.
  [[nodiscard]] Target resolve(NodeId node, netcore::Ipv4Address a) const;

  DeliveryResult deliver_at(NodeId node, Packet& pkt, int hops);
  /// Hands `pkt` to the receiver bound to its destination port on `node`,
  /// or counts it in sim.net.delivered_unbound when there is none. The
  /// table is read afresh on each call: the receiver may bind or unbind
  /// while deliveries nest under it.
  void dispatch(NodeId node, const Packet& pkt);
  DeliveryResult finish(DeliveryResult r);
  static DropReason to_drop_reason(Middlebox::Verdict v) noexcept;

  void trace_event(TraceKind kind, NodeId node, int ttl,
                   std::uint8_t code) const {
    if (trace_)
      trace_->push({node, static_cast<std::int16_t>(ttl),
                    static_cast<std::uint8_t>(kind), code, clock().now()});
  }

  Clock* clock_;
  std::vector<Node> nodes_;
  /// The one routing store: address -> its registrations.
  flat::FlatMap<std::uint32_t, Registrations, std::hash<std::uint32_t>>
      owners_;
  ObsHandles obs_ = make_obs_handles();
  NetworkStats baseline_;  ///< counter values at construction/reset_stats()
  obs::TraceRing* trace_ = nullptr;
  fault::FaultInjector* faults_ = nullptr;
};

}  // namespace cgn::sim
