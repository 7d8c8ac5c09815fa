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
  std::uint64_t duplicated = 0;  ///< extra deliveries from injected duplication
  /// Always 0: the route cache is gone; kept because perfbench reads it.
  std::uint64_t route_cache_hits = 0;
};

class Network {
 public:
  /// Handler invoked when a packet is delivered to a host node. The packet's
  /// dst is the host-local (post-translation) endpoint. Handlers may call
  /// Network::send to respond.
  using Receiver = std::function<void(Network&, const Packet&)>;

  explicit Network(Clock& clock);

  /// The root ("core") node, created by the constructor.
  [[nodiscard]] NodeId root() const noexcept { return 0; }

  /// Adds a plain node beneath `parent`. Middlebox/receiver/addresses can be
  /// attached afterwards. Throws std::out_of_range on bad parent.
  NodeId add_node(NodeId parent, std::string name);

  /// Convenience: adds a chain of `count` plain router nodes under `parent`
  /// and returns the bottom node.
  NodeId add_router_chain(NodeId parent, int count, const std::string& prefix);

  /// Attaches a middlebox to a node. The pointer is non-owning; the box must
  /// outlive the network.
  void set_middlebox(NodeId node, Middlebox* box);

  /// Marks a node as a host with a delivery callback.
  void set_receiver(NodeId node, Receiver receiver);

  /// Declares that `owner` owns `address` within the subtree of `scope`:
  /// a host's interface address, or a middlebox's external address. Packets
  /// to `address` from inside `scope` route to `owner`, which delivers them
  /// (a host) or translates them inbound (a middlebox node). `scope` must be
  /// a proper ancestor of `owner`, else std::invalid_argument and nothing is
  /// registered. Use the root as scope for public addresses and the
  /// enclosing NAT node for internal ones. Registering an address again at
  /// the same scope replaces its owner. Two registrations of one address
  /// must not share a node on their paths from owner up to scope: the
  /// walk would reach only one of them.
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

  /// Sends `pkt` from host node `from`. Delivery is synchronous: the
  /// receiver callback (and any packets it sends in response) runs before
  /// send returns.
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
    /// Index entries with this node as scope. Resolution probes only the
    /// nodes that have some: a TTL-limited probe that dies a hop or two up
    /// still resolves its whole chain, and most chain nodes are routers.
    std::uint32_t scoped = 0;
    Middlebox* middlebox = nullptr;
    Receiver receiver;
  };

  static constexpr int kMaxHops = 64;

  /// Stable handles into the global metrics registry, resolved once per
  /// Network; the delivery path pays one relaxed add per event.
  struct ObsHandles {
    obs::Counter& sent;
    obs::Counter& delivered;
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

  /// Where an ascending packet stops climbing: at `turn`, it either reaches
  /// `owner` itself (turn == owner) or starts descending toward it.
  struct Target {
    NodeId owner = kNoNode;
    NodeId turn = kNoNode;
  };

  [[nodiscard]] static std::uint64_t index_key(NodeId scope,
                                               netcore::Ipv4Address a) {
    return (std::uint64_t{scope} << 32) | a.value();
  }
  [[nodiscard]] NodeId ancestor_at(NodeId node, int depth) const noexcept {
    while (nodes_[node].depth > depth) node = nodes_[node].parent;
    return node;
  }
  /// The owner of `a` a packet climbing from `start` meets first: each
  /// registration at a scope on start's chain takes effect at its lowest
  /// common ancestor with start; the lowest one wins.
  [[nodiscard]] Target resolve_up(NodeId start, netcore::Ipv4Address a) const;
  /// The owner of `a` strictly below `node` whose registration reaches
  /// `node`, or kNoNode.
  [[nodiscard]] NodeId resolve_down(NodeId node, netcore::Ipv4Address a) const;

  DeliveryResult deliver_at(NodeId node, Packet& pkt, int hops);
  /// Walks down from `turn` (exclusive) toward `owner`.
  DeliveryResult descend(NodeId owner, NodeId turn, Packet& pkt, int hops);
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
  /// The one routing store: index_key(scope, address) -> owner.
  flat::FlatMap<std::uint64_t, NodeId, std::hash<std::uint64_t>> owners_;
  ObsHandles obs_ = make_obs_handles();
  NetworkStats baseline_;  ///< counter values at construction/reset_stats()
  obs::TraceRing* trace_ = nullptr;
  fault::FaultInjector* faults_ = nullptr;
};

}  // namespace cgn::sim
