// The NAT middlebox: address/port translation with configurable mapping
// type, port allocation, pooling, timeouts and hairpin behaviour.
//
// One class models both CPE NATs (pool of one address, port preservation,
// 192X inside) and carrier-grade NATs (large pools, chunked/random ports,
// 10X/100X inside) — the paper's point is precisely that these are the same
// mechanism at different scales and configurations.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "flat/flat.hpp"
#include "nat/nat_types.hpp"
#include "netcore/ipv4.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"

namespace cgn::nat {

/// Counters exposed for tests and diagnostics.
struct NatStats {
  std::uint64_t mappings_created = 0;
  std::uint64_t mappings_expired = 0;
  std::uint64_t outbound_translated = 0;
  std::uint64_t inbound_translated = 0;
  std::uint64_t inbound_filtered = 0;
  std::uint64_t inbound_no_mapping = 0;
  std::uint64_t hairpins_forwarded = 0;
  std::uint64_t hairpins_dropped = 0;
  std::uint64_t port_exhaustion_drops = 0;
  std::uint64_t restarts = 0;  ///< reset_state() calls (scheduled or manual)
  std::uint64_t restart_flushed_mappings = 0;
};

class NatDevice final : public sim::Middlebox {
 public:
  /// Throws std::invalid_argument when the pool is empty, the port range is
  /// inverted, or chunk_random is configured with chunk_size == 0.
  NatDevice(NatConfig config, std::vector<netcore::Ipv4Address> external_pool,
            sim::Rng rng);
  /// Rolls the device's live state out of the global obs gauges
  /// (nat.active_mappings, nat.port_capacity).
  ~NatDevice() override;

  NatDevice(const NatDevice&) = delete;
  NatDevice& operator=(const NatDevice&) = delete;

  // --- sim::Middlebox interface -------------------------------------------
  Verdict process_outbound(sim::Packet& pkt, sim::SimTime now) override;
  Verdict process_inbound(sim::Packet& pkt, sim::SimTime now) override;
  Verdict process_hairpin(sim::Packet& pkt, sim::SimTime now) override;

  // --- introspection -------------------------------------------------------
  /// True when `a` is in the external pool (renumber_external keeps it
  /// current; the network routes by registration, not by this).
  [[nodiscard]] bool owns_external(netcore::Ipv4Address a) const;
  [[nodiscard]] const NatConfig& config() const noexcept { return config_; }
  [[nodiscard]] const std::vector<netcore::Ipv4Address>& external_pool()
      const noexcept {
    return pool_;
  }
  [[nodiscard]] const NatStats& stats() const noexcept { return stats_; }

  /// The answer a UPnP GetExternalIPAddress query would return (the device's
  /// primary external address). Meaningful for single-address CPEs.
  [[nodiscard]] netcore::Ipv4Address upnp_external_address() const {
    return pool_.front();
  }

  /// External endpoint currently mapped for an internal endpoint (and, for
  /// symmetric NATs, a specific remote). Expired mappings are not reported.
  [[nodiscard]] std::optional<netcore::Endpoint> lookup_external(
      netcore::Protocol proto, const netcore::Endpoint& internal,
      const netcore::Endpoint& remote, sim::SimTime now) const;

  /// Live mappings at `now` (expired-but-uncollected entries excluded).
  [[nodiscard]] std::size_t active_mappings(sim::SimTime now) const;

  /// Removes expired mappings and releases their external ports.
  void collect_garbage(sim::SimTime now);

  /// The port block assigned to a subscriber under chunk_random, if any.
  [[nodiscard]] std::optional<std::pair<std::uint16_t, std::uint32_t>>
  subscriber_chunk(netcore::Ipv4Address internal_ip) const;

  /// Installs a permanent full-cone mapping, as a UPnP IGD AddPortMapping
  /// request would (BitTorrent clients commonly do this on CPEs). The
  /// external port follows the device's allocation strategy with
  /// `internal.port` as the preservation hint. Returns the external endpoint,
  /// or nullopt on port exhaustion.
  std::optional<netcore::Endpoint> add_static_mapping(
      netcore::Protocol proto, const netcore::Endpoint& internal,
      sim::SimTime now);

  /// Observer hooks over each mapping's lifetime: `on_created` fires when a
  /// mapping is allocated; `on_expired` fires when it is reclaimed (expiry,
  /// garbage collection, renumbering or a restart). Tests use them to check
  /// that every external port has at most one live mapping.
  using CreatedHook =
      std::function<void(netcore::Protocol, const netcore::Endpoint& internal,
                         const netcore::Endpoint& external,
                         sim::SimTime created_at)>;
  using ExpiredHook =
      std::function<void(netcore::Protocol, const netcore::Endpoint& external,
                         sim::SimTime created_at, sim::SimTime now)>;
  void set_observer(CreatedHook on_created, ExpiredHook on_expired) {
    on_created_ = std::move(on_created);
    on_expired_ = std::move(on_expired);
  }

  /// Replaces one external pool address (ISP renumbering / DHCP lease
  /// change). All mappings on the old address are dropped — established
  /// flows break, exactly as when a residential line is renumbered.
  /// Returns false when `old_address` is not in the pool or `new_address`
  /// already is.
  bool renumber_external(netcore::Ipv4Address old_address,
                         netcore::Ipv4Address new_address);

  /// Arms scheduled restarts (fault::FaultPlan §nat). The phase staggers
  /// devices so a fleet does not reboot in lockstep; the builder draws it
  /// from the plan's substream. Restarts fire lazily from the translation
  /// path, at the first packet after a period boundary.
  void set_fault_profile(const fault::NatFaults& faults,
                         double restart_phase_s);

  /// Device reboot: keeps configuration (pool, port range, strategy, RNG)
  /// but flushes all dynamic state — mappings, sequential cursors,
  /// paired-pool stickiness and chunk_random bookkeeping
  /// (subscriber chunk assignments + taken-chunk sets), firing the expiry
  /// hook for every live mapping.
  /// Freed chunks are immediately reusable (see nat_fault_test).
  void reset_state(sim::SimTime now);

 private:
  struct OutKey {
    netcore::Protocol proto;
    netcore::Endpoint internal;
    netcore::Endpoint remote;  ///< zero endpoint for non-symmetric mappings
    bool operator==(const OutKey&) const = default;
  };
  struct OutKeyHash {
    std::size_t operator()(const OutKey& k) const noexcept;
  };
  struct InKey {
    netcore::Protocol proto;
    netcore::Endpoint external;
    bool operator==(const InKey&) const = default;
  };
  struct InKeyHash {
    std::size_t operator()(const InKey& k) const noexcept;
  };

  /// Coarse TCP connection state for timeout selection (RFC 5382).
  enum class TcpState : std::uint8_t { transitory, established };

  // One cache line (create_mapping asserts it); the field order packs the
  // three flags into the padding before the first SimTime.
  struct Mapping {
    OutKey key;
    netcore::Endpoint external;
    // Destinations contacted through this mapping, keyed the way the
    // filtering policy compares them (port 0 under address-restricted;
    // nothing is recorded under full cone or symmetric). The first one is
    // stored inline, valid when `contacted` is set: 0.0.0.0:0 is a real
    // destination, so it cannot double as "none". Every further distinct
    // contact goes to `more_contacts`, allocated on the second one.
    netcore::Endpoint first_contact;
    bool static_mapping = false;  ///< UPnP-style: never expires, never filters
    TcpState tcp_state = TcpState::transitory;
    bool contacted = false;
    sim::SimTime created_at = 0;
    sim::SimTime last_refresh = 0;
    std::unique_ptr<flat::FlatSet<netcore::Endpoint>> more_contacts;
  };

  [[nodiscard]] sim::SimTime timeout_for(const Mapping& m) const {
    if (m.key.proto == netcore::Protocol::udp) return config_.udp_timeout_s;
    return m.tcp_state == TcpState::established
               ? config_.tcp_timeout_s
               : config_.tcp_transitory_timeout_s;
  }
  [[nodiscard]] bool expired(const Mapping& m, sim::SimTime now) const {
    return !m.static_mapping && now - m.last_refresh > timeout_for(m);
  }
  static void track_tcp(Mapping& m, const sim::Packet& pkt, bool inbound);

  /// Fires a pending scheduled restart (at most one per period boundary,
  /// however much time elapsed). Entry point of every translation call.
  void maybe_restart(sim::SimTime now);

  Mapping* find_out(const OutKey& key, sim::SimTime now);
  Mapping* find_in(netcore::Protocol proto, const netcore::Endpoint& external,
                   sim::SimTime now);
  void erase_mapping(const OutKey& key);

  /// Creates a mapping; returns nullptr on port exhaustion.
  Mapping* create_mapping(const OutKey& key, sim::SimTime now);
  [[nodiscard]] std::size_t pick_pool_index(netcore::Ipv4Address internal_ip);
  /// Allocates an external port on pool_[pool_index]; nullopt if exhausted.
  std::optional<std::uint16_t> allocate_port(std::size_t pool_index,
                                             netcore::Protocol proto,
                                             std::uint16_t internal_port,
                                             netcore::Ipv4Address internal_ip);
  void note_contact(Mapping& m, const netcore::Endpoint& dst);
  [[nodiscard]] bool passes_filter(const Mapping& m,
                                   const netcore::Endpoint& src) const;

  NatConfig config_;
  fault::NatFaults faults_;
  double restart_phase_s_ = 0;
  std::int64_t restart_epoch_ = 0;
  CreatedHook on_created_;
  ExpiredHook on_expired_;
  std::vector<netcore::Ipv4Address> pool_;
  flat::FlatMap<netcore::Ipv4Address, std::size_t> pool_index_;
  sim::Rng rng_;
  NatStats stats_;

  // Mapping storage is a vector slab indexed by 32-bit handles; both
  // translation maps hold handles into it instead of fat values. The
  // outbound path resolves OutKey -> handle -> Mapping; the inbound path
  // resolves InKey -> handle directly. Freed slots are reused LIFO from
  // `free_slots_`, so handle values are deterministic. Growing the vector
  // moves Mappings: no Mapping* or Mapping& may live across create_mapping.
  // Iteration that can fire observer hooks always walks `mappings_` (never
  // the slab). `by_external_` is the only record of which external ports
  // are taken.
  std::vector<Mapping> slab_;
  std::vector<std::uint32_t> free_slots_;
  flat::FlatMap<OutKey, std::uint32_t, OutKeyHash> mappings_;
  flat::FlatMap<InKey, std::uint32_t, InKeyHash> by_external_;

  // Sequential allocation cursors per pool index.
  std::vector<std::uint32_t> seq_cursor_;
  // Paired pooling: sticky internal IP -> pool index.
  flat::FlatMap<netcore::Ipv4Address, std::size_t> paired_pool_;
  // chunk_random: sticky internal IP -> (pool index, chunk base).
  flat::FlatMap<netcore::Ipv4Address, std::pair<std::size_t, std::uint16_t>>
      subscriber_chunks_;
  // chunk_random: per pool index, chunk bases already assigned (a chunk base
  // index always fits in 16 bits, so the port bitmap doubles as a chunk set).
  std::vector<flat::PortSet> chunks_taken_;
};

}  // namespace cgn::nat
