// IPv6-transition data-plane elements (DESIGN.md §14).
//
// The simulated network routes on the IPv4 header; IPv6 rides in the
// packet's POD overlay (sim::V6Overlay). Every v6 line keeps a unique
// *underlay v4 handle* — an address drawn from the ISP's internal ranges
// exactly like a NAT444 line address — and the elements here translate
// between the overlay's true 128-bit addresses and that handle:
//
//   Nat64Device   RFC 6146 stateful translator (also the PLAT of 464XLAT).
//                 Wraps an unmodified nat::NatDevice core keyed on the
//                 underlay handle, so port-allocation strategies, mapping
//                 timeouts and restart flushes are the same code the NAT444
//                 figures exercise.
//   DsLiteAftr    RFC 6333 AFTR: terminates per-subscriber softwires and
//                 runs a NAT44 core over (softwire, inner v4) pairs, which
//                 is what lets two B4s share inner 10.0.0.1.
//   B4Element     the subscriber end of a DS-Lite softwire (encap/decap).
//   ClatElement   stateless RFC 6877 CLAT: v4 apps on a v6-only line.
//   HostV6Stack   a v6-only host: flows to destinations with no AAAA
//                 (v4 literals) die here — the Big-NAT battery's
//                 NAT64-vs-464XLAT discriminator.
#pragma once

#include <cstdint>

#include "flat/flat.hpp"
#include "nat/nat_device.hpp"
#include "netcore/ipv4.hpp"
#include "netcore/ipv6.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"

namespace cgn::v6 {

/// Counters of the v6-specific half of a translator (the embedded NAT core
/// keeps its own nat::NatStats).
struct V6Stats {
  std::uint64_t out_translated = 0;
  std::uint64_t in_translated = 0;
  std::uint64_t drop_unknown_host = 0;   ///< src v6 not provisioned here
  std::uint64_t drop_not_pref64 = 0;     ///< dst outside the pref64
  std::uint64_t drop_no_overlay = 0;     ///< v4 packet hit a v6-only path
};

/// RFC 6146 stateful NAT64. `add_host` provisions one v6 host and its
/// underlay handle; the embedded NAT44 core sees only handles, so all of
/// its behaviour (and its fault hooks) transfer unchanged.
class Nat64Device final : public sim::Middlebox {
 public:
  Nat64Device(nat::NatConfig config,
              std::vector<netcore::Ipv4Address> external_pool, sim::Rng rng,
              netcore::Ipv6Prefix pref64)
      : core_(std::move(config), std::move(external_pool), std::move(rng)),
        pref64_(pref64) {}

  void add_host(netcore::Ipv6Address host, netcore::Ipv4Address underlay) {
    v6_to_underlay_.insert_or_assign(host, underlay);
    underlay_to_v6_.insert_or_assign(underlay, host);
  }

  Verdict process_outbound(sim::Packet& pkt, sim::SimTime now) override;
  Verdict process_inbound(sim::Packet& pkt, sim::SimTime now) override;
  Verdict process_hairpin(sim::Packet& pkt, sim::SimTime now) override;

  [[nodiscard]] nat::NatDevice& core() noexcept { return core_; }
  [[nodiscard]] const nat::NatDevice& core() const noexcept { return core_; }
  [[nodiscard]] const netcore::Ipv6Prefix& pref64() const noexcept {
    return pref64_;
  }
  [[nodiscard]] const V6Stats& v6_stats() const noexcept { return v6_stats_; }

 private:
  nat::NatDevice core_;
  netcore::Ipv6Prefix pref64_;
  flat::FlatMap<netcore::Ipv6Address, netcore::Ipv4Address> v6_to_underlay_;
  flat::FlatMap<netcore::Ipv4Address, netcore::Ipv6Address> underlay_to_v6_;
  V6Stats v6_stats_;
};

/// RFC 6333 AFTR. Each subscriber softwire is keyed by its B4's v6 address;
/// inner v4 addresses may overlap across softwires, so the NAT44 core is
/// keyed on per-(softwire, inner address) *handles* drawn from a private
/// 240.0.0.0/4 space that never routes. Handles are assigned first-seen and
/// looked up on every later packet, which keeps shard-retry replays
/// bit-identical (same key -> same handle, no matter where a replay starts).
class DsLiteAftr final : public sim::Middlebox {
 public:
  DsLiteAftr(nat::NatConfig config,
             std::vector<netcore::Ipv4Address> external_pool, sim::Rng rng,
             netcore::Ipv6Address aftr_address)
      : core_(std::move(config), std::move(external_pool), std::move(rng)),
        aftr_address_(aftr_address) {}

  /// Provisions a subscriber softwire: the B4's v6 address and the line's
  /// routable underlay handle (where descending packets are sent).
  void add_softwire(netcore::Ipv6Address b4, netcore::Ipv4Address underlay) {
    b4_to_underlay_.insert_or_assign(b4, underlay);
    underlay_to_b4_.insert_or_assign(underlay, b4);
  }

  Verdict process_outbound(sim::Packet& pkt, sim::SimTime now) override;
  Verdict process_inbound(sim::Packet& pkt, sim::SimTime now) override;
  Verdict process_hairpin(sim::Packet& pkt, sim::SimTime now) override;

  [[nodiscard]] nat::NatDevice& core() noexcept { return core_; }
  [[nodiscard]] const nat::NatDevice& core() const noexcept { return core_; }
  [[nodiscard]] netcore::Ipv6Address aftr_address() const noexcept {
    return aftr_address_;
  }
  [[nodiscard]] const V6Stats& v6_stats() const noexcept { return v6_stats_; }
  /// Distinct (softwire, inner v4) pairs seen so far.
  [[nodiscard]] std::size_t handle_count() const noexcept {
    return handle_by_key_.size();
  }

 private:
  static constexpr std::uint32_t kHandleBase = 0xF0000000;  // 240.0.0.0/4

  [[nodiscard]] static std::uint64_t pack_key(netcore::Ipv4Address underlay,
                                              netcore::Ipv4Address inner) {
    return (std::uint64_t{underlay.value()} << 32) | inner.value();
  }
  netcore::Ipv4Address handle_for(netcore::Ipv4Address underlay,
                                  netcore::Ipv4Address inner);

  nat::NatDevice core_;
  netcore::Ipv6Address aftr_address_;
  flat::FlatMap<netcore::Ipv6Address, netcore::Ipv4Address> b4_to_underlay_;
  flat::FlatMap<netcore::Ipv4Address, netcore::Ipv6Address> underlay_to_b4_;
  flat::FlatMap<std::uint64_t, netcore::Ipv4Address> handle_by_key_;
  flat::FlatMap<netcore::Ipv4Address, std::uint64_t> key_by_handle_;
  std::uint32_t next_handle_ = kHandleBase;
  V6Stats v6_stats_;
};

/// The subscriber end of a DS-Lite softwire: stateless v4-in-v6
/// encapsulation on the way up, decapsulation (restoring the inner v4
/// destination the AFTR stashed in the overlay) on the way down.
class B4Element final : public sim::Middlebox {
 public:
  B4Element(netcore::Ipv6Address b4, netcore::Ipv6Address aftr)
      : b4_(b4), aftr_(aftr) {}

  Verdict process_outbound(sim::Packet& pkt, sim::SimTime) override {
    pkt.v6.src = b4_;
    pkt.v6.dst = aftr_;
    pkt.v6.present = true;
    return Verdict::forward;
  }
  Verdict process_inbound(sim::Packet& pkt, sim::SimTime) override {
    if (!pkt.v6.present || pkt.v6.dst != b4_) return Verdict::drop_other;
    pkt.dst.address = pkt.v6.inner;
    pkt.v6.present = false;
    return Verdict::forward;
  }
  Verdict process_hairpin(sim::Packet&, sim::SimTime) override {
    return Verdict::drop_other;
  }

 private:
  netcore::Ipv6Address b4_;
  netcore::Ipv6Address aftr_;
};

/// Stateless RFC 6877 CLAT (customer-side translator of 464XLAT). The
/// device keeps a private v4 (RFC 7335 192.0.0.0/29 style); the CLAT maps
/// it onto the line's underlay handle and embeds the v4 destination into
/// the carrier's pref64, port-preserving — all NAT state lives in the PLAT.
class ClatElement final : public sim::Middlebox {
 public:
  ClatElement(netcore::Ipv6Address clat, netcore::Ipv6Prefix pref64,
              netcore::Ipv4Address underlay, netcore::Ipv4Address device_v4)
      : clat_(clat), pref64_(pref64), underlay_(underlay),
        device_v4_(device_v4) {}

  Verdict process_outbound(sim::Packet& pkt, sim::SimTime) override {
    pkt.v6.src = clat_;
    pkt.v6.dst = netcore::pref64_embed(pref64_, pkt.dst.address);
    pkt.v6.present = true;
    pkt.src.address = underlay_;
    return Verdict::forward;
  }
  Verdict process_inbound(sim::Packet& pkt, sim::SimTime) override {
    if (!pkt.v6.present) return Verdict::drop_other;
    pkt.dst.address = device_v4_;
    pkt.v6.present = false;
    return Verdict::forward;
  }
  Verdict process_hairpin(sim::Packet&, sim::SimTime) override {
    return Verdict::drop_other;
  }

 private:
  netcore::Ipv6Address clat_;
  netcore::Ipv6Prefix pref64_;
  netcore::Ipv4Address underlay_;
  netcore::Ipv4Address device_v4_;
};

/// A v6-only host's network stack (NAT64 line without CLAT). Destinations
/// acquired through DNS (note_resolved) get their AAAA stamped into the
/// overlay; raw v4 literals have no AAAA and are dropped on the floor —
/// which is precisely what breaks v4-literal applications behind NAT64 and
/// what the Big-NAT battery probes for.
class HostV6Stack final : public sim::Middlebox {
 public:
  HostV6Stack(netcore::Ipv6Address host, netcore::Ipv4Address underlay,
              netcore::Ipv4Address device_v4)
      : host_(host), underlay_(underlay), device_v4_(device_v4) {}

  /// Records a DNS answer: flows to `name` will carry `aaaa` as overlay dst.
  void note_resolved(netcore::Ipv4Address name, netcore::Ipv6Address aaaa) {
    resolved_.insert_or_assign(name, aaaa);
  }

  Verdict process_outbound(sim::Packet& pkt, sim::SimTime) override {
    auto aaaa = resolved_.find(pkt.dst.address);
    if (aaaa == resolved_.end()) {
      ++stats_.drop_unresolved_literal;
      return Verdict::drop_no_mapping;
    }
    pkt.v6.src = host_;
    pkt.v6.dst = aaaa->second;
    pkt.v6.present = true;
    pkt.src.address = underlay_;
    return Verdict::forward;
  }
  Verdict process_inbound(sim::Packet& pkt, sim::SimTime) override {
    if (!pkt.v6.present) return Verdict::drop_other;
    pkt.dst.address = device_v4_;
    pkt.v6.present = false;
    return Verdict::forward;
  }
  Verdict process_hairpin(sim::Packet&, sim::SimTime) override {
    return Verdict::drop_other;
  }

  struct Stats {
    std::uint64_t drop_unresolved_literal = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  netcore::Ipv6Address host_;
  netcore::Ipv4Address underlay_;
  netcore::Ipv4Address device_v4_;
  flat::FlatMap<netcore::Ipv4Address, netcore::Ipv6Address> resolved_;
  Stats stats_;
};

}  // namespace cgn::v6
