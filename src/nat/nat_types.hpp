// NAT behaviour taxonomy (paper §3) and device configuration.
//
// Every dimension the paper measures in §6 — mapping type (Figure 13), port
// allocation strategy (Figures 8-9, Table 6), pooling (§6.2), mapping
// timeouts (Figure 12), hairpinning (§3, the internal-leak enabler of §4.1)
// — is a configuration knob here, so the measurement side of the
// reproduction observes configured behaviour end-to-end.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/clock.hpp"

namespace cgn::nat {

/// NAT mapping/filtering types, ordered from most restrictive to most
/// permissive (classic RFC 3489 taxonomy, used by the paper for
/// readability despite RFC 4787 discouraging it).
enum class MappingType : std::uint8_t {
  symmetric,                ///< new mapping per (int, dst); only dst may reply
  port_address_restricted,  ///< reply allowed only from contacted IP:port
  address_restricted,       ///< reply allowed from contacted IP, any port
  full_cone,                ///< anybody may send once the mapping exists
};

[[nodiscard]] std::string_view to_string(MappingType t) noexcept;

/// Returns true when `a` is at least as permissive as `b`.
[[nodiscard]] constexpr bool at_least_as_permissive(MappingType a,
                                                    MappingType b) noexcept {
  return static_cast<int>(a) >= static_cast<int>(b);
}

/// External-port selection strategies (paper §6.2, RFC 4787 terminology).
enum class PortAllocation : std::uint8_t {
  preservation,  ///< keep the internal source port when free
  sequential,    ///< next free port in increasing order
  random,        ///< uniform over the configured port range
  chunk_random,  ///< fixed per-subscriber port block, random within it
};

[[nodiscard]] std::string_view to_string(PortAllocation p) noexcept;

/// External-IP selection across a NAT pool (paper §3 "IP Pooling").
enum class Pooling : std::uint8_t {
  paired,    ///< same external IP for all flows of one internal IP
  arbitrary, ///< any pool member per mapping
};

[[nodiscard]] std::string_view to_string(Pooling p) noexcept;

/// Which translation job a NatDevice core performs. The address-family
/// adaptation (v6 parsing, pref64, softwire encap) lives in the cgn::v6
/// wrapper elements; the mode is carried here so profiles, ground truth and
/// introspection can name the deployment flavour uniformly.
enum class TranslatorMode : std::uint8_t {
  nat44,        ///< classic NAT444 CGN (the paper's subject)
  nat64,        ///< RFC 6146 stateful v6->v4 translation (PLAT of 464XLAT)
  dslite_aftr,  ///< RFC 6333 AFTR: NAT44 over a v4-in-v6 softwire
};

[[nodiscard]] std::string_view to_string(TranslatorMode m) noexcept;

/// Full behavioural configuration of one NAT device (CPE or CGN).
struct NatConfig {
  std::string name = "nat";
  MappingType mapping = MappingType::port_address_restricted;
  PortAllocation port_allocation = PortAllocation::preservation;
  Pooling pooling = Pooling::paired;

  /// Idle seconds after which a UDP mapping is discarded (RFC 4787
  /// recommends >= 120 s; the paper measures 10-200 s in the wild).
  sim::SimTime udp_timeout_s = 120.0;
  /// Idle seconds for *established* TCP mappings (RFC 5382 REQ-5
  /// recommends >= 2 h 4 min).
  sim::SimTime tcp_timeout_s = 7200.0;
  /// Idle seconds for transitory TCP states — connections that have not
  /// completed the handshake, or have seen FIN/RST (RFC 5382: >= 4 min).
  sim::SimTime tcp_transitory_timeout_s = 240.0;

  /// Whether inside->own-external packets are looped back (RFC 4787 REQ-9).
  bool hairpinning = false;
  /// Misbehaviour observed in the wild (paper §3): on hairpin, leave the
  /// internal source endpoint untranslated, exposing internal addresses to
  /// peers behind the same NAT. This is the mechanism behind BitTorrent
  /// internal-address leakage.
  bool hairpin_preserve_source = false;

  /// External ports are drawn from [port_min, port_max]. CGNs typically use
  /// (almost) the whole space — the Figure 8(a) signal.
  std::uint16_t port_min = 1024;
  std::uint16_t port_max = 65535;

  /// Ports per subscriber block when port_allocation == chunk_random.
  std::uint32_t chunk_size = 4096;
};

}  // namespace cgn::nat
