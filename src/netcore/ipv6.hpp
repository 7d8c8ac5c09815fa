// IPv6 addressing primitives for the transition subsystem: a 128-bit
// address type, CIDR prefixes, and the RFC 6052 IPv4-embedded IPv6
// algorithm (pref64 embed/extract) used by NAT64, DNS64 and CLAT.
//
// The simulator's packet transport stays IPv4 (see DESIGN.md §14): v6
// addresses ride in an optional per-packet overlay, so nothing here is on
// the v4 hot path and the types optimize for clarity over micro-cost.
#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

#include "netcore/ipv4.hpp"

namespace cgn::netcore {

/// A single IPv6 address stored as two host-order 64-bit halves: `hi` holds
/// bytes 0..7 (network order), `lo` bytes 8..15. Tiny value type, usable as
/// a map key and passable by value, mirroring Ipv4Address.
class Ipv6Address {
 public:
  constexpr Ipv6Address() = default;
  constexpr Ipv6Address(std::uint64_t hi, std::uint64_t lo)
      : hi_(hi), lo_(lo) {}

  /// Parses RFC 4291 text ("64:ff9b::c000:201", "2001:db8::1"). Supports
  /// one "::" gap and a trailing dotted-quad. Throws std::invalid_argument
  /// on malformed input; use try_parse for a non-throwing variant.
  static Ipv6Address parse(std::string_view text);
  static std::optional<Ipv6Address> try_parse(std::string_view text) noexcept;

  [[nodiscard]] constexpr std::uint64_t hi() const noexcept { return hi_; }
  [[nodiscard]] constexpr std::uint64_t lo() const noexcept { return lo_; }

  /// The i-th byte in network order (0 = most significant).
  [[nodiscard]] constexpr std::uint8_t byte(int i) const noexcept {
    const std::uint64_t half = i < 8 ? hi_ : lo_;
    return static_cast<std::uint8_t>(half >> (8 * (7 - (i & 7))));
  }
  /// Returns a copy with byte `i` replaced by `v`.
  [[nodiscard]] constexpr Ipv6Address with_byte(int i,
                                               std::uint8_t v) const noexcept {
    const int shift = 8 * (7 - (i & 7));
    const std::uint64_t mask = ~(std::uint64_t{0xff} << shift);
    const std::uint64_t val = std::uint64_t{v} << shift;
    return i < 8 ? Ipv6Address((hi_ & mask) | val, lo_)
                 : Ipv6Address(hi_, (lo_ & mask) | val);
  }
  /// The i-th 16-bit group in network order (0..7).
  [[nodiscard]] constexpr std::uint16_t hextet(int i) const noexcept {
    const std::uint64_t half = i < 4 ? hi_ : lo_;
    return static_cast<std::uint16_t>(half >> (16 * (3 - (i & 3))));
  }

  /// RFC 5952 canonical text: lowercase hex, longest zero run compressed.
  [[nodiscard]] std::string to_string() const;

  auto operator<=>(const Ipv6Address&) const = default;

 private:
  std::uint64_t hi_ = 0;
  std::uint64_t lo_ = 0;
};

/// A CIDR prefix over Ipv6Address; host bits normalized to zero.
class Ipv6Prefix {
 public:
  constexpr Ipv6Prefix() = default;
  Ipv6Prefix(Ipv6Address address, int length);

  /// Parses "64:ff9b::/96". Throws std::invalid_argument on malformed input.
  static Ipv6Prefix parse(std::string_view text);

  [[nodiscard]] Ipv6Address address() const noexcept { return address_; }
  [[nodiscard]] int length() const noexcept { return length_; }
  [[nodiscard]] bool contains(Ipv6Address a) const noexcept;
  [[nodiscard]] std::string to_string() const;

  auto operator<=>(const Ipv6Prefix&) const = default;

 private:
  Ipv6Address address_;
  int length_ = 0;
};

// ---- RFC 6052: IPv4-embedded IPv6 addresses ------------------------------

/// The six prefix lengths RFC 6052 defines for NAT64/DNS64 prefixes.
inline constexpr int kPref64Lengths[] = {32, 40, 48, 56, 64, 96};
inline constexpr int kPref64LengthCount = 6;

[[nodiscard]] constexpr bool is_valid_pref64_length(int length) noexcept {
  for (int l : kPref64Lengths)
    if (l == length) return true;
  return false;
}

/// The Well-Known Prefix 64:ff9b::/96.
[[nodiscard]] Ipv6Prefix well_known_pref64();

/// Embeds `v4` into `pref64` per RFC 6052 §2.2 (bits 64..71, the "u" octet,
/// stay zero for prefixes shorter than /96). Throws std::invalid_argument
/// if the prefix length is not one of kPref64Lengths.
[[nodiscard]] Ipv6Address pref64_embed(const Ipv6Prefix& pref64,
                                       Ipv4Address v4);

/// Inverse of pref64_embed: recovers the embedded IPv4 address, or nullopt
/// if `a` is not inside the prefix, the u octet is non-zero, or the prefix
/// length is invalid.
[[nodiscard]] std::optional<Ipv4Address> pref64_extract(
    const Ipv6Prefix& pref64, Ipv6Address a) noexcept;

}  // namespace cgn::netcore

template <>
struct std::hash<cgn::netcore::Ipv6Address> {
  std::size_t operator()(const cgn::netcore::Ipv6Address& a) const noexcept {
    // splitmix-style fold of the two halves.
    std::uint64_t x = a.hi() * 0x9e3779b97f4a7c15ULL;
    x ^= x >> 32;
    x += a.lo();
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 29;
    return static_cast<std::size_t>(x);
  }
};

template <>
struct std::hash<cgn::netcore::Ipv6Prefix> {
  std::size_t operator()(const cgn::netcore::Ipv6Prefix& p) const noexcept {
    std::size_t h = std::hash<cgn::netcore::Ipv6Address>{}(p.address());
    return h ^ (static_cast<std::size_t>(p.length()) * 0x9e3779b9u);
  }
};
