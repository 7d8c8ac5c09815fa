// Sequential carving of address blocks out of the IPv4 space.
//
// The scenario generator carves each ISP's public prefixes out of the public
// space, and each CGN's external pool (the paper's "NAT pooling", §3) out of
// its ISP's prefix; a NAT takes that pool as a plain address vector.
#pragma once

#include <cstdint>
#include <stdexcept>

#include "netcore/ipv4.hpp"

namespace cgn::netcore {

/// Carves consecutive sub-prefixes out of one parent prefix.
class PrefixCarver {
 public:
  explicit PrefixCarver(Ipv4Prefix parent) : parent_(parent) {}

  /// Returns the next unallocated /`length` inside the parent prefix.
  /// Throws std::length_error when the parent is exhausted and
  /// std::invalid_argument when `length` is shorter than the parent.
  Ipv4Prefix next(int length);

  /// Addresses handed out so far.
  [[nodiscard]] std::uint64_t consumed() const noexcept { return consumed_; }
  [[nodiscard]] std::uint64_t remaining() const noexcept {
    return parent_.size() - consumed_;
  }
  [[nodiscard]] const Ipv4Prefix& parent() const noexcept { return parent_; }

 private:
  Ipv4Prefix parent_;
  std::uint64_t consumed_ = 0;
};

}  // namespace cgn::netcore
