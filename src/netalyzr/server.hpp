// The Netalyzr measurement server: a public host offering a TCP echo service
// (on a high port unlikely to be proxied, per the paper) and a UDP probe
// service used by the TTL-driven NAT enumeration test. The test driver can
// also transmit keepalives and probes *from* the server toward a client's
// mapped endpoint — Netalyzr controls both ends of every experiment.
#pragma once

#include <cstdint>

#include "netalyzr/messages.hpp"
#include "netcore/ipv4.hpp"
#include "sim/network.hpp"

namespace cgn::netalyzr {

/// Keeps no per-flow state: a UdpInit is answered with the source endpoint
/// the server observed, and the client hands that endpoint back to
/// send_keepalive / send_probe. Sessions from different campaign shards can
/// therefore share one server without locks or per-thread tables.
class NetalyzrServer {
 public:
  static constexpr std::uint16_t kEchoPort = 55777;
  static constexpr std::uint16_t kUdpPort = 55778;

  NetalyzrServer(sim::NodeId host, netcore::Ipv4Address address)
      : host_(host), address_(address) {}

  /// Registers the address and binds the echo and UDP ports; the host node
  /// must hang off the core.
  void install(sim::Network& net);

  /// Registers a second public address for the same host, reachable only by
  /// v4 literal (the Big-NAT battery never resolves it through DNS, so a
  /// v6-only stack has no AAAA for it and literal flows die at the host).
  /// Installed by the builder only in v6-transition worlds.
  void install_literal_address(sim::Network& net, netcore::Ipv4Address a);

  [[nodiscard]] bool has_literal_address() const noexcept {
    return literal_address_.value() != 0;
  }
  [[nodiscard]] netcore::Endpoint literal_echo_endpoint() const noexcept {
    return {literal_address_, kEchoPort};
  }

  [[nodiscard]] netcore::Endpoint echo_endpoint() const noexcept {
    return {address_, kEchoPort};
  }
  [[nodiscard]] netcore::Endpoint udp_endpoint() const noexcept {
    return {address_, kUdpPort};
  }
  [[nodiscard]] sim::NodeId host() const noexcept { return host_; }

  /// Sends a TTL-limited keepalive for `flow` toward `mapped`, the observed
  /// endpoint from the flow's UdpInitAck.
  void send_keepalive(sim::Network& net, netcore::Endpoint mapped,
                      std::uint64_t flow, int ttl);

  /// Sends a full-TTL probe for `flow` toward `mapped`; the client checks
  /// receipt.
  void send_probe(sim::Network& net, netcore::Endpoint mapped,
                  std::uint64_t flow, std::uint64_t seq);

 private:
  void handle(sim::Network& net, const sim::Packet& pkt);

  sim::NodeId host_;
  netcore::Ipv4Address address_;
  netcore::Ipv4Address literal_address_;  ///< 0.0.0.0 when not installed
};

}  // namespace cgn::netalyzr
