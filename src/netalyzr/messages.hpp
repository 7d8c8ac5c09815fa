// Wire messages between the Netalyzr client and its measurement servers.
#pragma once

#include <cstdint>
#include <variant>

#include "netcore/ipv4.hpp"

namespace cgn::netalyzr {

/// TCP echo request (port-translation test, §6.2): the server answers with
/// the source endpoint it observed, exposing the NAT's external mapping.
struct EchoRequest {
  std::uint64_t tx = 0;
};

struct EchoResponse {
  std::uint64_t tx = 0;
  netcore::Endpoint observed;
};

/// First packet of a UDP reachability-experiment flow (§6.3). The server's
/// ack carries the observed source; the client passes that mapped endpoint
/// back when it has the server send keepalives/probes toward it.
struct UdpInit {
  std::uint64_t flow = 0;
};

struct UdpInitAck {
  std::uint64_t flow = 0;
  netcore::Endpoint observed;
};

/// TTL-limited keepalive, either direction. Intentionally expires mid-path.
struct UdpKeepalive {
  std::uint64_t flow = 0;
};

/// Server-to-client reachability probe; the client records receipt.
struct UdpProbe {
  std::uint64_t flow = 0;
  std::uint64_t seq = 0;
};

using NetalyzrMessage = std::variant<EchoRequest, EchoResponse, UdpInit,
                                     UdpInitAck, UdpKeepalive, UdpProbe>;

}  // namespace cgn::netalyzr
