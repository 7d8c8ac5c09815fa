// UDP hole punching (RFC 5128 §3.3) over the simulated network.
//
// The paper's §6.5/§7 argument is that CGN mapping types directly determine
// whether subscribers can establish peer-to-peer connectivity: symmetric
// CGNs "rule out peer-to-peer connectivity, complicating modern protocols
// such as WebRTC that now need to rely on rendezvous servers". This module
// makes that claim measurable: a rendezvous server learns both peers'
// NAT-external endpoints, both peers then punch simultaneously, and the
// outcome (direct path / relay needed) follows from the real NAT behaviour
// on both paths.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <unordered_map>
#include <variant>

#include "netcore/ipv4.hpp"
#include "sim/network.hpp"

namespace cgn::traversal {

// --- wire messages -----------------------------------------------------------

/// Client -> rendezvous: register under a session id.
struct RendezvousRegister {
  std::uint64_t session = 0;
  int peer_index = 0;  ///< 0 or 1
};

/// Rendezvous -> client: the other side's observed (NAT-external) endpoint.
struct RendezvousPeerInfo {
  std::uint64_t session = 0;
  netcore::Endpoint peer;
};

/// Punch packet / acknowledgment exchanged directly between the peers.
struct PunchProbe {
  std::uint64_t session = 0;
  int from_index = 0;
  bool ack = false;
};

using TraversalMessage =
    std::variant<RendezvousRegister, RendezvousPeerInfo, PunchProbe>;

// --- rendezvous server -------------------------------------------------------

/// Matches two registrations per session id and tells each side the other's
/// observed endpoint (what a STUN+signalling service does for WebRTC).
class RendezvousServer {
 public:
  static constexpr std::uint16_t kPort = 3579;

  RendezvousServer(sim::NodeId host, netcore::Ipv4Address address)
      : host_(host), address_(address) {}

  void install(sim::Network& net);

  [[nodiscard]] netcore::Endpoint endpoint() const noexcept {
    return {address_, kPort};
  }

 private:
  void handle(sim::Network& net, const sim::Packet& pkt);

  struct Session {
    std::optional<netcore::Endpoint> peer[2];
  };

  sim::NodeId host_;
  netcore::Ipv4Address address_;
  std::unordered_map<std::uint64_t, Session> sessions_;
};

// --- hole punching driver ----------------------------------------------------

/// Outcome of one hole-punching attempt.
enum class PunchResult : std::uint8_t {
  direct_both,    ///< both directions verified (full P2P)
  direct_one_way, ///< only one direction came up
  relay_needed,   ///< no direct path; a relay (TURN-style) is required
};

[[nodiscard]] std::string_view to_string(PunchResult r) noexcept;

/// One endpoint of a punching attempt: a socket on a device. punch() binds
/// `local.port` on `host` for the attempt's duration.
struct PunchPeer {
  sim::NodeId host = sim::kNoNode;
  netcore::Endpoint local;
};

/// Runs the RFC 5128 sequence for two peers: (1) both register with the
/// rendezvous server from the sockets they will punch from (creating NAT
/// mappings toward the server and teaching it their external endpoints),
/// (2) both learn the other's external endpoint, (3) both send punch
/// probes simultaneously for `rounds` rounds, acking what they receive.
/// Purely driver-side: all packets cross the simulated network and every
/// NAT on both paths.
[[nodiscard]] PunchResult punch(sim::Network& net, RendezvousServer& server,
                                PunchPeer a, PunchPeer b,
                                std::uint64_t session, int rounds = 3);

}  // namespace cgn::traversal
