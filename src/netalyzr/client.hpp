// The Netalyzr client: runs the paper's measurement tests from an end-user
// device inside the simulated network.
//
//  * Address test (§4.2): collect IPdev (local config), IPcpe (UPnP query to
//    the CPE) and IPpub (server-observed).
//  * Port-translation test (§6.2): ten sequential TCP flows to the echo
//    server, comparing chosen vs observed source ports; also reveals NAT
//    pooling via the set of observed public addresses.
//  * TTL-driven NAT enumeration (§6.3): per-hop reachability experiments
//    with TTL-limited keepalives from both ends, locating stateful hops and
//    measuring their mapping timeouts.
//  * STUN test (§6.3): RFC 3489 classification via cgn::stun.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fault/retry.hpp"
#include "nat/nat_device.hpp"
#include "netalyzr/messages.hpp"
#include "netalyzr/server.hpp"
#include "netalyzr/session.hpp"
#include "sim/rng.hpp"
#include "stun/stun.hpp"
#include "v6/dns64.hpp"
#include "v6/translator.hpp"

namespace cgn::netalyzr {

/// Static facts about the vantage point a session runs from.
struct ClientContext {
  sim::NodeId host = sim::kNoNode;
  netcore::Ipv4Address device_address;
  netcore::Asn asn = 0;
  bool cellular = false;
  /// UPnP channel to the first-hop CPE, when the CPE offers UPnP (the paper
  /// could query it in ~40% of sessions). Null when unavailable.
  const nat::NatDevice* upnp_cpe = nullptr;
  /// The carrier's DNS64-capable resolver, when the line is v6-routed
  /// (NAT64/464XLAT). Null on v4-only and DS-Lite lines.
  const v6::Dns64Resolver* dns64 = nullptr;
  /// The host's v6-only stack (NAT64 line without CLAT). When set, the
  /// client resolves server names before connecting, as a real OS would —
  /// unresolved v4 literals cannot leave the host.
  v6::HostV6Stack* v6stack = nullptr;
};

class NetalyzrClient {
 public:
  /// The client binds its ports on `context.host` in `net` and unbinds them
  /// on destruction. `retry` is the probe retransmission policy; the
  /// default (attempts = 1) reproduces the original fire-once client
  /// exactly.
  NetalyzrClient(ClientContext context, sim::Network& net, sim::Rng rng,
                 fault::RetryPolicy retry = {});
  ~NetalyzrClient();

  NetalyzrClient(const NetalyzrClient&) = delete;
  NetalyzrClient& operator=(const NetalyzrClient&) = delete;

  /// Address + port-translation tests. Always the first call of a session.
  /// `clock` (may be null) absorbs the retry policy's backoff when an echo
  /// flow needs retransmitting; pass the session's per-shard clock.
  [[nodiscard]] SessionResult run_basic(NetalyzrServer& server,
                                        sim::Clock* clock = nullptr);

  /// STUN classification; stores the outcome into `result`.
  void run_stun(const stun::StunServer& server, SessionResult& result);

  /// TTL-driven NAT enumeration; advances `clock` through the idle periods
  /// and stores the outcome into `result`.
  void run_enumeration(sim::Clock& clock, NetalyzrServer& server,
                       SessionResult& result);

  /// Big-NAT transition battery ("Tracking the Big NAT"): pref64 discovery
  /// via the carrier resolver (RFC 7050 anchors), a literal-v4 echo probe
  /// against the server's never-resolved second address, and a coarse
  /// full-path idle sweep measuring the translator's mapping timeout.
  /// Stores a TransitionObservation into `result`.
  void run_transition(sim::Clock& clock, NetalyzrServer& server,
                      SessionResult& result);

 private:
  /// An acknowledged UDP flow: the server's ack carries `mapped`, the
  /// source endpoint it observed, and every later server-side keepalive and
  /// probe goes there.
  struct UdpFlow {
    std::uint64_t flow = 0;
    netcore::Endpoint local;
    netcore::Endpoint mapped;
  };

  void handle(sim::Network& net, const sim::Packet& pkt);
  std::uint16_t next_ephemeral_port();
  void bind(std::uint16_t port);
  /// On a v6-only line, resolves `name` through the carrier DNS64 and
  /// teaches the host stack the AAAA, as a real OS resolver would before
  /// connect(). No-op on lines with a v4 path (CLAT, DS-Lite, NAT444).
  void resolve_for_v6(netcore::Ipv4Address name);
  /// One TCP echo flow to `dst`; true when the echo came back.
  bool echo_flow(sim::Clock* clock, netcore::Endpoint dst,
                 std::vector<FlowObservation>* flows, SessionResult* result);
  /// Draws a flow id, binds a fresh ephemeral port and sends UdpInit with
  /// `ttl` until acked; nullopt when every attempt went unanswered.
  std::optional<UdpFlow> open_udp_flow(NetalyzrServer& server,
                                       int ttl = sim::kDefaultTtl);
  /// Has the server probe `udp`'s mapped endpoint; true when a probe
  /// arrived.
  bool probe_reaches(NetalyzrServer& server, const UdpFlow& udp);
  /// One §6.3 reachability experiment for hop `h` with idle period `tidle`.
  /// Returns true when the final server probe reached the client, nullopt
  /// when the experiment could not be set up (init never acked).
  std::optional<bool> reachability_experiment(sim::Clock& clock,
                                              NetalyzrServer& server,
                                              int path_hops, int hop,
                                              double tidle);

  ClientContext ctx_;
  sim::Network* net_;
  sim::Rng rng_;
  fault::RetryPolicy retry_;
  std::vector<std::uint16_t> bound_ports_;

  std::uint16_t ephemeral_cursor_ = 0;
  std::uint64_t next_tx_ = 1;

  std::optional<EchoResponse> last_echo_;
  std::optional<UdpInitAck> last_ack_;
  std::optional<UdpProbe> last_probe_;
};

}  // namespace cgn::netalyzr
