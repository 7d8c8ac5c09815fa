#include "netalyzr/client.hpp"

#include <algorithm>

#include "obs/metrics.hpp"

namespace cgn::netalyzr {

namespace {
// OS ephemeral range (the Linux default); Figure 8(a)'s contrast between OS
// ephemeral ports and CGN-renumbered ports rests on this being a narrow,
// well-known band.
constexpr std::uint16_t kEphemeralLo = 32768;
constexpr std::uint16_t kEphemeralHi = 60999;

// TTL enumeration (run_enumeration).
/// Longest idle period tested; the paper caps at 200 s to bound session
/// runtime, so longer NAT timeouts go unnoticed.
constexpr double kMaxIdleS = 200.0;
/// Keepalive cadence (also the timeout measurement granularity).
constexpr double kKeepaliveIntervalS = 10.0;
/// Upper bound of the path-length search.
constexpr int kMaxEnumHops = 24;

// Big-NAT transition battery (run_transition).
/// Idle-sweep step — also the timeout measurement granularity. Coarser than
/// the TTL enumeration sweep to bound per-session cost.
constexpr double kTimeoutGranularityS = 15.0;
/// Longest idle period probed.
constexpr double kTimeoutMaxS = 120.0;

// Session volume and test mix across the whole campaign.
obs::Counter& g_sessions = obs::counter("netalyzr.sessions");
obs::Counter& g_stun_tests = obs::counter("netalyzr.stun_tests");
obs::Counter& g_enum_tests = obs::counter("netalyzr.enum_tests");
obs::Counter& g_enum_experiments = obs::counter("netalyzr.enum_experiments");
obs::Counter& g_transition_tests = obs::counter("netalyzr.transition_tests");
}  // namespace

NetalyzrClient::NetalyzrClient(ClientContext context, sim::Network& net,
                               sim::Rng rng, fault::RetryPolicy retry)
    : ctx_(context), net_(&net), rng_(std::move(rng)), retry_(retry) {
  ephemeral_cursor_ = static_cast<std::uint16_t>(
      rng_.uniform(kEphemeralLo, kEphemeralHi));
}

NetalyzrClient::~NetalyzrClient() {
  for (std::uint16_t port : bound_ports_) net_->unbind(ctx_.host, port);
}

void NetalyzrClient::bind(std::uint16_t port) {
  net_->bind(ctx_.host, port, [this](sim::Network& n, const sim::Packet& p) {
    handle(n, p);
  });
  bound_ports_.push_back(port);
}

std::uint16_t NetalyzrClient::next_ephemeral_port() {
  std::uint16_t port = ephemeral_cursor_;
  ephemeral_cursor_ = port >= kEphemeralHi
                          ? kEphemeralLo
                          : static_cast<std::uint16_t>(port + 1);
  return port;
}

void NetalyzrClient::handle(sim::Network&, const sim::Packet& pkt) {
  const auto* msg = std::any_cast<NetalyzrMessage>(&pkt.payload);
  if (!msg) return;
  if (const auto* echo = std::get_if<EchoResponse>(msg)) {
    last_echo_ = *echo;
    return;
  }
  if (const auto* ack = std::get_if<UdpInitAck>(msg)) {
    last_ack_ = *ack;
    return;
  }
  if (const auto* probe = std::get_if<UdpProbe>(msg)) {
    last_probe_ = *probe;
    return;
  }
}

void NetalyzrClient::resolve_for_v6(netcore::Ipv4Address name) {
  if (!ctx_.v6stack || !ctx_.dns64) return;
  ctx_.v6stack->note_resolved(name, ctx_.dns64->resolve_aaaa(name).aaaa);
}

bool NetalyzrClient::echo_flow(sim::Clock* clock, netcore::Endpoint dst,
                               std::vector<FlowObservation>* flows,
                               SessionResult* result) {
  std::uint16_t port = next_ephemeral_port();
  bind(port);
  return fault::retry_loop(retry_, clock, [&] {
    std::uint64_t tx = next_tx_++;
    last_echo_.reset();
    sim::Packet pkt = sim::Packet::tcp({ctx_.device_address, port}, dst);
    pkt.payload = NetalyzrMessage{EchoRequest{tx}};
    net_->send(std::move(pkt), ctx_.host);
    if (!(last_echo_ && last_echo_->tx == tx)) return false;
    if (flows)
      flows->push_back(FlowObservation{port, last_echo_->observed});
    if (result && !result->ip_pub)
      result->ip_pub = last_echo_->observed.address;
    return true;
  });
}

SessionResult NetalyzrClient::run_basic(NetalyzrServer& server,
                                        sim::Clock* clock) {
  g_sessions.inc();
  SessionResult result;
  result.asn = ctx_.asn;
  result.cellular = ctx_.cellular;
  result.ip_dev = ctx_.device_address;
  if (ctx_.upnp_cpe) {
    result.ip_cpe = ctx_.upnp_cpe->upnp_external_address();
    result.cpe_model = ctx_.upnp_cpe->config().name;
  }

  // On a v6-only line the OS resolves the server name before connecting —
  // which is what routes the flow through the NAT64 (DNS64-synthesized
  // AAAA). The literal address is deliberately never resolved.
  resolve_for_v6(server.echo_endpoint().address);

  // Ten sequential TCP flows to the echo server (§6.2). A flow whose reply
  // is lost retransmits from the same local port (same socket, new tx),
  // paying backoff on the session clock.
  for (int i = 0; i < 10; ++i)
    echo_flow(clock, server.echo_endpoint(), &result.tcp_flows, &result);
  return result;
}

void NetalyzrClient::run_stun(const stun::StunServer& server,
                              SessionResult& result) {
  g_stun_tests.inc();
  resolve_for_v6(server.primary().address);
  resolve_for_v6(server.alternate_address().address);
  std::uint16_t port = next_ephemeral_port();
  stun::StunClient client(*net_, ctx_.host, {ctx_.device_address, port});
  result.stun = client.classify(server);
}

std::optional<NetalyzrClient::UdpFlow> NetalyzrClient::open_udp_flow(
    NetalyzrServer& server, int ttl) {
  const std::uint64_t flow = rng_.uniform(1, ~std::uint64_t{0} - 1);
  const std::uint16_t port = next_ephemeral_port();
  bind(port);
  const netcore::Endpoint local{ctx_.device_address, port};
  // Lost inits retransmit immediately (null clock): sub-second retries must
  // not eat into an idle interval under measurement or disturb the TTL
  // ladder's timing. With no clock advance nothing can re-map the flow
  // between retries, so the acked init's observed source is the mapping.
  const bool acked = fault::retry_loop(retry_, nullptr, [&] {
    last_ack_.reset();
    sim::Packet init = sim::Packet::udp(local, server.udp_endpoint(), ttl);
    init.payload = NetalyzrMessage{UdpInit{flow}};
    net_->send(std::move(init), ctx_.host);
    return last_ack_ && last_ack_->flow == flow;
  });
  if (!acked) return std::nullopt;
  return UdpFlow{flow, local, last_ack_->observed};
}

bool NetalyzrClient::probe_reaches(NetalyzrServer& server,
                                   const UdpFlow& udp) {
  // Full-TTL probe from the server, re-issued with a fresh sequence number
  // if lost in transit. An expired mapping stays expired on re-probe, so
  // retries repair link loss without masking NAT state.
  return fault::retry_loop(retry_, nullptr, [&] {
    const std::uint64_t seq = next_tx_++;
    last_probe_.reset();
    server.send_probe(*net_, udp.mapped, udp.flow, seq);
    return last_probe_ && last_probe_->flow == udp.flow &&
           last_probe_->seq == seq;
  });
}

std::optional<bool> NetalyzrClient::reachability_experiment(
    sim::Clock& clock, NetalyzrServer& server, int path_hops, int hop,
    double tidle) {
  g_enum_experiments.inc();
  // (a) Initialization packet: creates NAT state on every hop.
  const std::optional<UdpFlow> udp = open_udp_flow(server);
  if (!udp) return std::nullopt;

  // (b) TTL-limited keepalives from both ends during the idle period.
  // ttl_c = hop dies exactly at the hop under test, refreshing hops 1..h-1;
  // ttl_s = path_hops+1-hop dies there from the other side, refreshing the
  // server-side hops. The hop under test is starved.
  const int ttl_c = hop;
  const int ttl_s = path_hops + 1 - hop;
  double elapsed = 0.0;
  while (elapsed + kKeepaliveIntervalS < tidle) {
    clock.advance(kKeepaliveIntervalS);
    elapsed += kKeepaliveIntervalS;
    sim::Packet ka = sim::Packet::udp(udp->local, server.udp_endpoint(), ttl_c);
    ka.payload = NetalyzrMessage{UdpKeepalive{udp->flow}};
    net_->send(std::move(ka), ctx_.host);
    server.send_keepalive(*net_, udp->mapped, udp->flow, ttl_s);
  }
  clock.advance(tidle - elapsed);

  // (c) Did the server's probe reach the client?
  return probe_reaches(server, *udp);
}

void NetalyzrClient::run_enumeration(sim::Clock& clock,
                                     NetalyzrServer& server,
                                     SessionResult& result) {
  g_enum_tests.inc();
  TtlEnumResult out;

  // Path length discovery: the shortest TTL whose init gets acknowledged has
  // crossed every intermediate hop.
  int path_hops = -1;
  for (int ttl = 1; ttl <= kMaxEnumHops + 1; ++ttl) {
    const bool acked = open_udp_flow(server, ttl).has_value();
    ++out.experiments;
    if (acked) {
      path_hops = ttl - 1;
      break;
    }
  }
  if (path_hops < 0) {
    result.enumeration = out;  // could not even reach the server
    return;
  }
  out.path_hops = path_hops;

  // Pass 1: statefulness of every hop at the maximum idle period.
  std::vector<int> stateful_hops;
  for (int hop = 1; hop <= path_hops; ++hop) {
    auto reachable =
        reachability_experiment(clock, server, path_hops, hop, kMaxIdleS);
    ++out.experiments;
    NatHopObservation obs;
    obs.hop = hop;
    obs.stateful = reachable.has_value() && !*reachable;
    out.hops.push_back(obs);
    if (obs.stateful) stateful_hops.push_back(hop);
  }

  // Pass 2: timeout sweep per stateful hop, at keepalive granularity.
  for (int hop : stateful_hops) {
    for (double tidle = kKeepaliveIntervalS; tidle <= kMaxIdleS;
         tidle += kKeepaliveIntervalS) {
      auto reachable =
          reachability_experiment(clock, server, path_hops, hop, tidle);
      ++out.experiments;
      if (reachable.has_value() && !*reachable) {
        out.hops[static_cast<std::size_t>(hop - 1)].timeout_s = tidle;
        break;
      }
    }
  }

  result.enumeration = out;
}

void NetalyzrClient::run_transition(sim::Clock& clock, NetalyzrServer& server,
                                    SessionResult& result) {
  g_transition_tests.inc();
  TransitionObservation obs;

  // (a) pref64 discovery: resolve the IPv4-only anchors through the carrier
  // resolver and scan the RFC 6052 lengths. Only a DNS64 synthesizes an
  // AAAA for these names, so detection == "a NAT64 path exists".
  if (ctx_.dns64) {
    if (auto pref = v6::discover_pref64(*ctx_.dns64)) {
      obs.pref64_detected = true;
      obs.pref64_length = pref->length();
    }
  }

  // (b) literal-v4 reachability: one echo flow to the server's second
  // address, bypassing DNS. Works through NAT444, DS-Lite and 464XLAT
  // (CLAT translates literals statelessly); dies on a v6-only NAT64 line.
  // Together with (a) this separates NAT64-only from 464XLAT.
  if (server.has_literal_address())
    obs.literal_v4_ok =
        echo_flow(&clock, server.literal_echo_endpoint(), nullptr, nullptr);

  // (c) Translator-timeout sweep: open a UDP flow, starve the whole path
  // for tidle, then have the server probe the mapped endpoint. The first
  // idle period the probe misses bounds the path's minimum mapping timeout
  // — the per-carrier number the Big-NAT study tabulates.
  for (double tidle = kTimeoutGranularityS; tidle <= kTimeoutMaxS + 1e-9;
       tidle += kTimeoutGranularityS) {
    const std::optional<UdpFlow> udp = open_udp_flow(server);
    if (!udp) break;
    clock.advance(tidle);
    if (!probe_reaches(server, *udp)) {
      obs.translator_timeout_s = tidle;
      break;
    }
  }

  result.transition = obs;
}

}  // namespace cgn::netalyzr
