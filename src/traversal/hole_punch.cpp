#include "traversal/hole_punch.hpp"

namespace cgn::traversal {

std::string_view to_string(PunchResult r) noexcept {
  switch (r) {
    case PunchResult::direct_both: return "direct (both ways)";
    case PunchResult::direct_one_way: return "direct (one way)";
    case PunchResult::relay_needed: return "relay needed";
  }
  return "?";
}

void RendezvousServer::install(sim::Network& net) {
  net.register_address(address_, host_, net.root());
  net.set_receiver(host_, [this](sim::Network& n, const sim::Packet& p) {
    handle(n, p);
  });
}

void RendezvousServer::handle(sim::Network& net, const sim::Packet& pkt) {
  const auto* msg = std::any_cast<TraversalMessage>(&pkt.payload);
  if (!msg) return;
  const auto* reg = std::get_if<RendezvousRegister>(msg);
  if (!reg || reg->peer_index < 0 || reg->peer_index > 1) return;

  Session& session = sessions_[reg->session];
  session.peer[reg->peer_index] = pkt.src;  // the NAT-external endpoint

  if (session.peer[0] && session.peer[1]) {
    // Tell each side about the other. The replies traverse the mappings the
    // registrations just created, so they pass every filtering policy.
    for (int i = 0; i < 2; ++i) {
      sim::Packet out = sim::Packet::udp(endpoint(), *session.peer[i]);
      out.payload =
          TraversalMessage{RendezvousPeerInfo{reg->session,
                                              *session.peer[1 - i]}};
      net.send(std::move(out), host_);
    }
  }
}

PunchResult punch(sim::Network& net, RendezvousServer& server, PunchPeer a,
                  PunchPeer b, std::uint64_t session, int rounds) {
  struct PeerState {
    std::optional<netcore::Endpoint> remote;  // from the rendezvous server
    bool got_probe = false;                   // direct packet arrived
  };
  PeerState state[2];
  PunchPeer peers[2] = {a, b};

  for (int i = 0; i < 2; ++i) {
    peers[i].demux->bind(
        peers[i].local.port,
        [&state, &net, &peers, i, session](sim::Network&,
                                           const sim::Packet& pkt) {
          const auto* msg = std::any_cast<TraversalMessage>(&pkt.payload);
          if (!msg) return;
          if (const auto* info = std::get_if<RendezvousPeerInfo>(msg)) {
            if (info->session == session) state[i].remote = info->peer;
            return;
          }
          if (const auto* probe = std::get_if<PunchProbe>(msg)) {
            if (probe->session != session) return;
            state[i].got_probe = true;
            if (!probe->ack) {
              // Ack straight back to the observed source.
              sim::Packet ack = sim::Packet::udp(peers[i].local, pkt.src);
              ack.payload =
                  TraversalMessage{PunchProbe{session, i, /*ack=*/true}};
              net.send(std::move(ack), peers[i].host);
            }
          }
        });
  }

  // (1) + (2): register; the server answers with peer info once both are in.
  for (int i = 0; i < 2; ++i) {
    sim::Packet reg = sim::Packet::udp(peers[i].local, server.endpoint());
    reg.payload = TraversalMessage{RendezvousRegister{session, i}};
    net.send(std::move(reg), peers[i].host);
  }

  // (3): simultaneous punching. Each round both sides fire at the other's
  // external endpoint; outbound packets open/refresh their own NAT state so
  // later rounds can succeed where the first was filtered.
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < 2; ++i) {
      if (!state[i].remote) continue;
      sim::Packet probe = sim::Packet::udp(peers[i].local, *state[i].remote);
      probe.payload = TraversalMessage{PunchProbe{session, i, false}};
      net.send(std::move(probe), peers[i].host);
    }
  }

  for (int i = 0; i < 2; ++i) peers[i].demux->unbind(peers[i].local.port);

  if (state[0].got_probe && state[1].got_probe) return PunchResult::direct_both;
  if (state[0].got_probe || state[1].got_probe)
    return PunchResult::direct_one_way;
  return PunchResult::relay_needed;
}

}  // namespace cgn::traversal
