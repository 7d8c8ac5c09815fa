#include "dht/tracker.hpp"

#include <algorithm>

namespace cgn::dht {

void TrackerServer::install(sim::Network& net) {
  net.register_address(address_, host_, net.root());
  net.bind(host_, kPort, [this](sim::Network& n, const sim::Packet& p) {
    handle(n, p);
  });
}

void TrackerServer::handle(sim::Network& net, const sim::Packet& pkt) {
  const auto* msg = std::any_cast<Message>(&pkt.payload);
  if (!msg) return;
  const auto* announce = std::get_if<AnnounceMsg>(msg);
  if (!announce) return;

  auto& members = swarms_[announce->swarm];
  Contact self{announce->sender, pkt.src};

  // Sample up to reply_sample_ members (excluding the announcer itself).
  AnnounceReply reply{announce->tx, announce->swarm, {}};
  if (!members.empty()) {
    std::size_t want = std::min(reply_sample_, members.size());
    for (std::size_t i = 0; i < want * 3 && reply.peers.size() < want; ++i) {
      const Contact& c = members[rng_.index(members.size())];
      if (c.id == announce->sender) continue;
      if (std::find(reply.peers.begin(), reply.peers.end(), c) !=
          reply.peers.end())
        continue;
      reply.peers.push_back(c);
    }
  }

  // Register (or refresh) the announcer.
  auto it = std::find_if(members.begin(), members.end(), [&](const Contact& c) {
    return c.id == announce->sender;
  });
  if (it == members.end())
    members.push_back(self);
  else
    it->endpoint = self.endpoint;  // NAT rebinding updates the endpoint

  sim::Packet out = sim::Packet::udp(endpoint(), pkt.src);
  out.payload = Message{std::move(reply)};
  net.send(std::move(out), host_);
}

}  // namespace cgn::dht
