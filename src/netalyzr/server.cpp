#include "netalyzr/server.hpp"

namespace cgn::netalyzr {

void NetalyzrServer::install(sim::Network& net) {
  net.register_address(address_, host_, net.root());
  net.set_receiver(host_, [this](sim::Network& n, const sim::Packet& p) {
    handle(n, p);
  });
}

void NetalyzrServer::install_literal_address(sim::Network& net,
                                             netcore::Ipv4Address a) {
  literal_address_ = a;
  net.register_address(a, host_, net.root());
}

void NetalyzrServer::handle(sim::Network& net, const sim::Packet& pkt) {
  const auto* msg = std::any_cast<NetalyzrMessage>(&pkt.payload);
  if (!msg) return;
  if (const auto* echo = std::get_if<EchoRequest>(msg)) {
    sim::Packet reply =
        sim::Packet::tcp(pkt.dst, pkt.src, sim::TcpFlag::none);
    reply.payload = NetalyzrMessage{EchoResponse{echo->tx, pkt.src}};
    net.send(std::move(reply), host_);
    return;
  }
  if (const auto* init = std::get_if<UdpInit>(msg)) {
    sim::Packet reply = sim::Packet::udp(pkt.dst, pkt.src);
    reply.payload = NetalyzrMessage{UdpInitAck{init->flow, pkt.src}};
    net.send(std::move(reply), host_);
    return;
  }
  // Client-side keepalives need no reply; their job is refreshing NAT state
  // on the hops they cross (most never arrive here at all).
}

void NetalyzrServer::send_keepalive(sim::Network& net,
                                    netcore::Endpoint mapped,
                                    std::uint64_t flow, int ttl) {
  sim::Packet pkt = sim::Packet::udp(udp_endpoint(), mapped, ttl);
  pkt.payload = NetalyzrMessage{UdpKeepalive{flow}};
  net.send(std::move(pkt), host_);
}

void NetalyzrServer::send_probe(sim::Network& net, netcore::Endpoint mapped,
                                std::uint64_t flow, std::uint64_t seq) {
  sim::Packet pkt = sim::Packet::udp(udp_endpoint(), mapped);
  pkt.payload = NetalyzrMessage{UdpProbe{flow, seq}};
  net.send(std::move(pkt), host_);
}

}  // namespace cgn::netalyzr
