#include "stun/stun.hpp"

#include <variant>

namespace cgn::stun {

std::string_view to_string(StunType t) noexcept {
  switch (t) {
    case StunType::open_internet: return "open internet";
    case StunType::symmetric: return "symmetric";
    case StunType::port_address_restricted: return "port-address restricted";
    case StunType::address_restricted: return "address restricted";
    case StunType::full_cone: return "full cone";
    case StunType::blocked: return "blocked";
  }
  return "?";
}

std::optional<int> permissiveness(StunType t) noexcept {
  switch (t) {
    case StunType::symmetric: return 0;
    case StunType::port_address_restricted: return 1;
    case StunType::address_restricted: return 2;
    case StunType::full_cone: return 3;
    default: return std::nullopt;
  }
}

void StunServer::install(sim::Network& net) {
  net.register_address(primary_ip_, host_, net.root());
  net.register_address(alternate_ip_, host_, net.root());
  for (std::uint16_t port : {primary_port_, alternate_port_})
    net.bind(host_, port, [this](sim::Network& n, const sim::Packet& p) {
      handle(n, p);
    });
}

void StunServer::handle(sim::Network& net, const sim::Packet& pkt) {
  const auto* req = std::any_cast<BindingRequest>(&pkt.payload);
  if (!req) return;
  netcore::Ipv4Address from_ip =
      req->change.change_ip
          ? (pkt.dst.address == primary_ip_ ? alternate_ip_ : primary_ip_)
          : pkt.dst.address;
  std::uint16_t from_port =
      req->change.change_port
          ? (pkt.dst.port == primary_port_ ? alternate_port_ : primary_port_)
          : pkt.dst.port;
  sim::Packet reply = sim::Packet::udp({from_ip, from_port}, pkt.src);
  reply.payload = BindingResponse{req->tx, pkt.src};
  net.send(std::move(reply), host_);
}

StunClient::StunClient(sim::Network& net, sim::NodeId host,
                       netcore::Endpoint local)
    : net_(&net), host_(host), local_(local) {
  net_->bind(host_, local_.port, [this](sim::Network&, const sim::Packet& pkt) {
    if (const auto* resp = std::any_cast<BindingResponse>(&pkt.payload))
      last_response_ = *resp;
  });
}

StunClient::~StunClient() { net_->unbind(host_, local_.port); }

std::optional<BindingResponse> StunClient::request(
    const netcore::Endpoint& server, ChangeRequest change) {
  std::uint64_t tx = next_tx_++;
  last_response_.reset();
  sim::Packet pkt = sim::Packet::udp(local_, server);
  pkt.payload = BindingRequest{tx, change};
  net_->send(std::move(pkt), host_);
  if (last_response_ && last_response_->tx == tx) return last_response_;
  return std::nullopt;
}

StunOutcome StunClient::classify(const StunServer& server) {
  // RFC 3489 decision tree.
  // Test I: plain binding request to the primary endpoint.
  auto r1 = request(server.primary(), {});
  if (!r1) return {StunType::blocked, std::nullopt};
  StunOutcome out;
  out.mapped = r1->mapped;
  if (r1->mapped == local_) {
    out.type = StunType::open_internet;
    return out;
  }
  // Test II: ask for a reply from the alternate IP *and* port. Only a
  // full-cone mapping lets a never-contacted endpoint through.
  if (request(server.primary(), {.change_ip = true, .change_port = true})) {
    out.type = StunType::full_cone;
    return out;
  }
  // Test I': binding request to the alternate address; a different mapped
  // endpoint means per-destination mappings, i.e. a symmetric NAT.
  auto r2 = request(server.alternate_address(), {});
  if (!r2) {
    // Inconsistent: the alternate address should answer directly.
    out.type = StunType::blocked;
    return out;
  }
  if (r2->mapped != r1->mapped) {
    out.type = StunType::symmetric;
    return out;
  }
  // Test III: reply from the alternate port of a contacted IP.
  if (request(server.alternate_address(), {.change_port = true}))
    out.type = StunType::address_restricted;
  else
    out.type = StunType::port_address_restricted;
  return out;
}

}  // namespace cgn::stun
