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

StunServer::StunServer(sim::Network& net, sim::NodeId host,
                       netcore::Ipv4Address primary_ip,
                       netcore::Ipv4Address alternate_ip,
                       std::uint16_t primary_port,
                       std::uint16_t alternate_port)
    : host_(host), primary_ip_(primary_ip), alternate_ip_(alternate_ip),
      primary_port_(primary_port), alternate_port_(alternate_port) {
  (void)net;
}

void StunServer::install(sim::Network& net) {
  net.register_address(primary_ip_, host_, net.root());
  net.register_address(alternate_ip_, host_, net.root());
  net.set_receiver(host_, [this](sim::Network& n, const sim::Packet& p) {
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

StunClient::StunClient(sim::NodeId host, netcore::Endpoint local,
                       sim::PortDemux& demux)
    : host_(host), local_(local), demux_(&demux) {
  demux_->bind(local_.port, [this](sim::Network&, const sim::Packet& pkt) {
    if (const auto* resp = std::any_cast<BindingResponse>(&pkt.payload))
      last_response_ = *resp;
  });
}

StunClient::~StunClient() { demux_->unbind(local_.port); }

std::optional<BindingResponse> StunClient::request(
    sim::Network& net, const netcore::Endpoint& server, ChangeRequest change) {
  std::uint64_t tx = next_tx_++;
  last_response_.reset();
  sim::Packet pkt = sim::Packet::udp(local_, server);
  pkt.payload = BindingRequest{tx, change};
  net.send(std::move(pkt), host_);
  if (last_response_ && last_response_->tx == tx) return last_response_;
  return std::nullopt;
}

std::string_view to_string(MappingBehavior b) noexcept {
  switch (b) {
    case MappingBehavior::endpoint_independent:
      return "endpoint-independent mapping";
    case MappingBehavior::address_and_port_dependent:
      return "address-and-port-dependent mapping";
  }
  return "?";
}

std::string_view to_string(FilteringBehavior b) noexcept {
  switch (b) {
    case FilteringBehavior::endpoint_independent:
      return "endpoint-independent filtering";
    case FilteringBehavior::address_dependent:
      return "address-dependent filtering";
    case FilteringBehavior::address_and_port_dependent:
      return "address-and-port-dependent filtering";
  }
  return "?";
}

BehaviorDiscovery StunClient::discover(sim::Network& net,
                                       const StunServer& server) {
  BehaviorDiscovery out;
  auto r1 = request(net, server.primary(), {});
  if (!r1) return out;
  out.responded = true;
  out.natted = r1->mapped != local_;

  // Filtering dimension first: these probes must run while the alternate
  // address is still *uncontacted*, or the mapping-dimension request below
  // would whitelist it on address-restricted NATs (RFC 5780 §4.4 ordering).
  if (request(net, server.primary(), {.change_ip = true, .change_port = true}))
    out.filtering = FilteringBehavior::endpoint_independent;
  else if (request(net, server.primary(), {.change_port = true}))
    out.filtering = FilteringBehavior::address_dependent;
  else
    out.filtering = FilteringBehavior::address_and_port_dependent;

  // Mapping dimension: compare the mapped endpoint across destinations.
  auto r2 = request(net, server.alternate_address(), {});
  out.mapping = (r2 && r2->mapped == r1->mapped)
                    ? MappingBehavior::endpoint_independent
                    : MappingBehavior::address_and_port_dependent;
  return out;
}

StunOutcome StunClient::classify(sim::Network& net, const StunServer& server) {
  // RFC 3489 decision tree.
  // Test I: plain binding request to the primary endpoint.
  auto r1 = request(net, server.primary(), {});
  if (!r1) return {StunType::blocked, std::nullopt};
  StunOutcome out;
  out.mapped = r1->mapped;
  if (r1->mapped == local_) {
    out.type = StunType::open_internet;
    return out;
  }
  // Test II: ask for a reply from the alternate IP *and* port. Only a
  // full-cone mapping lets a never-contacted endpoint through.
  if (request(net, server.primary(), {.change_ip = true, .change_port = true})) {
    out.type = StunType::full_cone;
    return out;
  }
  // Test I': binding request to the alternate address; a different mapped
  // endpoint means per-destination mappings, i.e. a symmetric NAT.
  auto r2 = request(net, server.alternate_address(), {});
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
  if (request(net, server.alternate_address(), {.change_port = true}))
    out.type = StunType::address_restricted;
  else
    out.type = StunType::port_address_restricted;
  return out;
}

}  // namespace cgn::stun
