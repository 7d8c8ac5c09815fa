// Session Traversal Utilities for NAT (STUN), RFC 3489-style classification.
//
// The paper's Netalyzr STUN test (§6.3) classifies the most restrictive NAT
// on the path into the Figure 13 categories. The server answers binding
// requests from its primary or alternate port/IP as requested; the client
// runs the classic decision tree.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "netcore/ipv4.hpp"
#include "sim/network.hpp"

namespace cgn::stun {

/// What the client asks the server to change when responding.
struct ChangeRequest {
  bool change_ip = false;
  bool change_port = false;
};

struct BindingRequest {
  std::uint64_t tx = 0;
  ChangeRequest change;
};

struct BindingResponse {
  std::uint64_t tx = 0;
  /// The client's endpoint as observed by the server (MAPPED-ADDRESS).
  netcore::Endpoint mapped;
};

/// STUN classification outcome (Figure 13 categories).
enum class StunType : std::uint8_t {
  open_internet,            ///< no translation observed
  symmetric,
  port_address_restricted,
  address_restricted,
  full_cone,
  blocked,                  ///< no response at all ("other" in the paper)
};

[[nodiscard]] std::string_view to_string(StunType t) noexcept;

/// True when `t` names an address-translating NAT type (not open/blocked).
[[nodiscard]] constexpr bool is_nat_type(StunType t) noexcept {
  return t == StunType::symmetric || t == StunType::port_address_restricted ||
         t == StunType::address_restricted || t == StunType::full_cone;
}

/// Permissiveness rank for "most permissive type per AS" (Figure 13(b)):
/// symmetric(0) < port-address(1) < address(2) < full cone(3); open/blocked
/// have no rank.
[[nodiscard]] std::optional<int> permissiveness(StunType t) noexcept;

/// The server side: one network host owning two public IP addresses, each
/// listening on two ports.
class StunServer {
 public:
  StunServer(sim::NodeId host, netcore::Ipv4Address primary_ip,
             netcore::Ipv4Address alternate_ip, std::uint16_t primary_port,
             std::uint16_t alternate_port)
      : host_(host), primary_ip_(primary_ip), alternate_ip_(alternate_ip),
        primary_port_(primary_port), alternate_port_(alternate_port) {}

  [[nodiscard]] netcore::Endpoint primary() const noexcept {
    return {primary_ip_, primary_port_};
  }
  [[nodiscard]] netcore::Endpoint alternate_address() const noexcept {
    return {alternate_ip_, primary_port_};
  }

  /// Registers the server's addresses and binds its two ports; call once
  /// after construction (the host node must be attached under the core).
  void install(sim::Network& net);

 private:
  void handle(sim::Network& net, const sim::Packet& pkt);

  sim::NodeId host_;
  netcore::Ipv4Address primary_ip_;
  netcore::Ipv4Address alternate_ip_;
  std::uint16_t primary_port_;
  std::uint16_t alternate_port_;
};

/// Result of a full classification run.
struct StunOutcome {
  StunType type = StunType::blocked;
  /// Mapped endpoint from the first binding request (when any response came).
  std::optional<netcore::Endpoint> mapped;
};

/// The client side: runs the RFC 3489 decision tree from a host. The sim
/// is synchronous, so each request either yields a response before send()
/// returns, or never will.
class StunClient {
 public:
  /// Binds `local.port` on `host` in `net` until destruction.
  StunClient(sim::Network& net, sim::NodeId host, netcore::Endpoint local);
  ~StunClient();

  StunClient(const StunClient&) = delete;
  StunClient& operator=(const StunClient&) = delete;

  /// Runs the classification against a server.
  [[nodiscard]] StunOutcome classify(const StunServer& server);

 private:
  std::optional<BindingResponse> request(const netcore::Endpoint& server,
                                         ChangeRequest change);

  sim::Network* net_;
  sim::NodeId host_;
  netcore::Endpoint local_;
  std::uint64_t next_tx_ = 1;
  std::optional<BindingResponse> last_response_;
};

}  // namespace cgn::stun
