// Shared hand-built topology for tests: one server on the public side and a
// configurable subscriber line (optional CPE, optional CGN) on the access
// side — the three subscriber archetypes of Figure 2 in miniature.
#pragma once

#include <memory>
#include <vector>

#include "nat/nat_device.hpp"
#include "netcore/ipv4.hpp"
#include "netcore/ipv6.hpp"
#include "sim/clock.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"
#include "v6/translator.hpp"

namespace cgn::test {

using netcore::Endpoint;
using netcore::Ipv4Address;
using netcore::Protocol;

struct LineConfig {
  bool with_cpe = true;
  bool with_cgn = false;
  int cgn_hop = 3;  ///< hops from device to the CGN (with CPE: >= 2)
  nat::NatConfig cpe;
  nat::NatConfig cgn;
  int cgn_pool_size = 4;
  Ipv4Address device_address{192, 168, 1, 2};
  Ipv4Address line_internal{10, 0, 1, 2};  ///< CPE WAN addr when behind CGN
  Ipv4Address line_public{16, 0, 1, 2};    ///< public addr when no CGN
};

/// A miniature Internet: core -> server chain -> server host, and one
/// subscriber line per add_line() call. `Net` is sim::Network or a type
/// derived from it (the routing reference model in routing_test.cpp).
template <class Net>
class BasicMiniNet {
 public:
  BasicMiniNet() : net(clock) {
    sim::NodeId rack = net.add_router_chain(net.root(), 2, "infra");
    server_host = net.add_node(rack, "server");
    server_address = Ipv4Address{16, 255, 0, 10};
    net.register_address(server_address, server_host, net.root());
  }

  struct Line {
    sim::NodeId device = sim::kNoNode;
    Ipv4Address device_address;
    nat::NatDevice* cpe = nullptr;
    nat::NatDevice* cgn = nullptr;
    sim::NodeId cpe_node = sim::kNoNode;
    sim::NodeId cgn_node = sim::kNoNode;
  };

  Line add_line(const LineConfig& cfg, std::uint64_t seed = 7) {
    Line line;
    ++line_count_;
    sim::Rng rng(seed);
    sim::NodeId agg = net.add_router_chain(net.root(), 1, "agg");
    sim::NodeId attach = agg;
    if (cfg.with_cgn) {
      line.cgn_node = net.add_node(agg, "cgn");
      std::vector<Ipv4Address> pool;
      // Each line's CGN gets its own public pool block.
      auto base = static_cast<std::uint8_t>(10 + line_count_);
      for (int i = 0; i < cfg.cgn_pool_size; ++i)
        pool.push_back(Ipv4Address(Ipv4Address{16, base, 0, 10}.value() +
                                   static_cast<std::uint32_t>(i)));
      auto cgn = std::make_unique<nat::NatDevice>(cfg.cgn, pool, rng.fork());
      line.cgn = cgn.get();
      nats.push_back(std::move(cgn));
      net.set_middlebox(line.cgn_node, line.cgn);
      for (const auto& a : pool)
        net.register_address(a, line.cgn_node, net.root());
      int chain = cfg.with_cpe ? cfg.cgn_hop - 2 : cfg.cgn_hop - 1;
      attach = net.add_router_chain(line.cgn_node, std::max(chain, 0), "acc");
    }

    Ipv4Address line_addr = cfg.with_cgn ? cfg.line_internal : cfg.line_public;
    sim::NodeId line_scope = cfg.with_cgn ? line.cgn_node : net.root();

    if (cfg.with_cpe) {
      line.cpe_node = net.add_node(attach, "cpe");
      auto cpe = std::make_unique<nat::NatDevice>(
          cfg.cpe, std::vector<Ipv4Address>{line_addr}, rng.fork());
      line.cpe = cpe.get();
      nats.push_back(std::move(cpe));
      net.set_middlebox(line.cpe_node, line.cpe);
      net.register_address(line_addr, line.cpe_node, line_scope);
      line.device = net.add_node(line.cpe_node, "device");
      line.device_address = cfg.device_address;
      net.register_address(line.device_address, line.device, line.cpe_node);
    } else {
      line.device = net.add_node(attach, "device");
      line.device_address = line_addr;
      net.register_address(line.device_address, line.device, line_scope);
    }
    return line;
  }

  // --- IPv6-transition lines (DESIGN.md §14) -------------------------------

  struct V6Line {
    sim::NodeId device = sim::kNoNode;
    Ipv4Address device_address;        ///< what v4 apps on the device see
    netcore::Ipv6Address device_v6;    ///< the line's true v6 address
    Ipv4Address underlay;              ///< CGN-internal routing handle
    v6::HostV6Stack* stack = nullptr;  ///< bare v6-only NAT64 lines only
  };

  /// Creates (once) the shared NAT64 edge for subsequent add_nat64_line().
  v6::Nat64Device& ensure_nat64(netcore::Ipv6Prefix pref64,
                                nat::NatConfig cfg = {}) {
    if (!nat64) {
      nat64_node = net.add_node(net.add_router_chain(net.root(), 1, "agg6"),
                                "nat64");
      std::vector<Ipv4Address> pool;
      for (int i = 0; i < 4; ++i)
        pool.push_back(Ipv4Address(Ipv4Address{16, 64, 0, 10}.value() +
                                   static_cast<std::uint32_t>(i)));
      auto t = std::make_unique<v6::Nat64Device>(cfg, pool, sim::Rng(9),
                                                 pref64);
      nat64 = t.get();
      v6_elements.push_back(std::move(t));
      net.set_middlebox(nat64_node, nat64);
      for (const auto& a : pool) net.register_address(a, nat64_node, net.root());
    }
    return *nat64;
  }

  /// Creates (once) the shared DS-Lite AFTR for subsequent add_dslite_line().
  v6::DsLiteAftr& ensure_aftr(nat::NatConfig cfg = {}) {
    if (!aftr) {
      aftr_node = net.add_node(net.add_router_chain(net.root(), 1, "aggds"),
                               "aftr");
      std::vector<Ipv4Address> pool;
      for (int i = 0; i < 4; ++i)
        pool.push_back(Ipv4Address(Ipv4Address{16, 65, 0, 10}.value() +
                                   static_cast<std::uint32_t>(i)));
      auto t = std::make_unique<v6::DsLiteAftr>(
          cfg, pool, sim::Rng(10),
          netcore::Ipv6Address::parse("2001:db8::af1"));
      aftr = t.get();
      v6_elements.push_back(std::move(t));
      net.set_middlebox(aftr_node, aftr);
      for (const auto& a : pool) net.register_address(a, aftr_node, net.root());
    }
    return *aftr;
  }

  /// One NAT64 subscriber line: with a CLAT (464XLAT, v4 apps work) or a
  /// bare v6-only host stack (v4 literals die). Call ensure_nat64() first.
  V6Line add_nat64_line(bool with_clat) {
    ++line_count_;
    V6Line line;
    line.underlay = Ipv4Address(Ipv4Address{10, 64, 0, 2}.value() +
                                static_cast<std::uint32_t>(line_count_) * 256);
    line.device_v6 = netcore::Ipv6Address(
        0x20010db800020000ULL, static_cast<std::uint64_t>(line_count_));
    sim::NodeId elem;
    if (with_clat) {
      line.device_address = Ipv4Address{192, 0, 0, 1};  // RFC 7335
      elem = net.add_node(nat64_node, "clat");
      auto clat = std::make_unique<v6::ClatElement>(
          line.device_v6, nat64->pref64(), line.underlay,
          line.device_address);
      net.set_middlebox(elem, clat.get());
      v6_elements.push_back(std::move(clat));
    } else {
      line.device_address =
          Ipv4Address(Ipv4Address{169, 254, 0, 1}.value() +
                      static_cast<std::uint32_t>(line_count_));
      elem = net.add_node(nat64_node, "v6stk");
      auto stack = std::make_unique<v6::HostV6Stack>(
          line.device_v6, line.underlay, line.device_address);
      line.stack = stack.get();
      net.set_middlebox(elem, stack.get());
      v6_elements.push_back(std::move(stack));
    }
    nat64->add_host(line.device_v6, line.underlay);
    net.register_address(line.underlay, elem, nat64_node);
    line.device = net.add_node(elem, "dev6");
    net.register_address(line.device_address, line.device, elem);
    return line;
  }

  /// One DS-Lite line: B4 softwire endpoint in front of the device. The
  /// inner v4 may overlap across lines (that's the point). Call
  /// ensure_aftr() first.
  V6Line add_dslite_line(Ipv4Address inner_v4) {
    ++line_count_;
    V6Line line;
    line.underlay = Ipv4Address(Ipv4Address{10, 65, 0, 2}.value() +
                                static_cast<std::uint32_t>(line_count_) * 256);
    line.device_v6 = netcore::Ipv6Address(
        0x20010db800010000ULL, static_cast<std::uint64_t>(line_count_));
    line.device_address = inner_v4;
    sim::NodeId elem = net.add_node(aftr_node, "b4");
    auto b4 =
        std::make_unique<v6::B4Element>(line.device_v6, aftr->aftr_address());
    net.set_middlebox(elem, b4.get());
    v6_elements.push_back(std::move(b4));
    aftr->add_softwire(line.device_v6, line.underlay);
    net.register_address(line.underlay, elem, aftr_node);
    line.device = net.add_node(elem, "dev4in6");
    net.register_address(line.device_address, line.device, elem);
    return line;
  }

  sim::Clock clock;
  Net net;
  sim::NodeId server_host = sim::kNoNode;
  Ipv4Address server_address;
  std::vector<std::unique_ptr<nat::NatDevice>> nats;
  v6::Nat64Device* nat64 = nullptr;
  v6::DsLiteAftr* aftr = nullptr;
  sim::NodeId nat64_node = sim::kNoNode;
  sim::NodeId aftr_node = sim::kNoNode;
  std::vector<std::unique_ptr<sim::Middlebox>> v6_elements;

 private:
  int line_count_ = 0;
};

using MiniNet = BasicMiniNet<sim::Network>;

}  // namespace cgn::test
