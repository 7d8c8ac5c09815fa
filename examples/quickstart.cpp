// Quickstart: build a miniature NAT444 access line (device behind a home
// CPE behind a carrier-grade NAT), run one Netalyzr-style session against a
// measurement server, and print what every vantage point sees.
//
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
#include <iostream>

#include "nat/nat_device.hpp"
#include "netalyzr/client.hpp"
#include "netalyzr/server.hpp"
#include "netcore/ipv4.hpp"
#include "sim/clock.hpp"
#include "sim/network.hpp"

int main() {
  using namespace cgn;
  using netcore::Ipv4Address;

  // --- 1. A virtual clock and an empty network (one "core" node). --------
  sim::Clock clock;
  sim::Network net(clock);

  // --- 2. A public measurement server three hops off the core. -----------
  sim::NodeId rack = net.add_router_chain(net.root(), 3, "dc");
  sim::NodeId server_host = net.add_node(rack, "server");
  netalyzr::NetalyzrServer server(server_host, Ipv4Address{16, 255, 0, 10});
  server.install(net);

  // --- 3. An ISP that translates twice (Figure 2, subscriber C). ---------
  // The carrier NAT: pool of four public addresses, chunked random ports,
  // 35-second UDP timeout, four hops from the subscriber.
  sim::NodeId isp = net.add_router_chain(net.root(), 1, "isp");
  sim::NodeId cgn_node = net.add_node(isp, "cgn");
  nat::NatConfig cgn_cfg;
  cgn_cfg.name = "CGN";
  cgn_cfg.mapping = nat::MappingType::address_restricted;
  cgn_cfg.port_allocation = nat::PortAllocation::chunk_random;
  cgn_cfg.chunk_size = 2048;
  cgn_cfg.udp_timeout_s = 35.0;
  std::vector<Ipv4Address> pool;
  for (int i = 0; i < 4; ++i) pool.push_back(Ipv4Address(16, 10, 0, 10 + i));
  nat::NatDevice cgn(cgn_cfg, pool, sim::Rng(1));
  net.set_middlebox(cgn_node, &cgn);
  for (auto a : pool) net.register_address(a, cgn_node, net.root());

  // The home CPE: one CGN-internal address on its WAN side, 192.168 inside.
  sim::NodeId access = net.add_router_chain(cgn_node, 2, "access");
  sim::NodeId cpe_node = net.add_node(access, "cpe");
  Ipv4Address cpe_wan{100, 64, 7, 2};  // RFC 6598 shared address space
  nat::NatConfig cpe_cfg;
  cpe_cfg.name = "HomeBox 3000";
  cpe_cfg.mapping = nat::MappingType::full_cone;
  cpe_cfg.udp_timeout_s = 65.0;
  nat::NatDevice cpe(cpe_cfg, {cpe_wan}, sim::Rng(2));
  net.set_middlebox(cpe_node, &cpe);
  net.register_address(cpe_wan, cpe_node, cgn_node);  // scoped to the ISP

  // The subscriber's device on the home LAN.
  sim::NodeId device = net.add_node(cpe_node, "laptop");
  Ipv4Address device_addr{192, 168, 1, 2};
  net.register_address(device_addr, device, cpe_node);

  // --- 4. Run a Netalyzr session from the device. ------------------------
  netalyzr::ClientContext ctx;
  ctx.host = device;
  ctx.device_address = device_addr;
  ctx.upnp_cpe = &cpe;  // the CPE answers UPnP queries
  netalyzr::NetalyzrClient client(ctx, net, sim::Rng(3));

  auto session = client.run_basic(server);
  std::cout << "Address test (Table 4 vantage points):\n"
            << "  IPdev (device):        " << session.ip_dev.to_string()
            << "\n  IPcpe (UPnP from CPE): "
            << (session.ip_cpe ? session.ip_cpe->to_string() : "n/a")
            << "\n  IPpub (server view):   "
            << (session.ip_pub ? session.ip_pub->to_string() : "n/a")
            << "\n  => two layers of translation (NAT444): IPcpe is in "
               "100.64/10\n     and differs from IPpub.\n\n";

  std::cout << "Port translation test (ten TCP flows):\n";
  for (const auto& f : session.tcp_flows)
    std::cout << "  local " << f.local_port << "  ->  observed "
              << f.observed.to_string() << "\n";

  // --- 5. TTL-driven NAT enumeration (§6.3). ------------------------------
  client.run_enumeration(clock, server, session);
  std::cout << "\nTTL-driven NAT enumeration (" << session.enumeration->experiments
            << " reachability experiments):\n";
  for (const auto& hop : session.enumeration->hops) {
    std::cout << "  hop " << hop.hop << ": "
              << (hop.stateful ? "STATEFUL (NAT)" : "stateless");
    if (hop.timeout_s)
      std::cout << ", mapping timeout ~" << *hop.timeout_s << " s";
    std::cout << "\n";
  }
  std::cout << "  => the CPE at hop 1 (65 s) and the CGN at hop 4 (35 s).\n";
  return 0;
}
