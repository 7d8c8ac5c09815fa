// nat_behavior_lab: a test lab for NAT configurations. For every mapping
// type and port-allocation strategy, set up a subscriber line behind that
// NAT, then characterize it from the outside with the paper's tools: STUN
// classification, the ten-flow port-translation test, and TTL-driven
// enumeration of mapping timeouts.
//
//   ./build/examples/nat_behavior_lab
#include <iostream>

#include "analysis/port_analysis.hpp"
#include "nat/nat_device.hpp"
#include "netalyzr/client.hpp"
#include "netalyzr/server.hpp"
#include "report/report.hpp"
#include "stun/stun.hpp"

int main() {
  using namespace cgn;
  using netcore::Ipv4Address;

  report::Table table({"NAT configuration", "STUN says", "port test says",
                       "timeout measured"});

  static const nat::MappingType kTypes[] = {
      nat::MappingType::full_cone, nat::MappingType::address_restricted,
      nat::MappingType::port_address_restricted, nat::MappingType::symmetric};
  static const nat::PortAllocation kAllocs[] = {
      nat::PortAllocation::preservation, nat::PortAllocation::sequential,
      nat::PortAllocation::random, nat::PortAllocation::chunk_random};
  static const double kTimeouts[] = {30.0, 65.0, 120.0};

  int lab = 0;
  for (auto mapping : kTypes) {
    for (auto alloc : kAllocs) {
      double timeout = kTimeouts[lab++ % 3];
      // A fresh world per configuration.
      sim::Clock clock;
      sim::Network net(clock);
      sim::NodeId rack = net.add_router_chain(net.root(), 2, "dc");
      sim::NodeId ns_host = net.add_node(rack, "netalyzr");
      netalyzr::NetalyzrServer nserver(ns_host, Ipv4Address{16, 255, 0, 10});
      nserver.install(net);
      sim::NodeId stun_host = net.add_node(rack, "stun");
      stun::StunServer sserver(stun_host, Ipv4Address{16, 255, 0, 20},
                               Ipv4Address{16, 255, 0, 21}, 3478, 3479);
      sserver.install(net);

      sim::NodeId isp = net.add_router_chain(net.root(), 1, "isp");
      sim::NodeId nat_node = net.add_node(isp, "nat");
      nat::NatConfig cfg;
      cfg.name = "lab";
      cfg.mapping = mapping;
      cfg.port_allocation = alloc;
      cfg.chunk_size = 2048;
      cfg.udp_timeout_s = timeout;
      std::vector<Ipv4Address> pool{Ipv4Address{16, 10, 0, 10},
                                    Ipv4Address{16, 10, 0, 11}};
      nat::NatDevice nat(cfg, pool, sim::Rng(7));
      net.set_middlebox(nat_node, &nat);
      for (auto a : pool) net.register_address(a, nat_node, net.root());

      sim::NodeId access = net.add_router_chain(nat_node, 1, "acc");
      sim::NodeId device = net.add_node(access, "device");
      Ipv4Address dev_addr{10, 0, 0, 2};
      net.register_address(dev_addr, device, nat_node);

      // STUN.
      stun::StunClient stun_client(net, device, {dev_addr, 40000});
      auto stun_result = stun_client.classify(sserver);

      // Port-translation test.
      netalyzr::ClientContext ctx;
      ctx.host = device;
      ctx.device_address = dev_addr;
      netalyzr::NetalyzrClient client(ctx, net, sim::Rng(8));
      auto session = client.run_basic(nserver);
      auto strategy = analysis::classify_session_ports(session.tcp_flows);

      // Timeout via TTL enumeration.
      client.run_enumeration(clock, nserver, session);
      std::string measured = "-";
      for (const auto& h : session.enumeration->hops)
        if (h.stateful && h.timeout_s)
          measured = report::num(*h.timeout_s, 0) + " s (truth " +
                     report::num(timeout, 0) + ")";

      table.add_row(
          {std::string(nat::to_string(mapping)) + " / " +
               std::string(nat::to_string(alloc)),
           std::string(stun::to_string(stun_result.type)),
           strategy ? std::string(analysis::to_string(*strategy)) : "-",
           measured});
    }
  }

  std::cout << "NAT behaviour lab: ground-truth configuration vs what the\n"
               "paper's measurement tests recover from the outside.\n\n";
  table.print(std::cout);
  std::cout << "\nNotes:\n"
               "  * a symmetric NAT whose two test mappings happen to get\n"
               "    identical external endpoints (port preservation, no\n"
               "    collision) would masquerade as port-address restricted —\n"
               "    a classic STUN limitation; here the second mapping\n"
               "    collides on the preserved port, so STUN sees through it;\n"
               "  * chunk-random looks 'random' to a single session; chunk\n"
               "    detection needs many sessions per AS (see Table 6).\n";
  return 0;
}
