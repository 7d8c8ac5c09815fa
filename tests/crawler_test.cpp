#include "crawler/dht_crawler.hpp"

#include <gtest/gtest.h>

#include "analysis/bt_detector.hpp"
#include "dht/tracker.hpp"
#include "test_topology.hpp"

namespace cgn::crawler {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;
using test::MiniNet;

/// A miniature CGN AS: `n` archetype-B subscribers behind one full-cone,
/// hairpin-preserving CGN, plus a bootstrap node, a tracker and the crawler.
struct CrawlWorld {
  MiniNet mini;
  std::unique_ptr<dht::TrackerServer> tracker;
  std::unique_ptr<dht::DhtNode> bootstrap;
  std::unique_ptr<DhtCrawler> crawler;
  std::vector<std::unique_ptr<dht::DhtNode>> peers;
  nat::NatDevice* cgn = nullptr;
  netcore::RoutingTable routes;

  explicit CrawlWorld(int n, nat::MappingType cgn_type,
                      bool hairpin_preserve = true) {
    routes.announce(netcore::Ipv4Prefix::parse("16.0.0.0/8"), 1);

    sim::Rng rng(42);
    // Infrastructure at the core.
    sim::NodeId tracker_host = mini.net.add_node(mini.net.root(), "tracker");
    tracker = std::make_unique<dht::TrackerServer>(
        tracker_host, Ipv4Address{16, 255, 0, 50}, rng.fork(), 32);
    tracker->install(mini.net);

    sim::NodeId boot_host = mini.net.add_node(mini.net.root(), "bootstrap");
    Ipv4Address boot_addr{16, 255, 0, 60};
    mini.net.register_address(boot_addr, boot_host, mini.net.root());
    dht::DhtNodeConfig boot_cfg;
    boot_cfg.table_capacity = 1024;
    boot_cfg.validate_before_propagate = false;
    bootstrap = std::make_unique<dht::DhtNode>(
        dht::NodeId160::random(rng), Endpoint{boot_addr, 6881}, boot_host,
        boot_cfg, rng.fork());
    mini.net.bind(boot_host, 6881,
                  [this](sim::Network& net, const sim::Packet& p) {
                    bootstrap->handle(net, p);
                  });

    sim::NodeId crawl_host = mini.net.add_node(mini.net.root(), "crawler");
    Ipv4Address crawl_addr{16, 255, 0, 70};
    mini.net.register_address(crawl_addr, crawl_host, mini.net.root());
    CrawlConfig cfg;
    crawler = std::make_unique<DhtCrawler>(crawl_host,
                                           Endpoint{crawl_addr, 6881}, cfg,
                                           rng.fork());
    crawler->install(mini.net);

    // The CGN and its subscribers.
    test::LineConfig lc;
    lc.with_cpe = false;
    lc.with_cgn = true;
    lc.cgn_hop = 3;
    lc.cgn.name = "cgn";
    lc.cgn.mapping = cgn_type;
    lc.cgn.hairpinning = true;
    lc.cgn.hairpin_preserve_source = hairpin_preserve;
    lc.cgn.udp_timeout_s = 300.0;
    lc.cgn_pool_size = 16;
    lc.line_internal = Ipv4Address{10, 0, 1, 2};
    auto first = mini.add_line(lc, 1);
    cgn = first.cgn;
    add_peer(first.device, first.device_address, rng);

    for (int i = 1; i < n; ++i) {
      sim::NodeId acc = mini.net.add_router_chain(first.cgn_node, 2, "acc");
      sim::NodeId dev = mini.net.add_node(acc, "dev");
      Ipv4Address addr(10, 0, static_cast<std::uint8_t>(1 + i), 2);
      mini.net.register_address(addr, dev, first.cgn_node);
      add_peer(dev, addr, rng);
    }
  }

  void add_peer(sim::NodeId dev, Ipv4Address addr, sim::Rng& rng) {
    auto node = std::make_unique<dht::DhtNode>(dht::NodeId160::random(rng),
                                               Endpoint{addr, 6881}, dev,
                                               dht::DhtNodeConfig{},
                                               rng.fork());
    mini.net.bind(dev, 6881,
                  [ptr = node.get()](sim::Network& n, const sim::Packet& p) {
                    ptr->handle(n, p);
                  });
    peers.push_back(std::move(node));
  }

  void run_swarm(int rounds) {
    for (auto& p : peers) p->bootstrap(mini.net, bootstrap->local_endpoint());
    for (int r = 0; r < rounds; ++r) {
      for (auto& p : peers)
        p->announce(mini.net, tracker->endpoint(), 1);  // one shared swarm
      for (auto& p : peers) p->run_maintenance(mini.net);
      mini.clock.advance(5.0);
    }
  }

  void crawl() {
    crawler->start(mini.net, bootstrap->local_endpoint());
    while (crawler->crawl_step(mini.net, 100) > 0) {
    }
    const std::vector<dht::Contact> learned =
        crawler->dataset().learned_contacts();
    const DhtCrawler::PingShardOutcome sweep =
        crawler->ping_shard(mini.net, learned);
    crawler->absorb_ping_outcomes({&sweep, 1});
  }
};

TEST(DhtCrawler, HarvestsInternalLeaksFromPermissiveCgn) {
  CrawlWorld w(12, nat::MappingType::full_cone);
  w.run_swarm(6);
  w.crawl();

  const CrawlDataset& data = w.crawler->dataset();
  EXPECT_GT(data.queried_peers(), 5u);
  EXPECT_GT(data.learned_peers(), data.queried_peers());
  EXPECT_FALSE(data.leaks().empty())
      << "hairpin-preserving full-cone CGN must leak internal endpoints";

  for (const LeakEdge& e : data.leaks()) {
    EXPECT_TRUE(netcore::is_reserved(e.internal.endpoint.address));
    EXPECT_FALSE(netcore::is_reserved(e.leaker.endpoint.address));
    EXPECT_TRUE(w.cgn->owns_external(e.leaker.endpoint.address));
  }
}

TEST(DhtCrawler, DetectorFlagsTheCgnAs) {
  CrawlWorld w(16, nat::MappingType::full_cone);
  w.run_swarm(8);
  w.crawl();

  analysis::BtDetector detector;
  auto result = detector.analyze(w.crawler->dataset(), w.routes);
  ASSERT_TRUE(result.per_as.contains(1));
  const auto& verdict = result.per_as.at(1);
  EXPECT_TRUE(verdict.covered);
  EXPECT_TRUE(verdict.cgn_positive)
      << "largest 10X cluster: "
      << verdict.largest[2].public_ips << " public / "
      << verdict.largest[2].internal_ips << " internal IPs";
  // Table 3 bookkeeping: all leaks fall in the 10X range here.
  EXPECT_GT(result.per_range[2].internal_total, 0u);
  EXPECT_EQ(result.per_range[0].internal_total, 0u);
}

TEST(DhtCrawler, SymmetricCgnYieldsNoLeaks) {
  CrawlWorld w(12, nat::MappingType::symmetric);
  w.run_swarm(6);
  w.crawl();
  // Peers behind a symmetric CGN are not externally queryable, so the
  // crawler sees no leaks — the BitTorrent method's blind spot (§5).
  EXPECT_TRUE(w.crawler->dataset().leaks().empty());
  analysis::BtDetector detector;
  auto result = detector.analyze(w.crawler->dataset(), w.routes);
  auto it = result.per_as.find(1);
  if (it != result.per_as.end()) {
    EXPECT_FALSE(it->second.cgn_positive);
  }
}

TEST(DhtCrawler, ConformantHairpinYieldsNoLeaks) {
  CrawlWorld w(12, nat::MappingType::full_cone, /*hairpin_preserve=*/false);
  w.run_swarm(6);
  w.crawl();
  EXPECT_TRUE(w.crawler->dataset().leaks().empty());
}

TEST(CrawlDataset, CountsUniquePeersAndIps) {
  CrawlDataset data;
  dht::Contact a{dht::NodeId160{}, {Ipv4Address{16, 0, 0, 1}, 100}};
  dht::Contact a2{dht::NodeId160{}, {Ipv4Address{16, 0, 0, 1}, 200}};
  data.note_learned(a);
  data.note_learned(a);   // duplicate tuple
  data.note_learned(a2);  // same IP, different port
  EXPECT_EQ(data.learned_peers(), 2u);
  EXPECT_TRUE(data.was_learned(a));
  // The unique-IP count is the analysis's, over the dataset's peers.
  const netcore::RoutingTable routes;
  EXPECT_EQ(
      analysis::BtDetector().analyze(data, routes).summary.learned_unique_ips,
      1u);
}

}  // namespace
}  // namespace cgn::crawler
