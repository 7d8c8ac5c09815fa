// Edge cases of the DHT/crawler stack, plus the paper's §4.1 calibration
// experiment: do peers really validate reachability before propagating?
#include <gtest/gtest.h>

#include "crawler/dht_crawler.hpp"
#include "dht/tracker.hpp"
#include "test_topology.hpp"

namespace cgn::dht {
namespace {

using netcore::Endpoint;
using netcore::Ipv4Address;
using test::LineConfig;
using test::MiniNet;

struct PublicPeer {
  MiniNet::Line line;
  std::unique_ptr<DhtNode> node;
};

struct Swarm {
  MiniNet mini;
  std::vector<std::unique_ptr<PublicPeer>> peers;
  sim::Rng rng{31337};

  DhtNode& add(DhtNodeConfig cfg = {}) {
    auto peer = std::make_unique<PublicPeer>();
    LineConfig lc;
    lc.with_cpe = false;
    lc.line_public = Ipv4Address(
        16, 0, static_cast<std::uint8_t>(3 + peers.size() / 200),
        static_cast<std::uint8_t>(2 + peers.size() % 200));
    peer->line = mini.add_line(lc, 100 + peers.size());
    peer->node = std::make_unique<DhtNode>(
        NodeId160::random(rng), Endpoint{peer->line.device_address, 6881},
        peer->line.device, cfg, rng.fork());
    DhtNode* raw = peer->node.get();
    peer->line.demux->bind(6881, [raw](sim::Network& n, const sim::Packet& p) {
      raw->handle(n, p);
    });
    peers.push_back(std::move(peer));
    return *peers.back()->node;
  }
};

TEST(DhtCalibration, ConformantPeersValidateBeforePropagating) {
  // Reproduces the paper's experiment: plant a target id at peers via an
  // *unreachable* endpoint; conformant peers must not hand it out.
  Swarm swarm;
  DhtNode& conformant = swarm.add();
  NodeId160 target = NodeId160::random(swarm.rng);
  Contact ghost{target, Endpoint{Ipv4Address{16, 200, 0, 1}, 6881}};  // dead
  conformant.learn_contact(ghost);
  conformant.run_maintenance(swarm.mini.net);  // the validation ping dies

  // Crawl the peer for the target.
  DhtNode& crawler_node = swarm.add();
  crawler_node.learn_contact(
      {conformant.id(), conformant.local_endpoint()});
  crawler_node.run_maintenance(swarm.mini.net);  // validate the peer
  // Issue a find_nodes for the ghost id.
  bool ghost_propagated = false;
  swarm.peers[1]->line.demux->bind(
      7000, [&](sim::Network&, const sim::Packet& p) {
        if (const auto* m = std::any_cast<Message>(&p.payload))
          if (const auto* nodes = std::get_if<NodesMsg>(m))
            for (const auto& c : nodes->contacts)
              if (c.id == target) ghost_propagated = true;
      });
  sim::Packet q = sim::Packet::udp(
      {swarm.peers[1]->line.device_address, 7000},
      conformant.local_endpoint());
  q.payload = Message{FindNodesMsg{9, crawler_node.id(), target}};
  swarm.mini.net.send(std::move(q), swarm.peers[1]->line.device);
  EXPECT_FALSE(ghost_propagated)
      << "unvalidated contacts must not be propagated (BEP-5)";
}

TEST(DhtCalibration, SloppyPeersPropagateUnvalidated) {
  Swarm swarm;
  DhtNodeConfig sloppy;
  sloppy.validate_before_propagate = false;
  DhtNode& peer = swarm.add(sloppy);
  NodeId160 target = NodeId160::random(swarm.rng);
  peer.learn_contact({target, Endpoint{Ipv4Address{16, 200, 0, 1}, 6881}});

  DhtNode& other = swarm.add();
  bool ghost_propagated = false;
  swarm.peers[1]->line.demux->bind(
      7000, [&](sim::Network&, const sim::Packet& p) {
        if (const auto* m = std::any_cast<Message>(&p.payload))
          if (const auto* nodes = std::get_if<NodesMsg>(m))
            for (const auto& c : nodes->contacts)
              if (c.id == target) ghost_propagated = true;
      });
  sim::Packet q = sim::Packet::udp(
      {swarm.peers[1]->line.device_address, 7000}, peer.local_endpoint());
  q.payload = Message{FindNodesMsg{9, other.id(), target}};
  swarm.mini.net.send(std::move(q), swarm.peers[1]->line.device);
  EXPECT_TRUE(ghost_propagated)
      << "the ~1.3% sloppy population hands out unvalidated contacts";
}

TEST(Tracker, UpdatesEndpointOnReannounce) {
  Swarm swarm;
  sim::NodeId tracker_host =
      swarm.mini.net.add_node(swarm.mini.net.root(), "tracker");
  TrackerServer tracker(tracker_host, Ipv4Address{16, 255, 0, 50},
                        sim::Rng(3), 10);
  tracker.install(swarm.mini.net);
  DhtNode& a = swarm.add();
  a.announce(swarm.mini.net, tracker.endpoint(), 5);
  a.announce(swarm.mini.net, tracker.endpoint(), 5);
  EXPECT_EQ(tracker.swarm_size(5), 1u) << "re-announce must not duplicate";
  EXPECT_EQ(tracker.swarm_count(), 1u);
}

TEST(Tracker, SwarmsAreIsolated) {
  Swarm swarm;
  sim::NodeId tracker_host =
      swarm.mini.net.add_node(swarm.mini.net.root(), "tracker");
  TrackerServer tracker(tracker_host, Ipv4Address{16, 255, 0, 50},
                        sim::Rng(3), 10);
  tracker.install(swarm.mini.net);
  DhtNode& a = swarm.add();
  DhtNode& b = swarm.add();
  a.announce(swarm.mini.net, tracker.endpoint(), 1);
  b.announce(swarm.mini.net, tracker.endpoint(), 2);
  EXPECT_EQ(a.table_size(), 0u) << "different swarms share no peers";
  EXPECT_EQ(b.table_size(), 0u);
}

TEST(Crawler, LeakTriggersExtraQueryBatches) {
  // Two peers: one clean, one with a validated internal contact planted.
  // The crawler must spend extra find_nodes budget on the leaky one.
  Swarm swarm;
  DhtNode& clean = swarm.add();
  DhtNode& leaky = swarm.add();
  // Fabricate a validated internal contact on the leaky peer via a LAN-style
  // injection plus a direct validation bypass: pin + mark via ping from a
  // fake internal neighbour is overkill here, so instead make the peer
  // sloppy (propagates unvalidated) and plant internal contacts.
  (void)clean;
  DhtNodeConfig sloppy;
  sloppy.validate_before_propagate = false;
  DhtNode& sloppy_leaky = swarm.add(sloppy);
  for (int i = 0; i < 6; ++i)
    sloppy_leaky.learn_contact(
        {NodeId160::random(swarm.rng),
         Endpoint{Ipv4Address(10, 7, static_cast<std::uint8_t>(i), 2), 6881}});
  (void)leaky;

  sim::NodeId crawl_host =
      swarm.mini.net.add_node(swarm.mini.net.root(), "crawler");
  Ipv4Address crawl_addr{16, 255, 0, 70};
  swarm.mini.net.register_address(crawl_addr, crawl_host,
                                  swarm.mini.net.root());
  crawler::CrawlConfig cfg;
  cfg.initial_queries = 3;
  cfg.leak_batch_queries = 5;
  crawler::DhtCrawler crawler(crawl_host, Endpoint{crawl_addr, 6881}, cfg,
                              sim::Rng(9));
  crawler.install(swarm.mini.net);

  // Query the clean peer, then the leaky one, comparing query counts.
  crawler.start(swarm.mini.net, clean.local_endpoint());
  while (crawler.crawl_step(swarm.mini.net, 10) > 0) {
  }
  auto queries_clean = crawler.stats().find_nodes_sent;

  crawler::DhtCrawler crawler2(crawl_host, Endpoint{crawl_addr, 6882}, cfg,
                               sim::Rng(9));
  // Rebind receiver to the second crawler.
  crawler2.install(swarm.mini.net);
  crawler2.start(swarm.mini.net, sloppy_leaky.local_endpoint());
  while (crawler2.crawl_step(swarm.mini.net, 10) > 0) {
  }
  EXPECT_GT(crawler2.stats().find_nodes_sent, queries_clean)
      << "internal contacts must trigger batches of follow-up queries";
  EXPECT_GT(crawler2.stats().peers_with_leaks, 0u);
  EXPECT_FALSE(crawler2.dataset().leaks().empty());
}

TEST(Crawler, InternalPeersNeverJoinTheFrontier) {
  Swarm swarm;
  DhtNodeConfig sloppy;
  sloppy.validate_before_propagate = false;
  DhtNode& peer = swarm.add(sloppy);
  peer.learn_contact({NodeId160::random(swarm.rng),
                      Endpoint{Ipv4Address(192, 168, 1, 5), 6881}});

  sim::NodeId crawl_host =
      swarm.mini.net.add_node(swarm.mini.net.root(), "crawler");
  Ipv4Address crawl_addr{16, 255, 0, 70};
  swarm.mini.net.register_address(crawl_addr, crawl_host,
                                  swarm.mini.net.root());
  crawler::CrawlConfig cfg;
  crawler::DhtCrawler crawler(crawl_host, Endpoint{crawl_addr, 6881}, cfg,
                              sim::Rng(9));
  crawler.install(swarm.mini.net);
  crawler.start(swarm.mini.net, peer.local_endpoint());
  while (crawler.crawl_step(swarm.mini.net, 10) > 0) {
  }
  const std::vector<Contact> learned = crawler.dataset().learned_contacts();
  const crawler::DhtCrawler::PingShardOutcome sweep =
      crawler.ping_shard(swarm.mini.net, learned);
  crawler.absorb_ping_outcomes({&sweep, 1});
  // The internal peer was learned (and bt_pinged, unreachable) but never
  // queried with find_nodes.
  EXPECT_GT(crawler.dataset().learned_peers(), 0u);
  for (const auto& c : crawler.dataset().queried_contacts())
    EXPECT_FALSE(netcore::is_reserved(c.endpoint.address));
}

}  // namespace
}  // namespace cgn::dht
