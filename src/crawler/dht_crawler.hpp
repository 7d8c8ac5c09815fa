// The BitTorrent DHT crawler of paper §4.1.
//
// Starting from a bootstrap server, the crawler sends each discovered peer a
// series of find_nodes queries with random targets (five by default, as in
// the paper, harvesting ~40 contacts per peer), records every contact it
// learns, and — when a peer reports contacts with reserved-range addresses —
// keeps issuing batches of ten further queries for as long as fresh internal
// peers keep coming. Learned peers are additionally probed with bt_ping to
// measure responsiveness (Table 2).
#pragma once

#include <deque>
#include <optional>
#include <span>

#include "crawler/crawl_dataset.hpp"
#include "dht/dht_node.hpp"
#include "fault/retry.hpp"
#include "sim/clock.hpp"
#include "sim/network.hpp"
#include "sim/rng.hpp"

namespace cgn::crawler {

struct CrawlConfig {
  /// find_nodes queries per newly discovered peer.
  int initial_queries = 5;
  /// Extra queries per batch once a peer leaks internal contacts.
  int leak_batch_queries = 10;
  /// Retransmission policy for find_nodes queries and bt_pings. The default
  /// (attempts = 1) sends once and never retries — the pre-fault behaviour.
  fault::RetryPolicy retry;
};

/// Counters describing crawler activity (not the harvested data).
struct CrawlerStats {
  std::uint64_t find_nodes_sent = 0;
  std::uint64_t pings_sent = 0;
  std::uint64_t peers_with_leaks = 0;
};

class DhtCrawler {
 public:
  DhtCrawler(sim::NodeId host, netcore::Endpoint local, CrawlConfig config,
             sim::Rng rng);

  /// Binds the crawler's local port on its host node.
  void install(sim::Network& net);

  /// Clock the retry policy's backoff advances during the serial crawl walk.
  /// Null disables backoff time; sweep shards pass their private clock to
  /// ping_shard instead.
  void set_retry_clock(sim::Clock* clock) noexcept { retry_clock_ = clock; }

  /// Seeds the frontier from the bootstrap server.
  void start(sim::Network& net, const netcore::Endpoint& bootstrap);

  /// Processes up to `peer_budget` frontier peers; returns the number
  /// actually processed (0 when the frontier is empty). Interleave with
  /// swarm maintenance so peers' NAT mappings stay warm.
  std::size_t crawl_step(sim::Network& net, std::size_t peer_budget);

  [[nodiscard]] bool frontier_empty() const noexcept {
    return frontier_.empty();
  }

  /// Locally recorded results of one bt_ping sweep shard (Table 2's
  /// responder counts), merged into the crawler with absorb_ping_outcomes().
  struct PingShardOutcome {
    std::vector<dht::Contact> responders;
    std::uint64_t pings_sent = 0;
  };

  /// One shard of the bt_ping sweep over learned contacts: probes
  /// `contacts`, each pong finding its request's frame on the sending
  /// worker's stack. Does not mutate stats_ or the dataset — the campaign
  /// driver absorbs the outcomes in shard order after the barrier. Contact
  /// lists must target disjoint routing subtrees (see Network::top_route).
  /// `clock` drives the retry policy's backoff for this shard (may be
  /// null; pass the shard's private clock to stay thread-count invariant).
  [[nodiscard]] PingShardOutcome ping_shard(
      sim::Network& net, std::span<const dht::Contact> contacts,
      sim::Clock* clock = nullptr);

  /// Folds shard outcomes into stats() and dataset() in the given order.
  void absorb_ping_outcomes(std::span<const PingShardOutcome> outcomes);

  [[nodiscard]] const CrawlDataset& dataset() const noexcept { return data_; }
  [[nodiscard]] const CrawlerStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const netcore::Endpoint& local_endpoint() const noexcept {
    return local_;
  }

 private:
  /// One outstanding request. It lives on the sender's stack for the
  /// duration of the Network::send that carries the request: every reply
  /// arrives inside that send, on the sending thread.
  struct Awaiting {
    std::uint64_t tx = 0;
    bool answered = false;
    std::vector<dht::Contact> contacts;  ///< find_nodes replies only
  };

  void handle(sim::Network& net, const sim::Packet& pkt);
  /// Sends `msg` to `to` with `frame` as the thread's awaited reply (the
  /// previous frame is restored afterwards).
  void request(sim::Network& net, const netcore::Endpoint& to,
               dht::Message msg, Awaiting& frame);
  /// Sends one find_nodes; returns the contacts received (nullopt if no
  /// reply).
  std::optional<std::vector<dht::Contact>> query(sim::Network& net,
                                                 const dht::Contact& peer);
  /// Queries one peer fully (initial queries + leak batches).
  void process_peer(sim::Network& net, const dht::Contact& peer);
  void record_contacts(const dht::Contact& from,
                       const std::vector<dht::Contact>& contacts,
                       bool& saw_new_internal);

  sim::NodeId host_;
  netcore::Endpoint local_;
  CrawlConfig config_;
  sim::Rng rng_;
  sim::Clock* retry_clock_ = nullptr;
  dht::NodeId160 id_;

  CrawlDataset data_;
  CrawlerStats stats_;

  std::deque<dht::Contact> frontier_;
  std::unordered_set<PeerKey, PeerKeyHash> enqueued_;

  std::uint64_t next_tx_ = 1;  ///< find_nodes tx ids (serial crawl walk)
  /// The frame handle() answers into. Thread-local because sweep shards
  /// share the crawler across workers, each awaiting its own pong.
  inline static thread_local Awaiting* tls_awaiting_ = nullptr;
};

}  // namespace cgn::crawler
