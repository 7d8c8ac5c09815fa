#include "crawler/dht_crawler.hpp"

#include "obs/metrics.hpp"

namespace cgn::crawler {

namespace {
/// Upper bound on leak batches per peer (the paper continues "as long as we
/// continue to harvest"; this caps pathological peers).
constexpr int kMaxLeakBatches = 8;

obs::Counter& g_find_nodes_sent = obs::counter("crawler.find_nodes_sent");
obs::Counter& g_find_nodes_answered =
    obs::counter("crawler.find_nodes_answered");
obs::Counter& g_pings_sent = obs::counter("crawler.bt_pings_sent");
obs::Counter& g_pongs_received = obs::counter("crawler.bt_pongs_received");
obs::Counter& g_peers_with_leaks = obs::counter("crawler.peers_with_leaks");
obs::Gauge& g_frontier_size = obs::gauge("crawler.frontier_size");
}  // namespace

DhtCrawler::DhtCrawler(sim::NodeId host, netcore::Endpoint local,
                       CrawlConfig config, sim::Rng rng)
    : host_(host), local_(local), config_(config), rng_(std::move(rng)),
      id_(dht::NodeId160::random(rng_)) {}

void DhtCrawler::install(sim::Network& net) {
  net.bind(host_, local_.port, [this](sim::Network& n, const sim::Packet& p) {
    handle(n, p);
  });
}

void DhtCrawler::handle(sim::Network& net, const sim::Packet& pkt) {
  const auto* msg = std::any_cast<dht::Message>(&pkt.payload);
  if (!msg) return;
  if (const auto* nodes = std::get_if<dht::NodesMsg>(msg)) {
    if (tls_awaiting_ && nodes->tx == tls_awaiting_->tx) {
      tls_awaiting_->answered = true;
      tls_awaiting_->contacts = nodes->contacts;
    }
    return;
  }
  if (const auto* pong = std::get_if<dht::PongMsg>(msg)) {
    if (tls_awaiting_ && pong->tx == tls_awaiting_->tx)
      tls_awaiting_->answered = true;
    return;
  }
  // The crawler participates in the DHT: answer pings so peers that learn
  // about us can validate our reachability.
  if (const auto* ping = std::get_if<dht::PingMsg>(msg)) {
    sim::Packet reply = sim::Packet::udp(local_, pkt.src);
    reply.payload = dht::Message{dht::PongMsg{ping->tx, id_}};
    net.send(std::move(reply), host_);
    return;
  }
  if (const auto* fn = std::get_if<dht::FindNodesMsg>(msg)) {
    // Reply with an empty contact list: we harvest, we do not feed.
    sim::Packet reply = sim::Packet::udp(local_, pkt.src);
    reply.payload = dht::Message{dht::NodesMsg{fn->tx, id_, {}}};
    net.send(std::move(reply), host_);
    return;
  }
}

void DhtCrawler::request(sim::Network& net, const netcore::Endpoint& to,
                         dht::Message msg, Awaiting& frame) {
  Awaiting* const outer = tls_awaiting_;
  tls_awaiting_ = &frame;
  sim::Packet pkt = sim::Packet::udp(local_, to);
  pkt.payload = std::move(msg);
  net.send(std::move(pkt), host_);
  tls_awaiting_ = outer;
}

std::optional<std::vector<dht::Contact>> DhtCrawler::query(
    sim::Network& net, const dht::Contact& peer) {
  // Each attempt is a fresh query: new tx, new random target. A lost reply
  // costs one backoff interval on the retry clock's scoped timeline.
  Awaiting frame;
  fault::retry_loop(config_.retry, retry_clock_, [&] {
    frame = Awaiting{next_tx_++, false, {}};
    dht::NodeId160 target = dht::NodeId160::random(rng_);
    ++stats_.find_nodes_sent;
    g_find_nodes_sent.inc();
    request(net, peer.endpoint,
            dht::Message{dht::FindNodesMsg{frame.tx, id_, target}}, frame);
    return frame.answered;
  });
  if (!frame.answered) return std::nullopt;
  g_find_nodes_answered.inc();
  return std::move(frame.contacts);
}

void DhtCrawler::record_contacts(const dht::Contact& from,
                                 const std::vector<dht::Contact>& contacts,
                                 bool& saw_new_internal) {
  for (const dht::Contact& c : contacts) {
    bool fresh = !data_.was_learned(c);
    data_.note_learned(c);
    if (netcore::is_reserved(c.endpoint.address)) {
      data_.note_leak(from, c);
      if (fresh) saw_new_internal = true;
    } else if (fresh && !enqueued_.contains(PeerKey{c})) {
      // Publicly addressed peers join the crawl frontier.
      enqueued_.insert(PeerKey{c});
      frontier_.push_back(c);
    }
  }
}

void DhtCrawler::process_peer(sim::Network& net, const dht::Contact& peer) {
  bool responded = false;
  bool saw_internal = false;
  for (int i = 0; i < config_.initial_queries; ++i) {
    auto contacts = query(net, peer);
    if (!contacts) continue;
    responded = true;
    record_contacts(peer, *contacts, saw_internal);
  }
  if (responded) data_.note_queried(peer);
  if (saw_internal) {
    ++stats_.peers_with_leaks;
    g_peers_with_leaks.inc();
  }
  // Leak-triggered batches: keep asking while fresh internal peers arrive.
  int batches = 0;
  while (saw_internal && batches < kMaxLeakBatches) {
    saw_internal = false;
    for (int i = 0; i < config_.leak_batch_queries; ++i) {
      auto contacts = query(net, peer);
      if (contacts) record_contacts(peer, *contacts, saw_internal);
    }
    ++batches;
  }
}

void DhtCrawler::start(sim::Network& net, const netcore::Endpoint& bootstrap) {
  // The bootstrap server is a DHT node like any other; crawl it first.
  dht::Contact boot{dht::NodeId160{}, bootstrap};
  enqueued_.insert(PeerKey{boot});
  frontier_.push_back(boot);
  (void)net;
}

std::size_t DhtCrawler::crawl_step(sim::Network& net,
                                   std::size_t peer_budget) {
  std::size_t processed = 0;
  while (processed < peer_budget && !frontier_.empty()) {
    dht::Contact peer = frontier_.front();
    frontier_.pop_front();
    process_peer(net, peer);
    ++processed;
  }
  g_frontier_size.set(static_cast<std::int64_t>(frontier_.size()));
  return processed;
}

DhtCrawler::PingShardOutcome DhtCrawler::ping_shard(
    sim::Network& net, std::span<const dht::Contact> contacts,
    sim::Clock* clock) {
  PingShardOutcome out;
  // A pong can only reach a frame on its sender's thread, so tx ids need
  // be unique only within this shard.
  std::uint64_t tx = 0;
  for (const dht::Contact& peer : contacts) {
    const bool pong = fault::retry_loop(config_.retry, clock, [&] {
      Awaiting frame{++tx, false, {}};
      ++out.pings_sent;
      g_pings_sent.inc();
      request(net, peer.endpoint, dht::Message{dht::PingMsg{frame.tx, id_}},
              frame);
      return frame.answered;
    });
    if (pong) {
      g_pongs_received.inc();
      out.responders.push_back(peer);
    }
  }
  return out;
}

void DhtCrawler::absorb_ping_outcomes(
    std::span<const PingShardOutcome> outcomes) {
  for (const PingShardOutcome& o : outcomes) {
    stats_.pings_sent += o.pings_sent;
    for (const dht::Contact& peer : o.responders)
      data_.note_ping_response(peer);
  }
}

}  // namespace cgn::crawler
