#include "observatory/stream_driver.hpp"

#include <chrono>
#include <thread>
#include <utility>

#include "obs/trace.hpp"
#include "scenario/env_config.hpp"

namespace cgn::observatory {

StreamDriverConfig stream_driver_config_from_env() {
  StreamDriverConfig cfg;
  cfg.world = scenario::scaled_config();
  cfg.crawl.crawl.retry = scenario::retry_policy_from_env();
  cfg.crawl.supervise = scenario::supervisor_config_from_env("crawl_ping");
  cfg.netalyzr.retry = scenario::retry_policy_from_env();
  cfg.netalyzr.transition_battery = cfg.world.v6.enabled;
  cfg.netalyzr.supervise = scenario::supervisor_config_from_env("netalyzr");
  return cfg;
}

StreamDriver::StreamDriver(StreamDriverConfig config)
    : config_(std::move(config)),
      bt_world_(scenario::build_internet(config_.world)) {}

void StreamDriver::emit(EventSink& sink, std::vector<StreamEvent> events,
                        double t_begin, double t_end) {
  if (events.empty()) return;
  sink.add_stream_total(events.size());
  const double span = t_end > t_begin ? t_end - t_begin : 0.0;
  const auto n = static_cast<double>(events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    events[i].time = t_begin + span * (static_cast<double>(i + 1) / n);
    sink.ingest(events[i]);
    if (config_.pace_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(config_.pace_us));
  }
  emitted_ += events.size();
}

void StreamDriver::run(EventSink& sink) {
  scenario::Internet& world = *bt_world_;
  // The BT phase is single-threaded, so a hop-trace ring may observe it;
  // the crawl's ping sweep shards across workers, so detach before it.
  obs::TraceRing ring(512);
  world.net.set_hop_trace(&ring);
  scenario::run_bittorrent_phase(world);
  world.net.set_hop_trace(nullptr);
  sink.capture_trace(ring);

  crawler_ = scenario::run_crawl_phase(world, config_.crawl, &bt_report_);
  sink.note_campaign_report("crawl_ping", bt_report_);

  const crawler::CrawlDataset& data = crawler_->dataset();
  std::vector<StreamEvent> events;
  events.reserve(data.queried_peers() + data.learned_peers() +
                 data.responding_peers() + data.leaks().size());
  auto contact_event = [&events](StreamEvent::Kind kind,
                                 const dht::Contact& c) {
    StreamEvent e;
    e.kind = kind;
    e.contact = c;
    events.push_back(std::move(e));
  };
  for (const dht::Contact& c : data.queried_contacts())
    contact_event(StreamEvent::Kind::bt_queried, c);
  for (const dht::Contact& c : data.learned_contacts())
    contact_event(StreamEvent::Kind::bt_learned, c);
  for (const dht::Contact& c : data.responding_contacts())
    contact_event(StreamEvent::Kind::bt_ping_response, c);
  for (const crawler::LeakEdge& edge : data.leaks()) {
    StreamEvent e;
    e.kind = StreamEvent::Kind::bt_leak;
    e.contact = edge.leaker;
    e.internal = edge.internal;
    events.push_back(std::move(e));
  }
  const double crawl_end = world.clock.now();
  emit(sink, std::move(events), 0.0, crawl_end);

  // The Netalyzr campaign must be the first fork consumer of its world to
  // reproduce bench_fig05's substream, and the crawl already consumed forks
  // from bt_world_, so it runs on a fresh build.
  nz_world_ = scenario::build_internet(config_.world);
  const std::vector<netalyzr::SessionResult> sessions =
      scenario::run_netalyzr_campaign(*nz_world_, config_.netalyzr,
                                      &nz_report_);
  sink.note_campaign_report("netalyzr", nz_report_);

  std::vector<StreamEvent> nz_events;
  nz_events.reserve(sessions.size());
  for (const netalyzr::SessionResult& s : sessions) {
    StreamEvent e;
    e.kind = StreamEvent::Kind::nz_session;
    e.session = s;
    nz_events.push_back(std::move(e));
  }
  // Netalyzr virtual times continue after the crawl's on the shared stream
  // axis.
  emit(sink, std::move(nz_events), crawl_end,
       crawl_end + nz_world_->clock.now());

  sink.note_stream_done();
}

}  // namespace cgn::observatory
