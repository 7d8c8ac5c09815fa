// bench_soak_ingest — paced long-soak harness for the push-ingestion path.
//
// Runs the deterministic campaign once, captures its event stream, and then
// spends a configurable wall-clock budget (CGN_SOAK_DURATION_S) pushing
// that stream into a live observatory over the real ingest socket, one
// campaign channel per cycle. Odd cycles inject a deterministic mid-frame
// disconnect and reconnect-resume from the server's cursor. After every
// cycle the channel's figure sets must compare equal to the ground truth an
// in-process observatory computed from the same capture — the byte-identity
// contract under sockets, faults and kills. A final overload leg freezes
// the drain thread and pushes with the shed policy, asserting that every
// accepted event is either ingested or counted shed (bounded queue, fully
// accounted degradation).
//
// Knobs: CGN_SOAK_DURATION_S (default 10), CGN_SOAK_PACE_US (default 0),
// CGN_SOAK_QUEUE (default 1024) plus the usual CGN_BENCH_* / CGN_FAULT_* /
// CGN_THREADS world knobs. Serves /metrics etc. while soaking and prints
// the daemon's announce line so scrapers can attach. Exits nonzero on any
// figure mismatch or accounting violation.
#include <chrono>
#include <thread>

#include "bench/common.hpp"
#include "observatory/ingest.hpp"
#include "observatory/observatory.hpp"
#include "observatory/stream_driver.hpp"

namespace {

using namespace cgn;

/// Records the driver's stream verbatim (events arrive with their final
/// virtual times) so it can be replayed any number of times.
struct CapturingSink : observatory::EventSink {
  std::vector<observatory::StreamEvent> events;
  std::uint64_t announced = 0;
  bool done = false;
  std::vector<std::pair<std::string, super::CampaignReport>> reports;

  void add_stream_total(std::uint64_t n) override { announced += n; }
  void ingest(const observatory::StreamEvent& e) override {
    events.push_back(e);
  }
  void note_stream_done() override { done = true; }
  void note_campaign_report(const std::string& kind,
                            const super::CampaignReport& report) override {
    reports.emplace_back(kind, report);
  }
};

/// Pushes the captured stream through one client connection. `full` also
/// sends the reports and the done frame (done blocks until the server
/// drained the campaign — the overload leg must skip it, and reports, to
/// keep the frozen queue exactly event-shaped).
void feed(observatory::PushClient& client, const CapturingSink& capture,
          int pace_us, bool full) {
  client.add_stream_total(capture.announced);
  for (const observatory::StreamEvent& e : capture.events) {
    client.ingest(e);
    if (pace_us > 0)
      std::this_thread::sleep_for(std::chrono::microseconds(pace_us));
  }
  if (!full) {
    client.flush();  // no control frame follows to send the last batch
    return;
  }
  for (const auto& [kind, report] : capture.reports)
    client.note_campaign_report(kind, report);
  client.note_stream_done();
}

}  // namespace

int main() {
  bench::print_header("soak_ingest",
                      "push-ingestion soak: figure convergence under "
                      "disconnects, resume and overload");

  const auto driver_cfg = observatory::stream_driver_config_from_env();
  observatory::StreamDriver driver(driver_cfg);
  CapturingSink capture;
  driver.run(capture);
  std::printf("soak: captured %zu events (announced %llu)\n",
              capture.events.size(),
              static_cast<unsigned long long>(capture.announced));

  // Ground truth: an in-process observatory over the same capture. Scoped
  // so its registry probes are gone before the live one registers its own.
  std::map<std::string, bench::Figures> truth;
  {
    observatory::Observatory truth_obs(driver.routes(), driver.registry());
    truth_obs.add_stream_total(capture.announced);
    for (const observatory::StreamEvent& e : capture.events)
      truth_obs.ingest(e);
    for (const auto& [kind, report] : capture.reports)
      truth_obs.note_campaign_report(kind, report);
    truth_obs.note_stream_done();
    truth = truth_obs.figure_sets();
  }

  observatory::Observatory live(driver.routes(), driver.registry());
  observatory::IngestConfig ingest_cfg;
  ingest_cfg.queue_capacity =
      static_cast<std::size_t>(scenario::env_u64("CGN_SOAK_QUEUE", 1024));
  std::string error;
  if (!live.serve(0, &error) || !live.serve_ingest(0, ingest_cfg, &error)) {
    std::fprintf(stderr, "soak: cannot serve: %s\n", error.c_str());
    return 2;
  }
  // Same announce shape as cgn_observatoryd, so obs_scrape.py can attach.
  std::printf("observatory: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(live.port()));
  std::printf("observatory: ingest on 127.0.0.1:%u\n",
              static_cast<unsigned>(live.ingest_port()));
  std::fflush(stdout);

  const double duration_s = scenario::env_double("CGN_SOAK_DURATION_S", 10.0);
  const int pace_us =
      static_cast<int>(scenario::env_u64("CGN_SOAK_PACE_US", 0));
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(duration_s);

  observatory::PushClientConfig base_cfg;
  base_cfg.port = live.ingest_port();
  base_cfg.world_seed = driver_cfg.world.seed;
  base_cfg.plan_hash = driver_cfg.world.fault_plan.hash();

  std::uint64_t cycles = 0;
  std::uint64_t matches = 0;
  std::uint64_t mismatches = 0;
  std::uint64_t events_total = 0;
  std::uint64_t reconnects = 0;
  do {
    const std::string campaign = "soak_" + std::to_string(cycles);
    observatory::PushClientConfig cfg = base_cfg;
    cfg.campaign = campaign;
    if (cycles % 2 == 1) {
      // Deterministic mid-stream hard disconnect, at a cycle-varied byte
      // offset so it lands inside different frames across the soak.
      cfg.faults.disconnect_after_bytes =
          16384 + (cycles % 7) * 8192;
    }
    bool pushed = false;
    try {
      observatory::PushClient client(cfg);
      client.connect();
      feed(client, capture, pace_us, true);
      pushed = true;
    } catch (const observatory::IngestError&) {
      // Expected on fault cycles: reconnect clean and resume.
    }
    if (!pushed) {
      ++reconnects;
      observatory::PushClientConfig clean = base_cfg;
      clean.campaign = campaign;
      try {
        observatory::PushClient client(clean);
        client.connect();
        feed(client, capture, pace_us, true);
      } catch (const observatory::IngestError& e) {
        std::fprintf(stderr, "soak: cycle %llu resume failed: %s\n",
                     static_cast<unsigned long long>(cycles), e.what());
        return 1;
      }
    }
    events_total += capture.events.size();

    if (live.figure_sets(campaign) == truth) {
      ++matches;
    } else {
      ++mismatches;
      std::fprintf(stderr, "soak: cycle %llu figures diverged from truth\n",
                   static_cast<unsigned long long>(cycles));
    }
    live.drop_campaign(campaign);
    ++cycles;
  } while (std::chrono::steady_clock::now() < deadline);

  // Overload leg: freeze the drain, push with shed policy, and require
  // every accepted event to be enqueued or shed — nothing unaccounted,
  // queue never above capacity.
  observatory::IngestServer* server = live.ingest_server();
  const observatory::IngestStats before = server->stats();
  server->set_drain_paused(true);
  bool overload_ok = true;
  {
    observatory::PushClientConfig cfg = base_cfg;
    cfg.campaign = "overload";
    cfg.policy = observatory::IngestOverloadPolicy::shed;
    try {
      observatory::PushClient client(cfg);
      client.connect();
      // Events only: done would (correctly) block while the drain sleeps.
      feed(client, capture, 0, false);
      // feed() returns once the bytes are in the kernel buffer; wait for the
      // server's connection thread to consume them before taking the
      // snapshot. The client stays open meanwhile: closing a socket with
      // unread acks resets it, which drops the frames still in flight.
      const auto settle = std::chrono::steady_clock::now() +
                          std::chrono::seconds(30);
      while (server->cursor("overload") < capture.events.size() &&
             std::chrono::steady_clock::now() < settle)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } catch (const observatory::IngestError& e) {
      std::fprintf(stderr, "soak: overload push failed: %s\n", e.what());
      overload_ok = false;
    }
  }
  observatory::IngestStats after = server->stats();
  const std::uint64_t accepted = server->cursor("overload");
  if (overload_ok && accepted != capture.events.size()) {
    std::fprintf(stderr,
                 "soak: overload leg lost frames: accepted %llu of %zu\n",
                 static_cast<unsigned long long>(accepted),
                 capture.events.size());
    overload_ok = false;
  }
  const std::uint64_t enqueued = after.events_enqueued - before.events_enqueued;
  const std::uint64_t shed = after.shed_total - before.shed_total;
  if (accepted != enqueued + shed) {
    std::fprintf(stderr,
                 "soak: overload accounting broken: accepted %llu != "
                 "enqueued %llu + shed %llu\n",
                 static_cast<unsigned long long>(accepted),
                 static_cast<unsigned long long>(enqueued),
                 static_cast<unsigned long long>(shed));
    overload_ok = false;
  }
  if (after.queue_depth > ingest_cfg.queue_capacity) {
    std::fprintf(stderr, "soak: queue exceeded capacity (%llu > %zu)\n",
                 static_cast<unsigned long long>(after.queue_depth),
                 ingest_cfg.queue_capacity);
    overload_ok = false;
  }
  server->set_drain_paused(false);
  // Let the drain finish so the final stats describe a quiescent server.
  while (server->stats().events_ingested <
         server->stats().events_enqueued)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  after = server->stats();
  live.drop_campaign("overload");

  std::printf(
      "soak: %llu cycles (%llu matches, %llu mismatches, %llu reconnects), "
      "overload shed %llu, max queue depth %llu\n",
      static_cast<unsigned long long>(cycles),
      static_cast<unsigned long long>(matches),
      static_cast<unsigned long long>(mismatches),
      static_cast<unsigned long long>(reconnects),
      static_cast<unsigned long long>(shed),
      static_cast<unsigned long long>(after.max_queue_depth));

  bench::Figures figs;
  figs.emplace_back("ingest_cycles", static_cast<double>(cycles));
  figs.emplace_back("ingest_events_total", static_cast<double>(events_total));
  figs.emplace_back("ingest_figure_matches", static_cast<double>(matches));
  figs.emplace_back("ingest_figure_mismatches",
                    static_cast<double>(mismatches));
  figs.emplace_back("ingest_reconnects", static_cast<double>(reconnects));
  figs.emplace_back("ingest_shed_total", static_cast<double>(after.shed_total));
  figs.emplace_back("ingest_rejected_total",
                    static_cast<double>(after.rejected_total()));
  figs.emplace_back("ingest_parks", static_cast<double>(after.parks));
  figs.emplace_back("ingest_max_lag",
                    static_cast<double>(after.max_queue_depth));
  figs.emplace_back("ingest_queue_capacity",
                    static_cast<double>(ingest_cfg.queue_capacity));
  bench::write_bench_json("soak_ingest", figs);

  return (mismatches == 0 && overload_ok) ? 0 : 1;
}
