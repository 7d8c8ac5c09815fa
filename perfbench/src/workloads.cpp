#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <initializer_list>
#include <sstream>
#include <stdexcept>
#include <unordered_set>

#include "analysis/bt_detector.hpp"
#include "analysis/figures.hpp"
#include "analysis/netalyzr_detector.hpp"
#include "analysis/path_analysis.hpp"
#include "analysis/transition.hpp"
#include "netalyzr/session.hpp"
#include "observatory/ingest.hpp"
#include "observatory/observatory.hpp"
#include "observatory/stream_driver.hpp"
#include "scenario/campaign.hpp"
#include "scenario/internet.hpp"
#include "super/wire.hpp"

namespace perfbench {

namespace {

using namespace cgn;

// --- sizing ------------------------------------------------------------------
//
// Every workload runs on the calibrated world of seed 42 at a fixed scale,
// so each iteration does the same amount of work whatever --seed is. The
// seed picks one of kVariants campaign substreams: the world's RNG is
// advanced by (seed mod kVariants) forks before the campaign draws from
// it, which changes swarm membership, crawl order and session sampling
// without resizing the world. observatory_push draws its cut schedule and
// scrape phase from the seed instead.
constexpr std::uint64_t kWorldSeed = 42;
constexpr std::uint64_t kVariants = 16;

constexpr double kBtScale = 0.03;
constexpr double kNzScale = 0.2;
constexpr int kNzSessionFactor = 6;
constexpr double kObsScale = 0.03;
constexpr int kObsCyclesPerIteration = 8;
constexpr double kObsCutShare = 0.25;
constexpr std::size_t kObsQueueCapacity = 1024;
constexpr double kTinyScale = 0.01;  // clamps to the 8-AS minimum world

scenario::InternetConfig world_config(double scale) {
  scenario::InternetConfig cfg;
  cfg.seed = kWorldSeed;
  auto scaled = [scale](std::size_t n) {
    return std::max<std::size_t>(
        8, static_cast<std::size_t>(static_cast<double>(n) * scale));
  };
  cfg.routed_ases = scaled(cfg.routed_ases);
  cfg.pbl_eyeballs = scaled(cfg.pbl_eyeballs);
  cfg.apnic_eyeballs = scaled(cfg.apnic_eyeballs);
  cfg.cellular_ases = scaled(cfg.cellular_ases);
  return cfg;
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// FNV-1a over the rendered figure sets, in the order added.
class FigureHash {
 public:
  void add(const std::string& name, const analysis::Figures& figures) {
    text_ << name << ':';
    analysis::render_figures_json(text_, figures);
    text_ << '\n';
  }
  [[nodiscard]] std::uint64_t value() const {
    return super::wire::fnv1a(text_.str());
  }

 private:
  std::ostringstream text_;
};

std::uint64_t hash_sets(const std::map<std::string, analysis::Figures>& sets) {
  FigureHash h;
  for (const auto& [name, figures] : sets) h.add(name, figures);
  return h.value();
}

// --- figure extraction not shared through analysis/figures.hpp ---------------
// (the same keys and values the tab02/tab03/fig12/tab07 benches write)

analysis::Figures tab02_figures(const analysis::BtDetectionResult& bt) {
  const auto& s = bt.summary;
  return {{"queried_peers", static_cast<double>(s.queried_peers)},
          {"queried_unique_ips", static_cast<double>(s.queried_unique_ips)},
          {"learned_peers", static_cast<double>(s.learned_peers)},
          {"learned_unique_ips", static_cast<double>(s.learned_unique_ips)},
          {"learned_ases", static_cast<double>(s.learned_ases)},
          {"responding_peers", static_cast<double>(s.responding_peers)}};
}

analysis::Figures tab03_figures(const analysis::BtDetectionResult& bt) {
  double internal_total = 0, leaking_total = 0, leaking_as_rels = 0;
  for (const auto& row : bt.per_range) {
    internal_total += static_cast<double>(row.internal_total);
    leaking_total += static_cast<double>(row.leaking_total);
    leaking_as_rels += static_cast<double>(row.leaking_ases);
  }
  return {{"internal_total", internal_total},
          {"leaking_total", leaking_total},
          {"leaking_as_relationships", leaking_as_rels}};
}

analysis::Figures fig12_figures(const analysis::PathAnalysisResult& r) {
  std::vector<double> cgns = r.fig12.cellular_cgn_per_as;
  cgns.insert(cgns.end(), r.fig12.noncellular_cgn_per_as.begin(),
              r.fig12.noncellular_cgn_per_as.end());
  std::size_t fast = 0;
  for (double t : cgns) fast += t <= 70.0 ? 1 : 0;
  return {{"cgn_ases_measured", static_cast<double>(cgns.size())},
          {"cgn_fast_timeout_ases", static_cast<double>(fast)},
          {"cpe_sessions",
           static_cast<double>(r.fig12.cpe_per_session.size())}};
}

analysis::Figures tab07_figures(const analysis::PathAnalysisResult& r) {
  const auto& t = r.table7;
  return {{"enum_sessions", static_cast<double>(r.enum_sessions_used)},
          {"enum_ases", static_cast<double>(r.enum_ases)},
          {"mismatch_detected", static_cast<double>(t.mismatch_detected)},
          {"mismatch_undetected", static_cast<double>(t.mismatch_undetected)},
          {"match_detected", static_cast<double>(t.match_detected)},
          {"match_undetected", static_cast<double>(t.match_undetected)}};
}

// --- shared per-layer extraction ---------------------------------------------

/// Counter delta summed over the campaign spans of one iteration.
double delta_over(const Tracer& tr, int id,
                  std::initializer_list<const char*> spans,
                  const char* counter) {
  std::uint64_t total = 0;
  for (const char* span : spans) total += tr.delta(id, span, counter);
  return static_cast<double>(total);
}

void sim_layers(const sim::NetworkStats& before, const sim::NetworkStats& after,
                const Tracer& tr, int id,
                std::initializer_list<const char*> spans, Metrics& m) {
  const auto sent = static_cast<double>(after.sent - before.sent);
  const auto dropped = [](const sim::NetworkStats& s) {
    return s.dropped_ttl + s.dropped_no_route + s.dropped_filtered +
           s.dropped_no_mapping + s.dropped_other + s.dropped_fault_loss +
           s.dropped_fault_unresponsive;
  };
  m["sim.packets_sent"] = sent;
  m["sim.packets_delivered"] =
      static_cast<double>(after.delivered - before.delivered);
  m["sim.packets_dropped"] = static_cast<double>(dropped(after) - dropped(before));
  const auto d = [&](const char* c) { return delta_over(tr, id, spans, c); };
  m["sim.hops_per_packet"] =
      ratio(d("sim.net.hops.sum"), d("sim.net.hops.count"));
  m["sim.route_cache_hits_per_packet"] = ratio(
      static_cast<double>(after.route_cache_hits - before.route_cache_hits),
      sent);
  m["nat.mappings_created"] = d("nat.mappings_created");
  m["nat.translations_per_packet"] =
      ratio(d("nat.outbound_translated") + d("nat.inbound_translated"), sent);
  m["nat.inbound_filtered"] = d("nat.inbound_filtered");
  m["nat.hairpins_forwarded"] = d("nat.hairpins_forwarded");
}

void super_layers(const super::CampaignReport& report, Metrics& m) {
  std::vector<double> ms;
  for (const super::ShardOutcome& o : report.shards)
    ms.push_back(o.elapsed_s * 1e3);
  std::sort(ms.begin(), ms.end());
  m["super.shard_ms_p50"] = ms.empty() ? 0.0 : ms[ms.size() / 2];
  m["super.shard_ms_max"] = ms.empty() ? 0.0 : ms.back();
  m["super.shards_quarantined"] =
      static_cast<double>(report.count(super::ShardStatus::quarantined));
}

/// The two campaign workloads: every iteration builds a fresh world (the
/// set-up) and runs one campaign on it.
class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(const scenario::InternetConfig& config, std::uint64_t seed)
      : config_(config), variant_(seed % kVariants) {}

  void prepare(Tracer&, std::vector<double>&) override {}
  [[nodiscard]] bool setup_per_iteration() const override { return true; }

  void setup(Tracer& tr) override {
    Span s(tr, "scenario.build_internet");
    world_ = scenario::build_internet(config_);
    for (std::uint64_t k = 0; k < variant_; ++k) (void)world_->fork_rng();
  }

  void teardown() override { world_.reset(); }

 protected:
  std::unique_ptr<scenario::Internet> world_;

 private:
  scenario::InternetConfig config_;
  std::uint64_t variant_;
};

// --- bt_crawl ----------------------------------------------------------------

class BtCrawl final : public CampaignWorkload {
 public:
  explicit BtCrawl(const WorkloadOptions& o)
      : CampaignWorkload(world_config(o.tiny ? kTinyScale : kBtScale),
                         o.seed) {}

  void run(Tracer& tr, Iteration& it) override {
    const sim::NetworkStats before = world_->net.stats();
    {
      Span s(tr, "scenario.run_bittorrent_phase");
      scenario::run_bittorrent_phase(*world_);
      tr.merge_profiler(s.index(), "campaign.bittorrent",
                        {{"bootstrap", "dht.bootstrap"},
                         {"rounds", "dht.rounds"}});
    }
    scenario::CrawlPhaseConfig crawl;
    crawl.threads = 1;
    super::CampaignReport report;
    {
      Span s(tr, "scenario.run_crawl_phase");
      crawler_ = scenario::run_crawl_phase(*world_, crawl, &report);
      tr.merge_profiler(s.index(), "campaign.crawl",
                        {{"walk", "crawler.walk"},
                         {"ping_sweep", "crawler.ping_sweep"}});
    }
    analysis::BtDetectionResult bt;
    {
      Span s(tr, "analysis.BtDetector.analyze");
      bt = analysis::BtDetector().analyze(crawler_->dataset(), world_->routes);
    }
    {
      Span s(tr, "analysis.figures");
      FigureHash h;
      h.add("fig04_clusters", analysis::fig04_figures(bt));
      h.add("tab02_crawl_summary", tab02_figures(bt));
      h.add("tab03_leakage", tab03_figures(bt));
      it.figure_hash = h.value();
    }
    const sim::NetworkStats after = world_->net.stats();
    it.packets = after.sent - before.sent;
    it.workers = 1;
    it.attempted = report.planned() + 1;
    it.failed = report.planned() - report.finished();
    if (!it.traced) return;

    const int id = it.run_id;
    Metrics& m = it.layers;
    const auto d = [&](const char* c) {
      return delta_over(tr, id,
                        {"scenario.run_bittorrent_phase",
                         "scenario.run_crawl_phase"},
                        c);
    };
    m["scenario.build_s"] = tr.total_s(id, "scenario.build_internet");
    m["dht.bootstrap_s"] = tr.total_s(id, "dht.bootstrap");
    m["dht.rounds_s"] = tr.total_s(id, "dht.rounds");
    m["dht.messages_sent"] = d("dht.messages_sent");
    m["dht.messages_received"] = d("dht.messages_received");
    m["dht.contacts_validated"] = d("dht.contacts_validated");
    m["dht.ns_per_message"] =
        1e9 * ratio(tr.total_s(id, "scenario.run_bittorrent_phase"),
                    static_cast<double>(tr.delta(
                        id, "scenario.run_bittorrent_phase",
                        "dht.messages_sent")));
    sim_layers(before, after, tr, id,
               {"scenario.run_bittorrent_phase", "scenario.run_crawl_phase"},
               m);
    m["crawler.walk_s"] = tr.total_s(id, "crawler.walk");
    m["crawler.ping_sweep_s"] = tr.total_s(id, "crawler.ping_sweep");
    m["crawler.find_nodes_sent"] = d("crawler.find_nodes_sent");
    m["crawler.find_nodes_answer_ratio"] =
        ratio(d("crawler.find_nodes_answered"),
              d("crawler.find_nodes_sent"));
    m["crawler.bt_pong_ratio"] = ratio(d("crawler.bt_pongs_received"),
                                       d("crawler.bt_pings_sent"));
    super_layers(report, m);
    m["analysis.bt_detect_s"] = tr.total_s(id, "analysis.BtDetector.analyze");
    m["analysis.figures_s"] = tr.total_s(id, "analysis.figures");
  }

  void teardown() override {
    crawler_.reset();
    CampaignWorkload::teardown();
  }

 private:
  std::unique_ptr<crawler::DhtCrawler> crawler_;
};

// --- netalyzr_battery --------------------------------------------------------

/// A v6-transition world with `factor` times the Netalyzr sessions per AS.
scenario::InternetConfig battery_world(double scale, int factor) {
  scenario::InternetConfig cfg = world_config(scale);
  cfg.v6.enabled = true;
  cfg.nz_sessions_lo *= factor;
  cfg.nz_sessions_hi *= factor;
  cfg.nz_cellular_sessions_lo *= factor;
  cfg.nz_cellular_sessions_hi *= factor;
  return cfg;
}

class NetalyzrBattery final : public CampaignWorkload {
 public:
  explicit NetalyzrBattery(const WorkloadOptions& o)
      : CampaignWorkload(o.tiny ? battery_world(kTinyScale, 1)
                                : battery_world(kNzScale, kNzSessionFactor),
                         o.seed),
        workers_(std::max<std::size_t>(1, o.max_workers)) {}

  void run(Tracer& tr, Iteration& it) override {
    const sim::NetworkStats before = world_->net.stats();
    scenario::NetalyzrCampaignConfig cfg;
    cfg.enum_fraction = 1.0;
    cfg.stun_fraction = 1.0;
    cfg.transition_battery = true;
    cfg.threads = workers_;
    super::CampaignReport report;
    std::vector<netalyzr::SessionResult> sessions;
    const double cpu0 = process_cpu_s();
    {
      Span s(tr, "scenario.run_netalyzr_campaign");
      sessions = scenario::run_netalyzr_campaign(*world_, cfg, &report);
      tr.merge_profiler(s.index(), "campaign.netalyzr", {});
    }
    const double campaign_cpu_s = process_cpu_s() - cpu0;
    analysis::NetalyzrDetectionResult nz;
    {
      Span s(tr, "analysis.NetalyzrDetector.analyze");
      nz = analysis::NetalyzrDetector().analyze(sessions, world_->routes);
    }
    analysis::TransitionDetectionResult transition;
    {
      Span s(tr, "analysis.TransitionDetector.analyze");
      transition = analysis::TransitionDetector().analyze(sessions);
    }
    analysis::PathAnalysisResult paths;
    {
      // No crawl runs here, so the deep dives take the Netalyzr-positive
      // ASes as their CGN set.
      Span s(tr, "analysis.PathAnalyzer.analyze");
      std::unordered_set<netcore::Asn> cgn_ases;
      for (const auto& [asn, v] : nz.per_as)
        if (v.cgn_positive) cgn_ases.insert(asn);
      paths = analysis::PathAnalyzer().analyze(sessions, world_->routes,
                                               cgn_ases);
    }
    {
      Span s(tr, "analysis.figures");
      FigureHash h;
      h.add("fig05_netalyzr_candidates", analysis::fig05_figures(nz));
      h.add("fig12_timeouts", fig12_figures(paths));
      h.add("tab07_ttl_detection", tab07_figures(paths));
      h.add("fig14_transition", analysis::fig14_figures(transition));
      it.figure_hash = h.value();
      it.fingerprint = netalyzr::fingerprint(sessions);
    }
    const sim::NetworkStats after = world_->net.stats();
    it.packets = after.sent - before.sent;
    it.workers = workers_;
    it.attempted = report.planned() + 1;
    it.failed = report.planned() - report.finished();
    if (!it.traced) return;

    const int id = it.run_id;
    Metrics& m = it.layers;
    const auto d = [&](const char* c) {
      return static_cast<double>(
          tr.delta(id, "scenario.run_netalyzr_campaign", c));
    };
    m["scenario.build_s"] = tr.total_s(id, "scenario.build_internet");
    sim_layers(before, after, tr, id, {"scenario.run_netalyzr_campaign"}, m);
    m["netalyzr.campaign_s"] = tr.total_s(id, "scenario.run_netalyzr_campaign");
    m["netalyzr.sessions"] = d("netalyzr.sessions");
    m["netalyzr.stun_tests"] = d("netalyzr.stun_tests");
    m["netalyzr.enum_experiments"] = d("netalyzr.enum_experiments");
    m["netalyzr.transition_tests"] = d("netalyzr.transition_tests");
    m["netalyzr.cpu_us_per_session"] =
        1e6 * ratio(campaign_cpu_s, static_cast<double>(sessions.size()));
    super_layers(report, m);
    m["analysis.nz_detect_s"] =
        tr.total_s(id, "analysis.NetalyzrDetector.analyze") +
        tr.total_s(id, "analysis.TransitionDetector.analyze") +
        tr.total_s(id, "analysis.PathAnalyzer.analyze");
    m["analysis.figures_s"] = tr.total_s(id, "analysis.figures");
  }

 private:
  std::size_t workers_;
};

// --- observatory_push --------------------------------------------------------

/// Records the driver's stream verbatim so it can be pushed many times.
struct CapturingSink final : observatory::EventSink {
  std::vector<observatory::StreamEvent> events;
  std::uint64_t announced = 0;
  std::vector<std::pair<std::string, super::CampaignReport>> reports;

  void add_stream_total(std::uint64_t n) override { announced += n; }
  void ingest(const observatory::StreamEvent& e) override {
    events.push_back(e);
  }
  void note_stream_done() override {}
  void note_campaign_report(const std::string& kind,
                            const super::CampaignReport& report) override {
    reports.emplace_back(kind, report);
  }
};

class ObservatoryPush final : public Workload {
 public:
  explicit ObservatoryPush(const WorkloadOptions& o)
      : tiny_(o.tiny), rng_(sim::Rng::fork(o.seed, 0x0b5)) {}

  void prepare(Tracer& tr, std::vector<double>& setup_s) override {
    observatory::StreamDriverConfig cfg;
    cfg.world = world_config(tiny_ ? kTinyScale : kObsScale);
    cfg.crawl.threads = 1;
    cfg.netalyzr.threads = 1;
    // Set up several times: set-up time is reported as a median, and every
    // capture of the same world must produce the same ground truth.
    for (int k = 0; k < 3; ++k) {
      tr.set_run(-1 - k);
      const auto t0 = std::chrono::steady_clock::now();
      {
        Span setup(tr, "setup");
        driver_ = std::make_unique<observatory::StreamDriver>(cfg);
        capture_ = CapturingSink{};
        {
          Span s(tr, "observatory.StreamDriver.run");
          driver_->run(capture_);
          tr.merge_profiler(s.index(), "",
                            {{"build_internet", "scenario.build_internet"}});
        }
        Span s(tr, "observatory.ground_truth");
        observatory::Observatory truth(driver_->routes(), driver_->registry());
        feed_in_process(truth, "");
        truth_ = truth.figure_sets();
      }
      setup_s.push_back(std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - t0)
                            .count());
      build_s_.push_back(tr.total_s(-1 - k, "scenario.build_internet"));
      const std::uint64_t h = hash_sets(truth_);
      if (k > 0 && h != truth_hash_) ++setup_mismatches_;
      truth_hash_ = h;
    }

    // Bytes on the wire per event frame: header, type byte, seq, payload.
    std::uint64_t bytes = 0;
    for (const observatory::StreamEvent& e : capture_.events) {
      super::wire::Writer w;
      w.u64(0);
      observatory::put_stream_event(w, e);
      bytes += observatory::kIngestHeaderBytes + 1 + w.take().size();
    }
    event_bytes_ = bytes;

    live_ = std::make_unique<observatory::Observatory>(driver_->routes(),
                                                       driver_->registry());
    observatory::IngestConfig ingest;
    ingest.queue_capacity = kObsQueueCapacity;
    std::string error;
    if (!live_->serve(0, &error) || !live_->serve_ingest(0, ingest, &error))
      throw std::runtime_error("cannot serve the observatory: " + error);
    // The scraper's /figures target: a channel holding the whole stream.
    feed_in_process(*live_, "ref");
    if (live_->figure_sets("ref") != truth_) ++setup_mismatches_;
    base_.port = live_->ingest_port();
    base_.world_seed = cfg.world.seed;
    base_.plan_hash = cfg.world.fault_plan.hash();
  }

  [[nodiscard]] bool setup_per_iteration() const override { return false; }

  void run(Tracer& tr, Iteration& it) override {
    observatory::IngestServer& server = *live_->ingest_server();
    const observatory::IngestStats before = server.stats();
    std::uint64_t mismatches = 0;
    std::uint64_t failed_cycles = 0;
    for (int c = 0; c < cycles(); ++c) {
      const std::string campaign = "c" + std::to_string(next_campaign_++);
      observatory::PushClientConfig cfg = base_;
      cfg.campaign = campaign;
      if (rng_.chance(kObsCutShare))
        cfg.faults.disconnect_after_bytes =
            rng_.uniform(64, std::max<std::uint64_t>(65, event_bytes_ - 64));
      try {
        std::unique_ptr<observatory::PushClient> client;
        {
          Span s(tr, "observatory.push");
          try {
            client = connect_and_feed(cfg);
          } catch (const observatory::IngestError&) {
            // The cut: reconnect clean and resume from the server's cursor.
            ++resumes_;
            observatory::PushClientConfig clean = base_;
            clean.campaign = campaign;
            client = connect_and_feed(clean);
          }
        }
        Span s(tr, "observatory.drain_wait");
        client->note_stream_done();
      } catch (const observatory::IngestError&) {
        ++failed_cycles;
      }
      {
        Span s(tr, "observatory.figure_sets");
        if (live_->figure_sets(campaign) != truth_) ++mismatches;
      }
      Span s(tr, "observatory.drop_campaign");
      live_->drop_campaign(campaign);
    }
    const observatory::IngestStats after = server.stats();
    const std::uint64_t pushed =
        static_cast<std::uint64_t>(cycles()) * capture_.events.size();
    // A cut lands mid-frame by design (counted as truncated); any other
    // reject or shed event is a failure.
    const std::uint64_t unexpected_rejects =
        (after.rejected_total() - after.truncated) -
        (before.rejected_total() - before.truncated);
    it.figure_hash = truth_hash_;
    it.events = after.events_ingested - before.events_ingested;
    it.attempted = static_cast<std::uint64_t>(cycles()) + pushed;
    it.failed = mismatches + failed_cycles + unexpected_rejects +
                (after.shed_total - before.shed_total);
    if (!it.traced) return;

    const int id = it.run_id;
    Metrics& m = it.layers;
    const double push_s = tr.total_s(id, "observatory.push");
    const double drain_s = tr.total_s(id, "observatory.drain_wait");
    m["observatory.push_s"] = push_s;
    m["observatory.drain_wait_s"] = drain_s;
    m["observatory.ingest_us_per_event"] =
        1e6 * ratio(push_s + drain_s, static_cast<double>(it.events));
    m["observatory.parks"] = static_cast<double>(after.parks - before.parks);
    m["observatory.events_replayed"] =
        static_cast<double>(after.events_replayed - before.events_replayed);
    m["observatory.frames_rejected"] =
        static_cast<double>(after.rejected_total() - before.rejected_total());
    m["analysis.figures_s"] = tr.total_s(id, "observatory.figure_sets");
  }

  void finish(Metrics& m, Iteration& totals) override {
    std::vector<double> build = build_s_;
    std::sort(build.begin(), build.end());
    if (!build.empty()) m["scenario.build_s"] = build[build.size() / 2];
    m["observatory.bytes_per_event"] =
        ratio(static_cast<double>(event_bytes_),
              static_cast<double>(capture_.events.size()));
    m["observatory.queue_max_depth"] =
        static_cast<double>(live_->ingest_server()->stats().max_queue_depth);
    m["observatory.resumes"] = static_cast<double>(resumes_);
    totals.attempted += 3 + 1;  // ground-truth captures and the ref channel
    totals.failed += setup_mismatches_;
    totals.figure_hash = truth_hash_;
  }

  [[nodiscard]] std::uint16_t http_port() const override {
    return live_->port();
  }
  [[nodiscard]] std::vector<ScrapeTarget> scrape_targets() const override {
    return {{"metrics", "/metrics"},
            {"figures", "/figures/ref"},
            {"health", "/health"}};
  }
  [[nodiscard]] std::size_t connections() const override { return 2; }

 private:
  [[nodiscard]] int cycles() const { return tiny_ ? 2 : kObsCyclesPerIteration; }

  /// The in-process producer API: the ground truth and the ref channel.
  void feed_in_process(observatory::Observatory& obs,
                       const std::string& campaign) {
    if (campaign.empty()) {
      obs.add_stream_total(capture_.announced);
      for (const auto& e : capture_.events) obs.ingest(e);
      for (const auto& [kind, report] : capture_.reports)
        obs.note_campaign_report(kind, report);
      obs.note_stream_done();
      return;
    }
    obs.set_stream_total(campaign, capture_.announced);
    for (const auto& e : capture_.events) obs.ingest(campaign, e);
    for (const auto& [kind, report] : capture_.reports)
      obs.note_campaign_report(campaign, kind, report);
    obs.note_stream_done(campaign);
  }

  std::unique_ptr<observatory::PushClient> connect_and_feed(
      const observatory::PushClientConfig& cfg) {
    auto client = std::make_unique<observatory::PushClient>(cfg);
    client->connect();
    client->add_stream_total(capture_.announced);
    for (const auto& e : capture_.events) client->ingest(e);
    for (const auto& [kind, report] : capture_.reports)
      client->note_campaign_report(kind, report);
    return client;
  }

  bool tiny_;
  sim::Rng rng_;
  std::unique_ptr<observatory::StreamDriver> driver_;
  CapturingSink capture_;
  std::map<std::string, analysis::Figures> truth_;
  std::uint64_t truth_hash_ = 0;
  std::uint64_t setup_mismatches_ = 0;
  std::vector<double> build_s_;
  std::uint64_t event_bytes_ = 0;
  std::unique_ptr<observatory::Observatory> live_;
  observatory::PushClientConfig base_;
  std::uint64_t next_campaign_ = 0;
  std::uint64_t resumes_ = 0;
};

}  // namespace

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadOptions& options) {
  if (name == "bt_crawl") return std::make_unique<BtCrawl>(options);
  if (name == "netalyzr_battery")
    return std::make_unique<NetalyzrBattery>(options);
  if (name == "observatory_push")
    return std::make_unique<ObservatoryPush>(options);
  return nullptr;
}

const std::vector<std::string>& layer_metric_names() {
  static const std::vector<std::string> names = {
      "scenario.build_s",
      "dht.bootstrap_s",
      "dht.rounds_s",
      "dht.messages_sent",
      "dht.messages_received",
      "dht.contacts_validated",
      "dht.ns_per_message",
      "sim.packets_sent",
      "sim.packets_delivered",
      "sim.packets_dropped",
      "sim.hops_per_packet",
      "sim.route_cache_hits_per_packet",
      "sim.cpu_ns_per_packet",
      "sim.packets_per_s",
      "nat.mappings_created",
      "nat.translations_per_packet",
      "nat.inbound_filtered",
      "nat.hairpins_forwarded",
      "crawler.walk_s",
      "crawler.ping_sweep_s",
      "crawler.find_nodes_sent",
      "crawler.find_nodes_answer_ratio",
      "crawler.bt_pong_ratio",
      "netalyzr.campaign_s",
      "netalyzr.sessions",
      "netalyzr.stun_tests",
      "netalyzr.enum_experiments",
      "netalyzr.transition_tests",
      "netalyzr.cpu_us_per_session",
      "par.workers",
      "par.cpu_efficiency",
      "super.shard_ms_p50",
      "super.shard_ms_max",
      "super.shards_quarantined",
      "analysis.bt_detect_s",
      "analysis.nz_detect_s",
      "analysis.figures_s",
      "observatory.push_s",
      "observatory.drain_wait_s",
      "observatory.ingest_us_per_event",
      "observatory.ingest_events_per_s",
      "observatory.bytes_per_event",
      "observatory.queue_max_depth",
      "observatory.parks",
      "observatory.events_replayed",
      "observatory.frames_rejected",
      "observatory.resumes",
      "observatory.scrape_ms_p50",
      "observatory.scrape_ms_p50.metrics",
      "observatory.scrape_ms_p50.figures",
      "observatory.scrape_ms_p50.health",
      "observatory.scrape_ms_p95",
      "observatory.scrape_late_ms_max",
      "trace.unattributed_s",
      "trace.overhead_pct",
  };
  return names;
}

}  // namespace perfbench
