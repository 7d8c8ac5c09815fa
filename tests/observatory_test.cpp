// Unit tests for the observatory stack: histogram quantiles and the
// Prometheus exposition (obs), the dynamic union-find and streaming
// detectors (analysis), the TraceRing kind tallies, the route-cache obs
// counter, and the HTTP endpoint (observatory).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/bt_detector.hpp"
#include "analysis/figures.hpp"
#include "analysis/stream.hpp"
#include "analysis/union_find.hpp"
#include "crawler/crawl_dataset.hpp"
#include "netcore/as_registry.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "observatory/http.hpp"
#include "observatory/observatory.hpp"
#include "sim/network.hpp"

namespace cgn {
namespace {

using netcore::Ipv4Address;
using netcore::Ipv4Prefix;
using netcore::RoutingTable;

// --- analysis: DynamicUnionFind --------------------------------------------

TEST(DynamicUnionFind, GrowsAndUnites) {
  analysis::DynamicUnionFind uf;
  EXPECT_EQ(uf.size(), 0u);
  const std::size_t a = uf.add_vertex();
  const std::size_t b = uf.add_vertex();
  const std::size_t c = uf.add_vertex();
  EXPECT_EQ(uf.size(), 3u);
  EXPECT_FALSE(uf.connected(a, c));
  EXPECT_TRUE(uf.unite(a, b));
  EXPECT_TRUE(uf.unite(b, c));
  EXPECT_FALSE(uf.unite(a, c)) << "already connected";
  EXPECT_TRUE(uf.connected(a, c));
  const std::size_t d = uf.add_vertex();
  EXPECT_FALSE(uf.connected(a, d)) << "late vertices start isolated";
  uf.clear();
  EXPECT_EQ(uf.size(), 0u);
}

// --- obs: histogram quantiles ----------------------------------------------

TEST(HistogramQuantiles, InterpolatesWithinBuckets) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Histogram& h =
      obs::histogram("test.observatory.quantile_hist", {10.0, 20.0});
  for (int i = 0; i < 4; ++i) h.observe(5.0);   // bucket [0, 10)
  for (int i = 0; i < 4; ++i) h.observe(15.0);  // bucket [10, 20)
  // Rank q*8 walks the cumulative counts; linear interpolation inside the
  // holding bucket.
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 10.0);   // rank 4 = bucket 0 exhausted
  EXPECT_DOUBLE_EQ(h.quantile(0.25), 5.0);   // rank 2 of 4 in [0, 10)
  EXPECT_DOUBLE_EQ(h.quantile(0.75), 15.0);  // rank 6 -> 2 of 4 in [10, 20)
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 20.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 0.0);
}

TEST(HistogramQuantiles, OverflowClampsToLastBound) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::Histogram& h =
      obs::histogram("test.observatory.overflow_hist", {10.0, 20.0});
  for (int i = 0; i < 8; ++i) h.observe(1000.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 20.0)
      << "overflow-bucket quantiles clamp to the last finite bound";
}

TEST(MetricsExport, JsonIncludesQuantiles) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::histogram("test.observatory.json_hist", {1.0, 2.0}).observe(1.5);
  std::ostringstream os;
  obs::MetricsRegistry::global().export_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"p50\":"), std::string::npos);
  EXPECT_NE(json.find("\"p90\":"), std::string::npos);
  EXPECT_NE(json.find("\"p99\":"), std::string::npos);
}

// --- obs: Prometheus text exposition ---------------------------------------

TEST(MetricsExport, PrometheusExposition) {
  if (!obs::kMetricsEnabled) GTEST_SKIP() << "metrics compiled out";
  obs::counter("test.prom.requests").inc(7);
  obs::gauge("test.prom.depth").set(3);
  obs::Histogram& h = obs::histogram("test.prom.latency", {1.0, 2.0});
  h.observe(0.5);
  h.observe(1.5);
  h.observe(99.0);

  std::ostringstream os;
  obs::MetricsRegistry::global().export_prometheus(os);
  const std::string text = os.str();

  // Dots sanitize to underscores under a cgn_ prefix; TYPE precedes samples.
  EXPECT_NE(text.find("# TYPE cgn_test_prom_requests counter\n"
                      "cgn_test_prom_requests 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE cgn_test_prom_depth gauge\n"
                      "cgn_test_prom_depth 3\n"),
            std::string::npos);
  // Cumulative buckets with the +Inf catch-all, then sum/count/quantiles.
  EXPECT_NE(text.find("cgn_test_prom_latency_bucket{le=\"1\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("cgn_test_prom_latency_bucket{le=\"2\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("cgn_test_prom_latency_bucket{le=\"+Inf\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("cgn_test_prom_latency_count 3"), std::string::npos);
  EXPECT_NE(text.find("cgn_test_prom_latency_sum"), std::string::npos);
  EXPECT_NE(text.find("cgn_test_prom_latency_p50"), std::string::npos);
  EXPECT_NE(text.find("cgn_test_prom_latency_p99"), std::string::npos);
}

// --- obs: TraceRing kind tallies -------------------------------------------

TEST(TraceRingTallies, CountKindsAcrossOverwrites) {
  obs::TraceRing ring(4);
  for (int i = 0; i < 10; ++i)
    ring.push({0, 0, static_cast<std::uint8_t>(i % 2), 0, 0.0});
  EXPECT_EQ(ring.size(), 4u) << "window slid";
  EXPECT_EQ(ring.total_pushed(), 10u);
  EXPECT_EQ(ring.kind_tally(0), 5u) << "tallies survive overwrites";
  EXPECT_EQ(ring.kind_tally(1), 5u);
  EXPECT_EQ(ring.kind_tally(2), 0u);
  ring.push({0, 0, 10, 0, 0.0});  // kinds fold modulo the slot count
  EXPECT_EQ(ring.kind_tally(2), 1u);
  ring.clear();
  EXPECT_EQ(ring.kind_tally(0), 0u);
  EXPECT_EQ(ring.total_pushed(), 0u);
}

// --- analysis: streaming detectors ------------------------------------------

dht::Contact contact(std::uint8_t a, std::uint8_t b, std::uint8_t c,
                     std::uint8_t d, std::uint16_t port = 6881) {
  dht::Contact out;
  out.endpoint = {Ipv4Address(a, b, c, d), port};
  return out;
}

RoutingTable two_as_routes() {
  RoutingTable routes;
  routes.announce(Ipv4Prefix::parse("16.0.0.0/8"), 1);
  routes.announce(Ipv4Prefix::parse("17.0.0.0/8"), 2);
  return routes;
}

/// One 6-public x 7-internal leakage cluster in AS1's 10X range: every
/// leaker reports the shared internal peer plus a private one.
struct LeakScenario {
  std::vector<dht::Contact> leakers;
  std::vector<std::pair<dht::Contact, dht::Contact>> leaks;

  LeakScenario() {
    const dht::Contact shared = contact(10, 0, 0, 7);
    for (std::uint8_t i = 1; i <= 6; ++i) {
      const dht::Contact leaker = contact(16, 0, 0, i);
      leakers.push_back(leaker);
      leaks.emplace_back(leaker, shared);
      leaks.emplace_back(leaker, contact(10, 0, 1, i));
    }
  }
};

TEST(StreamingBt, OrderIndependentAndMatchesBatch) {
  const RoutingTable routes = two_as_routes();
  const LeakScenario sc;

  analysis::StreamingBtAnalyzer forward(routes);
  for (const auto& c : sc.leakers) forward.note_queried(c);
  for (const auto& [leaker, internal] : sc.leaks)
    forward.note_leak(leaker, internal);

  analysis::StreamingBtAnalyzer reverse(routes);
  for (auto it = sc.leaks.rbegin(); it != sc.leaks.rend(); ++it)
    reverse.note_leak(it->first, it->second);
  for (auto it = sc.leakers.rbegin(); it != sc.leakers.rend(); ++it)
    reverse.note_queried(*it);
  // Duplicate events must not perturb set/tally state.
  reverse.note_queried(sc.leakers.front());
  reverse.note_leak(sc.leaks.front().first, sc.leaks.front().second);

  const analysis::BtDetectionResult a = forward.snapshot();
  const analysis::BtDetectionResult b = reverse.snapshot();
  EXPECT_EQ(analysis::fig04_figures(a), analysis::fig04_figures(b));
  ASSERT_TRUE(a.per_as.contains(1));
  const auto& va = a.per_as.at(1);
  const auto& vb = b.per_as.at(1);
  EXPECT_TRUE(va.cgn_positive) << "6x7 cluster crosses the 5x5 boundary";
  for (std::size_t r = 0; r < netcore::kReservedRangeCount; ++r) {
    EXPECT_EQ(va.largest[r].public_ips, vb.largest[r].public_ips);
    EXPECT_EQ(va.largest[r].internal_ips, vb.largest[r].internal_ips);
  }

  // The batch detector delegates to the same engine: same dataset, same
  // result.
  crawler::CrawlDataset data;
  for (const auto& c : sc.leakers) data.note_queried(c);
  for (const auto& [leaker, internal] : sc.leaks)
    data.note_leak(leaker, internal);
  const analysis::BtDetectionResult batch =
      analysis::BtDetector().analyze(data, routes);
  EXPECT_EQ(analysis::fig04_figures(a), analysis::fig04_figures(batch));
  EXPECT_EQ(batch.per_as.at(1).cgn_positive, va.cgn_positive);
}

TEST(StreamingBt, VpnExclusivityRetractsSharedInternals) {
  const RoutingTable routes = two_as_routes();
  const LeakScenario sc;
  const dht::Contact shared = contact(10, 0, 0, 7);
  const dht::Contact as2_leaker = contact(17, 0, 0, 1);

  // Two ingest orders: the poisoning second-AS leak arriving last (forces a
  // retraction of already-linked edges) and first (edges are skipped on
  // arrival). Both must converge on the same post-filter state.
  analysis::StreamingBtAnalyzer late(routes);
  for (const auto& c : sc.leakers) late.note_queried(c);
  for (const auto& [leaker, internal] : sc.leaks)
    late.note_leak(leaker, internal);
  EXPECT_TRUE(late.snapshot().per_as.at(1).cgn_positive);
  late.note_leak(as2_leaker, shared);  // second AS poisons the shared peer

  analysis::StreamingBtAnalyzer early(routes);
  early.note_leak(as2_leaker, shared);
  for (const auto& c : sc.leakers) early.note_queried(c);
  for (const auto& [leaker, internal] : sc.leaks)
    early.note_leak(leaker, internal);

  for (const analysis::StreamingBtAnalyzer* s : {&late, &early}) {
    const analysis::BtDetectionResult r = s->snapshot();
    const auto& v = r.per_as.at(1);
    EXPECT_FALSE(v.cgn_positive)
        << "without the shared peer the cluster splits into 1x1 fragments";
    for (const auto& c : v.largest) EXPECT_LT(c.internal_ips, 5u);
  }
  EXPECT_EQ(analysis::fig04_figures(late.snapshot()),
            analysis::fig04_figures(early.snapshot()));
}

netalyzr::SessionResult session(netcore::Asn asn, std::uint8_t dev_octet,
                                std::uint8_t pub_octet, bool translated) {
  netalyzr::SessionResult s;
  s.asn = asn;
  s.ip_dev = Ipv4Address(192, 168, 1, dev_octet);
  s.ip_pub = Ipv4Address(16, 0, pub_octet, 1);
  // IPcpe != IPpub marks a candidate session (a NAT beyond the CPE).
  s.ip_cpe = translated ? Ipv4Address(10, 64, dev_octet, 1) : *s.ip_pub;
  return s;
}

TEST(StreamingNz, OrderIndependentAndMatchesBatch) {
  const RoutingTable routes = two_as_routes();
  std::vector<netalyzr::SessionResult> sessions;
  for (std::uint8_t i = 0; i < 12; ++i)
    sessions.push_back(session(1, i, static_cast<std::uint8_t>(i % 7), true));
  for (std::uint8_t i = 0; i < 11; ++i)
    sessions.push_back(session(1, i, 1, false));

  analysis::StreamingNetalyzrClassifier forward(routes);
  for (const auto& s : sessions) forward.ingest(s);
  analysis::StreamingNetalyzrClassifier reverse(routes);
  for (auto it = sessions.rbegin(); it != sessions.rend(); ++it)
    reverse.ingest(*it);

  const analysis::NetalyzrDetectionResult a = forward.snapshot();
  const analysis::NetalyzrDetectionResult b = reverse.snapshot();
  EXPECT_EQ(analysis::fig05_figures(a), analysis::fig05_figures(b));
  ASSERT_TRUE(a.per_as.contains(1));
  EXPECT_TRUE(a.per_as.at(1).covered) << "23 sessions clear the >=10 bar";
  EXPECT_EQ(a.per_as.at(1).cgn_positive, b.per_as.at(1).cgn_positive);

  const analysis::NetalyzrDetectionResult batch =
      analysis::NetalyzrDetector().analyze(sessions, routes);
  EXPECT_EQ(analysis::fig05_figures(a), analysis::fig05_figures(batch));
}

// --- observatory: HTTP server over real sockets -----------------------------

std::string http_get(std::uint16_t port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr),
            0);
  EXPECT_GT(::send(fd, request.data(), request.size(), 0), 0);
  std::string response;
  char buf[1024];
  for (;;) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(HttpServerTest, ServesRoutesOverRealSockets) {
  observatory::HttpServer server;
  std::string error;
  const bool started = server.start(
      0,
      [](const std::string& path) {
        if (path == "/hello")
          return observatory::HttpResponse{200, "text/plain", "hi\n"};
        return observatory::HttpResponse{404, "text/plain", "nope\n"};
      },
      &error);
  if (!started) GTEST_SKIP() << "cannot bind loopback: " << error;
  ASSERT_NE(server.port(), 0);

  const std::string ok = http_get(server.port(), "GET /hello HTTP/1.0\r\n\r\n");
  EXPECT_NE(ok.find("HTTP/1.0 200 OK"), std::string::npos) << ok;
  EXPECT_NE(ok.find("Content-Length: 3"), std::string::npos);
  EXPECT_NE(ok.find("\r\n\r\nhi\n"), std::string::npos);

  // Query strings are stripped before dispatch.
  const std::string query =
      http_get(server.port(), "GET /hello?x=1 HTTP/1.0\r\n\r\n");
  EXPECT_NE(query.find("200 OK"), std::string::npos);

  const std::string missing =
      http_get(server.port(), "GET /other HTTP/1.0\r\n\r\n");
  EXPECT_NE(missing.find("404 Not Found"), std::string::npos);

  const std::string post =
      http_get(server.port(), "POST /hello HTTP/1.0\r\n\r\n");
  EXPECT_NE(post.find("405 Method Not Allowed"), std::string::npos);

  EXPECT_EQ(server.requests_served(), 4u);
  server.stop();
  EXPECT_FALSE(server.running());
}

// --- observatory: endpoint bodies ------------------------------------------

TEST(ObservatoryEndpoint, HealthAndFigures) {
  const RoutingTable routes = two_as_routes();
  const netcore::AsRegistry registry;
  observatory::Observatory obs(routes, registry);

  obs.add_stream_total(5);
  observatory::StreamEvent e;
  e.kind = observatory::StreamEvent::Kind::bt_queried;
  e.contact = contact(16, 0, 0, 1);
  e.time = 1.0;
  obs.ingest(e);
  e.time = 15.0;
  obs.ingest(e);

  EXPECT_EQ(obs.events_ingested(), 2u);
  EXPECT_EQ(obs.stream_total(), 5u);
  EXPECT_FALSE(obs.stream_done());

  const observatory::HttpResponse health = obs.handle("/health");
  EXPECT_EQ(health.status, 200);
  EXPECT_NE(health.body.find("\"status\":\"streaming\""), std::string::npos)
      << health.body;
  EXPECT_NE(health.body.find("\"virtual_time_s\":15"), std::string::npos)
      << "virtual time follows the latest event";
  EXPECT_NE(health.body.find("\"lag\":3"), std::string::npos);

  super::CampaignReport report;
  report.shards.resize(2);
  report.shards[0].status = super::ShardStatus::completed;
  report.shards[1].status = super::ShardStatus::quarantined;
  obs.note_campaign_report("crawl_ping", report);
  obs.note_stream_done();
  const std::string health2 = obs.handle("/health").body;
  EXPECT_NE(health2.find("\"crawl_ping\":{\"planned\":2"), std::string::npos);
  EXPECT_NE(health2.find("\"quarantined\":1"), std::string::npos);
  EXPECT_NE(health2.find("\"degraded\":true"), std::string::npos);
  EXPECT_NE(health2.find("\"status\":\"complete\""), std::string::npos);

  const observatory::HttpResponse figures = obs.handle("/figures");
  EXPECT_EQ(figures.status, 200);
  for (const char* key :
       {"fig04_clusters", "fig05_netalyzr_candidates", "tab05_coverage"})
    EXPECT_NE(figures.body.find(key), std::string::npos) << figures.body;

  if (obs::kMetricsEnabled) {
    const observatory::HttpResponse metrics = obs.handle("/metrics");
    EXPECT_NE(metrics.body.find("cgn_observatory_ingest_lag 3"),
              std::string::npos)
        << "probe must report announced-but-not-ingested events";
    EXPECT_NE(metrics.content_type.find("version=0.0.4"), std::string::npos);
  }

  obs::TraceRing ring(8);
  ring.push({7, 12, static_cast<std::uint8_t>(sim::Network::TraceKind::dropped),
             static_cast<std::uint8_t>(sim::DropReason::ttl_expired), 3.5});
  obs.capture_trace(ring);
  const std::string trace = obs.handle("/trace").body;
  EXPECT_NE(trace.find("\"captured\":1"), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"drop_reason\":\"ttl_expired\""), std::string::npos);

  EXPECT_EQ(obs.handle("/nope").status, 404);
  EXPECT_EQ(obs.handle("/").status, 200);
}

}  // namespace
}  // namespace cgn
